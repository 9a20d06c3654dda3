"""End-to-end command line checks: text output, JSON reports, exit codes."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import homred
from homred.cli import main
from homred.csp import WeightedCspInstance, count_wcsp
from homred.formats import parse_csp, parse_graph, parse_weights
from homred.gadgets import ReductionCertificate

GOLDEN = pathlib.Path(__file__).parent / "golden"

K2 = "graph 2 1\ne 0 1\n"
P3 = "graph 3 2\ne 0 1\ne 1 2\n"
STAR3 = "graph 4 3\ne 0 1\ne 0 2\ne 0 3\n"
WCSP = "csp 2 1\nimp 0 1\nwt 0 5 2\nwt 1 1 1\n"
HYPER = "hypergraph 4 3\nh 2 0 1\nh 3 1 2 3\nh 2 2 3\n"
CODE = "code 3 1 3\n0 1 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_hom_plain(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    code, out, err = run(capsys, "hom", "--target", "p4", g)
    assert code == 0
    assert out == "6\n"
    assert err == ""


def test_hom_json_payload(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "hom", "--target", "p4", "--json", g)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "hom"
    assert payload["count"] == "6"
    digest = hashlib.sha256(K2.encode()).hexdigest()
    assert payload["inputs"] == {g: digest}


def test_classify(tmp_path, capsys):
    g = put(tmp_path, "star.graph", STAR3)
    code, out, _ = run(capsys, "classify", "--tree", g)
    assert code == 0 and out == "Star\n"


def test_classify_large_caterpillar(tmp_path, capsys):
    # 1,000 spine vertices with one leaf each: no vertex has three
    # non-leaf neighbours, so the tree is junction-free but not a star
    k = 1000
    edges = [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]
    text = f"graph {2 * k} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    g = put(tmp_path, "caterpillar.graph", text)
    code, out, _ = run(capsys, "classify", "--tree", g)
    assert code == 0 and out == "BisEquivalent\n"


def test_whom_with_weights(tmp_path, capsys):
    g = put(tmp_path, "p3.graph", P3)
    w = put(tmp_path, "p3.weights", "weights 3 4\nw 1 0 1 1 0\n")
    code, out, _ = run(capsys, "whom", "--target", "p4", "--weights", w, g)
    assert code == 0
    # middle vertex restricted to the two inner target vertices
    assert out == "8\n"
    code, out, _ = run(capsys, "whom", "--target", "p4", g)
    assert (code, out) == (0, "10\n")


def test_potts_and_hyperpotts(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "potts", "-q", "3", "--gamma", "1", g)
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "potts", "-q", "2", "--gamma", "1/2", g)
    assert (code, out) == (0, "5\n")
    hg = put(tmp_path, "mixed.hypergraph", HYPER)
    code, out, _ = run(capsys, "hyperpotts", "-q", "2", "--gamma", "1/2", hg)
    assert (code, out) == (0, "115/4\n")


def test_qcol(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "qcol", "-q", "4", g)
    assert (code, out) == (0, "12\n")


def test_csp_count_modes(tmp_path, capsys):
    plain = put(tmp_path, "plain.csp", "csp 2 1\nimp 0 1\n")
    code, out, _ = run(capsys, "csp-count", plain)
    assert (code, out) == (0, "3\n")
    weighted = put(tmp_path, "weighted.csp", WCSP)
    code, _, err = run(capsys, "csp-count", weighted)
    assert code == 2
    assert "wt lines" in err
    code, out, _ = run(capsys, "wcsp-count", weighted)
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "wcsp-count", plain)
    assert (code, out) == (0, "3\n")


def test_cuts(tmp_path, capsys):
    g = put(tmp_path, "star.graph", STAR3)
    code, out, _ = run(capsys, "cuts", "--terminals", "1,2,3", g)
    assert (code, out) == (0, "2 3\n")


def test_wenum(tmp_path, capsys):
    m = put(tmp_path, "tern.code", CODE)
    code, out, _ = run(capsys, "wenum", "--lambda", "1/2", m)
    assert (code, out) == (0, "3/2\n")
    code, out, _ = run(capsys, "wenum", "-p", "3", "--lambda", "1/2", m)
    assert (code, out) == (0, "3/2\n")
    code, _, err = run(capsys, "wenum", "-p", "2", "--lambda", "1/2", m)
    assert code == 2 and "disagrees" in err


def test_walk_table_golden(capsys):
    code, out, _ = run(capsys, "walk-table")
    assert code == 0
    assert out == (GOLDEN / "walk_table.txt").read_text()


def test_compile_weights(tmp_path, capsys):
    src = put(tmp_path, "gadget.csp", WCSP)
    out_file = str(tmp_path / "compiled.csp")
    code, out, _ = run(capsys, "compile-weights", "-o", out_file, src)
    assert code == 0
    text = pathlib.Path(out_file).read_text()
    assert text.startswith("# weight gadget compilation")
    assert "original variable 0" in text
    compiled = parse_csp(pathlib.Path(out_file).read_text())
    assert not isinstance(compiled, WeightedCspInstance)
    # plain count of the compiled gadget recovers the weighted count
    from homred.csp import count_csp

    assert count_csp(compiled) == 12


def test_compile_weights_stdout(tmp_path, capsys):
    src = put(tmp_path, "gadget.csp", WCSP)
    code, out, _ = run(capsys, "compile-weights", src)
    assert code == 0
    assert "# variable roles:" in out
    assert "csp " in out


def test_reduce_cut_to_whom_round_trip(tmp_path, capsys):
    g = put(tmp_path, "star.graph", STAR3)
    prefix = str(tmp_path / "cut")
    code, out, _ = run(
        capsys, "reduce", "cut-to-whom", "--terminals", "1,2,3",
        "--target", "jq:3", "--s", "2", "--out", prefix, g,
    )
    assert code == 0
    assert "s: 2" in out and "min_cuts: 3" in out
    mg = parse_graph(pathlib.Path(prefix + ".graph").read_text())
    mwt = parse_weights(pathlib.Path(prefix + ".weights").read_text())
    assert mg.n == 4 + 3 * 2 and mwt.n == mg.n
    cert = ReductionCertificate.from_json(pathlib.Path(prefix + ".cert.json").read_text())
    assert cert.kind == "cut-to-whom"
    # the star's ratio is exact at every s, so this verifies clean
    code, out, _ = run(capsys, "verify", "certificate", prefix + ".cert.json")
    assert code == 0
    assert "passed: yes" in out and "recovered: 3" in out
    code, out, _ = run(capsys, "verify", "certificate", "--materialise", prefix + ".cert.json")
    assert code == 0
    assert "materialised_ok: yes" in out


def test_reduce_potts_to_jq(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    prefix = str(tmp_path / "pj")
    code, out, _ = run(capsys, "reduce", "potts-to-jq", "-q", "3", "--out", prefix, g)
    assert code == 0
    assert "s: 19" in out
    code, out, _ = run(capsys, "verify", "certificate", "--json", prefix + ".cert.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["recovered"] == 12
    assert payload["typical_ok"] is True


def test_reduce_jq_to_hyperpotts(tmp_path, capsys):
    g = put(tmp_path, "p3.graph", P3)
    prefix = str(tmp_path / "jh")
    code, out, _ = run(
        capsys, "reduce", "jq-to-hyperpotts", "-q", "3", "--side", "right", "--out", prefix, g
    )
    assert code == 0
    assert "occupied: 1" in out
    code, _, _ = run(capsys, "verify", "certificate", prefix + ".cert.json")
    assert code == 0


def test_reduce_uniformize(tmp_path, capsys):
    hg = put(tmp_path, "mixed.hypergraph", HYPER)
    prefix = str(tmp_path / "uni")
    code, out, _ = run(
        capsys, "reduce", "uniformize", "-q", "2", "--gamma", "1/2", "--out", prefix, hg
    )
    assert code == 0
    assert "t: 3" in out and "s: 24" in out
    code, _, _ = run(capsys, "verify", "certificate", prefix + ".cert.json")
    assert code == 0


def test_reduce_cut_to_j3star_undersized(tmp_path, capsys):
    g = put(tmp_path, "star.graph", STAR3)
    prefix = str(tmp_path / "j3")
    code, out, _ = run(
        capsys, "reduce", "cut-to-j3star", "--terminals", "1,2,3",
        "--s", "1", "--r", "1", "--out", prefix, g,
    )
    assert code == 0  # emission succeeds; the guarantee is what fails
    code, out, _ = run(capsys, "verify", "certificate", prefix + ".cert.json")
    assert code == 1
    assert "passed: no" in out


def test_reduce_cut_to_j3star_defaults(tmp_path, capsys):
    # default s and r produce a scale of ~5700 decimal digits; emission,
    # the certificate file, and verification must all cope with it
    g = put(tmp_path, "star.graph", STAR3)
    prefix = str(tmp_path / "j3full")
    code, out, _ = run(
        capsys, "reduce", "cut-to-j3star", "--terminals", "1,2,3",
        "--out", prefix, g,
    )
    assert code == 0
    assert "s: 14" in out
    assert "r: 1555" in out
    code, out, _ = run(capsys, "verify", "certificate", prefix + ".cert.json")
    assert code == 0
    assert "passed: yes" in out
    assert "recovered: 3" in out


def test_reduce_whom_to_csp_long_path_target(tmp_path, capsys):
    path = "graph 1500 1499\n" + "".join(f"e {i} {i + 1}\n" for i in range(1499))
    target = put(tmp_path, "p1500.graph", path)
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "reduce", "whom-to-csp", "--target", "file:" + target,
                       "--out", str(tmp_path / "wc"), g)
    assert code == 0
    assert "value: 2998" in out


def test_reduce_whom_to_csp_branches_without_recursion(tmp_path, capsys):
    # the branching in count_wcsp goes one level deeper per chain level
    path = "graph 3000 2999\n" + "".join(f"e {i} {i + 1}\n" for i in range(2999))
    target = put(tmp_path, "p3000.graph", path)
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "reduce", "whom-to-csp", "--target", "file:" + target,
                       "--out", str(tmp_path / "wc"), g)
    assert code == 0
    assert "value: 5998" in out


def test_reduce_whom_to_csp_long_weights(tmp_path, capsys):
    # 3,000-digit weights give 6,000-digit level ratios in the emitted csp files
    big, small = "7" * 3000, "1/" + "3" * 3000
    w = put(tmp_path, "long.weights",
            f"weights 2 4\nw 0 {big} 1 {small} 1\nw 1 {big} 1 {small} 1\n")
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "reduce", "whom-to-csp", "--target", "p4", "--weights", w,
                       "--out", str(tmp_path / "wc"), g)
    assert code == 0
    code, whom, _ = run(capsys, "whom", "--target", "p4", "--weights", w, g)
    assert code == 0 and f"value: {whom}" in out


def test_reduce_whom_to_csp(tmp_path, capsys):
    g = put(tmp_path, "p3.graph", P3)
    prefix = str(tmp_path / "wc")
    code, out, _ = run(capsys, "reduce", "whom-to-csp", "--target", "p4", "--out", prefix, g)
    assert code == 0
    assert "value: 10" in out
    own = parse_csp(pathlib.Path(prefix + ".own.csp").read_text())
    swap = parse_csp(pathlib.Path(prefix + ".swap.csp").read_text())
    assert isinstance(own, WeightedCspInstance)
    assert count_wcsp(own) + count_wcsp(swap) == 10
    sidecar = json.loads(pathlib.Path(prefix + ".json").read_text())
    assert sidecar["value"] == "10"
    assert sidecar["left"] == [0, 2] and sidecar["right"] == [1]
    assert sidecar["order"]["U"] == [0, 2]
    assert all(len(t) == 3 for t in sidecar["own"]["layout"])


def test_verify_certificate_tampered(tmp_path, capsys):
    g = put(tmp_path, "star.graph", STAR3)
    prefix = str(tmp_path / "cut")
    run(capsys, "reduce", "cut-to-whom", "--terminals", "1,2,3",
        "--target", "jq:3", "--s", "2", "--out", prefix, g)
    cert_path = pathlib.Path(prefix + ".cert.json")
    payload = json.loads(cert_path.read_text())
    payload["constants"]["b"] = 1
    cert_path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "certificate", str(cert_path))
    assert code == 1
    assert "constants_ok: no" in out


def _hostile_certificate(tmp_path, capsys, edit):
    """A cut-to-whom certificate of P3, edited, then verified."""
    g = put(tmp_path, "p3.graph", P3)
    prefix = str(tmp_path / "p3cut")
    code, _, _ = run(capsys, "reduce", "cut-to-whom", "--terminals", "0,1,2",
                     "--target", "jq:3", "--out", prefix, g)
    assert code == 0
    cert_path = pathlib.Path(prefix + ".cert.json")
    payload = json.loads(cert_path.read_text())
    edit(payload)
    cert_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "certificate", str(cert_path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: malformed certificate: ")
    return err


def _oversized_j3star_certificate(tmp_path, capsys, key):
    """A default cut-to-j3star certificate of P3 with inputs[key] = 10^7."""
    g = put(tmp_path, "p3.graph", P3)
    prefix = str(tmp_path / "p3j3")
    code, out, _ = run(capsys, "reduce", "cut-to-j3star", "--terminals", "0,1,2",
                       "--out", prefix, g)
    assert code == 0 and "s: 11" in out and "r: 945" in out
    cert_path = pathlib.Path(prefix + ".cert.json")
    payload = json.loads(cert_path.read_text())
    payload["inputs"][key] = 10**7
    cert_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "certificate", str(cert_path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: certificate value estimated at ")
    return int(err.split()[5])


def test_verify_certificate_refuses_huge_r(tmp_path, capsys):
    assert _oversized_j3star_certificate(tmp_path, capsys, "r") > 10**8


def test_verify_certificate_refuses_huge_s(tmp_path, capsys):
    assert _oversized_j3star_certificate(tmp_path, capsys, "s") > 10**7


def test_import_keeps_the_int_digit_limit():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(pathlib.Path(homred.__file__).parents[1])
    probe = "import sys, homred.cli; print(sys.get_int_max_str_digits())"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "4300\n"


def test_verify_certificate_long_gamma(tmp_path, capsys):
    # a 5,000-digit gamma parses, and the value bound then refuses it
    hg = put(tmp_path, "mixed.hypergraph", HYPER)
    prefix = str(tmp_path / "uni")
    code, _, _ = run(capsys, "reduce", "uniformize", "-q", "2", "--gamma", "1/2",
                     "--s", "200", "--out", prefix, hg)
    assert code == 0
    cert_path = pathlib.Path(prefix + ".cert.json")
    payload = json.loads(cert_path.read_text())
    payload["inputs"]["gamma"] = "7" * 5000
    cert_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "certificate", str(cert_path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: certificate value estimated at ")


def test_verify_certificate_integer_above_the_digit_bound(tmp_path, capsys):
    g = put(tmp_path, "p3.graph", P3)
    prefix = str(tmp_path / "p3cut")
    code, _, _ = run(capsys, "reduce", "cut-to-whom", "--terminals", "0,1,2",
                     "--target", "jq:3", "--out", prefix, g)
    assert code == 0
    cert_path = pathlib.Path(prefix + ".cert.json")
    payload = json.loads(cert_path.read_text())
    payload["inputs"]["s"] = "DIGITS"
    cert_path.write_text(json.dumps(payload).replace('"DIGITS"', "9" * 700_000))
    code, out, err = run(capsys, "verify", "certificate", str(cert_path))
    assert code == 2 and out == ""
    assert err == "error: malformed certificate: a number has more than 631307 digits\n"


def test_graph_header_with_5000_digits(tmp_path, capsys):
    g = put(tmp_path, "huge.graph", "graph " + "9" * 5000 + " 0\n")
    code, out, err = run(capsys, "hom", "--target", "p4", g)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "line 1: expected integer" in err


def test_graph_header_above_the_vertex_bound(tmp_path, capsys):
    g = put(tmp_path, "big.graph", "graph 1000000000 0\n")
    code, out, err = run(capsys, "hom", g, "--target", "j3star")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "1000000000 vertices, above the limit" in err


def test_csp_header_above_the_variable_bound(tmp_path, capsys):
    c = put(tmp_path, "big.csp", "csp 1000000000 0\n")
    code, out, err = run(capsys, "csp-count", c)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "1000000000 variables, above the limit of 1000000" in err


@pytest.mark.parametrize("command", [
    pytest.param(["wenum", "--lambda", "1/2", "{code}"], id="wenum"),
    pytest.param(["verify", "potts-we", "-p", "1000000000000000003", "-k", "1",
                  "--lambda", "1/2", "{graph}"], id="potts-we"),
])
def test_huge_field_order_is_refused(tmp_path, capsys, command):
    # a prime: trial division up to its square root would take ~10^9 steps
    files = {"code": put(tmp_path, "bigp.code", "code 1000000000000000003 1 1\n1\n"),
             "graph": put(tmp_path, "k2.graph", K2)}
    code, out, err = run(capsys, *(a.format(**files) for a in command))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "field order 1000000000000000003 is above the limit of 1000000000000" in err


def test_verify_potts_we_refuses_a_large_field_before_building(tmp_path, capsys):
    # a prime below the field limit: the build would make q = p forms
    g = put(tmp_path, "k2.graph", K2)
    code, out, err = run(capsys, "verify", "potts-we", "-p", "999999999989", "-k", "1",
                         "--lambda", "1/2", g)
    assert code == 2 and out == ""
    assert err == ("error: Potts sum on 2 vertices with q=999999999989 needs "
                   "999999999978000000000121 enumeration steps, above the cap of 100000000\n")


def test_verify_potts_we_refuses_a_huge_k_before_building(tmp_path, capsys):
    # 2^100000000 forms; the refusal never computes p^k
    g = put(tmp_path, "k2.graph", K2)
    code, out, err = run(capsys, "verify", "potts-we", "-p", "2", "-k", "100000000",
                         "--lambda", "1/2", g)
    assert code == 2 and out == ""
    assert err == ("error: Potts sum on 2 vertices with q=2^100000000 needs 2^200000000 "
                   "enumeration steps, above the cap of 100000000\n")


def test_verify_potts_we_refuses_a_long_code_by_its_work(tmp_path, capsys):
    # 2^13 codewords are under the cap, but each is 8192 coordinates long
    g = put(tmp_path, "k2.graph", K2)
    code, out, err = run(capsys, "verify", "potts-we", "-p", "2", "-k", "13", "--lambda", "1/2", g)
    assert code == 2 and out == ""
    assert err == ("error: weight enumerator of a rank-13 code of length 8192 over F_2 needs "
                   f"{2**13 * 13 * 8192} enumeration steps, above the cap of 100000000\n")


def test_enum_cap_variable_is_ignored(tmp_path, capsys, monkeypatch):
    g = put(tmp_path, "k2.graph", K2)
    want = run(capsys, "potts", "-q", "3", "--gamma", "1", g)
    monkeypatch.setenv("HOMRED_ENUM_CAP", "abc")
    assert run(capsys, "potts", "-q", "3", "--gamma", "1", g) == want
    monkeypatch.setenv("HOMRED_ENUM_CAP", "1")
    assert run(capsys, "potts", "-q", "3", "--gamma", "1", g) == want


@pytest.mark.parametrize("spec", ["star:100000000", "jq:500000"])
def test_target_spec_above_the_vertex_bound(tmp_path, capsys, spec):
    g = put(tmp_path, "p3.graph", P3)
    code, out, err = run(capsys, "hom", g, "--target", spec)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "above the limit of 1000000" in err


@pytest.mark.parametrize("gamma", ["1/100000000000000000000", "1/1000000000"])
def test_reduce_uniformize_refuses_a_gamma_too_close_to_zero(tmp_path, capsys, gamma):
    hg = put(tmp_path, "h.hg", HYPER)
    prefix = str(tmp_path / "p")
    code, out, err = run(capsys, "reduce", "uniformize", "-q", "2", "--gamma", gamma, "--out", prefix, hg)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "would exceed 2097152 bits" in err
    assert not (tmp_path / "p.cert.json").exists()


def test_verify_certificate_missing_input(tmp_path, capsys):
    err = _hostile_certificate(tmp_path, capsys, lambda c: c["inputs"].pop("s"))
    assert "inputs.s is missing" in err


def test_verify_certificate_non_integer_edge(tmp_path, capsys):
    def edit(c):
        c["inputs"]["graph"]["edges"][0] = [0, "x"]

    err = _hostile_certificate(tmp_path, capsys, edit)
    assert "inputs.graph" in err


def test_verify_certificate_fractional_q(tmp_path, capsys):
    def edit(c):
        c["kind"] = "potts-to-jq"
        c["inputs"] = {"graph": c["inputs"]["graph"], "q": 3.5, "s": 2}

    err = _hostile_certificate(tmp_path, capsys, edit)
    assert "inputs.q is not an integer" in err


def test_verify_potts_we(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "verify", "potts-we", "-p", "3", "-k", "1", "--lambda", "1/2", g)
    assert code == 0
    assert "potts: 18" in out and "enumerator: 3/2" in out and "passed: yes" in out
    code, _, err = run(capsys, "verify", "potts-we", "-p", "3", "-k", "1", "--lambda", "2", g)
    assert code == 2 and "strictly between" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "hom", "--target", "p4", "/nonexistent/g.graph")
    assert code == 2
    assert err.startswith("error:")


def test_parse_error_reports_path_and_line(tmp_path, capsys):
    g = put(tmp_path, "bad.graph", "graph 2 2\ne 0 1\nx 9 9\n")
    code, _, err = run(capsys, "hom", "--target", "p4", g)
    assert code == 2
    assert g in err and "line 3" in err


def test_bad_target_spec(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    code, _, err = run(capsys, "hom", "--target", "spiral", g)
    assert code == 2 and "target" in err


def test_file_target(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    h = put(tmp_path, "p4.graph", "graph 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    code, out, _ = run(capsys, "hom", "--target", "file:" + h, g)
    assert (code, out) == (0, "6\n")


def test_bad_terminals_argument(tmp_path, capsys):
    g = put(tmp_path, "star.graph", STAR3)
    with pytest.raises(SystemExit) as exc:
        main(["cuts", "--terminals", "1,2", g])
    assert exc.value.code == 2
    capsys.readouterr()


def test_timing_flag(tmp_path, capsys):
    g = put(tmp_path, "k2.graph", K2)
    code, out, _ = run(capsys, "hom", "--target", "p4", "--timing", g)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "6"
    assert lines[1].startswith("duration: ")
    code, out, _ = run(capsys, "hom", "--target", "p4", "--json", "--timing", g)
    assert "duration_seconds" in json.loads(out)
