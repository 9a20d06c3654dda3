"""Answer checks and input properties, run in the parent process.

The parent never imports homred.  Every answer is decoded from the
worker's hex encoding and compared as an exact number with the value
:mod:`oracles` computes from the job's generator data.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

import oracles

# walk-table rows: label -> vertex id in the 58-vertex tree
WALK_ROWS = {"w": 0, "x0": 1, "x1": 2, "x2_1": 3, "y0": 8, "y1": 9, "y2_1": 10,
             "y3_1_1": 11, "z0": 26, "z1": 27, "z2_1": 28, "z3_1_1": 29, "z4_1_1_1": 30}


def decode(x):
    if isinstance(x, dict):
        if set(x) == {"int"}:
            return int(x["int"], 16)
        if set(x) == {"num", "den"}:
            return Fraction(int(x["num"], 16), int(x["den"], 16))
        return {k: decode(v) for k, v in x.items()}
    if isinstance(x, list):
        return [decode(v) for v in x]
    return x


@lru_cache(maxsize=None)
def target_adj(spec: str):
    if spec == "j3star":
        return oracles.j3star_adj()
    return oracles.junction_adj(int(spec.split(":")[1]))


def _potts_gamma(p: int, k: int, lam) -> Fraction:
    return Fraction(lam) ** -(p ** (k - 1) * (p - 1)) - 1


def _expect(got, want, what: str):
    return None if got == want else f"{what}: got {got!r:.80}, want {want!r:.80}"


# ---------------------------------------------------------------------------


def check_hom_core(c, got):
    adj = target_adj(c["target"])
    rows = c["rows"]
    fam = c["family"]
    if fam == "cycle":
        want = oracles.cycle_hom(c["order"], adj, rows)
    elif fam == "ladder":
        want = oracles.ladder_hom(c["top"], c["bottom"], adj, rows)
    else:
        want = oracles.sp_hom(c["tree"], c["terminals"], c["pendants"], c["n"], adj, rows)
    return _expect(Fraction(got), want, "count")


def check_certify(c, got):
    if got["passed"] is not True:
        return "verify_certificate reported passed: false"
    kind = c["kind"]
    if kind in ("j3-tree", "j3-cyclic", "cut-whom"):
        b, ncuts = oracles.min_cuts(c["n"], c["edges"], c["terminals"])
        return (_expect(got["b"], b, "b") or _expect(got["min_cuts"], ncuts, "min_cuts")
                or _expect(got["lower"], ncuts, "lower"))
    if kind == "potts-jq":
        want = oracles.potts_sum(c["n"], c["edges"], c["q"], 1)
    else:
        want = oracles.potts_sum(c["n"], c["hyperedges"], c["q"], c["gamma"])
    return _expect(got["lower"], want, "oracle value")


def check_enumerate(c, got):
    kind = c["kind"]
    if kind in ("potts3", "potts4", "hyper"):
        want = oracles.potts_sum(c["n"], c["hyperedges"], c["q"], c["gamma"])
        return _expect(got, want, "Potts sum")
    if kind == "cuts":
        return _expect(tuple(got), oracles.min_cuts(c["n"], c["edges"], c["terminals"]), "cuts")
    if kind == "wenum":
        want = oracles.potts_code_enumerator(c["n"], c["edges"], c["p"], c["k"], c["lam"])
        return _expect(got, want, "weight enumerator")
    if got["match"] is not True:
        return "verify_potts_we reported match: false"
    q = c["p"] ** c["k"]
    want = oracles.potts_sum(c["n"], c["edges"], q, _potts_gamma(c["p"], c["k"], c["lam"]))
    return _expect(got["potts"], want, "Potts side")


def _fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_cli(c, got):
    if got["rc"] != 0:
        return f"exit {got['rc']}: {got['stderr'].strip()[-200:]}"
    if got.get("same") is not True:
        return "stdout differs from the same command run in-process"
    out = got["stdout"]
    kind = c["kind"]
    if kind in ("hom-tree", "hom-path", "whom"):
        want = oracles.tree_hom(c["n"], c["edges"], target_adj("j3star"), c["rows"])
        return _expect(Fraction(out.strip()), want, "count")
    if kind.startswith("classify"):
        return _expect(out.strip(), oracles.classify_tree(c["n"], c["edges"]), "class")
    if kind in ("csp", "wcsp"):
        want = oracles.csp_tree_count(c["nvars"], c["links"], set(c["pins0"]), set(c["pins1"]), c["weights"])
        return _expect(Fraction(out.strip()), want, "count")
    if kind == "compile":
        m = re.search(r"plain count of this instance = (\d+) \* weighted count", out)
        scale = 1
        for g0, g1 in c["weights"].values():
            scale *= lcm(Fraction(g0).denominator, Fraction(g1).denominator)
        return _expect(int(m.group(1)) if m else None, scale, "scale")
    if kind == "cuts":
        want = oracles.min_cuts(c["n"], c["edges"], c["terminals"])
        return _expect(tuple(int(x) for x in out.split()), want, "cuts")
    if kind == "whom-csp":
        adj = oracles.adj_lists(c["target_n"], c["target_edges"])
        want = oracles.tree_hom(c["n"], c["edges"], adj, c["rows"])
        return _expect(Fraction(_fields(out).get("value", "nan")), want, "value")
    if kind == "walk":
        adj = target_adj("j3star")
        rows = {}
        for line in out.splitlines()[1:]:
            label, *nums = line.split()
            rows[label] = tuple(int(x) for x in nums)
        want = {label: oracles.walk_profile(adj, v) for label, v in WALK_ROWS.items()}
        return _expect(rows, want, "walk table")
    fields = _fields(out)
    if fields.get("passed") != "yes":
        return "verify certificate did not pass"
    _, ncuts = oracles.min_cuts(c["n"], c["edges"], c["terminals"])
    return _expect(Fraction(fields.get("lower", "nan")), ncuts, "lower")


CHECKS = {"hom-core": check_hom_core, "certify": check_certify,
          "enumerate": check_enumerate, "cli": check_cli}


def check(workload: str, c, result) -> str | None:
    """None when the answer is right, else the reason it is not."""
    try:
        return CHECKS[workload](c, decode(result))
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# input properties later claims can cite


def properties(workload: str, checks, results) -> dict:
    n = len(checks)
    kinds: dict[str, int] = {}
    for c in checks:
        key = c.get("family") or c.get("kind")
        kinds[key] = kinds.get(key, 0) + 1
    props: dict = {"jobs": n, "kinds": kinds}
    if workload == "hom-core":
        core = pend = 0
        for c in checks:
            a, b = oracles.core_and_pendant(c["n"], c["edges"])
            core += a
            pend += b
        bits = [Fraction(decode(r)).numerator.bit_length() for r in results if r is not None]
        h = {}
        for c in checks:
            adj = target_adj(c["target"])
            h[c["target"]] = {"h": len(adj), "density": sum(map(len, adj)) / len(adj) ** 2}
        props.update(
            weighted_share=sum(1 for c in checks if c["rows"]) / n,
            core_vertices_mean=core / n,
            pendant_vertices_mean=pend / n,
            targets=h,
            result_bits_mean=sum(bits) / max(1, len(bits)),
            result_bits_max=max(bits, default=0),
        )
    elif workload == "certify":
        res = [decode(r) for r in results if r is not None]
        props.update(
            cert_bytes_mean=sum(r["cert_bytes"] for r in res) / max(1, len(res)),
            emitted_bytes_mean=sum(r["emitted_bytes"] for r in res) / max(1, len(res)),
            value_bits_max=max((r["value_bits"] for r in res), default=0),
            cyclic_cut_share=kinds.get("j3-cyclic", 0) / n,
        )
    elif workload == "enumerate":
        steps = 0
        for c in checks:
            kind = c["kind"]
            if kind in ("potts3", "potts4", "hyper"):
                steps += c["q"] ** c["n"]
            elif kind == "cuts":
                m = len(c["edges"])
                b, _ = oracles.min_cuts(c["n"], c["edges"], c["terminals"])
                steps += sum(comb(m, j) for j in range(b + 1))
            else:
                words = c["p"] ** (c["k"] * (c["n"] - 1))
                steps += words + ((c["p"] ** c["k"]) ** c["n"] if kind == "potts-we" else 0)
        props.update(enumeration_steps_mean=steps / n)
    else:
        props.update(input_bytes_mean=sum(c.get("input_bytes", 0) for c in checks) / n)
    return props
