"""The process that runs homred: one workload, closed loop, one client.

Started by run.py with the checkout's ``src`` first on PYTHONPATH.  It
imports homred, builds the fixed targets, then runs jobs 0, 1, 2, ...
of the workload back to back until their summed wall time reaches the
requested seconds.  Inputs are regenerated here from the seed before
each job and outside its timed region; only homred's own calls (or, for
``cli``, the homred child process) are timed.  With ``--trace 1`` the
first half of the time runs untraced and the same jobs are then run
again under the tracer, which gives both the per-layer numbers and the
tracing overhead on identical work.

Results go to ``--out`` as JSON: per-job times and encoded answers
(integers as hex, never as decimal strings), peak memory and, when
traced, the per-layer summary.  Checking answers is run.py's job.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from statistics import median

import oracles
import speed
import workloads
from tracer import LAYERS, Tracer

PROBES = 5  # fresh interpreters per spawn/import probe


class Homred:
    """The homred modules a workload uses, looked up at call time so the
    tracer's rebinding is seen."""

    def __init__(self, workload: str):
        for name in workloads.SETUP_MODULES[workload]:
            importlib.import_module(name)
        self.m = sys.modules
        graphs = self.m["homred.graphs"]
        self.targets = {"j3star": graphs.j3star_tree().graph}
        for q in workloads.JQ_RANGE:
            self.targets[f"jq:{q}"] = graphs.junction_tree(q).graph

    def __getattr__(self, short: str):
        return self.m["homred." + short]


# ---------------------------------------------------------------------------
# in-process jobs


def job_hom(hr: Homred, spec):
    G = hr.formats.parse_graph(spec["graph"])
    H = hr.targets[spec["target"]]
    if spec["weights"]:
        return hr.homcount.count_whom(G, H, hr.formats.parse_weights(spec["weights"]))
    return hr.homcount.count_hom(G, H)


def job_certify(hr: Homred, spec):
    """build -> materialise + format + to_json -> from_json -> verify."""
    F, g = hr.formats, hr.gadgets
    red = spec["reduction"]
    if red in ("cut-to-j3star", "cut-to-whom"):
        G = F.parse_graph(spec["graph"])
        cut = g.CutInstance(G, tuple(spec["terminals"]))
        if red == "cut-to-j3star":
            _, cert = g.build_cut_to_j3star(cut)
            c = cert.constants
            emitted = [F.format_graph(g.materialise_cut_to_j3star(cut, c["s"], c["r"]))]
        else:
            H = hr.targets[spec["target"]]
            _, cert = g.build_cut_to_whom(cut, H)
            mg, mwt = g.materialise_cut_to_whom(cut, H, cert.constants["s"])
            emitted = [F.format_graph(mg), F.format_weights(mwt)]
    elif red == "potts-to-jq":
        G = F.parse_graph(spec["graph"])
        _, cert = g.build_potts_to_jq(G, spec["q"])
        emitted = [F.format_graph(g.materialise_potts_to_jq(G, cert.constants["s"]))]
    elif red == "jq-to-hyperpotts":
        G = F.parse_graph(spec["graph"])
        built, cert = g.build_jq_to_hyperpotts(G, spec["q"], spec["side"])
        emitted = [F.format_hypergraph(built.hypergraph)]
    else:
        HG = F.parse_hypergraph(spec["hypergraph"])
        padded, cert = g.uniformize(HG, spec["q"], Fraction(spec["gamma"]))
        emitted = [F.format_hypergraph(padded)]
    text = cert.to_json()
    loaded = g.ReductionCertificate.from_json(text)
    report = g.verify_certificate(loaded)
    return {
        "passed": report["passed"],
        "lower": report["lower"],
        "value_bits": report["value"].numerator.bit_length(),
        "min_cuts": loaded.counters.get("min_cuts"),
        "b": loaded.constants.get("b"),
        "cert_bytes": len(text.encode()),
        "emitted_bytes": sum(len(t.encode()) for t in emitted),
    }


def job_enumerate(hr: Homred, spec):
    op = spec["op"]
    if op == "potts":
        return hr.potts.potts_graph(hr.formats.parse_graph(spec["graph"]), spec["q"], Fraction(spec["gamma"]))
    if op == "hyperpotts":
        HG = hr.formats.parse_hypergraph(spec["hypergraph"])
        return hr.potts.potts_hypergraph(HG, spec["q"], Fraction(spec["gamma"]))
    if op == "cuts":
        return list(hr.gadgets.multiterminal_cuts(hr.formats.parse_graph(spec["graph"]), tuple(spec["terminals"])))
    if op == "wenum":
        return hr.codes.weight_enumerator(hr.formats.parse_code(spec["code"]), Fraction(spec["lam"]))
    G = hr.formats.parse_graph(spec["graph"])
    rep = hr.codes.verify_potts_we(G, spec["p"], spec["k"], Fraction(spec["lam"]))
    return {"match": rep["match"], "potts": rep["potts"]}


IN_PROCESS = {"hom": job_hom, "certify": job_certify}


def run_in_process(hr: Homred, spec):
    return IN_PROCESS.get(spec["op"], job_enumerate)(hr, spec)


# ---------------------------------------------------------------------------
# cli jobs

_FIELD = re.compile(r"\{([^}]*)\}")


def cli_argv(args, workdir: Path) -> list[str]:
    return [_FIELD.sub(lambda m: str(workdir / m.group(1)), a) for a in args]


def homred_cli(args, workdir: Path) -> list[str]:
    return [sys.executable, "-m", "homred.cli"] + cli_argv(args, workdir)


def prepare_cli(spec, workdir: Path, env):
    """Write the job's input files (and make its certificate) untimed."""
    for name, text in spec["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    if "prepare" in spec:
        subprocess.run(homred_cli(spec["prepare"], workdir), env=env, check=True,
                       stdout=subprocess.DEVNULL)


def run_cli(spec, workdir: Path, env):
    """One homred process; its output goes to files so that the process
    can be reaped with wait4, which reports its own peak memory.

    No timeout: waiting with one polls in steps of up to 50 ms, which
    would show in the timing; run.py bounds the whole worker instead.
    """
    out, err = workdir / "stdout", workdir / "stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen(homred_cli(spec["argv"], workdir), env=env, stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "stdout": out.read_bytes().decode("utf-8", "replace"),
            "stderr": err.read_bytes().decode("utf-8", "replace")[-400:]}


def replay_cli(hr: Homred, spec, workdir: Path) -> str:
    """The command's stdout when run in this process through cli.main."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        hr.cli.main(cli_argv(spec["argv"], workdir))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# answers as JSON without decimal conversion


def encode(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return {"int": hex(x)}
    if isinstance(x, Fraction):
        return {"num": hex(x.numerator), "den": hex(x.denominator)}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    raise TypeError(f"cannot encode {type(x).__name__}")


# ---------------------------------------------------------------------------
# probes and counters


def probe(code: str, env, runs: int = PROBES) -> float:
    """Median scaled wall time of fresh interpreters running ``code``."""
    clock = speed.Clock()
    times = []
    for _ in range(runs):
        outcome, _, scaled = clock.measure(
            lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True))
        if isinstance(outcome, Exception):
            raise outcome
        times.append(scaled)
    return median(times)


def counters(hr: Homred, notes, jobs: int) -> dict:
    """Size counters from the arguments and results the tracer noted:
    sums per job, except the vertex means, shares and the bit maximum."""
    c = {
        "formats.bytes_in": 0, "potts.assignments": 0, "codes.codewords": 0,
        "csp.vars": 0, "gadgets.cuts.subsets": 0, "gadgets.emit.bytes_out": 0,
        "gadgets.load.bytes_in": 0,
    }
    core = pendant = weighted = ewhom = bits = 0
    verify = passed = 0
    for name, args, result in notes:
        if name.startswith("parse_"):
            c["formats.bytes_in"] += len(args[0].encode())
        elif name == "count_ewhom":
            inst = args[0]
            a, b = oracles.core_and_pendant(inst.graph.n, inst.graph.edges)
            core += a
            pendant += b
            ewhom += 1
            rows = list(inst.vertex_weights.values()) + [r for t in inst.edge_tables.values() for r in t]
            weighted += any(x.denominator != 1 for row in rows for x in row)
            bits = max(bits, result.numerator.bit_length())
        elif name == "potts_mono_histogram":
            c["potts.assignments"] += args[1] ** args[0].n
        elif name == "hypergraph_mono_histogram":
            c["potts.assignments"] += args[1] ** args[0].n
        elif name == "random_cluster_graph":
            c["potts.assignments"] += 2 ** len(args[0].edges)
        elif name == "weight_enumerator":
            c["codes.codewords"] += args[0].p ** hr.codes.code_rank(args[0])
        elif name == "multiterminal_cuts":
            m = len(args[0].edges)
            c["gadgets.cuts.subsets"] += sum(comb(m, k) for k in range(result[0] + 1))
        elif name == "count_wcsp":
            c["csp.vars"] += args[0].nvars
        elif name == "ReductionCertificate.to_json":
            c["gadgets.emit.bytes_out"] += len(result.encode())
        elif name == "ReductionCertificate.from_json":
            c["gadgets.load.bytes_in"] += len(args[1].encode())
        elif name == "verify_certificate":
            verify += 1
            passed += bool(result["passed"])
    c = {k: v / jobs for k, v in c.items()}
    c["homcount.core_vertices"] = core / ewhom if ewhom else 0.0
    c["homcount.pendant_vertices"] = pendant / ewhom if ewhom else 0.0
    c["homcount.weighted_share"] = weighted / ewhom if ewhom else 0.0
    c["homcount.result_bits_max"] = bits
    c["gadgets.verify.pass_ratio"] = passed / verify if verify else 0.0
    return c


# ---------------------------------------------------------------------------


def load_homred(args) -> Homred:
    hr = Homred(args.workload)
    src = (Path(args.root) / "src").resolve()
    if Path(hr.m["homred"].__file__).resolve().parent.parent != src:
        raise SystemExit(f"homred was imported from {hr.m['homred'].__file__}, not {src}")
    return hr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    env = dict(os.environ)
    is_cli = args.workload == "cli"
    # A child's peak memory includes this process's at the time it was
    # started, so for cli homred is imported here only after the timed
    # loop, and the cli children start from a small process.
    hr = None if is_cli else load_homred(args)
    budget = args.seconds / 2 if args.trace else args.seconds

    # phase A: untraced, closed loop; stops at the round boundary nearest
    # to ``budget`` scaled seconds, judged by the last round's length, or
    # at the first one after 1.5 x ``budget`` wall seconds on a slow host
    clock = speed.Clock()
    jobs = []
    busy = last_boundary = wall_busy = 0.0
    i = 0
    period = workloads.ROUND[args.workload]
    while True:
        if i and i % period == 0:
            if busy + (busy - last_boundary) / 2 >= budget or wall_busy >= 1.5 * budget:
                break
            last_boundary = busy
        spec, _ = workloads.make_job(args.workload, args.seed, i)
        if is_cli:
            prepare_cli(spec, workdir, env)
        gc.collect()
        if is_cli:
            outcome, wall, scaled = clock.measure(lambda: run_cli(spec, workdir, env))
        else:
            outcome, wall, scaled = clock.measure(lambda: run_in_process(hr, spec))
        failed = isinstance(outcome, Exception)
        busy += scaled
        wall_busy += wall
        jobs.append({"i": i, "wall": wall, "t": scaled, "spec": spec,
                     "err": f"{type(outcome).__name__}: {outcome}"[:400] if failed else None,
                     "result": None if failed else outcome})
        i += 1
    if is_cli:
        peak_kb = max((j["result"]["maxrss_kb"] for j in jobs if j["err"] is None), default=0)
        hr = load_homred(args)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # untimed: each cli answer against the same command run in this process
    if is_cli and not args.trace:
        for job in jobs:
            if job["err"] is None:
                prepare_cli(job["spec"], workdir, env)
                job["same"] = replay_cli(hr, job["spec"], workdir) == job["result"]["stdout"]

    out = {"peak_rss_kb": peak_kb, "python": sys.version, "homred": hr.m["homred"].__file__}
    if args.trace:
        out["trace"] = traced_pass(hr, jobs, workdir, env, is_cli)
    for job in jobs:
        del job["spec"]
        if not is_cli:
            job["result"] = encode(job["result"])
    out["jobs"] = jobs
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


def traced_pass(hr: Homred, jobs, workdir: Path, env, is_cli: bool) -> dict:
    """Re-run the phase-A jobs under the tracer and summarise per layer."""
    tracer = Tracer()
    clock = speed.Clock()
    same = []
    times = []
    factors = {}
    for job in jobs:
        spec = job["spec"]
        if is_cli:
            prepare_cli(spec, workdir, env)
            run = lambda: replay_cli(hr, spec, workdir)  # noqa: E731
        else:
            run = lambda: run_in_process(hr, spec)  # noqa: E731
        gc.collect()
        tracer.install()
        tracer.job = job["i"]
        result, wall, scaled = clock.measure(lambda: tracer.span("job", "bench", run))
        tracer.uninstall()
        times.append(scaled)
        factors[job["i"]] = scaled / wall
        if job["err"] is not None or isinstance(result, Exception):
            same.append(False)
        elif is_cli:
            same.append(result == job["result"]["stdout"])
        else:
            same.append(encode(result) == encode(job["result"]))
        if is_cli:
            job["same"] = same[-1]
    calls, self_s = tracer.layer_totals(factors)
    n = len(jobs)
    untraced = sum(j["t"] for j in jobs)
    spawn = probe("pass", env)
    imported = probe("import homred.cli", env) - spawn
    layers = {}
    for layer in sorted(set(calls) | set(LAYERS) | {"bench"}):
        layers[layer] = {"calls": calls.get(layer, 0) / n, "self_s": self_s.get(layer, 0.0) / n}
    module_self = sum(v for k, v in self_s.items() if k != "bench") / n
    traced_total = sum(times)
    if is_cli:
        accounted = spawn + imported + module_self
        overhead = (n * (spawn + imported) + traced_total) / untraced
    else:
        accounted = module_self
        overhead = traced_total / untraced
    return {
        "jobs": n,
        "same": same,
        "layers": layers,
        "counters": counters(hr, tracer.notes, n),
        "spawn_s": spawn,
        "import_s": imported,
        "job_s": untraced / n,
        "overhead_ratio": overhead,
        "unaccounted_ratio": 1 - accounted / (untraced / n),
    }


if __name__ == "__main__":
    raise SystemExit(main())
