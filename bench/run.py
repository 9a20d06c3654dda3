"""homred benchmark: time to a checked, exact answer.

    python3 bench/run.py --workload {hom-core,certify,enumerate,cli}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout is the directory above this file, and
homred is imported from its ``src`` (first on PYTHONPATH), never from
an installed copy.  One run:

1. set-up: one untimed ``homred.cli`` invocation (so ``__pycache__``
   exists), then several fresh interpreters that import what the
   workload uses and build the fixed targets; ``setup_s`` is the
   warm-up's time plus the median of those;
2. a worker process (worker.py) runs the workload's jobs as a closed
   loop with one client for S seconds of job time;
3. every answer is checked here, outside any timed region, against
   oracles.py, which shares no code with homred.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
The lines before it give the same numbers as a table, the tail
percentile and sample count, the input properties and the interpreter
and environment.  Exit status 2 means the checkout holds no homred.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import checks
import speed
import workloads
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 9
PROBE_LIMIT_S = 5  # per set-up child; a normal one takes well under a second
DEADLINE_S = 160  # set-up plus worker; checks then take a few seconds


def child_env() -> dict:
    """Environment for every homred process: the checkout's src first,
    no enumeration-cap override, bytecode caching on, fixed hashing."""
    env = dict(os.environ)
    env.pop("HOMRED_ENUM_CAP", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(workload: str, env) -> dict:
    """Warm-up cli run plus the median of fresh set-ups, in scaled seconds.

    Each child is waited for without a timeout (a timed wait polls in
    steps of up to 50 ms); a watchdog kills one that outlives PROBE_LIMIT_S.
    """
    clock = speed.Clock()

    def run(argv):
        def call():
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
            watchdog = threading.Timer(PROBE_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            if code:
                raise subprocess.CalledProcessError(code, argv)

        outcome, _, scaled = clock.measure(call)
        if isinstance(outcome, Exception):
            raise SystemExit(f"error: set-up failed: {outcome}")
        return scaled

    warm = run([sys.executable, "-m", "homred.cli", "walk-table"])
    code = workloads.setup_code(workload)
    runs = [run([sys.executable, "-c", code]) for _ in range(SETUP_RUNS)]
    return {"warmup_s": warm, "fresh_s": runs, "setup_s": warm + median(runs)}


def tail(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten jobs above it (nearest rank)."""
    n = len(times)
    ordered = sorted(times)
    pct = max(50, (100 * (n - 10)) // n) if n > 10 else 50
    return pct, ordered[max(0, math.ceil(pct * n / 100) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "homred" / "__init__.py").is_file():
        print(f"error: no homred package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: the speed
    # reference then runs where the homred child runs, which halves the
    # per-job spread of cli timings on a host with noisy neighbours.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.monotonic()
    env = child_env()
    workdir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(args.workload, env)
        out_file = workdir / "result.json"
        run_worker(args, workdir, out_file, env, DEADLINE_S - (time.monotonic() - started))
        report = json.loads(out_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarise(args, setup, report)


def run_worker(args, workdir: Path, out_file: Path, env, limit: float):
    """Run worker.py in its own session; after ``limit`` seconds kill the
    whole group, homred child processes included, and wait for it."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--root", str(ROOT), "--workdir", str(workdir), "--out", str(out_file)],
        env=env, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"error: worker ran past the {DEADLINE_S} s deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise SystemExit(f"error: worker exited with status {code}")


def summarise(args, setup, report) -> int:
    jobs = report["jobs"]
    specs = [workloads.make_job(args.workload, args.seed, j["i"]) for j in jobs]
    failures = []
    same = report["trace"]["same"] if args.trace else None
    for k, (job, (spec, c)) in enumerate(zip(jobs, specs)):
        if args.workload == "cli":
            c["input_bytes"] = sum(len(t.encode()) for t in spec["files"].values())
        if job["err"] is not None:
            why = job["err"]
        else:
            if args.workload == "cli":
                job["result"]["same"] = job.get("same")
            why = checks.check(args.workload, c, job["result"])
        if why is None and same is not None and not same[k]:
            why = "traced rerun gave a different answer"
        if why is not None:
            failures.append((job["i"], why))
    attempted = len(jobs)
    failed = len(failures)
    times = [j["t"] for j in jobs]
    walls = [j["wall"] for j in jobs]
    pct, tail_s = tail(times)
    results = [j["result"] if j["err"] is None else None for j in jobs]
    cert = [checks.decode(r)["cert_bytes"] for r in results if args.workload == "certify" and r]

    e2e = {
        "setup_s": metric(setup["setup_s"], "s"),
        "jobs_per_s": metric((attempted - failed) / sum(times), "1/s"),
        "job_s.p50": metric(median(times), "s"),
        "job_s.tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(report["peak_rss_kb"] / 1024, "MB"),
    }
    extra = {
        "fail_ratio": metric(failed / attempted, "ratio"),
        "cert_bytes.mean": metric(sum(cert) / len(cert) if cert else 0.0, "bytes"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tail_percentile": pct,
        "samples": attempted,
        "setup": setup,
        "raw_wall": {"job_s.p50": median(walls), "jobs_per_s": (attempted - failed) / sum(walls),
                     "speed_factor_median": median(t / w for t, w in zip(times, walls))},
        "properties": checks.properties(args.workload, [c for _, c in specs], results),
        "failures": failures[:20],
        "python": report["python"],
        "homred": report["homred"],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "env": {"PYTHONPATH": child_env()["PYTHONPATH"], "PYTHONHASHSEED": "0",
                "HOMRED_ENUM_CAP": "unset" if "HOMRED_ENUM_CAP" not in os.environ else "removed"},
    }
    if args.trace:
        metrics = per_layer(report["trace"], extra)
        detail["trace_jobs"] = report["trace"]["jobs"]
    else:
        metrics = e2e
    print_table(args, e2e, extra, metrics if args.trace else None, pct, attempted, failed)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer(trace, extra) -> dict:
    """The per-layer metrics, named and ordered as in BENCHMARK.json."""
    values = {}
    for layer in LAYERS:
        row = trace["layers"].get(layer, {"calls": 0.0, "self_s": 0.0})
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
    values.update(trace["counters"])
    values.update({
        "cli.spawn_s": trace["spawn_s"],
        "cli.import_s": trace["import_s"],
        "cli.job_s": trace["job_s"],
        "bench.self_s": trace["layers"].get("bench", {"self_s": 0.0})["self_s"],
        "trace.overhead_ratio": trace["overhead_ratio"],
        "trace.unaccounted_ratio": trace["unaccounted_ratio"],
    })
    values.update({k: v["value"] for k, v in extra.items()})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["per_layer"]}


def print_table(args, e2e, extra, layers, pct, attempted, failed):
    print(f"homred benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"jobs attempted={attempted} failed={failed}  tail = p{pct} of {attempted} samples")
    for name, m in {**e2e, **extra}.items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    if layers:
        print("per layer (per job in the traced pass):")
        for name, m in layers.items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
