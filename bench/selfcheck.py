"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. the same seed gives the same jobs, another seed other jobs;
2. the oracles agree with homred on small instances of every family;
3. a wrong answer injected into a run's results raises ``fail_ratio``.

Imports homred from the checkout's ``src``.  Prints one line per check
and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

from homred.codes import LinearCode, weight_enumerator  # noqa: E402
from homred.csp import count_wcsp  # noqa: E402
from homred.formats import parse_csp  # noqa: E402
from homred.gadgets import multiterminal_cuts  # noqa: E402
from homred.graphs import Graph, Hypergraph, classify_tree, j3star_tree, junction_tree  # noqa: E402
from homred.homcount import WeightTable, count_hom, count_whom, j3star_walk_table  # noqa: E402
from homred.potts import potts_graph, potts_hypergraph  # noqa: E402

FAILED = []


def report(name: str, ok: bool, why: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f": {why}" if why and not ok else ""))
    if not ok:
        FAILED.append(name)


def same_seed_same_jobs():
    for wl in workloads.WORKLOADS:
        a = [repr(workloads.make_job(wl, 7, i)) for i in range(30)]
        b = [repr(workloads.make_job(wl, 7, i)) for i in range(30)]
        c = [repr(workloads.make_job(wl, 8, i)) for i in range(30)]
        report(f"{wl}: same seed gives the same jobs", a == b)
        # walk-table jobs carry no input, so compare the whole list
        report(f"{wl}: another seed gives other jobs", a != c and sum(x != y for x, y in zip(a, c)) > 20)


def whom(n, edges, H, rows):
    G = Graph(n, edges)
    if rows:
        return count_whom(G, H, WeightTable(n, H.n, {v: tuple(r) for v, r in rows.items()}))
    return Fraction(count_hom(G, H))


def oracles_agree():
    rng = random.Random(1)
    j3 = j3star_tree().graph
    report("own 58-vertex tree equals homred's",
           [tuple(a) for a in oracles.j3star_adj()] == [j3.neighbours(v) for v in range(j3.n)])
    jq = junction_tree(3).graph
    report("own junction tree equals homred's",
           [tuple(a) for a in oracles.junction_adj(3)] == [jq.neighbours(v) for v in range(jq.n)])
    for H, adj, name in ((jq, oracles.junction_adj(3), "jq:3"), (j3, oracles.j3star_adj(), "j3star")):
        for weighted in (False, True):
            order = workloads.relabel(rng, 6)
            edges = [(order[j], order[(j + 1) % 6]) for j in range(6)]
            rows = workloads.random_rows(rng, range(6), H.n) if weighted else None
            ok = whom(6, edges, H, rows) == oracles.cycle_hom(order, adj, rows)
            report(f"cycle oracle, {name}, weighted={weighted}", ok)
            top, bottom = [0, 1, 2], [3, 4, 5]
            edges = [(0, 3), (1, 4), (2, 5), (0, 1), (1, 2), (3, 4), (4, 5)]
            rows = workloads.random_rows(rng, range(6), H.n) if weighted else None
            ok = whom(6, edges, H, rows) == oracles.ladder_hom(top, bottom, adj, rows)
            report(f"ladder oracle, {name}, weighted={weighted}", ok)
            n, edges, c = workloads.sp_with_pendants(rng, 8, 2)
            rows = workloads.random_rows(rng, range(n), H.n) if weighted else None
            ok = whom(n, edges, H, rows) == oracles.sp_hom(c["tree"], c["terminals"], c["pendants"], n, adj, rows)
            report(f"series-parallel oracle, {name}, weighted={weighted}", ok)
            edges = workloads.random_tree(rng, 9)
            rows = workloads.random_rows(rng, range(0, 9, 2), H.n) if weighted else None
            report(f"tree oracle, {name}, weighted={weighted}",
                   whom(9, edges, H, rows) == oracles.tree_hom(9, edges, adj, rows))
    edges = workloads.connected_graph(rng, 6, 8)
    report("Potts oracle", potts_graph(Graph(6, edges), 3, Fraction(1, 2))
           == oracles.potts_sum(6, edges, 3, Fraction(1, 2)))
    hyper = [sorted(rng.sample(range(6), rng.randint(1, 3))) for _ in range(5)]
    report("hypergraph Potts oracle", potts_hypergraph(Hypergraph(6, hyper), 2, 2)
           == oracles.potts_sum(6, hyper, 2, 2))
    for r, c in ((2, 3), (3, 3)):
        g = workloads.grid(r, c)
        got = multiterminal_cuts(Graph(r * c, g), (0, c - 1, r * c - 1))
        report(f"minimum-cut oracle, grid {r}x{c}", got == oracles.min_cuts(r * c, g, (0, c - 1, r * c - 1)))
    for p, k in ((3, 1), (2, 2)):
        edges = workloads.connected_graph(rng, 4, 5)
        rows = oracles.potts_code_rows(4, edges, p, k)
        got = weight_enumerator(LinearCode(p, len(rows[0]), tuple(map(tuple, rows))), Fraction(1, 2))
        report(f"weight-enumerator oracle, p={p} k={k}",
               got == oracles.potts_code_enumerator(4, edges, p, k, Fraction(1, 2)))
    for spine, legs in ((1, 3), (5, 1)):
        n, edges = workloads.caterpillar(rng, spine, legs)
        report(f"classification oracle, caterpillar {n}",
               classify_tree(Graph(n, edges)) == oracles.classify_tree(n, edges))
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6), (6, 7), (1, 8), (8, 9)]
    report("classification oracle, junction", classify_tree(Graph(10, edges))
           == oracles.classify_tree(10, edges) == "ContainsJ3")
    walk = {lbl: tuple(p) for lbl, p in j3star_walk_table()}
    want = {lbl: oracles.walk_profile(oracles.j3star_adj(), v) for lbl, v in checks.WALK_ROWS.items()}
    report("walk-profile oracle", walk == want)
    for weighted in (False, True):
        text, c = workloads.tree_csp(rng, 40, 3, weighted)
        inst = parse_csp(text)
        got = count_wcsp(inst if weighted else inst.with_weights(()))
        report(f"CSP oracle, weighted={weighted}",
               got == oracles.csp_tree_count(40, c["links"], set(c["pins0"]), set(c["pins1"]), c["weights"]))


def injected_wrong_answer_counts():
    """Feed run.summarise real answers, then the same with one corrupted."""
    hr = worker.Homred("hom-core")
    jobs = []
    for i in range(3):
        spec, _ = workloads.make_job("hom-core", 3, i)
        result = worker.encode(worker.run_in_process(hr, spec))
        jobs.append({"i": i, "t": 0.1 + i / 100, "wall": 0.1, "err": None, "result": result})

    class Args:
        workload, seed, seconds, trace = "hom-core", 3, 1.0, 0

    def fail_ratio(jobs_in):
        rep = {"jobs": json.loads(json.dumps(jobs_in)), "peak_rss_kb": 1, "python": "", "homred": ""}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.summarise(Args, {"setup_s": 1.0}, rep)
        last = json.loads(out.getvalue().strip().splitlines()[-1])
        detail = json.loads(out.getvalue().strip().splitlines()[-2][len("detail: "):])
        return last["failed"] / last["attempted"], detail["failures"]

    clean, _ = fail_ratio(jobs)
    report("genuine answers give fail_ratio 0", clean == 0)
    bad = json.loads(json.dumps(jobs))
    value = checks.decode(bad[1]["result"])
    bad[1]["result"] = worker.encode(value + 1)
    ratio, failures = fail_ratio(bad)
    report("one wrong answer gives fail_ratio 1/3", abs(ratio - 1 / 3) < 1e-12,
           str(failures))


def main() -> int:
    same_seed_same_jobs()
    oracles_agree()
    injected_wrong_answer_counts()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
