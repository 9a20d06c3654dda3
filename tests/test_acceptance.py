"""Acceptance gate: one test per shipped guarantee, each with a wall-clock cap.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every check is exact (integer or Fraction equality);
the sandwich criteria demand the additive slack of exactly 1/4.
"""

import itertools
import pathlib
import random
import time
from fractions import Fraction

from homred.codes import build_potts_code, check_q_to_one, verify_potts_we
from homred.convex import whom_via_csp
from homred.csp import (
    CspInstance,
    WeightedCspInstance,
    compile_weight_gadget,
    count_csp,
    count_wcsp,
)
from homred.gadgets import (
    CutInstance,
    build_cut_to_j3star,
    build_cut_to_whom,
    build_jq_to_hyperpotts,
    build_potts_to_jq,
    minimal_j3star_r,
    minimal_potts_jq_s,
    multiterminal_cuts,
    uniformize,
    verify_certificate,
)
from homred.graphs import (
    Graph,
    Hypergraph,
    classify_tree,
    cycle_graph,
    junction_tree,
    path_graph,
    star_graph,
)
from homred.homcount import (
    WeightTable,
    complete_bipartite_whom,
    count_ewhom,
    count_hom,
    count_whom,
    format_walk_table,
    j3star_walk_table,
)
from homred.potts import (
    count_proper_colourings,
    hypergraph_mono_histogram,
    potts_graph,
    potts_hypergraph,
    random_cluster_graph,
    reduce_potts_to_bqcol,
)

from oracles import (
    atlas_graphs,
    naive_independent_sets,
    naive_whom,
    random_connected_bipartite,
    random_tree,
    random_weight_rows,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def done(num: int, limit: float, started: float, detail: str):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, cap is {limit}s"
    print(f"PASS {num:02d}: {detail} ({elapsed:.2f}s)")


def random_graph(rng, n, max_edges):
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, rng.sample(pool, min(len(pool), rng.randint(0, max_edges))))


def test_c01_walk_table():
    t0 = time.perf_counter()
    text = format_walk_table(j3star_walk_table())
    assert text == (GOLDEN / "walk_table.txt").read_text()
    done(1, 1.0, t0, "distinguished-vertex walk table matches the golden file")


def test_c02_path_homs_double_independent_sets():
    t0 = time.perf_counter()
    graphs = atlas_graphs(6, connected=True, bipartite=True)
    assert len(graphs) == 28
    P4 = path_graph(4)
    for G in graphs:
        assert count_hom(G, P4) == 2 * naive_independent_sets(G)
    done(2, 5.0, t0, "4-path homomorphisms double the independent sets on all "
         "28 connected bipartite graphs up to 6 vertices")


def test_c03_complete_bipartite_closed_form():
    t0 = time.perf_counter()
    rng = random.Random(303)
    targets = [
        star_graph(3),
        cycle_graph(4),
        Graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)]),
    ]
    for trial in range(100):
        H = targets[trial % 3]
        G = random_graph(rng, rng.randint(1, 6), 7)
        wt = WeightTable(G.n, H.n, random_weight_rows(rng, G.n, H.n))
        assert complete_bipartite_whom(G, H, wt) == count_whom(G, H, wt)
    done(3, 10.0, t0, "complete bipartite closed form matches direct weighted "
         "counting on 100 random instances")


def test_c04_weight_gadget_compilation():
    t0 = time.perf_counter()
    running = WeightedCspInstance(2, imps=((0, 1),), weights=((5, 2), (1, 1)))
    compiled, roles = compile_weight_gadget(running)
    assert count_wcsp(running) == count_csp(compiled) == 12

    def block_count(x, b, i):
        keep = sorted(
            v for v, r in roles.items()
            if r[0] in ("L", "mid", "R") and (r[1], r[2], r[3]) == (x, b, i)
        )
        pos = {v: j for j, v in enumerate(keep)}
        imps = [(pos[a], pos[c]) for a, c in compiled.imps if a in pos and c in pos]
        return sum(
            1
            for assign in itertools.product((0, 1), repeat=len(keep))
            if not any(assign[a] and not assign[c] for a, c in imps)
        )

    assert block_count(0, 0, 1) == 4  # doubling block for bit 1
    assert block_count(0, 1, 2) == 6  # doubling block for bit 2

    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 4)
        pool = [(i, j) for i in range(n) for j in range(n) if i != j]
        imps = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 4))))
        weights = tuple((rng.randint(1, 31), rng.randint(1, 31)) for _ in range(n))
        inst = WeightedCspInstance(n, imps=imps, weights=weights)
        compiled, _ = compile_weight_gadget(inst)
        assert count_csp(compiled) == count_wcsp(inst)
    done(4, 30.0, t0, "compiled weight gadgets preserve counts on the worked "
         "example (with its doubling-block subcounts) and 200 random instances")


def test_c05_whom_as_side_csp():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for trial in range(100):
        while True:
            H = random_tree(rng, rng.randint(1, 7))
            if H.n < 2 or classify_tree(H) != "ContainsJ3":
                break
        if trial % 3 == 0:
            G = random_connected_bipartite(rng, rng.randint(1, 6))
        elif trial % 3 == 1:
            a = random_connected_bipartite(rng, rng.randint(1, 3))
            bpart = random_connected_bipartite(rng, rng.randint(1, 3))
            G = Graph(
                a.n + bpart.n,
                list(a.edges) + [(u + a.n, v + a.n) for u, v in bpart.edges],
            )
        else:
            G = random_graph(rng, rng.randint(1, 5), 6)
        rows = random_weight_rows(rng, G.n, H.n)
        wt = WeightTable(G.n, H.n, rows)
        assert whom_via_csp(G, H, wt) == naive_whom(G, H, rows)
    done(5, 60.0, t0, "side-restricted CSP counting reproduces weighted "
         "homomorphisms on 100 random instances")


def test_c06_cut_to_whom_sandwich():
    t0 = time.perf_counter()
    cuts = [
        CutInstance(star_graph(3), (1, 2, 3)),
        CutInstance(path_graph(3), (0, 1, 2)),
    ]
    for cut in cuts:
        _, ncuts = multiterminal_cuts(cut.graph, cut.terminals)
        for target in (junction_tree(3).graph, junction_tree(4).graph):
            _, cert = build_cut_to_whom(cut, target)
            report = verify_certificate(cert)
            assert report["passed"]
            assert 0 <= report["ratio"] - ncuts <= Fraction(1, 4)
            assert report["recovered"] == ncuts == cert.counters["min_cuts"]
    done(6, 30.0, t0, "minimum-cut sandwich holds with floor recovery for two "
         "cut instances against both junction targets")


def test_c07_potts_to_junction_tree():
    t0 = time.perf_counter()
    q = 3
    for G, want_s in ((Graph(2, [(0, 1)]), 19), (path_graph(3), 25)):
        s = minimal_potts_jq_s(G, q)
        assert s == want_s
        rhs = 8 * q * (q + 1) ** (G.n + len(G.edges))
        assert Fraction(q, 2) ** s >= rhs > Fraction(q, 2) ** (s - 1)
        red, cert = build_potts_to_jq(G, q)
        truth = potts_graph(G, q, 1)
        assert cert.counters["typical"] == q**s * truth
        report = verify_certificate(cert)
        assert report["passed"] and report["typical_ok"]
        assert report["recovered"] == truth
        assert 0 <= report["ratio"] - truth <= Fraction(1, 4)
    done(7, 60.0, t0, "junction-tree reduction recovers the Potts value at "
         "coupling 1 with minimal star sizes 19 and 25")


def test_c08_junction_homs_are_hypergraph_potts():
    t0 = time.perf_counter()
    graphs = atlas_graphs(7, connected=True, bipartite=True)
    assert len(graphs) == 72
    for B in graphs:
        for q in (2, 3):
            sides = ("left", "right") if B.n >= 2 else ("left",)
            for side in sides:
                red, cert = build_jq_to_hyperpotts(B, q, side=side)
                assert count_ewhom(red.restricted) == potts_hypergraph(
                    red.hypergraph, q, 1
                )
                assert verify_certificate(cert)["passed"]
    red, _ = build_jq_to_hyperpotts(cycle_graph(4), 3)
    assert red.hypergraph.hyperedges == ((0, 1), (0, 1))
    done(8, 30.0, t0, "side-restricted junction homomorphisms equal hypergraph "
         "Potts values on all 72 connected bipartite graphs up to 7 vertices")


def test_c09_uniformization_sandwich():
    t0 = time.perf_counter()
    hypergraphs = [
        Hypergraph(4, [(0, 1), (1, 2, 3), (2, 3)]),
        Hypergraph(3, [(0,), (0, 1), (0, 1, 2)]),
        Hypergraph(4, [(0, 1, 2, 3), (0, 1), (2, 3)]),
    ]
    for HG in hypergraphs:
        t = max(len(f) for f in HG.hyperedges)
        for gamma in (Fraction(1), Fraction(1, 2)):
            padded, cert = uniformize(HG, 2, gamma)
            assert {len(f) for f in padded.hyperedges} == {t}
            report = verify_certificate(cert)
            assert report["passed"]
            truth = potts_hypergraph(HG, 2, gamma)
            assert truth <= report["ratio"] <= truth + Fraction(1, 4)
    done(9, 30.0, t0, "uniformization preserves the Potts value within exactly "
         "1/4 on three mixed-arity hypergraphs at two couplings")


def test_c10_cut_to_fixed_tree():
    t0 = time.perf_counter()
    cut = CutInstance(star_graph(3), (1, 2, 3))
    inst, cert = build_cut_to_j3star(cut)
    s, r = cert.constants["s"], cert.constants["r"]
    assert (s, r) == (14, 1555)
    rhs = 8 * 58 ** (cut.graph.n + s * len(cut.graph.edges) + 7)
    assert Fraction(46, 40) ** r >= rhs > Fraction(46, 40) ** (r - 1)
    assert cert.constants["scale"] == 2 ** (s * 1) * (6 * 18 * 46) ** r
    assert minimal_j3star_r(cut.graph, s) == r
    report = verify_certificate(cert)
    assert report["passed"]
    assert report["recovered"] == 3 == cert.counters["min_cuts"]
    assert 0 <= report["ratio"] - 3 <= Fraction(1, 4)
    done(10, 600.0, t0, "58-vertex-tree reduction counts the star's 3 minimum "
         "cuts through a single homomorphism count")


def test_c11_subdivision_colouring_identity():
    t0 = time.perf_counter()
    graphs = atlas_graphs(5, connected=True)
    assert len(graphs) == 31
    for G in graphs:
        for q in (3, 4, 5):
            red = reduce_potts_to_bqcol(G, q)
            lhs = count_proper_colourings(red.stretched, q)
            assert lhs == red.scale * potts_graph(G, q, red.gamma)
    done(11, 60.0, t0, "subdivided proper colourings match the scaled Potts "
         "value on all 31 connected graphs up to 5 vertices")


def test_c12_potts_weight_enumerator_identity():
    t0 = time.perf_counter()
    graphs = atlas_graphs(5, connected=True, max_edges=6)
    assert len(graphs) == 23
    for G in graphs:
        for p, k in ((3, 1), (2, 2)):
            for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
                assert verify_potts_we(G, p, k, lam)["match"]
    for G in (Graph(2, [(0, 1)]), path_graph(3)):
        for p, k in ((3, 1), (2, 2)):
            assert check_q_to_one(build_potts_code(G, p, k))
    done(12, 120.0, t0, "Potts / weight-enumerator identity holds on all 23 "
         "connected graphs up to 5 vertices and 6 edges, with q-to-one fibres")


def test_c13_random_cluster_agreement():
    t0 = time.perf_counter()
    graphs = atlas_graphs(6, max_edges=6)
    assert len(graphs) == 98
    for G in graphs:
        for q in (1, 2, 3, 4):
            hist = hypergraph_mono_histogram(Hypergraph(G.n, G.edges), q)
            for gamma in (Fraction(1, 2), Fraction(1), Fraction(3)):
                spin_side = sum(
                    count * (1 + gamma) ** k for k, count in hist.items()
                )
                assert spin_side == random_cluster_graph(G, q, gamma)
    done(13, 10.0, t0, "spin and subgraph expansions of the Potts value agree "
         "on all 98 graphs with up to 6 vertices and 6 edges")
