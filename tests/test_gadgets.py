"""Reduction gadget construction, counting, and certificate verification."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from homred.errors import HomredError
from homred.gadgets import (
    J3STAR_BRANCH_PRODUCT,
    CutInstance,
    ReductionCertificate,
    _least_exponent,
    _two_path_table,
    build_cut_to_j3star,
    build_cut_to_whom,
    build_jq_to_hyperpotts,
    build_potts_to_jq,
    certificate_oracle,
    certificate_value,
    find_induced_j3,
    materialise_cut_to_j3star,
    materialise_cut_to_whom,
    materialise_potts_to_jq,
    materialised_value,
    minimal_j3star_r,
    minimal_potts_jq_s,
    minimal_uniformize_s,
    multiterminal_cuts,
    multiterminal_cuts_oracle,
    uniformize,
    verify_certificate,
)
from homred.graphs import (
    Graph,
    Hypergraph,
    complete_graph,
    cycle_graph,
    j3star_tree,
    junction_tree,
    path_graph,
    star_graph,
)
from homred.formats import format_graph, format_weights
from homred.homcount import count_ewhom, count_hom, count_whom
from homred.potts import potts_graph, potts_hypergraph
from oracles import (
    dense_adjacency,
    dense_product,
    random_tree,
    step_minimal_j3star_r,
    step_minimal_potts_jq_s,
    step_minimal_uniformize_s,
)


def naive_cuts(G, terminals):
    """Reference via component labelling, one edge subset at a time."""
    a, b, c = terminals
    m = len(G.edges)
    best = None
    count = 0
    for size in range(m + 1):
        for removed in itertools.combinations(range(m), size):
            keep = [e for i, e in enumerate(G.edges) if i not in removed]
            comp = list(range(G.n))

            def root(x):
                while comp[x] != x:
                    x = comp[x]
                return x

            for u, v in keep:
                ru, rv = root(u), root(v)
                if ru != rv:
                    comp[ru] = rv
            if len({root(a), root(b), root(c)}) == 3:
                count += 1
        if count:
            return size, count
    raise AssertionError


def assignment_value(G, terminals, s):
    """Independent oracle for the cut gadget's count: sum over all
    3-colourings fixing the terminals of 2^(s * monochromatic edges).
    Also returns how many colourings have a minimum bichromatic set.
    """
    free = [v for v in range(G.n) if v not in terminals]
    fixed = {t: i for i, t in enumerate(terminals)}
    total = 0
    by_cut = {}
    for combo in itertools.product(range(3), repeat=len(free)):
        sigma = dict(fixed)
        sigma.update(zip(free, combo))
        cut = sum(1 for u, v in G.edges if sigma[u] != sigma[v])
        total += 2 ** (s * (len(G.edges) - cut))
        by_cut[cut] = by_cut.get(cut, 0) + 1
    return total, by_cut


# ---------------------------------------------------------------------------
# minimum 3-terminal cuts


def test_cut_counts_frozen():
    assert multiterminal_cuts(star_graph(3), (1, 2, 3)) == (2, 3)
    assert multiterminal_cuts(path_graph(3), (0, 1, 2)) == (2, 1)
    assert multiterminal_cuts(path_graph(5), (0, 2, 4)) == (2, 4)
    assert multiterminal_cuts(cycle_graph(3), (0, 1, 2)) == (3, 1)


def test_cut_counts_vs_naive():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(3, 6)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        while True:
            G = Graph(n, rng.sample(pool, rng.randint(n - 1, min(len(pool), n + 2))))
            if G.is_connected():
                break
        terminals = tuple(rng.sample(range(n), 3))
        assert multiterminal_cuts(G, terminals) == naive_cuts(G, terminals)


@st.composite
def connected_cut_cases(draw):
    """A random spanning tree plus random chords on n <= 8 vertices, and
    three distinct terminals."""
    n = draw(st.integers(3, 8))
    order = draw(st.permutations(range(n)))
    edges = {tuple(sorted((order[i], order[draw(st.integers(0, i - 1))]))) for i in range(1, n)}
    pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else [])
    return Graph(n, edges), tuple(draw(st.permutations(range(n)))[:3])


@settings(max_examples=80, deadline=None)
@given(connected_cut_cases())
@example((complete_graph(4), (0, 1, 2)))  # b = 5, N = 3
@example((complete_graph(5), (4, 0, 2)))  # b = 7, N = 3
@example((cycle_graph(6), (0, 2, 4)))  # b = 3, N = 8
def test_cut_counts_match_naive_on_connected_graphs(case):
    G, terminals = case
    assert multiterminal_cuts(G, terminals) == naive_cuts(G, terminals)


def test_cut_examples_have_large_tied_minimum_cuts():
    assert multiterminal_cuts(complete_graph(4), (0, 1, 2)) == (5, 3)
    assert multiterminal_cuts(complete_graph(5), (4, 0, 2)) == (7, 3)
    assert multiterminal_cuts(cycle_graph(6), (0, 2, 4)) == (3, 8)
    assert multiterminal_cuts_oracle(cycle_graph(6), (0, 2, 4)) == (3, 8)


def test_cut_instance_validation():
    with pytest.raises(HomredError, match="distinct"):
        CutInstance(path_graph(3), (0, 1, 1))
    with pytest.raises(HomredError, match="out of range"):
        CutInstance(path_graph(3), (0, 1, 5))
    with pytest.raises(HomredError, match="connected"):
        CutInstance(Graph(4, [(0, 1), (2, 3)]), (0, 1, 2))
    with pytest.raises(HomredError, match="connected"):
        multiterminal_cuts(Graph(4, [(0, 1), (2, 3)]), (0, 1, 2))


@pytest.mark.parametrize("count", [multiterminal_cuts, multiterminal_cuts_oracle])
@pytest.mark.parametrize("terminals", [(0, 1, -1), (0, 1, 7)])
def test_cut_terminals_out_of_range(count, terminals):
    with pytest.raises(HomredError, match="out of range"):
        count(cycle_graph(5), terminals)


def test_cut_enumeration_cap():
    with pytest.raises(HomredError, match="needs 33554432 enumeration steps, above the cap of 16777216"):
        multiterminal_cuts(path_graph(26), (0, 12, 25))


# ---------------------------------------------------------------------------
# junction role search


def test_find_induced_j3():
    jt = junction_tree(3)
    roles = find_induced_j3(jt.graph)
    assert roles["w"] == jt.vertex("w")
    assert {roles["x0"], roles["y0"], roles["z0"]} == {
        jt.vertex("c'1"), jt.vertex("c'2"), jt.vertex("c'3")
    }
    assert {roles["x1"], roles["y1"], roles["z1"]} == {
        jt.vertex("c1"), jt.vertex("c2"), jt.vertex("c3")
    }
    assert find_induced_j3(junction_tree(4).graph) is not None
    star = j3star_tree()
    roles = find_induced_j3(star.graph)
    assert roles["w"] == star.vertex("w")
    assert find_induced_j3(path_graph(4)) is None
    assert find_induced_j3(star_graph(5)) is None
    with pytest.raises(HomredError, match="expects a tree"):
        find_induced_j3(cycle_graph(4))


# ---------------------------------------------------------------------------
# cut-to-whom


def test_cut_to_whom_star_exact():
    cut = CutInstance(star_graph(3), (1, 2, 3))
    inst, cert = build_cut_to_whom(cut, junction_tree(3).graph)
    assert cert.constants["s"] == 13
    assert cert.constants["b"] == 2
    assert cert.constants["scale"] == 2**13
    assert cert.counters["min_cuts"] == 3
    # all three colourings of the centre give monochromatic count 1, so
    # the ratio is exactly the cut count here
    report = verify_certificate(cert)
    assert report["passed"]
    assert report["ratio"] == 3
    assert report["recovered"] == 3


def test_cut_to_whom_assignment_oracle():
    jt = junction_tree(3).graph
    cases = [
        (CutInstance(star_graph(3), (1, 2, 3)), (1, 2, 13)),
        (CutInstance(path_graph(5), (0, 2, 4)), (1, 2)),
        (CutInstance(cycle_graph(4), (0, 1, 2)), (1, 3)),
    ]
    for cut, svals in cases:
        b, ncuts = multiterminal_cuts(cut.graph, cut.terminals)
        for s in svals:
            inst, cert = build_cut_to_whom(cut, jt, s_override=s)
            expected, by_cut = assignment_value(cut.graph, cut.terminals, s)
            assert count_ewhom(inst) == expected
            # minimum bichromatic classes correspond one-to-one to cuts
            assert by_cut[b] == ncuts
            assert min(by_cut) == b


def test_cut_to_whom_folded_matches_materialised():
    jt = junction_tree(3).graph
    cut = CutInstance(path_graph(3), (0, 1, 2))
    for s in (1, 2, 3):
        inst, _ = build_cut_to_whom(cut, jt, s_override=s)
        g, wt = materialise_cut_to_whom(cut, jt, s)
        assert count_ewhom(inst) == count_whom(g, jt, wt)


def test_cut_to_whom_other_targets():
    # any tree with an induced junction will do; roles are located for us
    cut = CutInstance(path_graph(3), (0, 1, 2))
    for target in (junction_tree(4).graph, j3star_tree().graph):
        _, cert = build_cut_to_whom(cut, target)
        report = verify_certificate(cert)
        assert report["passed"]
        assert report["recovered"] == 1


def test_cut_to_whom_undersized_s_fails_honestly():
    cut = CutInstance(path_graph(5), (0, 2, 4))
    _, cert = build_cut_to_whom(cut, junction_tree(3).graph, s_override=1)
    report = verify_certificate(cert)
    assert report["ratio"] == Fraction(25, 4)
    assert not report["passed"]


def test_cut_to_whom_needs_junction_target():
    cut = CutInstance(path_graph(3), (0, 1, 2))
    with pytest.raises(HomredError, match="no induced 3-branch junction"):
        build_cut_to_whom(cut, path_graph(4))


# ---------------------------------------------------------------------------
# potts-to-jq


def test_potts_jq_minimal_s():
    K2 = Graph(2, [(0, 1)])
    assert minimal_potts_jq_s(K2, 3) == 19
    assert minimal_potts_jq_s(path_graph(3), 3) == 25
    for G, q in ((K2, 3), (path_graph(3), 3), (K2, 4)):
        s = minimal_potts_jq_s(G, q)
        rhs = 8 * q * (q + 1) ** (G.n + len(G.edges))
        assert Fraction(q, 2) ** s >= rhs
        assert Fraction(q, 2) ** (s - 1) < rhs


def test_potts_jq_exact_recovery():
    K2 = Graph(2, [(0, 1)])
    red, cert = build_potts_to_jq(K2, 3)
    assert cert.constants["s"] == 19
    report = verify_certificate(cert)
    assert report["passed"] and report["typical_ok"]
    assert report["recovered"] == potts_graph(K2, 3, 1) == 12
    # the pinned count is exactly q^s times the Potts value
    assert cert.counters["typical"] == 3**19 * 12

    red, cert = build_potts_to_jq(path_graph(3), 3)
    assert cert.constants["s"] == 25
    report = verify_certificate(cert)
    assert report["passed"]
    assert report["recovered"] == potts_graph(path_graph(3), 3, 1) == 48


def test_potts_jq_folded_matches_materialised():
    K2 = Graph(2, [(0, 1)])
    jt = junction_tree(3).graph
    for s in (1, 2):
        red, _ = build_potts_to_jq(K2, 3, s_override=s)
        assert count_ewhom(red.instance) == count_hom(materialise_potts_to_jq(K2, s), jt)


def test_potts_jq_undersized_s_fails_honestly():
    red, cert = build_potts_to_jq(Graph(2, [(0, 1)]), 3, s_override=1)
    report = verify_certificate(cert)
    assert report["typical_ok"]  # the pinned identity is exact at any s
    assert not report["passed"]  # but the atypical terms swamp the sandwich


def test_potts_jq_validation():
    with pytest.raises(HomredError, match="q >= 3"):
        build_potts_to_jq(Graph(2, [(0, 1)]), 2)
    with pytest.raises(HomredError, match="connected"):
        build_potts_to_jq(Graph(3, [(0, 1)]), 3)
    with pytest.raises(HomredError, match="connected"):
        materialise_potts_to_jq(Graph(3, [(0, 1)]), 5)


# ---------------------------------------------------------------------------
# jq-to-hyperpotts


def test_jq_hyperpotts_single_edge():
    red, cert = build_jq_to_hyperpotts(Graph(2, [(0, 1)]), 3)
    assert red.hypergraph.n == 1
    assert red.hypergraph.hyperedges == ((0,),)
    assert count_ewhom(red.restricted) == 6  # 2q
    assert cert.slack == 0
    assert verify_certificate(cert)["passed"]


def test_jq_hyperpotts_both_sides():
    # each side restriction matches the Potts value of its own hypergraph
    graphs = [path_graph(3), cycle_graph(4), star_graph(3), path_graph(6)]
    for B in graphs:
        for q in (2, 3):
            for side in ("left", "right"):
                red, cert = build_jq_to_hyperpotts(B, q, side=side)
                assert count_ewhom(red.restricted) == potts_hypergraph(red.hypergraph, q, 1)
                assert verify_certificate(cert)["passed"]


def test_jq_hyperpotts_duplicate_hyperedges_kept():
    # the two C4 midpoints have the same neighbourhood; the multiset matters
    red, _ = build_jq_to_hyperpotts(cycle_graph(4), 3)
    assert red.hypergraph.hyperedges == ((0, 1), (0, 1))
    assert count_ewhom(red.restricted) == 18
    assert potts_hypergraph(Hypergraph(2, [(0, 1)]), 3, 1) == 12  # single copy differs


def test_jq_hyperpotts_isolated_unrestricted_vertex():
    B = Graph(3, [(0, 1)])  # vertex 2 isolated, lands on the left side
    with pytest.raises(HomredError, match="isolated"):
        build_jq_to_hyperpotts(B, 3, side="right")
    red, _ = build_jq_to_hyperpotts(B, 3, side="left")
    assert count_ewhom(red.restricted) == potts_hypergraph(red.hypergraph, 3, 1) == 18


def test_jq_hyperpotts_validation():
    with pytest.raises(HomredError, match="bipartite"):
        build_jq_to_hyperpotts(cycle_graph(3), 3)
    with pytest.raises(HomredError, match="side"):
        build_jq_to_hyperpotts(Graph(2, [(0, 1)]), 3, side="top")


# ---------------------------------------------------------------------------
# uniformize


def test_uniformize_mixed_arity():
    HG = Hypergraph(4, [(0, 1), (1, 2, 3), (2, 3)])
    for gamma, want_s, truth in ((1, 15, 48), (Fraction(1, 2), 24, Fraction(115, 4))):
        padded, cert = uniformize(HG, 2, gamma)
        assert cert.constants["s"] == want_s
        assert cert.constants["t"] == 3
        assert {len(f) for f in padded.hyperedges} == {3}
        assert padded.n == 4 + 3 * 2
        assert len(padded.hyperedges) == 3 * (1 + want_s)
        report = verify_certificate(cert)
        assert report["passed"]
        assert report["lower"] == truth == potts_hypergraph(HG, 2, gamma)


def test_uniformize_minimal_s():
    HG = Hypergraph(4, [(0, 1), (1, 2, 3), (2, 3)])
    gamma = Fraction(1, 2)
    s = minimal_uniformize_s(HG, 2, gamma, 3)
    rhs = 4 * Fraction(2) ** (4 + 3 * 2) * Fraction(3, 2) ** 3
    assert Fraction(3, 2) ** s >= rhs
    assert Fraction(3, 2) ** (s - 1) < rhs


def test_uniformize_deterministic():
    HG = Hypergraph(4, [(0, 1), (1, 2, 3), (2, 3)])
    p1, c1 = uniformize(HG, 2, 1)
    p2, c2 = uniformize(HG, 2, 1)
    assert p1 == p2
    assert c1.to_json() == c2.to_json()


def test_uniformize_validation():
    HG = Hypergraph(3, [(0, 1, 2)])
    with pytest.raises(HomredError, match="gamma > 0"):
        uniformize(HG, 2, 0)
    with pytest.raises(HomredError, match="gamma > 0"):
        uniformize(HG, 2, Fraction(-1, 2))
    with pytest.raises(HomredError, match="nothing to uniformize"):
        uniformize(Hypergraph(3, []), 2, 1)
    with pytest.raises(HomredError, match="q >= 1"):
        uniformize(HG, 0, 1)


# ---------------------------------------------------------------------------
# cut-to-j3star


def test_j3star_branch_product():
    assert J3STAR_BRANCH_PRODUCT == 6 * 18 * 46 == 4968


def test_j3star_minimal_r():
    G = star_graph(3)
    r = minimal_j3star_r(G, 14)
    assert r == 1555
    rhs = 8 * 58 ** (4 + 14 * 3 + 7)
    assert Fraction(46, 40) ** r >= rhs
    assert Fraction(46, 40) ** (r - 1) < rhs


def test_j3star_folded_matches_materialised():
    cut = CutInstance(star_graph(3), (1, 2, 3))
    inst, _ = build_cut_to_j3star(cut, s_override=1, r_override=1)
    value = count_ewhom(inst)
    assert value == 3926150328
    assert value == count_hom(materialise_cut_to_j3star(cut, 1, 1), j3star_tree().graph)


def test_j3star_full_verification():
    cut = CutInstance(star_graph(3), (1, 2, 3))
    inst, cert = build_cut_to_j3star(cut)
    assert cert.constants["s"] == 14
    assert cert.constants["r"] == 1555
    assert cert.constants["b"] == 2
    assert cert.constants["scale"] == 2 ** (14 * 1) * 4968**1555
    report = verify_certificate(cert)
    assert report["passed"]
    assert report["recovered"] == 3
    assert 0 <= report["ratio"] - 3 <= Fraction(1, 4)
    # the ~5700-digit scale must survive a serialisation round trip
    back = ReductionCertificate.from_json(cert.to_json())
    assert back.constants["scale"] == cert.constants["scale"]
    assert verify_certificate(back)["passed"]


# sha256 of the emitted files of each materialise_* builder on fixed inputs,
# so that any renumbering of the materialised vertices shows
MATERIALISED_SHA256 = {
    "cut-to-whom jq:3": "2e240f1dca05cb8944cdff9ad2b2b797f6393ded995c8af64212bcbf64c74f6b",
    "cut-to-whom spider": "8cf322424d7b0c48d4caa1f3918494a17dfd74d5e7f2bf63b0128ed0f27ef5e1",
    "potts-to-jq": "5b3072fdcfcd60a9e89c28a0ef44accc8b432a68f7ba33e9f331a81196e32465",
    "cut-to-j3star": "f11f19c538cf40c285bdb7e5ead779a8ce2375ff8981cdd45933bb943c6154d2",
}


def test_materialised_files_are_frozen():
    def digest(*texts):
        return hashlib.sha256("".join(texts).encode()).hexdigest()

    cut = CutInstance(cycle_graph(4), (0, 1, 2))
    # a tree whose junction roles sit away from the lowest ids
    spider = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (3, 7), (7, 8)])
    got = {}
    for name, H, s in (("cut-to-whom jq:3", junction_tree(3).graph, 2), ("cut-to-whom spider", spider, 3)):
        g, wt = materialise_cut_to_whom(cut, H, s)
        got[name] = digest(format_graph(g), format_weights(wt))
    got["potts-to-jq"] = digest(format_graph(materialise_potts_to_jq(cycle_graph(3), 3)))
    j3cut = CutInstance(cycle_graph(4), (0, 2, 3))
    got["cut-to-j3star"] = digest(format_graph(materialise_cut_to_j3star(j3cut, 2, 2)))
    assert got == MATERIALISED_SHA256


# the certify workload's cut trees with its terminals, and a triangle
MATERIALISED_CUTS = (
    ("P3", path_graph(3), (0, 1, 2)),
    ("K13", star_graph(3), (1, 2, 3)),
    ("P4", path_graph(4), (0, 1, 3)),
    ("C3", cycle_graph(3), (0, 1, 2)),
)


def _counter_text(total, edges, rows=None):
    """The emitted files of a graph numbered by a running counter, written
    out here without the package's graph or format code."""
    lines = sorted((min(u, v), max(u, v)) for u, v in edges)
    text = f"graph {total} {len(lines)}\n" + "".join(f"e {u} {v}\n" for u, v in lines)
    if rows is not None:
        h = len(rows[0])
        text += f"weights {total} {h}\n" + "".join(
            f"w {v} " + " ".join(map(str, rows[v])) + "\n" for v in range(total)
        )
    return text


@pytest.mark.parametrize("name, G, terminals", MATERIALISED_CUTS, ids=[c[0] for c in MATERIALISED_CUTS])
def test_materialised_j3star_graph_is_numbered_by_a_running_counter(name, G, terminals):
    cut = CutInstance(G, terminals)
    _, cert = build_cut_to_j3star(cut)
    for s, r in ((cert.constants["s"], cert.constants["r"]), (1, 1)):
        n = G.n
        w, x0, x1, y0, y1, z0, z1 = range(n, n + 7)
        edges = [(w, x0), (w, y0), (w, z0), (x0, x1), (y0, y1), (z0, z1)]
        edges += [(x1, terminals[0]), (y1, terminals[1]), (z1, terminals[2])]
        edges += [(w, v) for v in range(n)]
        counter = itertools.count(n + 7)
        for u, v in G.edges:
            for _ in range(s):
                mid = next(counter)
                edges += [(u, mid), (mid, v)]
        for _ in range(r):
            edges.append((x1, next(counter)))
        for _ in range(r):
            tip, root = next(counter), next(counter)
            edges += [(y1, root), (root, tip)]
        for _ in range(r):
            tip, middle, root = next(counter), next(counter), next(counter)
            edges += [(z1, root), (root, middle), (middle, tip)]
        want = _counter_text(next(counter), edges)
        # as lines, so that a failure names the first differing line cheaply
        assert format_graph(materialise_cut_to_j3star(cut, s, r)).splitlines() == want.splitlines()


@pytest.mark.parametrize("name, G, terminals", MATERIALISED_CUTS, ids=[c[0] for c in MATERIALISED_CUTS])
def test_materialised_whom_files_are_numbered_by_a_running_counter(name, G, terminals):
    cut = CutInstance(G, terminals)
    H = junction_tree(3).graph
    _, cert = build_cut_to_whom(cut, H)
    roles = find_induced_j3(H)
    roots = [roles["x0"], roles["y0"], roles["z0"]]
    mid_row = tuple(int(c in [roles[k] for k in ("w", "x1", "y1", "z1")]) for c in range(H.n))
    for s in (cert.constants["s"], 1):
        rows = [tuple(int(c in roots) for c in range(H.n)) for _ in range(G.n)]
        for t, root in zip(terminals, roots):
            rows[t] = tuple(int(c == root) for c in range(H.n))
        edges = []
        counter = itertools.count(G.n)
        for u, v in G.edges:
            for _ in range(s):
                mid = next(counter)
                edges += [(u, mid), (mid, v)]
                rows.append(mid_row)
        g, wt = materialise_cut_to_whom(cut, H, s)
        got = format_graph(g) + format_weights(wt)
        assert got.splitlines() == _counter_text(next(counter), edges, rows).splitlines()


def test_materialised_value_matches_certificate_value():
    cut = CutInstance(path_graph(3), (0, 1, 2))
    folded = [
        build_cut_to_whom(cut, junction_tree(3).graph, s_override=2)[1],
        build_potts_to_jq(cycle_graph(3), 3, s_override=2)[1],
        build_cut_to_j3star(cut, s_override=1, r_override=1)[1],
    ]
    for cert in folded:
        loaded = ReductionCertificate.from_json(cert.to_json())
        assert materialised_value(loaded) == certificate_value(loaded)
    for cert in (
        build_jq_to_hyperpotts(path_graph(3), 3)[1],
        uniformize(Hypergraph(3, [(0, 1, 2), (0, 1)]), 2, 1)[1],
    ):
        with pytest.raises(HomredError, match="no materialised form"):
            materialised_value(cert)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_json_round_trip():
    cut = CutInstance(star_graph(3), (1, 2, 3))
    _, cert = build_cut_to_whom(cut, junction_tree(3).graph)
    text = cert.to_json()
    back = ReductionCertificate.from_json(text)
    assert back.to_json() == text
    assert back.kind == cert.kind
    assert back.slack == cert.slack
    assert Fraction(back.constants["scale"]) == cert.constants["scale"]


def test_certificate_json_errors():
    with pytest.raises(HomredError, match="not valid JSON"):
        ReductionCertificate.from_json("{")
    with pytest.raises(HomredError, match="unknown certificate kind"):
        ReductionCertificate.from_json('{"kind": "mystery", "inputs": {}, "constants": {}, "slack": "0"}')
    with pytest.raises(HomredError, match="malformed certificate"):
        ReductionCertificate.from_json('{"kind": "cut-to-whom"}')


def test_certificate_tamper_detected():
    cut = CutInstance(path_graph(3), (0, 1, 2))
    _, cert = build_cut_to_whom(cut, junction_tree(3).graph)
    tampered = ReductionCertificate.from_json(cert.to_json())
    tampered.constants["b"] = 1
    report = verify_certificate(tampered)
    assert not report["constants_ok"]
    assert not report["passed"]

    tampered2 = ReductionCertificate.from_json(cert.to_json())
    tampered2.counters["min_cuts"] = 7
    report2 = verify_certificate(tampered2)
    assert not report2["constants_ok"]


def test_certificate_value_and_oracle():
    cut = CutInstance(star_graph(3), (1, 2, 3))
    inst, cert = build_cut_to_whom(cut, junction_tree(3).graph)
    assert certificate_value(cert) == count_ewhom(inst)
    assert certificate_oracle(cert) == 3


def test_certificate_oracle_never_touches_the_counting_engine(monkeypatch):
    cut = CutInstance(star_graph(3), (1, 2, 3))
    P3 = CutInstance(path_graph(3), (0, 1, 2))
    HG = Hypergraph(3, [(0, 1), (0, 1, 2), (2,)])
    certs = {
        "cut-to-whom": build_cut_to_whom(cut, junction_tree(3).graph)[1],
        "cut-to-j3star": build_cut_to_j3star(P3, s_override=1, r_override=1)[1],
        "potts-to-jq": build_potts_to_jq(path_graph(3), 3)[1],
        "jq-to-hyperpotts": build_jq_to_hyperpotts(path_graph(4), 3)[1],
        "uniformize": uniformize(HG, 2, Fraction(1), s_override=1)[1],
    }
    want = {
        "cut-to-whom": 3,
        "cut-to-j3star": 1,
        "potts-to-jq": potts_graph(path_graph(3), 3, 1),
        "jq-to-hyperpotts": potts_hypergraph(Hypergraph(2, [(0,), (0, 1)]), 3, 1),
        "uniformize": potts_hypergraph(HG, 2, 1),
    }
    assert want["potts-to-jq"] == 48 and want["jq-to-hyperpotts"] == 24

    def engine(*args, **kwargs):
        raise AssertionError("certificate_oracle reached the counting engine")

    for name, module in list(sys.modules.items()):
        if name == "homred" or name.startswith("homred."):
            for attr in ("count_ewhom", "count_hom", "count_whom", "sum_product"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, engine)
    with pytest.raises(AssertionError, match="counting engine"):
        multiterminal_cuts(cut.graph, cut.terminals)
    for kind, cert in certs.items():
        assert cert.kind == kind
        assert certificate_oracle(cert) == want[kind]


def test_verify_respects_inclusive_bounds():
    # the star instance has ratio exactly 3, so both sandwich ends can be
    # exercised with an explicit oracle
    cut = CutInstance(star_graph(3), (1, 2, 3))
    _, cert = build_cut_to_whom(cut, junction_tree(3).graph)
    assert verify_certificate(cert, oracle=Fraction(3))["passed"]
    # ratio sits exactly at truth + 1/4: still inside
    assert verify_certificate(cert, oracle=Fraction(11, 4))["passed"]
    assert not verify_certificate(cert, oracle=Fraction(10, 4))["passed"]
    assert not verify_certificate(cert, oracle=Fraction(13, 4))["passed"]


# ---------------------------------------------------------------------------
# the shared 2-path table and exponent search


def test_two_path_table_matches_dense_products():
    rng = random.Random(29)
    targets = [j3star_tree().graph, junction_tree(5).graph]
    targets += [random_tree(rng, rng.randint(1, 15)) for _ in range(20)]
    for H in targets:
        A = dense_adjacency(H)
        assert _two_path_table(H) == dense_product(A, A)
        for _ in range(3):
            mids = set(rng.sample(range(H.n), rng.randint(0, H.n)))
            through = [[int(i == j and i in mids) for j in range(H.n)] for i in range(H.n)]
            assert _two_path_table(H, mids) == dense_product(dense_product(A, through), A)


def test_minimal_exponents_match_step_loops():
    graphs = [path_graph(n) for n in (1, 2, 5, 9)]
    graphs += [cycle_graph(5), complete_graph(4), star_graph(6)]
    for G in graphs:
        for q in range(3, 12):
            assert minimal_potts_jq_s(G, q) == step_minimal_potts_jq_s(G, q)
        for s in (1, 2, 7, 3 + len(G.edges) + 2 * G.n):
            assert minimal_j3star_r(G, s) == step_minimal_j3star_r(G, s)
    hypergraphs = [
        Hypergraph(1, [(0,)]),
        Hypergraph(3, [(0, 1, 2)]),
        Hypergraph(4, [(0, 1), (1, 2, 3), (2, 3)]),
        Hypergraph(5, [(0,), (1, 2), (2, 3, 4), (0, 4)]),
    ]
    # with q <= 2, gamma = 1 and 3 put some bounds on an exact power of the base
    gammas = [Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), 1, Fraction(3, 2), 2, 3]
    for HG in hypergraphs:
        t = max(len(f) for f in HG.hyperedges)
        for q in (1, 2, 3):
            for gamma in gammas:
                want = step_minimal_uniformize_s(HG, q, gamma, t)
                assert minimal_uniformize_s(HG, q, gamma, t) == want
    HG, gamma = hypergraphs[2], Fraction(1, 1000)
    assert minimal_uniformize_s(HG, 2, gamma, 3) == step_minimal_uniformize_s(HG, 2, gamma, 3)
    # the largest cut instance the oracle admits (24 edges) at the default
    # s = 3 + m + 2n, too large an r to step up to in a test
    assert minimal_j3star_r(path_graph(25), 77) == 54634


def test_least_exponent_at_exact_powers():
    eps = Fraction(1, 10**9)
    for base in (Fraction(3, 2), Fraction(23, 20), Fraction(1001, 1000), Fraction(11, 2), Fraction(2)):
        for k in (1, 2, 3, 10, 57, 258):
            power = base**k
            assert _least_exponent(base, power) == k
            assert _least_exponent(base, power - eps) == k
            assert _least_exponent(base, power + eps) == k + 1
    assert _least_exponent(Fraction(3, 2), Fraction(1, 2)) == 1


def test_least_exponent_near_one_and_with_a_limit():
    # ln(1 + 1/10^20) is 0.0 as log(numerator) - log(denominator)
    base = 1 + Fraction(1, 10**20)
    assert _least_exponent(base, base**3) == 3
    assert _least_exponent(base, base**3, limit=5) == 3
    assert _least_exponent(base, 4, limit=10**6) == 10**6 + 1
    assert _least_exponent(Fraction(3, 2), Fraction(3, 2) ** 40, limit=39) == 40
    assert _least_exponent(1 + Fraction(1, 10**400), 2, limit=7) == 8
