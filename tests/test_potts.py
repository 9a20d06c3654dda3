import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from homred.errors import HomredError
from homred.graphs import (
    Graph,
    Hypergraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from homred.codes import LinearCode, build_potts_code, check_q_to_one, weight_enumerator
from homred.gadgets import multiterminal_cuts
from homred.potts import (
    count_proper_colourings,
    hypergraph_mono_histogram,
    potts_graph,
    potts_hypergraph,
    random_cluster_graph,
    reduce_potts_to_bqcol,
)

from oracles import naive_mono_histogram


def naive_potts(G: Graph, q, gamma):
    total = Fraction(0)
    for sigma in product(range(q), repeat=G.n):
        term = Fraction(1)
        for u, v in G.edges:
            term *= 1 + gamma * (sigma[u] == sigma[v])
        total += term
    return total


def naive_hyperpotts(HG: Hypergraph, q, gamma):
    total = Fraction(0)
    for sigma in product(range(q), repeat=HG.n):
        term = Fraction(1)
        for f in HG.hyperedges:
            term *= 1 + gamma * (len({sigma[v] for v in f}) == 1)
        total += term
    return total


def random_graph(rng, n, p=0.4):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_known_values():
    assert potts_graph(complete_graph(2), 3, Fraction(3)) == 18
    assert potts_graph(complete_graph(2), 3, Fraction(0)) == 9
    assert potts_graph(Graph(2, []), 5, Fraction(7)) == 25
    assert potts_graph(Graph(0, []), 3, Fraction(1)) == 1


def test_matches_bruteforce():
    rng = random.Random(23)
    for _ in range(30):
        G = random_graph(rng, rng.randint(1, 5))
        q = rng.randint(1, 4)
        gamma = Fraction(rng.randint(-1, 5), rng.randint(1, 3))
        assert potts_graph(G, q, gamma) == naive_potts(G, q, gamma)


def test_q1_collapses_to_edge_product():
    rng = random.Random(29)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 6))
        gamma = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        assert potts_graph(G, 1, gamma) == (1 + gamma) ** len(G.edges)


def test_histogram_is_a_probability_count():
    G = path_graph(3)
    hist = hypergraph_mono_histogram(Hypergraph(G.n, G.edges), 2)
    assert hist == {0: 2, 1: 4, 2: 2}
    assert sum(hist.values()) == 2**3
    # evaluating the histogram polynomial reproduces the partition function
    for gamma in (Fraction(1), Fraction(1, 2), Fraction(3)):
        val = sum(c * (1 + gamma) ** k for k, c in hist.items())
        assert val == potts_graph(G, 2, gamma)


def test_random_cluster_agrees():
    rng = random.Random(31)
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 6))
        q = rng.randint(1, 4)
        gamma = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        assert random_cluster_graph(G, q, gamma) == potts_graph(G, q, gamma)
    assert random_cluster_graph(complete_graph(2), 3, Fraction(3)) == 18


def test_hypergraph_potts():
    hg = Hypergraph(3, [(0, 1, 2)])
    assert potts_hypergraph(hg, 2, Fraction(1)) == 10
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        hyperedges = []
        for _ in range(m):
            k = rng.randint(1, n)
            hyperedges.append(tuple(rng.sample(range(n), k)))
        hg = Hypergraph(n, hyperedges)
        q = rng.randint(1, 3)
        gamma = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        assert potts_hypergraph(hg, q, gamma) == naive_hyperpotts(hg, q, gamma)


def test_duplicate_hyperedges_group_into_powers():
    base = Hypergraph(3, [(0, 1)])
    doubled = Hypergraph(3, [(0, 1), (1, 0)])
    g = Fraction(2)
    # doubling the hyperedge squares its local factor, so the doubled value
    # matches a naive product but not 2x the single value
    assert potts_hypergraph(doubled, 2, g) == naive_hyperpotts(doubled, 2, g)
    hist = hypergraph_mono_histogram(doubled, 2)
    assert sum(hist.values()) == 2**3
    assert max(hist) == 2  # the two copies count separately in the exponent


def test_graph_potts_on_two_vertex_hyperedges_agrees():
    rng = random.Random(41)
    for _ in range(10):
        G = random_graph(rng, rng.randint(2, 5))
        if not G.edges:
            continue
        hg = Hypergraph(G.n, list(G.edges))
        q = rng.randint(1, 3)
        gamma = Fraction(rng.randint(1, 3), 2)
        assert potts_hypergraph(hg, q, gamma) == potts_graph(G, q, gamma)


GAMMAS = st.sampled_from([-3, -2, -1, Fraction(-3, 2), Fraction(-1, 2), 0]) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def hypergraph_cases(draw, uniform=None):
    """(n, hyperedges, q, gamma) with q^n <= 1024: isolated vertices, n = 0,
    singleton and duplicate hyperedges all occur."""
    q = draw(st.integers(1, 4))
    n = draw(st.integers(0, {1: 7, 2: 7, 3: 6, 4: 5}[q]))
    size = st.just(uniform) if uniform else st.integers(1, max(n, 1))
    hyperedges = []
    if n >= (uniform or 1):
        for _ in range(draw(st.integers(0, 6))):
            f = tuple(draw(st.permutations(range(n)))[: draw(size)])
            hyperedges.extend([f] * draw(st.sampled_from([1, 1, 2])))
    return n, hyperedges, q, Fraction(draw(GAMMAS))


@settings(max_examples=120, deadline=None)
@given(hypergraph_cases())
@example((0, [], 3, Fraction(-1)))
@example((3, [(0,), (0, 1, 2), (1, 2, 0)], 2, Fraction(-1)))
@example((4, [(1, 2), (1, 2), (3,)], 3, Fraction(-5, 2)))
def test_hypergraph_potts_matches_naive(case):
    n, hyperedges, q, gamma = case
    hg = Hypergraph(n, hyperedges)
    got = potts_hypergraph(hg, q, gamma)
    assert type(got) is Fraction
    assert got == naive_hyperpotts(hg, q, gamma)


@settings(max_examples=120, deadline=None)
@given(hypergraph_cases(uniform=2))
@example((0, [], 2, Fraction(-3)))
@example((3, [(0, 1)], 4, Fraction(-1)))
def test_graph_potts_matches_naive(case):
    n, pairs, q, gamma = case
    G = Graph(n, set(tuple(sorted(e)) for e in pairs))
    assert potts_graph(G, q, gamma) == naive_potts(G, q, gamma)


@settings(max_examples=120, deadline=None)
@given(hypergraph_cases() | hypergraph_cases(uniform=2))
@example((0, [], 3, Fraction(1)))
@example((5, [(3,), (3,), (0, 2)], 2, Fraction(1)))
@example((4, [(0, 1), (1, 2), (2, 3), (0, 3)], 3, Fraction(1)))
def test_mono_histogram_matches_naive(case):
    n, hyperedges, q, _ = case
    hg = Hypergraph(n, hyperedges)
    assert hypergraph_mono_histogram(hg, q) == naive_mono_histogram(hg, q)


def test_enumeration_cap():
    # 10^8 = q^n itself is allowed: (10^3 + 10) on the hyperedge times
    # 10 per isolated vertex
    assert potts_hypergraph(Hypergraph(8, [(0, 1, 2)]), 10, Fraction(1)) == 1010 * 10**5
    with pytest.raises(HomredError, match="needs 129140163 enumeration steps"):
        potts_hypergraph(Hypergraph(17, [(0, 1, 2)]), 3, Fraction(1))


def _identity_rows(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


@pytest.mark.parametrize(
    "refused, steps, cap",
    [
        pytest.param(
            lambda: potts_hypergraph(Hypergraph(17, [(0, 1)]), 3, 1), 3**17, 10**8, id="potts"
        ),
        pytest.param(
            lambda: hypergraph_mono_histogram(Hypergraph(17, [(0, 1), (1, 2)]), 3),
            3**17,
            10**8,
            id="potts-oracle",
        ),
        pytest.param(
            lambda: random_cluster_graph(cycle_graph(27), 2, 1), 2**27, 10**8, id="random-cluster"
        ),
        pytest.param(
            lambda: multiterminal_cuts(path_graph(26), (0, 12, 25)), 2**25, 2**24, id="cuts"
        ),
        pytest.param(
            lambda: weight_enumerator(LinearCode(2, 27, _identity_rows(27)), Fraction(1, 2)),
            2**27 * 27 * 27,
            10**8,
            id="codewords",
        ),
        pytest.param(
            lambda: check_q_to_one(build_potts_code(path_graph(27), 2, 1)),
            2**27,
            10**8,
            id="q-to-one",
        ),
    ],
)
def test_every_enumeration_refusal_shares_one_budget(refused, steps, cap):
    with pytest.raises(HomredError) as exc:
        refused()
    assert str(exc.value).endswith(f" needs {steps} enumeration steps, above the cap of {cap}")


def test_validation():
    with pytest.raises(HomredError):
        potts_graph(complete_graph(2), 0, Fraction(1))
    with pytest.raises(HomredError):
        potts_hypergraph(Hypergraph(2, [(0, 1)]), 0, Fraction(1))


def test_proper_colourings():
    assert count_proper_colourings(complete_graph(2), 4) == 12
    assert count_proper_colourings(path_graph(3), 3) == 12
    assert count_proper_colourings(star_graph(3), 2) == 2
    with pytest.raises(HomredError):
        count_proper_colourings(cycle_graph(3), 3)
    # brute check on bipartite graphs
    rng = random.Random(43)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 5), p=0.3)
        if G.bipartition is None:
            continue
        q = rng.randint(1, 4)
        brute = sum(
            all(sigma[u] != sigma[v] for u, v in G.edges)
            for sigma in product(range(q), repeat=G.n)
        )
        assert count_proper_colourings(G, q) == brute


def test_bqcol_identity():
    red = reduce_potts_to_bqcol(complete_graph(2), 4)
    assert count_proper_colourings(red.stretched, 4) == 36
    assert red.scale * potts_graph(complete_graph(2), 4, red.gamma) == 36
    rng = random.Random(47)
    for q in (3, 4, 5):
        for _ in range(8):
            G = random_graph(rng, rng.randint(1, 5))
            red = reduce_potts_to_bqcol(G, q)
            assert red.gamma == Fraction(1, q - 2)
            lhs = count_proper_colourings(red.stretched, q)
            assert lhs == red.scale * potts_graph(G, q, red.gamma)
    with pytest.raises(HomredError):
        reduce_potts_to_bqcol(complete_graph(2), 2)
