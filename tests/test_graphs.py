import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from homred.errors import HomredError
from homred.graphs import (
    BIS_EQUIVALENT,
    CONTAINS_J3,
    STAR,
    Graph,
    Hypergraph,
    classify_tree,
    complete_bipartite,
    complete_bipartite_parts,
    complete_graph,
    components,
    cycle_graph,
    find_induced_j3,
    j3star_tree,
    junction_tree,
    path_graph,
    star_graph,
    two_stretch,
)
from oracles import (
    ahu_canonical,
    naive_contains_induced_tree,
    naive_graph_error,
    naive_graph_view,
    nonisomorphic_trees,
    random_tree,
)


def test_edge_normalisation_and_rejection():
    g = Graph(4, [(2, 3), (1, 0)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert not g.has_edge(0, 2)
    # out of range is no edge; vertex -1 must not wrap around to vertex 3
    assert not any(g.has_edge(u, v) for u, v in [(-1, 2), (2, -1), (4, 3), (3, 4), (-5, 9)])
    with pytest.raises(HomredError):
        Graph(3, [(0, 0)])
    with pytest.raises(HomredError):
        Graph(2, [(0, 3)])
    with pytest.raises(HomredError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(HomredError):
        Graph(-1, [])


def test_first_offending_edge_names_the_error():
    # the first bad edge in input order decides the message, as the input
    # is re-walked only after the one-pass check fails
    cases = [
        ([(0, 1), (1, 0), (5, 6)], "duplicate edge (0,1)"),
        ([(0, 1), (5, 6), (1, 0)], "edge (5,6) out of range for n=3"),
        ([(2, 2), (-1, 0)], "self-loop at vertex 2"),
        ([(0, 1), (-1, 0)], "edge (-1,0) out of range for n=3"),
    ]
    for edges, message in cases:
        with pytest.raises(HomredError, match=re.escape(message)):
            Graph(3, iter(edges))


def test_adjacency_sorted_from_any_edge_order():
    rng = random.Random(5)
    edges = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.5]
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rng.sample(edges, len(edges))]
    g = Graph(9, (e for e in shuffled))
    assert g.edges == tuple(edges)
    for v in range(9):
        assert list(g.neighbours(v)) == sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v})


@st.composite
def edge_list_cases(draw):
    """A shuffled edge list with random orientations, on up to 3,000
    vertices and up to a few thousand edges (bipartite about half the
    time), and possibly one injected bad edge: a duplicate, a reversed
    duplicate, a self-loop or an out-of-range endpoint."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 3000)))
    m = draw(st.integers(0, min(n * (n - 1) // 2, 3000)))
    side = [rng.random() < 0.5 for _ in range(n)] if draw(st.booleans()) else None
    pairs = set()
    for _ in range(4 * m):
        if len(pairs) == m:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (side is None or side[u] != side[v]):
            pairs.add((min(u, v), max(u, v)))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(edges)
    bad = draw(st.sampled_from((None, "duplicate", "reversed", "self-loop", "range")))
    if bad in ("duplicate", "reversed") and not edges:
        bad = "self-loop"
    if bad is not None:
        if bad in ("duplicate", "reversed"):
            u, v = rng.choice(edges)
            extra = (v, u) if bad == "reversed" else (u, v)
        elif bad == "self-loop":
            extra = (rng.randrange(n),) * 2
        else:
            far = rng.choice((-1 - rng.randrange(3), n + rng.randrange(3)))
            extra = (far, rng.randrange(n)) if rng.random() < 0.5 else (rng.randrange(n), far)
        edges.insert(rng.randrange(len(edges) + 1), extra)
    return n, edges


@settings(max_examples=60, deadline=None)
@given(edge_list_cases(), st.booleans())
def test_graph_matches_naive_reference(case, as_iterator):
    n, edges = case
    message = naive_graph_error(n, edges)
    if message is not None:
        with pytest.raises(HomredError) as exc:
            Graph(n, iter(edges) if as_iterator else edges)
        assert str(exc.value) == message
        return
    g = Graph(n, iter(edges) if as_iterator else edges)
    want_edges, want_nbrs, want_sides = naive_graph_view(n, edges)
    assert g.edges == tuple(want_edges)
    assert g.bipartition == want_sides  # read first: it builds the adjacency itself
    assert [list(g.neighbours(v)) for v in range(n)] == want_nbrs
    assert [g.degree(v) for v in range(n)] == [len(nb) for nb in want_nbrs]
    present = set(want_edges)
    probes = edges[:50] + [(v, u) for u, v in edges[:50]]
    probes += [(u, v) for u in range(min(n, 8)) for v in range(min(n, 8))]
    probes += [(-1, 0), (0, -1), (n, 0), (0, n)]
    for u, v in probes:
        assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in present)


def test_degrees_and_neighbours():
    g = star_graph(3)
    assert g.degree(0) == 3
    assert sorted(g.neighbours(0)) == [1, 2, 3]
    assert g.degree(2) == 1


def test_bipartition_deterministic_and_correct():
    g = path_graph(4)
    assert g.bipartition == (frozenset({0, 2}), frozenset({1, 3}))
    assert cycle_graph(5).bipartition is None
    # per-component colouring: smallest vertex of each component goes left
    g2 = Graph(5, [(0, 1), (3, 4)])
    left, right = g2.bipartition
    assert 0 in left and 3 in left and 2 in left
    assert right == frozenset({1, 4})


def test_connectivity_tree_star_predicates():
    assert path_graph(4).is_connected()
    assert not Graph(3, [(0, 1)]).is_connected()
    assert path_graph(5).is_tree()
    assert not cycle_graph(4).is_tree()
    assert not Graph(4, [(0, 1), (2, 3)]).is_tree()
    assert star_graph(4).is_star()
    assert path_graph(3).is_star()
    assert not path_graph(4).is_star()
    assert Graph(1, []).is_tree() and Graph(1, []).is_star()


def test_components_and_subgraph():
    g = Graph(6, [(0, 2), (2, 4), (1, 3)])
    comps = components(g)
    assert sorted(map(sorted, comps)) == [[0, 2, 4], [1, 3], [5]]
    sub, remap = g.subgraph([4, 0, 2])
    assert sub.n == 3
    assert remap == {0: 0, 2: 1, 4: 2}
    assert sub.edges == ((0, 1), (1, 2))


def test_builders():
    assert path_graph(1).n == 1 and path_graph(1).edges == ()
    assert len(cycle_graph(5).edges) == 5
    assert complete_graph(4).edges == tuple(
        (i, j) for i in range(4) for j in range(i + 1, 4)
    )
    kb = complete_bipartite(2, 3)
    assert kb.n == 5 and len(kb.edges) == 6
    assert kb.bipartition == (frozenset({0, 1}), frozenset({2, 3, 4}))


def test_complete_bipartite_parts():
    assert complete_bipartite_parts(complete_bipartite(2, 3)) == ((0, 1), (2, 3, 4))
    assert complete_bipartite_parts(cycle_graph(4)) == ((0, 2), (1, 3))
    assert complete_bipartite_parts(path_graph(4)) is None
    assert complete_bipartite_parts(cycle_graph(3)) is None
    # single vertex: one empty side
    assert complete_bipartite_parts(Graph(1, [])) is not None


def test_two_stretch():
    g = cycle_graph(3)
    st, mids = two_stretch(g)
    assert st.n == 6 and len(st.edges) == 6
    assert st.bipartition is not None  # stretching always bipartite
    assert mids == {(0, 1): 3, (0, 2): 4, (1, 2): 5}
    for (u, v), mid in mids.items():
        assert st.has_edge(u, mid) and st.has_edge(mid, v)


def test_contains_induced_known_cases():
    J3 = junction_tree(3).graph
    assert J3.n == 7 and len(J3.edges) == 6
    roles = find_induced_j3(J3)
    assert roles == {"w": 0, "x0": 1, "x1": 2, "y0": 3, "y1": 4, "z0": 5, "z1": 6}
    assert find_induced_j3(j3star_tree().graph) is not None
    assert find_induced_j3(junction_tree(4).graph) is not None
    assert find_induced_j3(star_graph(3)) is None
    assert find_induced_j3(path_graph(5)) is None
    with pytest.raises(HomredError):
        find_induced_j3(cycle_graph(4))


def test_contains_induced_matches_bruteforce():
    J3 = junction_tree(3).graph
    spider = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])  # legs 1, 1, 2
    trees = [T for n in range(1, 10) for T in nonisomorphic_trees(n)]
    trees += [j3star_tree().graph, junction_tree(4).graph, spider]
    for T in trees:
        roles = find_induced_j3(T)
        assert (roles is not None) == naive_contains_induced_tree(T, J3)
        if roles is not None:  # the roles themselves induce J3
            sub, _ = T.subgraph(roles.values())
            assert sub.is_tree() and ahu_canonical(sub) == ahu_canonical(J3)


def test_classify_small_paths_and_stars():
    assert classify_tree(Graph(1, [])) == STAR
    assert classify_tree(path_graph(2)) == STAR
    assert classify_tree(path_graph(3)) == STAR
    for n in range(4, 8):
        assert classify_tree(path_graph(n)) == BIS_EQUIVALENT
    for n in range(1, 6):
        assert classify_tree(star_graph(n)) == STAR
    assert classify_tree(junction_tree(3).graph) == CONTAINS_J3
    assert classify_tree(j3star_tree().graph) == CONTAINS_J3
    # spider with legs 1,1,2: path-like enough to stay junction-free
    spider = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    assert classify_tree(spider) == BIS_EQUIVALENT
    with pytest.raises(HomredError):
        classify_tree(cycle_graph(4))
    with pytest.raises(HomredError):
        classify_tree(Graph(4, [(0, 1), (2, 3)]))


def test_classify_trichotomy_exhaustive():
    """Independent re-derivation on every tree with up to 9 vertices."""
    P4 = path_graph(4)
    J3 = junction_tree(3).graph
    for n in range(2, 10):
        for T in nonisomorphic_trees(n):
            kind = classify_tree(T)
            if naive_contains_induced_tree(T, J3):
                assert kind == CONTAINS_J3
            elif naive_contains_induced_tree(T, P4):
                assert kind == BIS_EQUIVALENT
            else:
                assert kind == STAR
                assert T.is_star()


def test_junction_tree_shape():
    for q in (3, 4, 7):
        jt = junction_tree(q)
        g = jt.graph
        assert g.n == 2 * q + 1 and g.is_tree()
        w = jt.vertex("w")
        assert g.degree(w) == q
        for i in range(1, q + 1):
            inner = jt.vertex(f"c'{i}")
            outer = jt.vertex(f"c{i}")
            assert g.has_edge(w, inner) and g.has_edge(inner, outer)
            assert g.degree(outer) == 1


def test_j3star_shape():
    t = j3star_tree()
    g = t.graph
    assert g.n == 58 and len(g.edges) == 57 and g.is_tree()
    w = t.vertex("w")
    assert g.degree(w) == 3
    assert g.degree(t.vertex("x1")) == 6
    assert g.degree(t.vertex("y1")) == 5
    assert g.degree(t.vertex("z1")) == 4
    # branch necks: w - x0 - x1 etc.
    for b in "xyz":
        assert g.has_edge(w, t.vertex(f"{b}0"))
        assert g.has_edge(t.vertex(f"{b}0"), t.vertex(f"{b}1"))


def test_target_tree_lookup_and_custom():
    jt = junction_tree(3)
    with pytest.raises(HomredError):
        jt.vertex("nope")


def test_hypergraph_validation():
    hg = Hypergraph(4, [(0, 1, 2), (1, 2, 0), (3,)])
    assert hg.hyperedges == ((0, 1, 2), (0, 1, 2), (3,))  # multiset kept, sorted
    with pytest.raises(HomredError):
        Hypergraph(2, [()])
    with pytest.raises(HomredError):
        Hypergraph(2, [(0, 2)])
    # a vertex repeated inside one hyperedge collapses (vertex-set semantics)
    assert Hypergraph(2, [(0, 0)]).hyperedges == ((0,),)


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])


def test_random_trees_are_trees():
    rng = random.Random(0)
    for _ in range(30):
        T = random_tree(rng, rng.randint(1, 12))
        assert T.is_tree()
    # AHU canonical form separates the two 4-vertex tree shapes
    assert ahu_canonical(path_graph(4)) != ahu_canonical(star_graph(3))
    assert ahu_canonical(Graph(4, [(3, 1), (1, 0), (1, 2)])) == ahu_canonical(star_graph(3))
