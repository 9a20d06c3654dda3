"""Convex orderings on junction-free trees and the side-by-side CSP reduction."""

import random
from fractions import Fraction

import pytest

from homred.convex import (
    ConvexOrder,
    convex_order,
    convex_order_from_bijections,
    qualifying_leaves,
    reduce_whom_side,
    side_variable_layout,
    whom_via_csp,
)
from homred.csp import count_csp, count_wcsp
from homred.errors import HomredError
from homred.graphs import Graph, classify_tree, cycle_graph, junction_tree, path_graph, star_graph
from homred.homcount import WeightTable, count_whom

from oracles import (
    naive_whom,
    nonisomorphic_trees,
    random_connected_bipartite,
    random_tree,
    random_weight_rows,
)


def junction_free_trees(max_n):
    yield Graph(1, [])
    for n in range(2, max_n + 1):
        for tree in nonisomorphic_trees(n):
            if classify_tree(tree) != "ContainsJ3":
                yield tree


# ---------------------------------------------------------------------------
# orderings


def test_worked_seven_vertex_ordering():
    # Two-level tree: left side {0,1,2,3} at positions 1..4, right side
    # {4,5,6} at positions 1..3, with vertex 2 adjacent to the whole right
    # side.  The crossing intervals below were worked out by hand.
    H = Graph(7, [(0, 4), (1, 4), (2, 4), (2, 5), (2, 6), (3, 6)])
    order = convex_order_from_bijections(
        H, [0, 1, 2, 3], [4, 5, 6], {0: 1, 1: 2, 2: 3, 3: 4}, {4: 1, 5: 2, 6: 3}
    )
    assert order.h == 4 and order.hp == 3
    assert order.m == {1: 1, 2: 1, 3: 1, 4: 3}
    assert order.M == {1: 1, 2: 1, 3: 3, 4: 3}
    assert order.mp == {1: 1, 2: 3, 3: 3}
    assert order.Mp == {1: 3, 2: 3, 3: 4}


def test_convex_order_path4():
    order = convex_order(path_graph(4))
    assert order.U == (0, 2) and order.Up == (1, 3)
    assert order.pi == {2: 1, 0: 2}
    assert order.m == {1: 1, 2: 2} and order.M == {1: 2, 2: 2}


def test_convex_order_long_path():
    # peeling is a loop: 750 layers deep stays within the default recursion limit
    order = convex_order(path_graph(1500))
    assert order.pi == {v: 750 - v // 2 for v in range(0, 1500, 2)}
    assert order.pip == {v: 750 - v // 2 for v in range(1, 1500, 2)}


def test_convex_order_single_vertex():
    order = convex_order(Graph(1, []))
    assert order == ConvexOrder((0,), (), {0: 1}, {}, {1: 1}, {1: 0}, {}, {})
    assert order.h == 1 and order.hp == 0


def test_convex_order_single_edge():
    order = convex_order(Graph(2, [(0, 1)]))
    assert order.U == (0,) and order.Up == (1,)
    assert order.m == {1: 1} and order.M == {1: 1}
    assert order.mp == {1: 1} and order.Mp == {1: 1}


def test_convex_order_star():
    order = convex_order(star_graph(4))
    # leaves on one side, centre alone on the other
    sides = {order.U, order.Up}
    assert (1, 2, 3, 4) in sides and (0,) in sides


def test_junction_rejected():
    with pytest.raises(HomredError, match="induced 3-branch junction"):
        convex_order(junction_tree(3).graph)


def test_non_tree_rejected():
    with pytest.raises(HomredError, match="built for trees"):
        convex_order(cycle_graph(4))


def test_qualifying_leaves():
    assert qualifying_leaves(path_graph(4)) == [0, 3]
    assert qualifying_leaves(star_graph(4)) == [1, 2, 3, 4]
    # spider with legs 2, 2, 1: only the two far tips qualify, the pendant
    # hangs off a centre that already has two non-leaf neighbours
    spider = Graph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    assert qualifying_leaves(spider) == [2, 4]


def test_every_qualifying_leaf_gives_valid_order():
    # convex_order_from_bijections re-checks the interval property, so
    # building the order at all certifies convexity.  Swapping a leaf
    # with vertex 0 makes it the smallest qualifying leaf, where the
    # peeling starts.
    for tree in junction_free_trees(10):
        if tree.n < 2:
            continue
        leaves = qualifying_leaves(tree)
        assert leaves
        for leaf in leaves:
            swap = {0: leaf, leaf: 0}
            swapped = Graph(tree.n, [(swap.get(u, u), swap.get(v, v)) for u, v in tree.edges])
            assert qualifying_leaves(swapped)[0] == 0
            order = convex_order(swapped)
            assert sorted(order.U + order.Up) == list(range(tree.n))
            assert sorted(order.pi.values()) == list(range(1, order.h + 1))
            assert sorted(order.pip.values()) == list(range(1, order.hp + 1))
            # the starting leaf lands last on its side
            assert (order.pi[0] == order.h) if 0 in order.pi else (order.pip[0] == order.hp)


def test_bijection_validation():
    H = path_graph(4)
    with pytest.raises(HomredError, match="partition the vertex set"):
        convex_order_from_bijections(H, [0, 2], [1], {0: 1, 2: 2}, {1: 1})
    with pytest.raises(HomredError, match="does not cross"):
        convex_order_from_bijections(H, [0, 1], [2, 3], {0: 1, 1: 2}, {2: 1, 3: 2})
    with pytest.raises(HomredError, match="pi must biject"):
        convex_order_from_bijections(H, [0, 2], [1, 3], {0: 1, 2: 1}, {1: 1, 3: 2})
    with pytest.raises(HomredError, match="ordering is not convex"):
        convex_order_from_bijections(
            path_graph(5), [0, 2, 4], [1, 3], {0: 1, 2: 3, 4: 2}, {1: 1, 3: 2}
        )


def test_swapped_round_trip():
    order = convex_order(path_graph(4))
    back = order.swapped().swapped()
    assert back == order
    sw = order.swapped()
    assert sw.U == order.Up and sw.pi == order.pip
    assert sw.m == order.mp and sw.Mp == order.M


# ---------------------------------------------------------------------------
# layout and per-side reduction


def test_side_variable_layout():
    layout, nvars = side_variable_layout([0, 2], [1], 2, 2)
    # left vertices first in sorted order, h+1 slots each, then right
    assert nvars == 9
    assert layout[(0, 0)] == 0 and layout[(0, 2)] == 2
    assert layout[(2, 0)] == 3 and layout[(1, 2)] == 8
    assert layout[(0, 1)] == 1
    assert len(layout) == 9


def test_reduce_whom_side_single_vertex_split():
    # one free vertex mapped into a 4-path: the two sides of the target
    # partition its weight row
    H = path_graph(4)
    order = convex_order(H)
    wt = WeightTable(1, 4, {0: (2, 3, 5, 7)})
    G = Graph(1, [])
    own = reduce_whom_side(G, [0], [], order, wt)
    swap = reduce_whom_side(G, [0], [], order.swapped(), wt)
    assert count_wcsp(own.instance) == 7  # weights of vertices 0 and 2
    assert count_wcsp(swap.instance) == 10  # weights of vertices 1 and 3
    assert whom_via_csp(G, H, wt) == 17


def test_reduce_whom_side_unweighted_chain():
    G = path_graph(3)
    H = path_graph(4)
    order = convex_order(H)
    wt = WeightTable(3, 4)
    own = reduce_whom_side(G, [0, 2], [1], order, wt)
    swap = reduce_whom_side(G, [0, 2], [1], order.swapped(), wt)
    assert count_wcsp(own.instance) == 5
    assert count_wcsp(swap.instance) == 5
    assert count_whom(G, H, wt) == 10
    assert own.left == (0, 2) and own.right == (1,)


def test_reduce_whom_side_validation():
    G = path_graph(3)
    order = convex_order(path_graph(4))
    wt = WeightTable(3, 4)
    with pytest.raises(HomredError, match="does not cross"):
        reduce_whom_side(G, [0, 1], [2], order, wt)
    with pytest.raises(HomredError, match="dimensions do not match"):
        reduce_whom_side(G, [0, 2], [1], order, WeightTable(3, 3))


def test_csp_solutions_match_side_restricted_homs():
    # every satisfying assignment encodes one homomorphism that sends the
    # left side into the target's left side, and vice versa
    G = path_graph(3)
    H = path_graph(4)
    order = convex_order(H)
    red = reduce_whom_side(G, [0, 2], [1], order, WeightTable(3, 4))

    def side_homs():
        total = 0
        for a in (0, 2):
            for b in (1, 3):
                for c in (0, 2):
                    if H.has_edge(a, b) and H.has_edge(b, c):
                        total += 1
        return total

    assert count_csp(red.instance.unweighted()) == side_homs() == 5


# ---------------------------------------------------------------------------
# end-to-end counting


def test_whom_via_csp_matches_direct_small():
    targets = [path_graph(4), star_graph(3), path_graph(6), Graph(2, [(0, 1)])]
    graphs = [
        Graph(1, []),
        path_graph(2),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(6),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
    ]
    for H in targets:
        for G in graphs:
            wt = WeightTable(G.n, H.n)
            assert whom_via_csp(G, H, wt) == count_whom(G, H, wt)


def test_whom_via_csp_non_bipartite_is_zero():
    for G in (cycle_graph(3), cycle_graph(5)):
        wt = WeightTable(G.n, 4)
        assert whom_via_csp(G, path_graph(4), wt) == 0
        assert count_whom(G, path_graph(4), wt) == 0


def test_whom_via_csp_random_weighted():
    rng = random.Random(1743)
    for trial in range(60):
        # junction-free target tree
        while True:
            H = random_tree(rng, rng.randint(1, 7))
            if H.n < 2 or classify_tree(H) != "ContainsJ3":
                break
        if trial % 3 == 0:
            G = random_connected_bipartite(rng, rng.randint(1, 6))
        elif trial % 3 == 1:
            # disconnected: two bipartite pieces
            a = random_connected_bipartite(rng, rng.randint(1, 3))
            b = random_connected_bipartite(rng, rng.randint(1, 3))
            edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
            G = Graph(a.n + b.n, edges)
        else:
            # arbitrary graph, possibly odd cycles
            n = rng.randint(1, 5)
            pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
            G = Graph(n, rng.sample(pool, min(len(pool), rng.randint(0, 6))))
        rows = random_weight_rows(rng, G.n, H.n)
        wt = WeightTable(G.n, H.n, rows)
        assert whom_via_csp(G, H, wt) == naive_whom(G, H, rows)


def test_whom_via_csp_zero_weights():
    # a zero weight must kill exactly the maps through that colour
    G = path_graph(2)
    H = path_graph(4)
    wt = WeightTable(2, 4, {0: (0, 1, 1, 1)})
    assert whom_via_csp(G, H, wt) == count_whom(G, H, wt) == 5
