import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homred.errors import HomredError
from homred.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    j3star_tree,
    junction_tree,
    path_graph,
    star_graph,
)
from homred.homcount import (
    EdgeWeightedInstance,
    WALK_TABLE_ROWS,
    WeightTable,
    WalkProfile,
    _SparseTable,
    _lump,
    complete_bipartite_whom,
    count_ewhom,
    count_hom,
    count_whom,
    format_walk_table,
    j3star_walk_table,
    sum_product,
    walk_profile,
)
from oracles import (
    ahu_rooted,
    dense_adjacency,
    dense_product,
    naive_ewhom,
    naive_hom,
    naive_whom,
    random_tree,
    random_weight_rows,
)

GOLDEN = Path(__file__).parent / "golden" / "walk_table.txt"


def random_graph(rng, n, p=0.4):
    return Graph(
        n,
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


def test_weight_table_validation():
    with pytest.raises(HomredError):
        WeightTable(2, 2, {0: (1,)})
    with pytest.raises(HomredError):
        WeightTable(2, 2, {5: (1, 1)})
    with pytest.raises(HomredError):
        WeightTable(2, 2, {0: (-1, 1)})
    with pytest.raises(HomredError):
        WeightTable(2, 0)
    assert WeightTable(3, 2).row(1) == (Fraction(1), Fraction(1))


def test_count_hom_known_values():
    assert count_hom(complete_graph(2), path_graph(4)) == 6
    assert count_hom(path_graph(2), complete_graph(3)) == 6
    assert count_hom(cycle_graph(4), complete_graph(2)) == 2
    assert count_hom(cycle_graph(3), complete_graph(2)) == 0
    # single-vertex target takes everything without edges, nothing with
    K1 = Graph(1, [])
    assert count_hom(Graph(3, []), K1) == 1
    assert count_hom(path_graph(2), K1) == 0
    # disconnected sources multiply
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert count_hom(two_k2, path_graph(4)) == 36


def test_count_hom_into_large_targets():
    # P3 counts sum deg^2 over the target: linear in the target, not quadratic
    P3 = path_graph(3)
    N = 10**5
    assert count_hom(P3, star_graph(N)) == N * N + N
    q = 10**4  # the centre has degree q, each c'_i degree 2, each c_i degree 1
    assert count_hom(P3, junction_tree(q).graph) == q * q + 5 * q


def test_count_hom_matches_bruteforce():
    rng = random.Random(11)
    targets = [
        path_graph(4),
        star_graph(3),
        complete_graph(3),
        cycle_graph(4),
        junction_tree(3).graph,
    ]
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 5))
        H = rng.choice(targets)
        assert count_hom(G, H) == naive_hom(G, H)


def test_count_whom_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 5))
        H = rng.choice([path_graph(4), star_graph(3), cycle_graph(4)])
        rows = random_weight_rows(rng, G.n, H.n)
        wt = WeightTable(G.n, H.n, rows)
        assert count_whom(G, H, wt) == naive_whom(G, H, [wt.row(v) for v in range(G.n)])


def test_count_whom_rejects_mismatched_table():
    with pytest.raises(HomredError):
        count_whom(path_graph(2), path_graph(4), WeightTable(2, 3))
    with pytest.raises(HomredError):
        count_whom(path_graph(3), path_graph(4), WeightTable(2, 4))


def test_count_ewhom_tables_and_multiplicities():
    rng = random.Random(17)
    H = path_graph(4)
    A = dense_adjacency(H)
    A2 = dense_product(A, A)
    for _ in range(25):
        G = random_graph(rng, rng.randint(2, 5))
        tables = {}
        mult = {}
        for e in G.edges:
            if rng.random() < 0.5:
                tables[e] = A2
            if rng.random() < 0.5:
                mult[e] = rng.randint(2, 3)
        weights = random_weight_rows(rng, G.n, H.n, zero_chance=0.2)
        inst = EdgeWeightedInstance(
            G, H, vertex_weights=weights, edge_tables=tables, edge_mult=mult
        )
        assert count_ewhom(inst) == naive_ewhom(
            G, H, vertex_weights=weights, edge_tables=tables, edge_mult=mult
        )


def _cycle_edges(k, offset=0):
    return [(offset + j, offset + (j + 1) % k) for j in range(k)]


# Elimination cores of treewidth 2 and 3 on at most seven vertices.
DIFF_CORES = [
    cycle_graph(3),
    cycle_graph(5),
    Graph(5, _cycle_edges(5) + [(0, 2)]),
    Graph(6, _cycle_edges(6) + [(0, 3), (1, 4)]),
    Graph(7, _cycle_edges(7) + [(0, 3)]),
    complete_graph(4),
    Graph(5, _cycle_edges(4, 1) + [(0, v) for v in range(1, 5)]),  # wheel W4
    Graph(6, _cycle_edges(5, 1) + [(0, v) for v in range(1, 6)]),  # wheel W5
]
ENTRIES = st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)])
MAX_ASSIGNMENTS = 4096  # h ** n of the materialised graph, to keep the oracle quick


@st.composite
def ewhom_cases(draw):
    """A relabelled core, optionally with a pendant branch of one or two
    vertices carrying a vertex multiplicity, plus the instance data.

    Returns the folded instance and the materialised graph (the branch
    copied ``m`` times) with the weights, tables and multiplicities that
    ``naive_ewhom`` reads for it."""
    core = draw(st.sampled_from(DIFF_CORES))
    k = core.n
    branch = draw(st.integers(0, 2))
    mult = draw(st.integers(2, 3)) if branch else 1
    while k + mult * branch > 7:
        if mult > 2:
            mult -= 1
        else:
            branch -= 1
    mult = mult if branch else 1
    n_mat = k + mult * branch
    h = draw(st.sampled_from([h for h in range(5, 1, -1) if h**n_mat <= MAX_ASSIGNMENTS]))

    perm = draw(st.permutations(range(k)))
    edges = [(perm[u], perm[v]) for u, v in core.edges]
    if branch:
        edges.append((draw(st.integers(0, k - 1)), k))
    if branch == 2:
        edges.append((k, k + 1))
    G = Graph(k + branch, edges)
    H = Graph(h, [(a, b) for a in range(h) for b in range(a + 1, h) if draw(st.booleans())])

    def table():
        T = [[draw(ENTRIES) for _ in range(h)] for _ in range(h)]
        zero_row = draw(st.none() | st.integers(0, h - 1))
        zero_col = draw(st.none() | st.integers(0, h - 1))
        for c in range(h):
            if zero_row is not None:
                T[zero_row][c] = 0
            if zero_col is not None:
                T[c][zero_col] = 0
        return T

    tables = {e: table() for e in G.edges if draw(st.booleans())}
    emult = {e: draw(st.integers(2, 3)) for e in G.edges if draw(st.booleans())}
    weights = {
        v: tuple(draw(ENTRIES) for _ in range(h)) for v in range(G.n) if draw(st.booleans())
    }
    folded = EdgeWeightedInstance(
        G, H, vertex_weights=weights, edge_tables=tables, edge_mult=emult,
        vertex_mult={k: mult} if branch else {},
    )

    # copy j of branch vertex k + i is k + j * branch + i; ids keep their
    # order, so every copied edge keeps the orientation of its table
    copy = lambda v, j: v if v < k else v + j * branch
    mat_edges, mat_tables, mat_mult, mat_weights = [], {}, {}, {}
    for j in range(mult):
        for e in G.edges:
            if j and e[1] < k:
                continue
            f = (copy(e[0], j), copy(e[1], j))
            mat_edges.append(f)
            if e in tables:
                mat_tables[f] = tables[e]
            if e in emult:
                mat_mult[f] = emult[e]
        for v, row in weights.items():
            mat_weights[copy(v, j)] = row
    materialised = (Graph(n_mat, mat_edges), H, mat_weights, mat_tables, mat_mult)
    return folded, materialised


@settings(max_examples=60, deadline=None)
@given(ewhom_cases())
def test_count_ewhom_matches_naive_on_rational_cores(case):
    folded, (G, H, weights, tables, mult) = case
    got = count_ewhom(folded)
    assert type(got) is Fraction
    assert got == naive_ewhom(G, H, vertex_weights=weights, edge_tables=tables, edge_mult=mult)


@st.composite
def pendant_forest_cases(draw):
    """A forest with shuffled ids, asymmetric tables shared between edges,
    and up to two pendant branches (a leaf, or a vertex with one leaf
    child) carrying vertex multiplicity 2 or 3.

    Returns the folded instance and the materialised forest (each branch
    copied ``m`` times) with the data ``naive_ewhom`` reads for it.  The
    branch leaves take the smallest ids, so every branch is folded whole
    into its root before anything else can reach that root."""
    b = draw(st.integers(1, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, b) if draw(st.booleans())]
    branches, leaves, n_mat = {}, [], b  # branch root -> multiplicity
    for _ in range(draw(st.integers(0, 2))):
        size, m = draw(st.integers(1, 2)), draw(st.integers(2, 3))
        if n_mat + size * m > 8:
            continue
        root = b + len(branches) + len(leaves)
        edges.append((draw(st.integers(0, b - 1)), root))
        branches[root] = m
        if size == 2:
            leaves.append(root + 1)
            edges.append((root, root + 1))
        n_mat += size * m
    n = b + len(branches) + len(leaves)
    h = draw(st.sampled_from([h for h in range(5, 1, -1) if h**n_mat <= MAX_ASSIGNMENTS]))
    others = [v for v in range(n) if v not in leaves]
    fid = dict(zip(leaves + others, draw(st.permutations(range(len(leaves))))
                   + [len(leaves) + i for i in draw(st.permutations(range(len(others))))]))
    H = Graph(h, [(a, c) for a in range(h) for c in range(a + 1, h) if draw(st.booleans())])

    def table():
        T = [[draw(ENTRIES) for _ in range(h)] for _ in range(h)]
        for i in draw(st.lists(st.integers(0, h - 1), max_size=1)):
            T[i] = [0] * h
        for j in draw(st.lists(st.integers(0, h - 1), max_size=1)):
            for row in T:
                row[j] = 0
        return T

    def row():
        if draw(st.integers(0, 5)) == 0:
            return (0,) * h
        return tuple(draw(ENTRIES) for _ in range(h))

    pool = [table() for _ in range(draw(st.integers(1, 2)))]
    tables = {e: draw(st.sampled_from(pool)) for e in edges if draw(st.booleans())}
    emult = {e: draw(st.integers(2, 3)) for e in edges if draw(st.booleans())}
    weights = {v: row() for v in range(n) if draw(st.booleans())}

    def folded_edge(e):
        return tuple(sorted((fid[e[0]], fid[e[1]])))

    folded = EdgeWeightedInstance(
        Graph(n, [folded_edge(e) for e in edges]),
        H,
        vertex_weights={fid[v]: r for v, r in weights.items()},
        edge_tables={folded_edge(e): T for e, T in tables.items()},
        edge_mult={folded_edge(e): m for e, m in emult.items()},
        vertex_mult={fid[v]: m for v, m in branches.items()},
    )

    # copy j of a branch vertex gets a fresh id; base vertices keep theirs.
    # A table's rows follow the smaller folded id of its edge, so it is
    # transposed where the materialised ids run the other way.
    def copies(v):
        return branches.get(v - 1 if v in leaves else v, 1)

    mid = {}
    for v in range(n):
        for j in range(copies(v)):
            mid[v, j] = len(mid)
    mat_edges, mat_tables, mat_mult, mat_weights = [], {}, {}, {}
    for (v, j), x in mid.items():
        if v in weights:
            mat_weights[x] = weights[v]
    for e in edges:
        u, v = e  # v is the branch side whenever the edge is in a branch
        for j in range(copies(v)):
            f = (mid[u, j if j < copies(u) else 0], mid[v, j])
            flip = (fid[u] < fid[v]) != (f[0] < f[1])
            f = tuple(sorted(f))
            mat_edges.append(f)
            if e in tables:
                T = tables[e]
                mat_tables[f] = [list(col) for col in zip(*T)] if flip else T
            if e in emult:
                mat_mult[f] = emult[e]
    materialised = (Graph(len(mid), mat_edges), H, mat_weights, mat_tables, mat_mult)
    return folded, materialised


@settings(max_examples=80, deadline=None)
@given(pendant_forest_cases())
def test_count_ewhom_matches_naive_on_pendant_forests(case):
    folded, (G, H, weights, tables, mult) = case
    got = count_ewhom(folded)
    assert type(got) is Fraction
    assert got == naive_ewhom(G, H, vertex_weights=weights, edge_tables=tables, edge_mult=mult)


def _tree_messages(n, edges, h, colour_nbrs, weight):
    """Sum over colourings of prod over edges (u, v), u < v, of
    weight(colour(u), colour(v)), where weight vanishes off the target's
    edges: messages pass from the leaves to vertex 0, on plain ints."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = {0: None}
    order = [0]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    msg = [[1] * h for _ in range(n)]
    for x in reversed(order[1:]):
        p = parent[x]
        for c in range(h):  # colour of p
            total = 0
            for d in colour_nbrs[c]:
                total += (weight(c, d) if p < x else weight(d, c)) * msg[x][d]
            msg[p][c] *= total
    return sum(msg[0])


def test_large_trees_into_j3star_match_messages():
    H = j3star_tree().graph
    h = H.n
    colour_nbrs = [[] for _ in range(h)]
    for a, c in H.edges:
        colour_nbrs[a].append(c)
        colour_nbrs[c].append(a)

    def weight(a, c):  # asymmetric, so a fold in the wrong orientation shows
        return 1 + a % 3 + 2 * (c % 2)

    T = [[weight(a, c) if c in colour_nbrs[a] else 0 for c in range(h)] for a in range(h)]
    n = 1500
    # ids descend along the path and its far end is the largest, so every
    # fold but the last takes the table's transpose
    ids = list(range(n - 2, -1, -1)) + [n - 1]
    for G in (random_tree(random.Random(1500), n), Graph(n, list(zip(ids, ids[1:])))):
        plain = _tree_messages(n, G.edges, h, colour_nbrs, lambda a, c: 1)
        assert count_hom(G, H) == plain
        weighted = EdgeWeightedInstance(G, H, edge_tables=dict.fromkeys(G.edges, T))
        assert count_ewhom(weighted) == _tree_messages(n, G.edges, h, colour_nbrs, weight)


def test_cycle_200_into_j3star_is_adjacency_trace():
    H = j3star_tree().graph
    h = H.n
    A = [[0] * h for _ in range(h)]
    for u, v in H.edges:
        A[u][v] = A[v][u] = 1

    def mul(X, Y):
        cols = list(zip(*Y))
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in X]

    power = [[int(i == j) for j in range(h)] for i in range(h)]
    k = 200
    while k:  # repeated squaring
        if k & 1:
            power = mul(power, A)
        A = mul(A, A)
        k >>= 1
    got = count_hom(cycle_graph(200), H)
    assert type(got) is int
    assert got == sum(power[i][i] for i in range(h))


def test_grid_4x6_into_j3star_ignores_vertex_labels():
    rows, cols = 4, 6
    at = lambda i, j: i * cols + j
    edges = [(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(at(i, j), at(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    H = j3star_tree().graph
    n = rows * cols
    want = count_hom(Graph(n, edges), H)
    perm = list(range(n))
    random.Random(23).shuffle(perm)
    assert count_hom(Graph(n, [(perm[u], perm[v]) for u, v in edges]), H) == want


def test_vertex_mult_equals_materialised_leaves():
    # one pendant leaf with multiplicity m vs m physical leaves
    H = junction_tree(3).graph
    for m in (1, 2, 3, 4):
        folded = EdgeWeightedInstance(
            Graph(2, [(0, 1)]), H, vertex_mult={1: m}
        )
        explicit = star_graph(m)
        assert count_ewhom(folded) == count_hom(explicit, H)


def test_vertex_mult_replicates_whole_branch():
    # path 0-1-2 with multiplicity on 1 replicates the hanging 2-path
    H = junction_tree(3).graph
    for m in (2, 3):
        folded = EdgeWeightedInstance(
            Graph(3, [(0, 1), (1, 2)]), H, vertex_mult={1: m}
        )
        edges = []
        nxt = 1
        for _ in range(m):
            a, b = nxt, nxt + 1
            nxt += 2
            edges += [(0, a), (a, b)]
        assert count_ewhom(folded) == count_hom(Graph(1 + 2 * m, edges), H)


def test_vertex_mult_on_isolated_vertex():
    H = path_graph(4)
    inst = EdgeWeightedInstance(Graph(1, []), H, vertex_mult={0: 3})
    assert count_ewhom(inst) == 4**3


def test_vertex_mult_in_core_refuses():
    inst = EdgeWeightedInstance(cycle_graph(3), complete_graph(3), vertex_mult={0: 2})
    with pytest.raises(HomredError):
        count_ewhom(inst)


def test_ewhom_validation_and_zero():
    G = path_graph(2)
    H = path_graph(4)
    with pytest.raises(HomredError):
        EdgeWeightedInstance(G, H, edge_tables={(0, 2): dense_adjacency(H)})
    with pytest.raises(HomredError):
        EdgeWeightedInstance(G, H, edge_mult={(0, 1): 0})
    with pytest.raises(HomredError):
        EdgeWeightedInstance(G, H, vertex_weights={0: (1, 1)})
    zero = EdgeWeightedInstance(G, H, vertex_weights={0: (0, 0, 0, 0)})
    assert count_ewhom(zero) == 0


def test_complete_bipartite_whom_known_values():
    unit = lambda g, h: WeightTable(g.n, h)
    K2 = complete_graph(2)
    assert complete_bipartite_whom(K2, K2, unit(K2, 2)) == 2
    P3 = path_graph(3)
    K13 = star_graph(3)
    assert complete_bipartite_whom(P3, K13, unit(P3, 4)) == 12
    # odd cycles contribute a zero factor
    C3 = cycle_graph(3)
    assert complete_bipartite_whom(C3, K13, unit(C3, 4)) == 0


def test_complete_bipartite_whom_matches_generic():
    rng = random.Random(19)
    targets = [complete_graph(2), star_graph(3), complete_bipartite(2, 2), complete_bipartite(2, 3)]
    for _ in range(50):
        n = rng.randint(1, 6)
        G = random_graph(rng, n, p=0.35)
        H = rng.choice(targets)
        wt = WeightTable(G.n, H.n, random_weight_rows(rng, G.n, H.n))
        assert complete_bipartite_whom(G, H, wt) == count_whom(G, H, wt)


def test_complete_bipartite_whom_rejects_other_targets():
    with pytest.raises(HomredError):
        complete_bipartite_whom(path_graph(2), path_graph(4), WeightTable(2, 4))


def test_walk_profile_frozen_rows():
    table = dict(j3star_walk_table())
    assert list(table) == list(WALK_TABLE_ROWS)
    assert table["w"] == WalkProfile(3, 3, 12, 3, 6, 24)
    assert table["x1"] == WalkProfile(6, 1, 2, 6, 7, 39)
    assert table["y1"] == WalkProfile(5, 13, 2, 5, 18, 40)
    assert table["z1"] == WalkProfile(4, 10, 20, 4, 14, 46)
    assert table["z4_1_1_1"] == WalkProfile(1, 2, 3, 1, 3, 6)


def test_walk_profile_on_small_graphs():
    # centre of K_{1,3}: 3 one-step paths, nothing longer; walks bounce back
    assert walk_profile(star_graph(3), 0) == WalkProfile(3, 0, 0, 3, 3, 9)
    # path end: one simple path of each length, walks may double back
    assert walk_profile(path_graph(4), 0) == WalkProfile(1, 1, 1, 1, 2, 3)
    # even cycle: each length-2 and length-3 path exists in two orientations
    assert walk_profile(cycle_graph(4), 0) == WalkProfile(2, 2, 2, 2, 4, 8)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=2, max_value=10))
def test_walk_path_identities_on_random_trees(seed, n):
    """On triangle-free graphs the first three walk counts are determined
    by the simple-path counts: w1=d1, w2=d1+d2, w3=d1^2+d2+d3."""
    T = random_tree(random.Random(seed), n)
    for v in range(T.n):
        d1, d2, d3, w1, w2, w3 = walk_profile(T, v)
        assert w1 == d1
        assert w2 == d1 + d2
        assert w3 == d1 * d1 + d2 + d3


def test_walk_path_identities_on_even_cycles():
    for g in (cycle_graph(4), cycle_graph(6), complete_bipartite(2, 3)):
        for v in range(g.n):
            d1, d2, d3, w1, w2, w3 = walk_profile(g, v)
            assert (w1, w2, w3) == (d1, d1 + d2, d1 * d1 + d2 + d3)


def test_walk_maxima_unique_at_orbit_level():
    tree = j3star_tree()
    g = tree.graph
    profiles = {v: walk_profile(g, v) for v in range(g.n)}
    orbits: dict[str, list[int]] = {}
    for v in range(g.n):
        orbits.setdefault(ahu_rooted(g, v), []).append(v)

    for field, label in (("w1", "x1"), ("w2", "y1"), ("w3", "z1")):
        best = max(getattr(p, field) for p in profiles.values())
        argmax = [v for v, p in profiles.items() if getattr(p, field) == best]
        assert argmax == [tree.vertex(label)]
        # and the winner's automorphism orbit is that single vertex
        assert orbits[ahu_rooted(g, argmax[0])] == argmax


def test_walk_table_formatting_matches_golden():
    assert format_walk_table(j3star_walk_table()) == GOLDEN.read_text()


# ---------------------------------------------------------------------------
# twin lumping and the core's decoding paths


def _wheel(k):
    return Graph(k + 1, _cycle_edges(k, 1) + [(0, v) for v in range(1, k + 1)])


@st.composite
def twin_target(draw, max_h):
    """A random base graph on 2 or 3 colours with each colour copied into a
    class of false twins, the copies shuffled; ``max_h`` colours at most.
    Returns ``(H, cls)`` with ``cls[c]`` the base colour of colour ``c``."""
    base = draw(st.integers(2, min(3, max_h - 1)))
    sizes = [1] * base
    for _ in range(draw(st.integers(1, max_h - base))):
        sizes[draw(st.integers(0, base - 1))] += 1
    order = [b for b, k in enumerate(sizes) for _ in range(k)]
    cls = [order[i] for i in draw(st.permutations(range(len(order))))]
    B = {(a, b) for a in range(base) for b in range(a + 1, base) if draw(st.booleans())}
    h = len(cls)
    edges = [(x, y) for x in range(h) for y in range(x + 1, h)
             if (min(cls[x], cls[y]), max(cls[x], cls[y])) in B]
    return Graph(h, edges), cls


# How an instance treats the twin classes: it keeps them all ("none"), or
# its tables agree on twin rows but not on twin columns ("rows"), or the
# other way round ("cols"), or some weight rows split them ("weights"),
# or its tables and some weight rows are random ("random").
SPLITS = st.sampled_from(["none", "rows", "cols", "weights", "random"])


def _twin_table(draw, cls, entries, split):
    """An h x h table whose entries depend on the colours' classes as
    ``split`` says."""
    h = len(cls)
    V = [[draw(entries) for _ in range(h)] for _ in range(h)]
    pick = {
        "rows": lambda a, b: V[cls[a]][b],
        "cols": lambda a, b: V[a][cls[b]],
        "random": lambda a, b: V[a][b],
    }.get(split, lambda a, b: V[cls[a]][cls[b]])
    return [[pick(a, b) for b in range(h)] for a in range(h)]


def _twin_row(draw, cls, entries, split):
    """A weight row equal on every twin class, or, when ``split`` allows,
    possibly a random one."""
    if split in ("weights", "random") and draw(st.booleans()):
        return tuple(draw(entries) for _ in cls)
    W = [draw(entries) for _ in range(max(cls) + 1)]
    return tuple(W[c] for c in cls)


TWIN_CORES = [path_graph(2), cycle_graph(3), cycle_graph(4), Graph(4, _cycle_edges(4) + [(0, 2)])]


@st.composite
def twin_cases(draw):
    """A core with an optional pendant leaf and an optional isolated vertex,
    each carrying vertex multiplicity 1 or 2, into a target with planted
    twin classes; tables are shared between edges, and weight rows and
    tables either keep the classes or split them.

    Returns the folded instance and the materialised graph (each
    multiplied vertex copied) with the data ``naive_ewhom`` reads."""
    core = draw(st.sampled_from(TWIN_CORES))
    k = core.n
    parts = [draw(st.integers(0, 2)), draw(st.integers(0, 2))]  # copies of the leaf, of the isolated vertex
    while 3 ** (k + sum(parts)) > MAX_ASSIGNMENTS:
        parts[parts.index(max(parts))] -= 1
    n_mat = k + sum(parts)
    max_h = max(h for h in range(3, 6) if h**n_mat <= MAX_ASSIGNMENTS)
    H, cls = draw(twin_target(max_h))

    perm = draw(st.permutations(range(k)))
    edges = [(perm[u], perm[v]) for u, v in core.edges]
    leaf = k if parts[0] else None
    iso = k + (leaf is not None) if parts[1] else None
    anchor = draw(st.integers(0, k - 1))
    if leaf is not None:
        edges.append((anchor, leaf))
    G = Graph(k + sum(1 for p in parts if p), edges)

    split = draw(SPLITS)
    pool = [_twin_table(draw, cls, ENTRIES, split) for _ in range(draw(st.integers(1, 2)))]
    tables = {e: draw(st.sampled_from(pool)) for e in G.edges if draw(st.booleans())}
    emult = {e: draw(st.integers(2, 3)) for e in G.edges if draw(st.booleans())}
    weights = {v: _twin_row(draw, cls, ENTRIES, split) for v in range(G.n) if draw(st.booleans())}
    vmult = {v: p for v, p in ((leaf, parts[0]), (iso, parts[1])) if v is not None}
    folded = EdgeWeightedInstance(
        G, H, vertex_weights=weights, edge_tables=tables, edge_mult=emult, vertex_mult=vmult
    )

    mat_edges = [e for e in G.edges if e[1] < k]
    mat_tables = {e: T for e, T in tables.items() if e[1] < k}
    mat_mult = {e: m for e, m in emult.items() if e[1] < k}
    mat_weights = {v: r for v, r in weights.items() if v < k}
    nxt = k
    for v, copies in vmult.items():
        for _ in range(copies):
            if v == leaf:
                e, f = (anchor, leaf), (anchor, nxt)
                mat_edges.append(f)
                if e in tables:
                    mat_tables[f] = tables[e]
                if e in emult:
                    mat_mult[f] = emult[e]
            if v in weights:
                mat_weights[nxt] = weights[v]
            nxt += 1
    materialised = (Graph(n_mat, mat_edges), H, mat_weights, mat_tables, mat_mult)
    return folded, materialised


@settings(max_examples=60, deadline=None)
@given(twin_cases())
def test_count_ewhom_matches_naive_on_twin_targets(case):
    folded, (G, H, weights, tables, mult) = case
    got = count_ewhom(folded)
    assert type(got) is Fraction
    assert got == naive_ewhom(G, H, vertex_weights=weights, edge_tables=tables, edge_mult=mult)


SIGNED = st.sampled_from([-2, -1, 0, 1, 1, 2, Fraction(-1, 2), Fraction(3, 2)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sum_product_signed_entries_on_twin_targets(data):
    """Signed tables and weights through the core, against the plain sum."""
    draw = data.draw
    G = draw(st.sampled_from([path_graph(3), cycle_graph(3), complete_graph(4), _wheel(4)]))
    _, cls = draw(twin_target(max(h for h in range(3, 6) if h**G.n <= MAX_ASSIGNMENTS)))
    h = len(cls)
    split = draw(SPLITS)
    pool = [_twin_table(draw, cls, SIGNED, split) for _ in range(draw(st.integers(1, 2)))]
    dense = {e: draw(st.sampled_from(pool)) for e in G.edges}
    rows = [_twin_row(draw, cls, SIGNED, split) for _ in range(G.n)]
    expected = 0
    for a in product(range(h), repeat=G.n):
        term = 1
        for v in range(G.n):
            term *= rows[v][a[v]]
        for (u, v), T in dense.items():
            term *= T[a[u]][a[v]]
        expected += term
    sparse = {id(T): [[(j, x) for j, x in enumerate(r) if x] for r in T] for T in pool}
    tables = {e: sparse[id(T)] for e, T in dense.items()}
    assert sum_product(G, h, [list(r) for r in rows], tables) == expected


WIDE_CORES = [complete_graph(4), complete_graph(5), _wheel(4), _wheel(5),
              Graph(5, [e for e in complete_graph(5).edges if e != (0, 1)])]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_count_ewhom_matches_naive_on_width_3_and_4_cores(data):
    """Cores whose elimination builds three- and four-variable factors."""
    draw = data.draw
    core = draw(st.sampled_from(WIDE_CORES))
    perm = draw(st.permutations(range(core.n)))
    G = Graph(core.n, [(perm[u], perm[v]) for u, v in core.edges])
    h = draw(st.sampled_from([h for h in (3, 4) if h**G.n <= MAX_ASSIGNMENTS]))
    H = Graph(h, [(a, b) for a in range(h) for b in range(a + 1, h) if draw(st.booleans())])
    pool = [[[draw(ENTRIES) for _ in range(h)] for _ in range(h)] for _ in range(2)]
    tables = {e: draw(st.sampled_from(pool)) for e in G.edges if draw(st.booleans())}
    weights = {v: tuple(draw(ENTRIES) for _ in range(h)) for v in range(G.n) if draw(st.booleans())}
    inst = EdgeWeightedInstance(G, H, vertex_weights=weights, edge_tables=tables)
    assert count_ewhom(inst) == naive_ewhom(G, H, vertex_weights=weights, edge_tables=tables)


def test_j3star_lumps_to_37_colours():
    H = j3star_tree().graph
    adjacency = [[(j, 1) for j in H.neighbours(i)] for i in range(H.n)]
    h, weights, tables = _lump(H.n, [[1] * H.n], {(0, 1): adjacency}, _SparseTable)
    # 23 single colours, nine leaf pairs under z3, four leaf triples under
    # y2, and the five leaves under x1
    assert h == 37
    assert sorted(weights[0]) == [1] * 23 + [2] * 9 + [3] * 4 + [5]
    J5 = junction_tree(5).graph
    adjacency = [[(j, 1) for j in J5.neighbours(i)] for i in range(J5.n)]
    assert _lump(J5.n, [[1] * J5.n], {(0, 1): adjacency}, _SparseTable) is None
