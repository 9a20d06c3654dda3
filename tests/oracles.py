"""Independent brute-force oracles and small-instance generators.

Everything here is deliberately naive: plain enumeration over all
colourings or assignments, no folding, no elimination.  The point is to
have a second implementation that shares no code with the package.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import combinations, product

import networkx as nx

from homred.graphs import Graph


def naive_hom(G: Graph, H: Graph) -> int:
    adj = [set(H.neighbours(v)) for v in range(H.n)]
    count = 0
    for assign in product(range(H.n), repeat=G.n):
        if all(assign[v] in adj[assign[u]] for u, v in G.edges):
            count += 1
    return count


def naive_whom(G: Graph, H: Graph, rows) -> Fraction:
    """rows: mapping or list giving each G-vertex its weight row."""
    adj = [set(H.neighbours(v)) for v in range(H.n)]
    total = Fraction(0)
    for assign in product(range(H.n), repeat=G.n):
        if all(assign[v] in adj[assign[u]] for u, v in G.edges):
            term = Fraction(1)
            for v in range(G.n):
                term *= Fraction(rows[v][assign[v]])
            total += term
    return total


def naive_ewhom(G: Graph, H: Graph, vertex_weights=None, edge_tables=None, edge_mult=None):
    """Brute-force the edge-weighted sum.  No vertex multiplicities here:
    those are checked against explicitly materialised graphs instead."""
    vertex_weights = vertex_weights or {}
    edge_tables = edge_tables or {}
    edge_mult = edge_mult or {}
    A = [[0] * H.n for _ in range(H.n)]
    for u, v in H.edges:
        A[u][v] = A[v][u] = 1
    total = Fraction(0)
    for assign in product(range(H.n), repeat=G.n):
        term = Fraction(1)
        for v in range(G.n):
            row = vertex_weights.get(v)
            if row is not None:
                term *= Fraction(row[assign[v]])
            if not term:
                break
        else:
            for e in G.edges:
                u, v = e
                T = edge_tables.get(e)
                x = Fraction(T[assign[u]][assign[v]]) if T is not None else Fraction(A[assign[u]][assign[v]])
                term *= x ** edge_mult.get(e, 1)
                if not term:
                    break
        if term:
            total += term
    return total


def naive_graph_error(n: int, edges) -> str | None:
    """The message a graph on ``n`` vertices must be refused with: the
    first edge, in input order, that is out of range, a self-loop or a
    repeat of an earlier edge in either orientation; ``None`` if valid."""
    earlier = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        if u == v:
            return f"self-loop at vertex {u}"
        if frozenset((u, v)) in earlier:
            return f"duplicate edge ({min(u, v)},{max(u, v)})"
        earlier.add(frozenset((u, v)))
    return None


def naive_graph_view(n: int, edges):
    """``(edges, neighbour lists, bipartition)`` of a valid edge list, by
    networkx: sorted ``(u, v)`` pairs with u < v; sorted neighbours per
    vertex; and the sides by the parity of the distance from each
    component's smallest vertex, or ``None`` if some edge joins equal
    parities."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    edge_list = sorted((min(e), max(e)) for e in g.edges())
    nbrs = [sorted(g.neighbors(v)) for v in range(n)]
    parity = {}
    for comp in nx.connected_components(g):
        for v, d in nx.single_source_shortest_path_length(g, min(comp)).items():
            parity[v] = d % 2
    if any(parity[u] == parity[v] for u, v in edge_list):
        return edge_list, nbrs, None
    sides = tuple(frozenset(v for v in range(n) if parity[v] == side) for side in (0, 1))
    return edge_list, nbrs, sides


def dense_adjacency(H: Graph) -> list[list[int]]:
    """The adjacency matrix of H as an ``h x h`` list of lists."""
    A = [[0] * H.n for _ in range(H.n)]
    for u, v in H.edges:
        A[u][v] = A[v][u] = 1
    return A


def dense_product(A, B) -> list[list[int]]:
    """The matrix product A B, entry by entry."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


# ---------------------------------------------------------------------------
# gadget exponents by stepping one power at a time


def step_minimal_potts_jq_s(G: Graph, q: int) -> int:
    """Smallest s with q^s >= 8q (q+1)^{|V|+|E|} 2^s."""
    rhs = 8 * q * (q + 1) ** (G.n + len(G.edges))
    s = 1
    pq, p2 = q, 2
    while pq < rhs * p2:
        s += 1
        pq *= q
        p2 *= 2
    return s


def step_minimal_uniformize_s(HG, q: int, gamma: Fraction, t: int) -> int:
    """Smallest s with (1+gamma)^s >= 4 q^{n + m(t-1)} (1+gamma)^m."""
    base = 1 + Fraction(gamma)
    n, m = HG.n, len(HG.hyperedges)
    rhs = 4 * Fraction(q) ** (n + m * (t - 1)) * base**m
    s = 1
    p = base
    while p < rhs:
        s += 1
        p *= base
    return s


def step_minimal_j3star_r(G: Graph, s: int) -> int:
    """Smallest r with 46^r >= 8 * 58^{|V| + s|E| + 7} * 40^r."""
    rhs = 8 * 58 ** (G.n + s * len(G.edges) + 7)
    r = 1
    p46, p40 = 46, 40
    while p46 < rhs * p40:
        r += 1
        p46 *= 46
        p40 *= 40
    return r


def naive_mono_histogram(HG, q: int) -> dict[int, int]:
    """Spin assignments per number of monochromatic hyperedges, each copy
    of a repeated hyperedge counted."""
    hist: dict[int, int] = {}
    for sigma in product(range(q), repeat=HG.n):
        k = sum(len({sigma[v] for v in f}) == 1 for f in HG.hyperedges)
        hist[k] = hist.get(k, 0) + 1
    return hist


def naive_csp(nvars, imps, pins0=(), pins1=(), weights=None):
    """Count (or weigh) assignments of a binary implication CSP."""
    total = Fraction(0)
    for assign in product((0, 1), repeat=nvars):
        if any(assign[x] for x in pins0):
            continue
        if any(not assign[x] for x in pins1):
            continue
        if any(assign[x] and not assign[y] for x, y in imps):
            continue
        if weights is None:
            total += 1
        else:
            term = Fraction(1)
            for v in range(nvars):
                term *= Fraction(weights[v][assign[v]])
            total += term
    return total if weights is not None else int(total)


def naive_independent_sets(G: Graph) -> int:
    count = 0
    for sub in product((0, 1), repeat=G.n):
        if all(not (sub[u] and sub[v]) for u, v in G.edges):
            count += 1
    return count


def naive_contains_induced_tree(T: Graph, P: Graph) -> bool:
    """Whether the tree P occurs as an induced subgraph of T: tries every
    vertex subset of P's size and compares the induced subgraph, when it
    is a tree, with P by canonical form."""
    want = ahu_canonical(P)
    for verts in combinations(range(T.n), P.n):
        sub, _ = T.subgraph(verts)
        if sub.is_tree() and ahu_canonical(sub) == want:
            return True
    return False


# ---------------------------------------------------------------------------
# canonical forms and generators


def ahu_rooted(G: Graph, root: int, parent: int = -1) -> str:
    subs = sorted(ahu_rooted(G, c, root) for c in G.neighbours(root) if c != parent)
    return "(" + "".join(subs) + ")"


def ahu_canonical(G: Graph) -> str:
    """Canonical string of an unrooted tree: minimum over root choices.

    Quadratic and proud of it; only used on trees with <= 60 vertices.
    """
    return min(ahu_rooted(G, r) for r in range(G.n))


def from_networkx(g) -> Graph:
    nodes = sorted(g.nodes())
    idx = {u: i for i, u in enumerate(nodes)}
    return Graph(len(nodes), [(idx[u], idx[v]) for u, v in g.edges()])


def atlas_graphs(max_n, connected=None, bipartite=None, max_edges=None):
    """All graphs up to isomorphism with 1..max_n vertices (max_n <= 7)."""
    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if not 1 <= n <= max_n:
            continue
        if max_edges is not None and g.number_of_edges() > max_edges:
            continue
        if connected is not None and nx.is_connected(g) != connected:
            continue
        if bipartite is not None and nx.is_bipartite(g) != bipartite:
            continue
        out.append(from_networkx(g))
    return out


def nonisomorphic_trees(n: int):
    return [from_networkx(t) for t in nx.nonisomorphic_trees(n)]


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labelled tree via a random Pruefer sequence."""
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_connected_bipartite(rng: random.Random, n: int, extra: int = 2) -> Graph:
    """Random tree plus up to ``extra`` parity-respecting chords."""
    T = random_tree(rng, n)
    if T.bipartition is None:
        raise AssertionError("trees are bipartite")
    left, right = T.bipartition
    edges = set(T.edges)
    candidates = [
        (min(u, v), max(u, v))
        for u in left
        for v in right
        if (min(u, v), max(u, v)) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return Graph(n, sorted(edges))


def random_weight_rows(rng: random.Random, n: int, h: int, zero_chance=0.15, max_num=6):
    rows = {}
    for v in range(n):
        row = []
        for _ in range(h):
            if rng.random() < zero_chance:
                row.append(Fraction(0))
            else:
                row.append(Fraction(rng.randint(1, max_num), rng.randint(1, 4)))
        rows[v] = tuple(row)
    return rows
