"""Simple undirected graphs, hypergraphs, and the named target trees.

Vertices are dense 0-based integers.  A ``Graph`` is immutable after
construction.  Building one orients and sorts the edge list and checks
it, nothing more: its adjacency lists and its bipartition (or ``None``
when the graph is not bipartite) are computed on first read and kept,
so a graph that is only formatted never pays for them, and downstream
code never recomputes 2-colourings.
Only the junction trees (:func:`junction_tree`, and the decorated
:func:`j3star_tree` of the hardness construction) carry a label map from
human names to vertex ids; gadget builders address their vertices
through labels and never hard-code ids.  Every other target is a plain
graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from operator import eq, lt

from .errors import HomredError

STAR = "Star"
BIS_EQUIVALENT = "BisEquivalent"
CONTAINS_J3 = "ContainsJ3"

# The most vertices an instance file or a target spec may announce: a
# ``Graph`` allocates per vertex before reading any edge.
MAX_VERTICES = 10**6


_UNKNOWN = object()  # a bipartition not computed yet


def _reject(n: int, edges):
    """Raise for the first edge that is out of range, a self-loop or a
    duplicate, in input order."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise HomredError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise HomredError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise HomredError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Self-loops and duplicate edges are rejected.  ``edges`` holds each
    edge once as ``(u, v)`` with ``u < v``, sorted.  The sorted neighbour
    lists behind :meth:`neighbours`, :meth:`degree` and :meth:`has_edge`
    are built on first read.  ``bipartition``, also built on first read,
    is a pair of frozensets covering all vertices (every edge crossing),
    or ``None``; each connected component's smallest vertex lands on the
    left side, so the partition is deterministic.
    """

    __slots__ = ("n", "edges", "_adj", "_bipartition")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise HomredError("vertex count must be nonnegative")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        norm = [(u, v) if u < v else (v, u) for u, v in edges]
        norm.sort()
        if norm:
            # sorted, the first endpoint is the least; a duplicate sits
            # next to its twin
            lo, hi = zip(*norm)
            if lo[0] < 0 or max(hi) >= n or any(map(eq, lo, hi)) or not all(map(lt, norm, norm[1:])):
                _reject(n, edges)
        self.n = n
        self.edges = tuple(norm)
        self._adj = None
        self._bipartition = _UNKNOWN

    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:  # sorted edges leave every list sorted
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))
        return self._adj

    @property
    def bipartition(self):
        if self._bipartition is _UNKNOWN:
            self._bipartition = self._two_colour()
        return self._bipartition

    def _two_colour(self):
        adj = self._adj or self._adjacency()
        colour = [-1] * self.n
        for root in range(self.n):
            if colour[root] != -1:
                continue
            colour[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if colour[v] == -1:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
                    elif colour[v] == colour[u]:
                        return None
        left = frozenset(v for v in range(self.n) if colour[v] == 0)
        right = frozenset(v for v in range(self.n) if colour[v] == 1)
        return (left, right)

    def neighbours(self, v: int) -> tuple[int, ...]:
        return (self._adj or self._adjacency())[v]

    def degree(self, v: int) -> int:
        return len((self._adj or self._adjacency())[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in (self._adj or self._adjacency())[u]

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def is_connected(self) -> bool:
        return len(components(self)) <= 1

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

    def is_star(self) -> bool:
        """True for trees with at most one vertex of degree >= 2 (K1, K2 included)."""
        if not self.is_tree():
            return False
        return sum(1 for v in range(self.n) if self.degree(v) >= 2) <= 1

    def subgraph(self, vertices):
        """Induced subgraph on ``vertices``; returns (Graph, old->new map)."""
        verts = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(verts)}
        edges = [
            (remap[u], remap[v])
            for (u, v) in self.edges
            if u in remap and v in remap
        ]
        return Graph(len(verts), edges), remap


class Hypergraph:
    """Hypergraph with multiset hyperedge semantics (duplicates counted)."""

    __slots__ = ("n", "hyperedges")

    def __init__(self, n: int, hyperedges=()):
        if n < 0:
            raise HomredError("vertex count must be nonnegative")
        norm = []
        for f in hyperedges:
            fs = tuple(sorted(set(f)))
            if not fs:
                raise HomredError("empty hyperedge")
            if fs[0] < 0 or fs[-1] >= n:
                raise HomredError(f"hyperedge {fs} out of range for n={n}")
            norm.append(fs)
        self.n = n
        self.hyperedges = tuple(norm)

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and sorted(self.hyperedges) == sorted(other.hyperedges)
        )

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={len(self.hyperedges)})"


def components(G: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    seen = [False] * G.n
    out = []
    for root in range(G.n):
        if seen[root]:
            continue
        comp = []
        stack = [root]
        seen[root] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in G.neighbours(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        out.append(sorted(comp))
    return out


def path_graph(n: int) -> Graph:
    if n < 1:
        raise HomredError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise HomredError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the centre at vertex 0."""
    if leaves < 1:
        raise HomredError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise HomredError("complete graph needs at least one vertex")
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: vertices 0..a-1 on the left, a..a+b-1 on the right."""
    if a < 1 or b < 0:
        raise HomredError("K_{a,b} needs a >= 1 and b >= 0")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_bipartite_parts(H: Graph):
    """The two sides of H when H is complete bipartite, else ``None``.

    The check uses the canonical bipartition: H qualifies iff it is
    bipartite and carries exactly |left|*|right| edges.
    """
    if H.bipartition is None:
        return None
    left, right = H.bipartition
    if len(H.edges) != len(left) * len(right):
        return None
    return (tuple(sorted(left)), tuple(sorted(right)))


def two_stretch(G: Graph):
    """Subdivide every edge once.

    Returns (stretched graph, edge -> midpoint vertex id).  Midpoints are
    numbered ``G.n + i`` following the sorted edge order, so the output is
    deterministic and original vertices keep their ids.
    """
    mid = {e: G.n + i for i, e in enumerate(G.edges)}
    edges = []
    for (u, v), m in mid.items():
        edges.append((u, m))
        edges.append((v, m))
    return Graph(G.n + len(G.edges), edges), mid


def find_induced_j3(H: Graph) -> dict[str, int] | None:
    """Role map of the lexicographically first induced 3-branch junction.

    For trees only: picks the smallest centre w with three neighbours of
    degree at least two, the smallest such neighbour triple as
    (x0, y0, z0), and the smallest second-level vertices x1, y1, z1.
    Returns ``None`` when the tree has no junction.  In a tree any such
    choice induces J3, so one pass over the degrees decides it.
    """
    if not H.is_tree():
        raise HomredError("junction search expects a tree")
    for w in range(H.n):
        deep = [t for t in H.neighbours(w) if H.degree(t) >= 2]
        if len(deep) < 3:
            continue
        x0, y0, z0 = deep[0], deep[1], deep[2]
        roles = {"w": w, "x0": x0, "y0": y0, "z0": z0}
        for key, branch in (("x1", x0), ("y1", y0), ("z1", z0)):
            roles[key] = min(t for t in H.neighbours(branch) if t != w)
        return roles
    return None


def classify_tree(H: Graph) -> str:
    """The tree trichotomy: Star, BisEquivalent, or ContainsJ3."""
    if not H.is_tree():
        raise HomredError("classify_tree expects a tree")
    if H.is_star():
        return STAR
    if find_induced_j3(H) is not None:
        return CONTAINS_J3
    return BIS_EQUIVALENT


@dataclass(frozen=True)
class TargetTree:
    """A realised target tree plus a name -> vertex id map."""

    graph: Graph
    labels: dict[str, int]

    def vertex(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise HomredError(f"target tree has no vertex labelled {label!r}") from None


def junction_tree(q: int) -> TargetTree:
    """The junction tree: centre w joined to q paths of length two.

    Vertex set {w} ∪ {c_i} ∪ {c'_i}, edges (w, c'_i) and (c'_i, c_i).
    """
    if q < 1:
        raise HomredError("junction tree needs q >= 1")
    labels = {"w": 0}
    edges = []
    nxt = 1
    for i in range(1, q + 1):
        cp = nxt
        c = nxt + 1
        nxt += 2
        labels[f"c'{i}"] = cp
        labels[f"c{i}"] = c
        edges.append((0, cp))
        edges.append((cp, c))
    return TargetTree(Graph(2 * q + 1, edges), labels)


def j3star_tree() -> TargetTree:
    """The 58-vertex decorated junction tree of the hardness construction.

    Branch x: x0 - x1 with five leaves on x1.
    Branch y: y0 - y1, four children y2_i, each with three leaves y3_i_j.
    Branch z: z0 - z1, three children z2_i, nine grandchildren z3_i_j,
    each z3_i_j carrying two leaves z4_i_j_k.  The centre w joins x0, y0, z0.
    """
    labels: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def add(label: str) -> int:
        labels[label] = len(labels)
        return labels[label]

    w = add("w")

    x0 = add("x0")
    x1 = add("x1")
    edges += [(w, x0), (x0, x1)]
    for i in range(1, 6):
        edges.append((x1, add(f"x2_{i}")))

    y0 = add("y0")
    y1 = add("y1")
    edges += [(w, y0), (y0, y1)]
    for i in range(1, 5):
        y2 = add(f"y2_{i}")
        edges.append((y1, y2))
        for j in range(1, 4):
            edges.append((y2, add(f"y3_{i}_{j}")))

    z0 = add("z0")
    z1 = add("z1")
    edges += [(w, z0), (z0, z1)]
    for i in range(1, 4):
        z2 = add(f"z2_{i}")
        edges.append((z1, z2))
        for j in range(1, 4):
            z3 = add(f"z3_{i}_{j}")
            edges.append((z2, z3))
            for k in range(1, 3):
                edges.append((z3, add(f"z4_{i}_{j}_{k}")))

    return TargetTree(Graph(len(labels), edges), labels)
