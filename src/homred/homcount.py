"""Exact counting of (edge-)weighted homomorphisms into a fixed target.

The central routine is :func:`count_ewhom`, which evaluates

    sum over colourings sigma of  prod_v w_v(sigma(v))^{mu_v}
                                 * prod_e T_e(sigma(u), sigma(v))^{m_e}

with nonnegative rational vertex weights ``w_v``, per-edge ``h x h``
tables ``T_e`` (defaulting to the target's adjacency matrix, which
recovers plain homomorphism counting), entrywise edge multiplicities
``m_e``, and pendant-branch multiplicities ``mu_v``.  Arithmetic is kept
exact throughout: pendant absorption works on Python ints while every
input is integral and on :class:`fractions.Fraction` otherwise, the
elimination core works on ints alone, and the result is a normalised
``Fraction``.

:func:`count_ewhom` checks and normalises its inputs and hands them to
:func:`sum_product`, the elimination core, which takes entries of any
sign.  The Potts sums and the minimum 3-terminal cuts are evaluated by
the same core (see :mod:`homred.potts` and :mod:`homred.gadgets`).

Evaluation first lumps twin colours and then runs in three phases:
pendant absorption (fold degree-one vertices into their neighbour,
which is where branch multiplicities are resolved), isolated-vertex
factoring, and bucket elimination (Dechter, *Artificial Intelligence*
113, 1999) over the remaining core with a greedy minimum-degree order.

Two colours are twins when they agree in every distinct weight row and
in every row and every column of every distinct table.  Each class is
merged into its smallest colour, weighted on every vertex by the class
size, and the tables keep the representatives' rows and columns: the
twin-free quotient with node weights (Lovasz, *Large Networks and Graph
Limits*, 2012).  The test is exact equality on the given colours, with
no refinement, so every sum is unchanged for entries of any sign.  The
58-colour J3* lumps to 37 colours; J_q has no twins.

Tables arrive as their nonzero entries per row: the default adjacency
rows come from the target's neighbour lists, and a table given densely
on the instance is scanned once per distinct (table, multiplicity)
pair.  Absorption and the core read that one form, and no step does
Theta(h^2) work beyond that scan.
Absorption is linear in the source tree and sparse in the table: a heap
hands out the pendants in a fixed order (multiplicity-bearing pendants
first, then smallest id), and a fold visits only the pendant's nonzero
colours and the nonzero entries of their rows (of their columns, through
a transpose built on first use, when the pendant is the higher end of
its edge).  Counting into a tree therefore costs O(n (h + log n)) plus
the nonzero table entries touched, with no elimination at all.

The core is sparse and integer-only.  A factor is its sorted variables
plus a dict from the radix-``h`` int index of an assignment (last
variable fastest) to its value, holding only nonzero entries.  Before
elimination each factor is scaled by the lcm of its denominators, so
the joins multiply and add plain ints, and the product of those scales
is divided out once at the end.  Eliminating a variable hash-joins the
factors that hold it: the one with the most variables that no other of
them holds is joined last (the largest, on ties), so parallel paths of
a series-parallel core meet before they widen, and the others are
joined smallest first.  Each join indexes the smaller table on the
shared variables and streams the larger one through that index,
decoding each entry's key with one ``divmod`` when the factor has one
or two variables, and the last join sums the variable out as it goes,
so no factor that still holds the variable outlives the step.  An empty factor means the whole sum
is zero; with signed entries a join may also produce explicit zero
entries, which are kept and do no harm.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from typing import NamedTuple

from .errors import HomredError
from .graphs import Graph, complete_bipartite_parts, components, j3star_tree


def _num(x):
    """Normalise a nonnegative rational: plain int when integral."""
    f = Fraction(x)
    if f < 0:
        raise HomredError("weights and table entries must be nonnegative")
    return int(f) if f.denominator == 1 else f


@dataclass
class WeightTable:
    """Vertex weight rows for a graph with ``n`` vertices and ``h`` colours.

    ``rows`` may cover any subset of vertices; missing vertices weigh 1
    in every colour.
    """

    n: int
    h: int
    rows: dict[int, tuple[Fraction, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.h < 1:
            raise HomredError("weight table needs at least one colour")
        clean = {}
        # one conversion per distinct row object: gadget builders hand one
        # row to many vertices.  The dict keeps every row alive, so no id
        # is reused during the loop.
        converted = {}
        for v, row in self.rows.items():
            if not 0 <= v < self.n:
                raise HomredError(f"weight row for out-of-range vertex {v}")
            got = converted.get(id(row))
            if got is None:
                got = tuple(Fraction(x) for x in row)
                if len(got) != self.h:
                    raise HomredError(f"weight row for vertex {v} has {len(got)} entries, needs {self.h}")
                if any(x < 0 for x in got):
                    raise HomredError(f"negative weight on vertex {v}")
                converted[id(row)] = got
            clean[v] = got
        self.rows = clean

    def row(self, v: int) -> tuple[Fraction, ...]:
        got = self.rows.get(v)
        if got is None:
            return (Fraction(1),) * self.h
        return got


@dataclass
class EdgeWeightedInstance:
    """A source graph with weights and tables against a fixed target.

    ``edge_tables`` maps a sorted edge ``(u, v)`` (``u < v``) to an
    ``h x h`` table whose rows are indexed by the colour of ``u``;
    missing edges use the target adjacency matrix.  ``edge_mult`` raises
    a table entrywise; ``vertex_mult`` replicates the whole pendant
    branch hanging at a vertex (the vertex must be absorbable, i.e. lie
    on a pendant chain or end up isolated, or evaluation refuses).
    """

    graph: Graph
    target: Graph
    vertex_weights: dict[int, tuple] = field(default_factory=dict)
    edge_tables: dict[tuple[int, int], list] = field(default_factory=dict)
    edge_mult: dict[tuple[int, int], int] = field(default_factory=dict)
    vertex_mult: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        h = self.target.n
        if h < 1:
            raise HomredError("target must have at least one vertex")
        for v, row in self.vertex_weights.items():
            if not 0 <= v < self.graph.n:
                raise HomredError(f"vertex weight for out-of-range vertex {v}")
            if len(row) != h:
                raise HomredError(f"vertex weight row for {v} needs {h} entries")
        edge_set = set(self.graph.edges)
        for e, table in self.edge_tables.items():
            if e not in edge_set:
                raise HomredError(f"table for non-edge {e}")
            if len(table) != h or any(len(r) != h for r in table):
                raise HomredError(f"table for edge {e} is not {h}x{h}")
        for e, m in self.edge_mult.items():
            if e not in edge_set:
                raise HomredError(f"multiplicity for non-edge {e}")
            if m < 1:
                raise HomredError(f"edge multiplicity for {e} must be >= 1")
        for v, m in self.vertex_mult.items():
            if not 0 <= v < self.graph.n:
                raise HomredError(f"vertex multiplicity for out-of-range vertex {v}")
            if m < 1:
                raise HomredError(f"vertex multiplicity for {v} must be >= 1")


class _Factor(NamedTuple):
    vars: tuple[int, ...]  # sorted
    table: dict[int, int]  # radix-h index over vars (last var fastest) -> nonzero value


def _strides(vars_, h: int) -> dict[int, int]:
    """Place value of each variable in a radix-h index over ``vars_``."""
    k = len(vars_)
    return {u: h ** (k - 1 - i) for i, u in enumerate(vars_)}


def _decode(f: _Factor, h: int, key_stride: dict, out_stride: dict):
    """Iterate ``(key, out, value)`` per entry of ``f``: its colour digits
    re-weighted by ``key_stride`` (the join key) and by ``out_stride``
    (its share of the output index).  One- and two-variable factors, all
    but the widest intermediates, take at most one ``divmod`` per entry."""
    items = f.table.items()
    if len(f.vars) == 1:
        (u,) = f.vars
        ks, os_ = key_stride.get(u, 0), out_stride.get(u, 0)
        return ((d * ks, d * os_, x) for d, x in items)
    if len(f.vars) == 2:
        a, b = f.vars
        ka, kb = key_stride.get(a, 0), key_stride.get(b, 0)
        oa, ob = out_stride.get(a, 0), out_stride.get(b, 0)
        return (
            (da * ka + db * kb, da * oa + db * ob, x)
            for idx, x in items
            for da, db in (divmod(idx, h),)
        )
    plan = [
        (s, key_stride.get(u, 0), out_stride.get(u, 0))
        for u, s in _strides(f.vars, h).items()
        if u in key_stride or u in out_stride
    ]

    def wide():
        for idx, x in items:
            key = out = 0
            for s, ks, os_ in plan:
                d = idx // s % h
                key += d * ks
                out += d * os_
            yield key, out, x

    return wide()


def _join(f: _Factor, g: _Factor, h: int, drop=None) -> _Factor:
    """Hash join of two factors that share a variable; ``drop`` is summed out.

    The index is built on the smaller table and the larger one streams
    through it, so the work is the number of matching entry pairs.
    """
    out_vars = tuple(sorted(set(f.vars).union(g.vars) - {drop}))
    out_stride = _strides(out_vars, h)
    key_stride = _strides(sorted(set(f.vars).intersection(g.vars)), h)
    small, big = (f, g) if len(f.table) <= len(g.table) else (g, f)
    private = {u: s for u, s in out_stride.items() if u not in key_stride}
    index: dict[int, list] = {}
    for key, out, x in _decode(small, h, key_stride, private):
        index.setdefault(key, []).append((out, x))
    acc: dict[int, int] = {}
    get = acc.get
    for key, out, x in _decode(big, h, key_stride, out_stride):
        for o, y in index.get(key, ()):
            o += out
            acc[o] = get(o, 0) + x * y
    return _Factor(out_vars, acc)


def _eliminate(v: int, factors: list[_Factor], h: int) -> list[_Factor]:
    """Join the factors touching ``v``, summing ``v`` out in the last join.

    The factor joined last is the one with the most variables that no
    other touching factor holds (the largest, on ties), so those
    variables enter only as ``v`` leaves; the others are joined
    smallest-first.  Every core variable keeps its own weight factor
    until it is eliminated, so at least two factors touch ``v``."""
    touching = sorted((f for f in factors if v in f.vars), key=lambda f: len(f.table))
    rest = [f for f in factors if v not in f.vars]
    held = Counter(u for f in touching for u in f.vars)
    i = max(
        range(len(touching)),
        key=lambda i: (sum(held[u] == 1 for u in touching[i].vars), len(touching[i].table)),
    )
    last = touching.pop(i)
    acc, *middle = touching
    for f in middle:
        acc = _join(acc, f, h)
    rest.append(_join(acc, last, h, drop=v))
    return rest


class _SparseTable:
    """An ``h x h`` table as its nonzero ``(column, value)`` pairs per row,
    shared by pendant absorption and the core.  It holds the rows object,
    so the ``id`` that object is cached under cannot be reused."""

    __slots__ = ("rows", "_cols", "_scaled")

    def __init__(self, rows):
        self.rows = rows
        self._cols = None
        self._scaled = None

    def cols(self) -> list[list[tuple]]:
        """Nonzero entries per column; the transpose is built on first use."""
        if self._cols is None:
            self._cols = [[] for _ in self.rows]
            for i, row in enumerate(self.rows):
                for j, x in row:
                    self._cols[j].append((i, x))
        return self._cols

    def scaled(self) -> tuple[dict[int, int], int]:
        """The core's form, built on first use: :func:`_scaled` of the
        nonzero entries keyed by flat index ``row * h + column``."""
        if self._scaled is None:
            h = len(self.rows)
            self._scaled = _scaled(
                {i * h + j: x for i, row in enumerate(self.rows) for j, x in row}
            )
        return self._scaled


def _scaled(nz: dict) -> tuple[dict[int, int], int]:
    """Nonzero entries as ints, and the common denominator they were
    multiplied by."""
    d = lcm(*(x.denominator for x in nz.values()))
    return {i: x.numerator * (d // x.denominator) for i, x in nz.items()}, d


def _lump(h: int, weights, tables, sparse_of):
    """Merge twin colours: ``(h', weights', tables')``, or ``None`` when
    no two colours are twins.  ``sparse_of`` gives a table's :class:`_SparseTable`.

    Two colours are twins when they agree in every distinct weight row
    and in every row and every column of every distinct table; then
    every summand is unchanged by swapping them on any vertex.  Each
    class keeps its smallest colour, weighted on every vertex by the
    class size, and each table keeps the representatives' rows and
    columns, renumbered.  The test is exact equality on the given
    colours, so the sum is unchanged for entries of any sign, for branch
    multiplicities (each replicated vertex carries the size factor) and
    for isolated vertices.
    """
    tabs = list({id(T): T for T in tables.values()}.values())
    sig = [()] * h
    for T in tabs:
        sig = [s + (tuple(r), tuple(c)) for s, r, c in zip(sig, T, sparse_of(T).cols())]
    if len(set(sig)) == h:
        return None
    rows = {tuple(w) for w in weights}
    classes: dict[tuple, list[int]] = {}
    for c, key in enumerate(zip(sig, *rows)):
        classes.setdefault(key, []).append(c)
    if len(classes) == h:
        return None
    reps = [cls[0] for cls in classes.values()]
    sizes = [len(cls) for cls in classes.values()]
    new = {r: a for a, r in enumerate(reps)}
    lumped_rows = {w: [k * w[r] for k, r in zip(sizes, reps)] for w in rows}
    lumped_tabs = {
        id(T): [[(new[j], x) for j, x in T[r] if j in new] for r in reps] for T in tabs
    }
    return (
        len(reps),
        [list(lumped_rows[tuple(w)]) for w in weights],
        {e: lumped_tabs[id(T)] for e, T in tables.items()},
    )


def count_ewhom(inst: EdgeWeightedInstance) -> Fraction:
    """Exact value of the weighted homomorphism sum for ``inst``."""
    G, H = inst.graph, inst.target
    h = H.n

    weights = []
    for v in range(G.n):
        row = inst.vertex_weights.get(v)
        weights.append([_num(x) for x in row] if row is not None else [1] * h)

    # Edges without a table share the adjacency rows, whose 0/1 entries no
    # multiplicity changes; each distinct (raw table, m) is converted once.
    adjacency = [[(j, 1) for j in H.neighbours(i)] for i in range(h)]
    prepared: dict[tuple[int, int], list[list]] = {}
    tables: dict[tuple[int, int], list[list]] = {}
    for e in G.edges:
        raw = inst.edge_tables.get(e)
        if raw is None:
            tables[e] = adjacency
            continue
        m = inst.edge_mult.get(e, 1)
        T = prepared.get((id(raw), m))
        if T is None:
            T = [[(j, _num(x) ** m) for j, x in enumerate(row) if x] for row in raw]
            prepared[id(raw), m] = T
        tables[e] = T
    return sum_product(G, h, weights, tables, inst.vertex_mult)


def sum_product(G: Graph, h: int, weights, tables, vertex_mult=None) -> Fraction:
    """The elimination core behind :func:`count_ewhom`, on prepared inputs:

        sum over sigma in [h]^V of  prod_v weights[v][sigma(v)]^{mu_v}
                                   * prod_e tables[e][sigma(u)][sigma(v)]

    ``weights`` is a list holding one list of ``h`` ints or Fractions per
    vertex, and ``tables`` a dict holding one ``h x h`` table per edge
    ``(u, v)``, ``u < v``, as its nonzero entries: ``h`` rows, indexed by
    the colour of ``u``, of ``(column, value)`` pairs, so no step does
    Theta(h^2) work; edges holding the same rows object share its
    transpose and scaled form.
    ``vertex_mult`` (``mu_v``) replicates the pendant branch at a
    vertex, as in :class:`EdgeWeightedInstance`.  Entries may have any
    sign: the core only multiplies and adds.  Both ``weights`` and
    ``tables`` are used up: pendant absorption folds branches into the
    weight lists in place and removes the absorbed edges' tables.
    Twin colours are lumped first (see :func:`_lump`).
    """
    vertex_mult = vertex_mult or {}
    sparse: dict[int, _SparseTable] = {}

    def sparse_of(T) -> _SparseTable:
        got = sparse.get(id(T))
        if got is None:
            got = sparse[id(T)] = _SparseTable(T)
        return got

    # the transposes lumping reads are reused by absorption when nothing lumps
    lumped = _lump(h, weights, tables, sparse_of)
    if lumped is not None:
        h, weights, tables = lumped

    def vmult(v: int) -> int:
        return vertex_mult.get(v, 1)

    active = set(range(G.n))
    nbrs = {v: set(G.neighbours(v)) for v in range(G.n)}

    # Phase 1: absorb pendant vertices in the order of the key
    # (vmult(v) == 1, v).  Multiplicity-bearing pendants fold first (their
    # power must cover only their own branch, so they may never swallow a
    # neighbour); ties break on smallest id.  The heap holds each vertex
    # from the moment its degree drops to one; an entry whose vertex was
    # absorbed or has lost its last neighbour is stale and skipped.  A fold
    # visits the pendant's nonzero colours and, for each, the nonzero
    # entries of its row of the edge table (its column when the pendant is
    # the edge's higher id).
    heap = [(vmult(v) == 1, v) for v in range(G.n) if len(nbrs[v]) == 1]
    heapify(heap)
    while heap:
        _, u = heappop(heap)
        if u not in active or len(nbrs[u]) != 1:
            continue
        nb = next(iter(nbrs[u]))
        e = (u, nb) if u < nb else (nb, u)
        table = sparse_of(tables.pop(e))
        by_colour = table.rows if u < nb else table.cols()
        folded = [0] * h
        for c, w in enumerate(weights[u]):
            if w:
                for cn, x in by_colour[c]:
                    folded[cn] += x * w
        m = vmult(u)
        if m > 1:
            folded = [f**m for f in folded]
        wnb = weights[nb]
        wnb[:] = [a * f for a, f in zip(wnb, folded)]
        active.remove(u)
        nbrs[nb].remove(u)
        if len(nbrs[nb]) == 1:
            heappush(heap, (vmult(nb) == 1, nb))

    # Phase 2: isolated vertices contribute scalar factors.
    scalar = 1
    for v in sorted(active):
        if not nbrs[v]:
            scalar = scalar * sum(weights[v]) ** vmult(v)
            active.remove(v)
    if not scalar:
        return Fraction(0)

    for v in active:
        if vmult(v) > 1:
            raise HomredError(
                f"vertex multiplicity at vertex {v} needs a pendant branch, "
                "but the vertex survives into the elimination core"
            )

    # Phase 3: bucket elimination over the remaining core, on ints: each
    # factor is scaled by the lcm of its denominators, and the product of
    # those scales is divided out once at the end.
    factors = []
    scale = 1
    for e, T in tables.items():
        if e[0] in active:
            table, d = sparse_of(T).scaled()
            factors.append(_Factor(e, table))
            scale *= d
    for v in sorted(active):
        table, d = _scaled({c: x for c, x in enumerate(weights[v]) if x})
        factors.append(_Factor((v,), table))
        scale *= d

    while True:
        if any(not f.table for f in factors):
            return Fraction(0)
        var_deg: dict[int, set[int]] = {}
        for f in factors:
            for u in f.vars:
                var_deg.setdefault(u, set()).update(f.vars)
        if not var_deg:
            break
        v = min(var_deg, key=lambda u: (len(var_deg[u]) - 1, u))
        factors = _eliminate(v, factors, h)

    core = 1
    for f in factors:  # all zero-var now
        core *= f.table[0]
    return Fraction(core, scale) * scalar


def count_hom(G: Graph, H: Graph) -> int:
    """Number of homomorphisms from G to H."""
    z = count_ewhom(EdgeWeightedInstance(G, H))
    assert z.denominator == 1
    return int(z)


def count_whom(G: Graph, H: Graph, wt: WeightTable) -> Fraction:
    """Vertex-weighted homomorphism sum from G to H."""
    if wt.n != G.n or wt.h != H.n:
        raise HomredError("weight table dimensions do not match the instance")
    vw = {v: wt.rows[v] for v in wt.rows}
    return count_ewhom(EdgeWeightedInstance(G, H, vertex_weights=vw))


def complete_bipartite_whom(G: Graph, H: Graph, wt: WeightTable) -> Fraction:
    """Closed-form weighted homomorphism sum into a complete bipartite target.

    Per connected component with 2-colouring (S, S') and target sides
    (U, U'), the component contributes

        prod_{v in S} W_v(U) * prod_{v in S'} W_v(U')
      + prod_{v in S} W_v(U') * prod_{v in S'} W_v(U)

    where ``W_v(X) = sum_{u in X} w_v(u)``; a non-bipartite component
    kills the whole product.  Single-vertex components degenerate to the
    full colour sum.  Matches :func:`count_whom` whenever the target is
    complete bipartite.
    """
    parts = complete_bipartite_parts(H)
    if parts is None:
        raise HomredError("target is not complete bipartite")
    if wt.n != G.n or wt.h != H.n:
        raise HomredError("weight table dimensions do not match the instance")
    U, Up = parts
    if G.bipartition is None:
        return Fraction(0)
    left = G.bipartition[0]

    total = Fraction(1)
    for comp in components(G):
        S = [v for v in comp if v in left]
        Sp = [v for v in comp if v not in left]

        def side_sum(v: int, side) -> Fraction:
            row = wt.row(v)
            return sum((row[u] for u in side), Fraction(0))

        term1 = Fraction(1)
        for v in S:
            term1 *= side_sum(v, U)
        for v in Sp:
            term1 *= side_sum(v, Up)
        term2 = Fraction(1)
        for v in S:
            term2 *= side_sum(v, Up)
        for v in Sp:
            term2 *= side_sum(v, U)
        total *= term1 + term2
        if not total:
            return Fraction(0)
    return total


class WalkProfile(NamedTuple):
    d1: int
    d2: int
    d3: int
    w1: int
    w2: int
    w3: int


def walk_profile(H: Graph, v: int) -> WalkProfile:
    """Simple-path counts d1..d3 and walk counts w1..w3 from vertex v.

    d_k counts simple paths of length exactly k starting at v (DFS with
    a visited set); w_k counts length-k walks (adjacency power row sums).
    On a tree d_k is just the size of the k-th distance layer.
    """
    paths = [0, 0, 0, 0]
    seen = {v}

    def dfs(u: int, depth: int):
        if depth == 3:
            return
        for t in H.neighbours(u):
            if t in seen:
                continue
            paths[depth + 1] += 1
            seen.add(t)
            dfs(t, depth + 1)
            seen.remove(t)

    dfs(v, 0)

    x = [1] * H.n
    walks = []
    for _ in range(3):
        x = [sum(x[t] for t in H.neighbours(u)) for u in range(H.n)]
        walks.append(x[v])
    return WalkProfile(paths[1], paths[2], paths[3], *walks)


WALK_TABLE_ROWS = (
    "w",
    "x0",
    "x1",
    "x2_1",
    "y0",
    "y1",
    "y2_1",
    "y3_1_1",
    "z0",
    "z1",
    "z2_1",
    "z3_1_1",
    "z4_1_1_1",
)


def j3star_walk_table() -> list[tuple[str, WalkProfile]]:
    """Walk profiles of one representative per orbit of the 58-vertex tree."""
    tree = j3star_tree()
    return [(lbl, walk_profile(tree.graph, tree.vertex(lbl))) for lbl in WALK_TABLE_ROWS]


def format_walk_table(rows: list[tuple[str, WalkProfile]]) -> str:
    """Fixed-width rendering: label column 8 wide, numbers right-aligned in 3."""
    width = max(len("z4_1_1_1"), max((len(lbl) for lbl, _ in rows), default=0))
    head = "h".ljust(width) + "".join("  " + c.rjust(3) for c in WalkProfile._fields)
    lines = [head]
    for lbl, prof in rows:
        lines.append(lbl.ljust(width) + "".join("  " + str(x).rjust(3) for x in prof))
    return "\n".join(lines) + "\n"
