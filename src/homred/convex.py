"""Convex orderings of junction-free trees, and counting weighted
homomorphisms through an implication CSP.

A convex ordering of a bipartite graph numbers each side so that every
vertex's neighbourhood on the other side is a contiguous interval of
positions.  Trees without an induced 3-branch junction admit one, built
here by repeatedly peeling the leaf children of a deepest leaf's parent.

Given such an ordering, mapping a bipartite source graph into the tree
side-respectingly becomes a monotone-threshold problem: each source
vertex v gets a chain of 0/1 variables v_0 <= v_1 <= ... whose switch
point encodes its colour position, interval constraints become
implications between chain levels, and vertex weights turn into
per-level weight ratios that telescope to the original weight.  The
full weighted homomorphism count is assembled per connected component
as (own-side sum) + (swapped-side sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .csp import WeightedCspInstance, count_wcsp
from .errors import HomredError
from .graphs import Graph, components, find_induced_j3
from .homcount import WeightTable


@dataclass
class ConvexOrder:
    """Position bijections for both sides plus the interval endpoint maps.

    ``pi`` numbers the side ``U`` with 1..h, ``pip`` numbers ``Up`` with
    1..h'.  ``m``/``M`` give, for each position i on the U side, the
    first and last position of the neighbourhood interval on the other
    side; ``mp``/``Mp`` are the mirror maps.  A vertex with no
    neighbours gets the empty interval (m = 1, M = 0).
    """

    U: tuple[int, ...]
    Up: tuple[int, ...]
    pi: dict[int, int]
    pip: dict[int, int]
    m: dict[int, int]
    M: dict[int, int]
    mp: dict[int, int]
    Mp: dict[int, int]

    @property
    def h(self) -> int:
        return len(self.U)

    @property
    def hp(self) -> int:
        return len(self.Up)

    def swapped(self) -> "ConvexOrder":
        return ConvexOrder(self.Up, self.U, self.pip, self.pi, self.mp, self.Mp, self.m, self.M)


def _intervals(H: Graph, side: tuple[int, ...], other_pi: dict[int, int], pi: dict[int, int]):
    """Interval endpoints per position of ``side``; errors if not convex."""
    inv = {pos: v for v, pos in pi.items()}
    m: dict[int, int] = {}
    M: dict[int, int] = {}
    for i in range(1, len(side) + 1):
        v = inv[i]
        positions = sorted(other_pi[t] for t in H.neighbours(v))
        if not positions:
            m[i], M[i] = 1, 0
            continue
        lo, hi = positions[0], positions[-1]
        if len(positions) != hi - lo + 1:
            raise HomredError(
                f"ordering is not convex: neighbourhood of vertex {v} maps to {positions}"
            )
        m[i], M[i] = lo, hi
    return m, M


def convex_order_from_bijections(H: Graph, U, Up, pi: dict[int, int], pip: dict[int, int]) -> ConvexOrder:
    """Package explicit side bijections, computing and checking the intervals."""
    U, Up = tuple(sorted(U)), tuple(sorted(Up))
    left = set(U)
    if left | set(Up) != set(range(H.n)) or left & set(Up):
        raise HomredError("sides must partition the vertex set")
    for u, v in H.edges:
        if (u in left) == (v in left):
            raise HomredError(f"edge ({u},{v}) does not cross the given sides")
    if sorted(pi.keys()) != list(U) or sorted(pi.values()) != list(range(1, len(U) + 1)):
        raise HomredError("pi must biject the left side onto 1..h")
    if sorted(pip.keys()) != list(Up) or sorted(pip.values()) != list(range(1, len(Up) + 1)):
        raise HomredError("pip must biject the right side onto 1..h'")
    m, M = _intervals(H, U, pip, pi)
    mp, Mp = _intervals(H, Up, pi, pip)
    return ConvexOrder(U, Up, dict(pi), dict(pip), m, M, mp, Mp)


def qualifying_leaves(H: Graph) -> list[int]:
    """Leaves whose parent has at most one non-leaf neighbour."""
    out = []
    for u in range(H.n):
        if H.degree(u) != 1:
            continue
        parent = H.neighbours(u)[0]
        nonleaf = [t for t in H.neighbours(parent) if H.degree(t) > 1]
        if len(nonleaf) <= 1:
            out.append(u)
    return out


def convex_order(H: Graph) -> ConvexOrder:
    """A convex ordering of a junction-free tree.

    Peels the tree from a deepest-available leaf inward: the chosen
    leaf's parent has at most one non-leaf neighbour, so removing the
    parent's leaf children turns the parent itself into such a leaf one
    level deeper.  The absence of an induced 3-branch junction is
    exactly what keeps this invariant alive, and is checked up front.
    The peeling starts from the smallest qualifying leaf; every
    qualifying choice yields a valid ordering.
    """
    if not H.is_tree():
        raise HomredError("convex orderings are built for trees")
    if find_induced_j3(H) is not None:
        raise HomredError("tree contains an induced 3-branch junction; no convex ordering exists")
    left, right = H.bipartition
    if H.n == 1:
        pi = {0: 1}
        return ConvexOrder((0,), (), pi, {}, {1: 1}, {1: 0}, {}, {})

    # Peel inward until the active tree is a star centred at u's parent,
    # recording each peeled layer; then number both sides outward.
    active = set(range(H.n))
    layers = []
    u0 = u = qualifying_leaves(H)[0]
    while True:
        up = next(t for t in H.neighbours(u) if t in active)
        up_nbs = [t for t in H.neighbours(up) if t in active]
        nonleaf = [
            t for t in up_nbs if sum(1 for s in H.neighbours(t) if s in active) > 1
        ]
        if not nonleaf:
            break
        if len(nonleaf) > 1:
            raise HomredError("peeling stalled; the tree is not junction-free")
        removed = [t for t in up_nbs if t != nonleaf[0]]
        layers.append((u, removed))
        active.difference_update(removed)
        u = up
    others = sorted(t for t in up_nbs if t != u)
    pi_side = {t: i + 1 for i, t in enumerate(others)}  # positions on u's side
    pi_side[u] = len(up_nbs)
    pi_other = {up: 1}
    for u, removed in reversed(layers):
        # the inner step peeled from u's parent, so its other side is u's side
        pi_side, pi_other = pi_other, pi_side
        base = len(pi_side)
        for idx, t in enumerate(sorted(t for t in removed if t != u)):
            pi_side[t] = base + 1 + idx
        pi_side[u] = base + len(removed)

    if u0 in left:
        pi, pip = pi_side, pi_other
    else:
        pi, pip = pi_other, pi_side
    return convex_order_from_bijections(H, sorted(left), sorted(right), pi, pip)


def side_variable_layout(left, right, h: int, hp: int):
    """Chain-variable numbering: left vertices first, then right, each
    vertex owning levels 0..h (resp. 0..h') consecutively.

    Returns ``(layout, nvars)`` with ``layout[(v, i)]`` the variable id.
    """
    layout: dict[tuple[int, int], int] = {}
    nxt = 0
    for v in sorted(left):
        for i in range(h + 1):
            layout[(v, i)] = nxt
            nxt += 1
    for v in sorted(right):
        for i in range(hp + 1):
            layout[(v, i)] = nxt
            nxt += 1
    return layout, nxt


@dataclass
class WhomCspReduction:
    """One side-restricted weighted CSP, with its variable layout."""

    instance: WeightedCspInstance
    layout: dict[tuple[int, int], int]
    left: tuple[int, ...]
    right: tuple[int, ...]
    order: ConvexOrder


def reduce_whom_side(G: Graph, left, right, order: ConvexOrder, wt: WeightTable) -> WhomCspReduction:
    """Side-restricted weighted homomorphisms as a weighted implication CSP.

    Counts colourings sending ``left`` into the order's U side and
    ``right`` into its U' side: ``count_wcsp`` of the returned instance
    equals that restricted weighted sum.  Every source vertex v carries
    a monotone chain v_0 <= ... <= v_h with v_0 pinned 0 and the top
    pinned 1; its colour position is the first level set to 1.  A graph
    edge (v, v') induces, per level, four families of implications that
    confine the pair of switch points to the convex intervals.  A colour
    of weight zero is excluded by collapsing its level onto the previous
    one, and the remaining weights appear as level ratios.
    """
    left, right = tuple(sorted(left)), tuple(sorted(right))
    if sorted(left + right) != list(range(G.n)):
        raise HomredError("left and right must partition the source vertices")
    leftset = set(left)
    for a, b in G.edges:
        if (a in leftset) == (b in leftset):
            raise HomredError(f"edge ({a},{b}) does not cross the given sides")
    if wt.n != G.n or wt.h != order.h + order.hp:
        raise HomredError("weight table dimensions do not match the instance")

    h, hp = order.h, order.hp
    layout, nvars = side_variable_layout(left, right, h, hp)
    var = layout.__getitem__

    imps: list[tuple[int, int]] = []
    pins0 = set()
    pins1 = set()
    one = Fraction(1)
    weights: list[tuple[Fraction, Fraction]] = [(one, one)] * nvars

    def wire_chain(v: int, levels: int, colour_of: dict[int, int]):
        pins0.add(var((v, 0)))
        pins1.add(var((v, levels)))
        for i in range(1, levels + 1):
            imps.append((var((v, i - 1)), var((v, i))))
        row = wt.row(v)
        eff = []
        for i in range(1, levels + 1):
            w = row[colour_of[i]]
            if w == 0:
                imps.append((var((v, i)), var((v, i - 1))))
                w = one
            eff.append(w)
        for i in range(1, levels):
            weights[var((v, i))] = (one, eff[i - 1] / eff[i])
        if levels >= 1:
            weights[var((v, levels))] = (one, eff[levels - 1])

    u_at = {pos: u for u, pos in order.pi.items()}
    up_at = {pos: u for u, pos in order.pip.items()}
    for v in left:
        wire_chain(v, h, u_at)
    for v in right:
        wire_chain(v, hp, up_at)

    for a, b in G.edges:
        v, vp = (a, b) if a in leftset else (b, a)
        for i in range(1, h + 1):
            imps.append((var((v, i)), var((vp, order.M[i]))))
            imps.append((var((vp, order.m[i] - 1)), var((v, i - 1))))
        for i in range(1, hp + 1):
            imps.append((var((vp, i)), var((v, order.Mp[i]))))
            imps.append((var((v, order.mp[i] - 1)), var((vp, i - 1))))

    inst = WeightedCspInstance(nvars, imps, pins0, pins1, tuple(weights))
    return WhomCspReduction(inst, layout, left, right, order)


def reduce_whom_sides(G: Graph, order: ConvexOrder, wt: WeightTable):
    """The own-side and swapped-side :func:`reduce_whom_side` of a
    connected bipartite source, its sides taken from ``G.bipartition``:
    its weighted homomorphism count is the sum of their two counts."""
    if not G.is_connected() or G.n < 1:
        raise HomredError("whom-to-csp emission expects a connected source graph")
    if G.bipartition is None:
        raise HomredError("source graph must be bipartite")
    left, right = G.bipartition
    return tuple(reduce_whom_side(G, left, right, o, wt) for o in (order, order.swapped()))


def whom_via_csp(G: Graph, H: Graph, wt: WeightTable | None = None) -> Fraction:
    """Weighted homomorphism count through the CSP reduction.

    Works for any junction-free tree target.  Each connected source
    component contributes (left-to-U sum) + (left-to-U' sum); a
    non-bipartite component forces the total to zero.  Agrees with
    direct evaluation on every instance.
    """
    order = convex_order(H)
    if wt is None:
        wt = WeightTable(G.n, H.n)
    if wt.n != G.n or wt.h != H.n:
        raise HomredError("weight table dimensions do not match the instance")

    if G.bipartition is None:
        return Fraction(0)

    total = Fraction(1)
    for comp in components(G):
        sub, remap = G.subgraph(comp)
        wt_sub = WeightTable(sub.n, H.n, {remap[v]: wt.row(v) for v in comp})
        own, swap = reduce_whom_sides(sub, order, wt_sub)
        total *= count_wcsp(own.instance) + count_wcsp(swap.instance)
        if not total:
            return Fraction(0)
    return total
