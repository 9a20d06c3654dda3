"""Reduction gadgets between counting problems, with checkable certificates.

Each builder turns an instance of one problem into an instance of
another and returns, alongside the built object, a
:class:`ReductionCertificate` recording the construction parameters,
the canonical scale factor, and the additive slack of the guarantee:
``0`` for exact identities and ``1/4`` for the sandwich constructions,
whose scaled value V satisfies  answer <= V <= answer + 1/4  so the
answer is recovered as floor(V).

The five kinds:

- ``cut-to-whom``: counting minimum 3-terminal cuts via weighted
  homomorphisms into any tree with an induced 3-branch junction.
- ``potts-to-jq``: the Potts sum at gamma = 1 via plain homomorphism
  counting into the junction tree with q branches.
- ``jq-to-hyperpotts``: side-restricted junction-tree homomorphisms as
  a hypergraph Potts sum at gamma = 1 (exact).
- ``uniformize``: a hypergraph Potts sum as one with uniform edge size.
- ``cut-to-j3star``: minimum 3-terminal cuts via plain homomorphism
  counting into the fixed 58-vertex decorated junction tree.

Certificates serialise to JSON; verification rebuilds the construction
from the recorded inputs, recomputes every constant, re-evaluates the
count, and checks the sandwich against an independently enumerated
ground truth.
"""

from __future__ import annotations

import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import HomredError
from .graphs import (
    Graph,
    Hypergraph,
    find_induced_j3,
    j3star_tree,
    junction_tree,
    two_stretch,
)
from .homcount import (
    EdgeWeightedInstance,
    WeightTable,
    count_ewhom,
    count_hom,
    count_whom,
    sum_product,
)
from .potts import (
    check_enumeration,
    histogram_sum,
    hypergraph_mono_histogram,
    potts_hypergraph,
)


@contextmanager
def int_str_digits(limit: int):
    """Set CPython's int<->str digit cap to ``limit`` (0 lifts it) inside
    the block, and restore the caller's cap on exit.

    Scale constants routinely exceed the default cap of 4300 digits (a
    default J3* run carries 4968^1555, ~5700 digits), so writing and
    reading certificates, and printing their values, run inside this;
    the rest of the process keeps the cap.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the cap
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@dataclass(frozen=True)
class CutInstance:
    """A graph with three distinct terminal vertices to disconnect."""

    graph: Graph
    terminals: tuple[int, int, int]

    def __post_init__(self):
        a, b, c = self.terminals
        if len({a, b, c}) != 3:
            raise HomredError("terminals must be three distinct vertices")
        for t in self.terminals:
            if not 0 <= t < self.graph.n:
                raise HomredError(f"terminal {t} out of range")
        if not self.graph.is_connected():
            raise HomredError("cut instances must be connected")


def _check_cut_input(G: Graph, terminals):
    CutInstance(G, tuple(terminals))
    m = len(G.edges)
    check_enumeration(2**m, f"cut enumeration over {m} edges", cap=2**24)


def multiterminal_cuts(G: Graph, terminals) -> tuple[int, int]:
    """Size and number of minimum edge sets separating all three terminals.

    Returns ``(b, N)``: the smallest size b of an edge set whose removal
    leaves the terminals pairwise disconnected, and the number N of such
    sets of size b.  As G is connected, each component left by a minimum
    cut holds exactly one terminal, so minimum cuts correspond one to one
    with the 3-colourings that pin the terminals to distinct colours and
    have the fewest bichromatic edges.  Weighting a bichromatic edge by
    X = 2^s, with 3^n < X, makes the elimination core's sum the integer
    sum_k c_k X^k, where c_k <= 3^(n-3) counts the colourings with k
    bichromatic edges: b is the index of its lowest nonzero base-X digit
    and N is that digit.  Refuses the same instances as
    :func:`multiterminal_cuts_oracle`, the subset enumeration.
    """
    _check_cut_input(G, terminals)
    s = (3**G.n).bit_length()
    X = 1 << s
    weights = [[1, 1, 1] for _ in range(G.n)]
    for colour, t in enumerate(terminals):
        weights[t] = [int(c == colour) for c in range(3)]
    cost = [[(d, 1 if c == d else X) for d in range(3)] for c in range(3)]
    P = int(sum_product(G, 3, weights, dict.fromkeys(G.edges, cost)))
    b = ((P & -P).bit_length() - 1) // s
    return b, (P >> (b * s)) & (X - 1)


def multiterminal_cuts_oracle(G: Graph, terminals) -> tuple[int, int]:
    """:func:`multiterminal_cuts` by enumerating edge subsets by increasing
    size: the ground truth that certificate verification uses."""
    _check_cut_input(G, terminals)
    a, b, c = terminals
    m = len(G.edges)

    def separated(removed: frozenset) -> bool:
        parent = list(range(G.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (u, v) in enumerate(G.edges):
            if i in removed:
                continue
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return len({find(a), find(b), find(c)}) == 3

    for size in range(m + 1):
        count = sum(1 for sub in combinations(range(m), size) if separated(frozenset(sub)))
        if count:
            return size, count
    raise HomredError("terminals cannot be separated")  # unreachable for distinct terminals


def _ser(x):
    if isinstance(x, Fraction):
        with int_str_digits(0):
            return str(x)
    return x


@dataclass
class ReductionCertificate:
    """Reproducible record of one reduction run.

    ``inputs`` holds everything needed to rebuild the construction,
    ``constants`` the derived parameters (always including the
    canonical ``scale``), ``counters`` informational exact values, and
    ``slack`` the additive loss of the guarantee (0 or 1/4).
    """

    kind: str
    inputs: dict
    constants: dict
    slack: Fraction
    counters: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "inputs": {k: _ser(v) for k, v in self.inputs.items()},
            "constants": {k: _ser(v) for k, v in self.constants.items()},
            "counters": {k: _ser(v) for k, v in self.counters.items()},
            "slack": _ser(self.slack),
        }
        with int_str_digits(0):
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReductionCertificate":
        """Parse a certificate, checking its keys and the types of its inputs.

        Every defect ends in a :class:`HomredError`; values that are well
        typed but out of range are refused later, by the rebuild.  Every
        number is parsed here, under a digit cap that admits any value of
        up to :data:`MAX_VALUE_BITS` bits and no longer one.
        """
        with int_str_digits(_MAX_VALUE_DIGITS):
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise HomredError(f"certificate is not valid JSON: {exc}") from None
            except ValueError:  # an integer longer than the digit cap
                raise _too_long("a number") from None
        if not isinstance(payload, dict):
            raise _malformed("the top level is not an object")
        kind = payload.get("kind")
        if not isinstance(kind, str) or kind not in _INPUTS:
            raise HomredError(f"unknown certificate kind {kind!r}")
        parts = {k: payload.get(k) for k in ("inputs", "constants")}
        parts["counters"] = payload.get("counters", {})
        for name, part in parts.items():
            if not isinstance(part, dict):
                raise _malformed(f"{name} is not an object")
        for key, (check, want) in _INPUTS[kind].items():
            if key not in parts["inputs"]:
                raise _malformed(f"inputs.{key} is missing")
            if not check(parts["inputs"][key]):
                raise _malformed(f"inputs.{key} is not {want}")
        if "gamma" in _INPUTS[kind]:
            parts["inputs"]["gamma"] = _parse_rational(parts["inputs"]["gamma"], "inputs.gamma")
        if not _is_rational(payload.get("slack")):
            raise _malformed("slack is not a rational number")
        return cls(kind=kind, slack=_parse_rational(payload["slack"], "slack"), **parts)


def _malformed(what: str) -> HomredError:
    return HomredError(f"malformed certificate: {what}")


def _too_long(what: str) -> HomredError:
    return _malformed(f"{what} has more than {_MAX_VALUE_DIGITS} digits")


def _parse_rational(x: int | str, what: str) -> Fraction:
    """``x``, already checked by :func:`_is_rational`, as a Fraction."""
    with int_str_digits(_MAX_VALUE_DIGITS):
        try:
            return Fraction(x)
        except ValueError:  # more digits than the cap
            raise _too_long(what) from None


def _is_int(x) -> bool:
    return type(x) is int


def _is_rational(x) -> bool:
    """An int, or a string as ``str(Fraction)`` writes it."""
    return _is_int(x) or (
        isinstance(x, str)
        and re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", x) is not None
    )


def _int_lists(obj, key: str, arity: int | None = None):
    """``n`` and the int tuples under ``key`` of a serialised (hyper)graph,
    or ``None`` when ``obj`` does not have that shape."""
    if not isinstance(obj, dict) or not _is_int(obj.get("n")) or not isinstance(obj.get(key), list):
        return None
    items = []
    for t in obj[key]:
        if not isinstance(t, list) or not all(map(_is_int, t)) or arity not in (None, len(t)):
            return None
        items.append(tuple(t))
    return obj["n"], items


def _graph_to_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def _graph_from_obj(obj) -> Graph:
    fields = _int_lists(obj, "edges", 2)
    if fields is None:
        raise _malformed("a graph is not {n: int, edges: [[int, int], ...]}")
    return Graph(*fields)


def _hypergraph_to_obj(hg: Hypergraph) -> dict:
    return {"n": hg.n, "hyperedges": [list(f) for f in hg.hyperedges]}


def _hypergraph_from_obj(obj) -> Hypergraph:
    fields = _int_lists(obj, "hyperedges")
    if fields is None:
        raise _malformed("a hypergraph is not {n: int, hyperedges: [[int, ...], ...]}")
    return Hypergraph(*fields)


_GRAPH = (lambda x: _int_lists(x, "edges", 2) is not None, "a graph {n, edges}")
_HYPERGRAPH = (lambda x: _int_lists(x, "hyperedges") is not None, "a hypergraph {n, hyperedges}")
_INT = (_is_int, "an integer")
_TERMINALS = (
    lambda x: isinstance(x, list) and len(x) == 3 and all(map(_is_int, x)),
    "a list of three integers",
)

# the inputs each kind's rebuild reads, with their types
_INPUTS = {
    "cut-to-whom": {"graph": _GRAPH, "terminals": _TERMINALS, "target": _GRAPH, "s": _INT},
    "potts-to-jq": {"graph": _GRAPH, "q": _INT, "s": _INT},
    "jq-to-hyperpotts": {"graph": _GRAPH, "q": _INT, "side": (lambda x: isinstance(x, str), "a string")},
    "uniformize": {
        "hypergraph": _HYPERGRAPH,
        "q": _INT,
        "gamma": (_is_rational, "a rational number"),
        "s": _INT,
    },
    "cut-to-j3star": {"graph": _GRAPH, "terminals": _TERMINALS, "s": _INT, "r": _INT},
}


# ---------------------------------------------------------------------------
# cut-to-whom: minimum 3-terminal cuts via weighted homomorphisms


_MID_ROLES = ("w", "x1", "y1", "z1")  # the high-side roles an edge's midpoints may take


def _indicator(h: int, cols) -> tuple[int, ...]:
    return tuple(int(c in cols) for c in range(h))


def _two_path_table(H: Graph, mids=None) -> list[list[int]]:
    """Counts of the 2-paths a-c-b of H whose middle c lies in ``mids``
    (every vertex by default, which gives the squared adjacency matrix),
    indexed ``[a][b]`` and built from the neighbour lists."""
    T = [[0] * H.n for _ in range(H.n)]
    for c in range(H.n) if mids is None else mids:
        nbrs = H.neighbours(c)
        for a in nbrs:
            row = T[a]
            for b in nbrs:
                row[b] += 1
    return T


def _cut_whom_rows(cut: CutInstance, H: Graph):
    """The junction roles of H and the cut gadget's source vertex rows:
    every vertex confined to the three branch roots, each terminal
    pinned to its own branch.  Returns ``(roles, rows)``."""
    roles = find_induced_j3(H)
    if roles is None:
        raise HomredError("target tree has no induced 3-branch junction")
    branch_roots = (roles["x0"], roles["y0"], roles["z0"])
    rows = dict.fromkeys(range(cut.graph.n), _indicator(H.n, branch_roots))
    for t, role_root in zip(cut.terminals, branch_roots):
        rows[t] = _indicator(H.n, [role_root])
    return roles, rows


def build_cut_to_whom(cut: CutInstance, H: Graph, s_override: int | None = None):
    """Weighted homomorphism instance whose scaled value sandwiches the
    number of minimum 3-terminal cuts.

    The target may be any tree containing an induced 3-branch junction;
    its role vertices are located automatically.  Every source edge is
    replaced by s parallel length-two paths whose midpoints may only
    take the four high-side roles (folded into an entrywise table
    power), source vertices are confined to the three branch roots, and
    each terminal is pinned to its own branch.  With
    s = 2 + |E| + 2|V|, the count divided by 2^{s(|E|-b)} lies within
    1/4 above the number N of minimum cuts.

    Returns ``(instance, certificate)``.
    """
    G = cut.graph
    roles, vertex_weights = _cut_whom_rows(cut, H)
    n, m = G.n, len(G.edges)
    s = s_override if s_override is not None else 2 + m + 2 * n
    if s < 1:
        raise HomredError("path multiplicity s must be >= 1")
    b, ncuts = multiterminal_cuts(G, cut.terminals)

    table = _two_path_table(H, [roles[r] for r in _MID_ROLES])
    inst = EdgeWeightedInstance(
        G,
        H,
        vertex_weights=vertex_weights,
        edge_tables={e: table for e in G.edges},
        edge_mult={e: s for e in G.edges},
    )
    cert = ReductionCertificate(
        kind="cut-to-whom",
        inputs={
            "graph": _graph_to_obj(G),
            "terminals": list(cut.terminals),
            "target": _graph_to_obj(H),
            "s": s,
        },
        constants={"s": s, "b": b, "scale": 2 ** (s * (m - b)), "roles": dict(roles)},
        slack=Fraction(1, 4),
        counters={"min_cuts": ncuts},
    )
    return inst, cert


def materialise_cut_to_whom(cut: CutInstance, H: Graph, s: int):
    """Explicit midpoint version of :func:`build_cut_to_whom`.

    Returns ``(graph, weight_table)`` with s physical midpoints per
    source edge; counting weighted homomorphisms of the pair agrees
    with the folded instance.  Meant for small cross-checks.
    """
    G = cut.graph
    roles, rows = _cut_whom_rows(cut, H)
    n, m = G.n, len(G.edges)
    edges = []
    mid_roles = _indicator(H.n, [roles[r] for r in _MID_ROLES])
    for i, (u, v) in enumerate(G.edges):
        for j in range(s):
            mid = n + i * s + j
            edges.append((u, mid))
            edges.append((mid, v))
            rows[mid] = mid_roles
    total = n + m * s
    return Graph(total, edges), WeightTable(total, H.n, rows)


def _least_exponent(base: Fraction, rhs, limit: int | None = None) -> int:
    """The smallest s >= 1 with base^s >= rhs, for base > 1 and rhs > 0: a
    logarithm estimate, settled by exact comparisons.  With ``limit``,
    returns ``limit + 1`` as soon as s is known to exceed ``limit``, so a
    base very close to 1 costs no unbounded search."""
    base, rhs = Fraction(base), Fraction(rhs)
    # near 1, log(numerator) - log(denominator) cancels to 0.0; log1p does not
    if base < 2:
        ln_base = math.log1p(float(base - 1))
    else:
        ln_base = math.log(base.numerator) - math.log(base.denominator)
    ln_rhs = math.log(rhs.numerator) - math.log(rhs.denominator)
    estimate = ln_rhs / ln_base if ln_base else math.inf
    if limit is not None and estimate > limit + 1:
        return limit + 1
    s = max(1, math.ceil(estimate))
    while s > 1 and base ** (s - 1) >= rhs:
        s -= 1
    while base**s < rhs and (limit is None or s <= limit):
        s += 1
    return s


# ---------------------------------------------------------------------------
# potts-to-jq: the Potts sum at gamma = 1 via junction-tree homomorphisms


class PottsJqReduction(NamedTuple):
    instance: EdgeWeightedInstance
    pinned: EdgeWeightedInstance  # apex forced to the junction centre


def minimal_potts_jq_s(G: Graph, q: int) -> int:
    """Smallest s with (q/2)^s >= 8q (q+1)^{|V|+|E|}."""
    if q < 3:
        raise HomredError("the junction-tree reduction needs q >= 3")
    return _least_exponent(Fraction(q, 2), 8 * q * (q + 1) ** (G.n + len(G.edges)))


def _check_potts_jq_input(G: Graph, s: int):
    if G.n < 1 or not G.is_connected():
        raise HomredError("the source graph must be connected and nonempty")
    if s < 1:
        raise HomredError("star size s must be >= 1")


def build_potts_to_jq(G: Graph, q: int, s_override: int | None = None):
    """Potts partition function at gamma = 1 from one homomorphism count.

    The source is subdivided once per edge (midpoints folded into a
    squared-adjacency table), an apex is attached to vertex 0, and a
    pendant star of s leaves hangs at the apex (folded into a degree
    power).  Homomorphisms into the junction tree with the apex on the
    centre contribute exactly q^s * Z_Potts(G; q, 1); the rest total at
    most a quarter of q^s.  Requires G connected and q >= 3.

    Returns ``(PottsJqReduction, certificate)``.
    """
    if q < 3:
        raise HomredError("the junction-tree reduction needs q >= 3")
    s = s_override if s_override is not None else minimal_potts_jq_s(G, q)
    _check_potts_jq_input(G, s)

    target = junction_tree(q)
    A2 = _two_path_table(target.graph)

    apex = G.n
    leaf = G.n + 1
    core = Graph(G.n + 2, list(G.edges) + [(0, apex), (apex, leaf)])
    inst = EdgeWeightedInstance(
        core,
        target.graph,
        edge_tables={e: A2 for e in G.edges},
        vertex_mult={leaf: s},
    )
    pin_row = _indicator(target.graph.n, [target.vertex("w")])
    pinned = EdgeWeightedInstance(
        core,
        target.graph,
        vertex_weights={apex: pin_row},
        edge_tables={e: A2 for e in G.edges},
        vertex_mult={leaf: s},
    )
    typical = count_ewhom(pinned)
    assert typical.denominator == 1
    cert = ReductionCertificate(
        kind="potts-to-jq",
        inputs={"graph": _graph_to_obj(G), "q": q, "s": s},
        constants={"q": q, "s": s, "scale": q**s},
        slack=Fraction(1, 4),
        counters={"typical": int(typical)},
    )
    return PottsJqReduction(inst, pinned), cert


def materialise_potts_to_jq(G: Graph, s: int) -> Graph:
    """Explicit source graph of :func:`build_potts_to_jq`: the 2-stretch
    of G, an apex joined to vertex 0, and s pendant leaves on the apex.

    Plain homomorphism counting into the junction tree agrees with the
    folded instance; meant for emission and small cross-checks.
    """
    _check_potts_jq_input(G, s)
    stretched, _ = two_stretch(G)
    apex = stretched.n
    edges = list(stretched.edges) + [(0, apex)]
    edges += [(apex, apex + 1 + i) for i in range(s)]
    return Graph(stretched.n + 1 + s, edges)


# ---------------------------------------------------------------------------
# jq-to-hyperpotts: side-restricted junction homomorphisms, exactly


class JqHyperPottsReduction(NamedTuple):
    hypergraph: Hypergraph
    restricted: EdgeWeightedInstance  # homomorphism side of the identity
    occupied: tuple[int, ...]  # source vertices restricted to branch midpoints


def build_jq_to_hyperpotts(B: Graph, q: int, side: str = "left"):
    """Restricted homomorphism count into the junction tree as an exact
    hypergraph Potts value.

    Sums homomorphisms of the bipartite graph B that keep the chosen
    side on the q branch midpoints c'_1..c'_q: every opposite-side
    vertex then sits on the centre or follows a monochromatic
    neighbourhood, contributing a factor 2 per monochromatic
    neighbourhood.  That is the Potts sum at gamma = 1 of the
    hypergraph on the chosen side whose hyperedges are the
    neighbourhoods (kept as a multiset) of the opposite side.

    Returns ``(JqHyperPottsReduction, certificate)``.
    """
    if q < 1:
        raise HomredError("junction tree needs q >= 1")
    if side not in ("left", "right"):
        raise HomredError("side must be 'left' or 'right'")
    if B.bipartition is None:
        raise HomredError("source graph must be bipartite")
    left, right = B.bipartition
    occupied = sorted(left if side == "left" else right)
    others = sorted(right if side == "left" else left)
    for v in others:
        if B.degree(v) == 0:
            raise HomredError(
                f"vertex {v} on the unrestricted side is isolated; its neighbourhood "
                "gives an empty hyperedge"
            )
    index = {u: i for i, u in enumerate(occupied)}
    hyperedges = [tuple(sorted(index[u] for u in B.neighbours(v))) for v in others]
    hg = Hypergraph(len(occupied), hyperedges)

    target = junction_tree(q)
    row = _indicator(target.graph.n, {target.vertex(f"c'{i}") for i in range(1, q + 1)})
    restricted = EdgeWeightedInstance(
        B, target.graph, vertex_weights={u: row for u in occupied}
    )
    cert = ReductionCertificate(
        kind="jq-to-hyperpotts",
        inputs={"graph": _graph_to_obj(B), "q": q, "side": side},
        constants={"q": q, "scale": 1},
        slack=Fraction(0),
    )
    return JqHyperPottsReduction(hg, restricted, tuple(occupied)), cert


# ---------------------------------------------------------------------------
# uniformize: equalise hyperedge sizes


def minimal_uniformize_s(HG: Hypergraph, q: int, gamma: Fraction, t: int) -> int:
    """Smallest s with (1+gamma)^s >= 4 q^{n + m(t-1)} (1+gamma)^m.

    Refuses when that s would give a certificate value above
    :data:`MAX_VALUE_BITS`, which ``verify`` would refuse to rebuild."""
    base = 1 + gamma
    if base <= 1:
        raise HomredError("uniformization needs gamma > 0")
    n, m = HG.n, len(HG.hyperedges)
    inputs = {"hypergraph": _hypergraph_to_obj(HG), "q": q, "gamma": gamma}
    lo, hi = 0, MAX_VALUE_BITS  # the largest s whose certificate value fits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _value_bits("uniformize", {**inputs, "s": mid}) <= MAX_VALUE_BITS:
            lo = mid
        else:
            hi = mid - 1
    s = _least_exponent(base, 4 * Fraction(q) ** (n + m * (t - 1)) * base**m, limit=lo)
    if s > lo:
        raise HomredError(
            f"gamma = {gamma} needs an anchor multiplicity s above {lo}, "
            f"whose certificate value would exceed {MAX_VALUE_BITS} bits"
        )
    return s


def uniformize(HG: Hypergraph, q: int, gamma, s_override: int | None = None):
    """Pad a hypergraph to uniform edge size, preserving the Potts sum.

    Each hyperedge gains t-1 private padding vertices: the hyperedge is
    padded up to the maximum size t, and s anchor copies of the size-t
    hyperedge {smallest original vertex, all padding vertices} force
    the padding monochromatic with the anchor in the dominant part of
    the sum.  The original value Z satisfies
    Z <= Z' / (1+gamma)^{s m} <= Z + 1/4.

    Returns ``(padded_hypergraph, certificate)``.
    """
    if q < 1:
        raise HomredError("Potts model needs q >= 1 spins")
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise HomredError("uniformization needs gamma > 0")
    n, m = HG.n, len(HG.hyperedges)
    if m == 0:
        raise HomredError("nothing to uniformize: the hypergraph has no hyperedges")
    t = max(len(f) for f in HG.hyperedges)
    s = s_override if s_override is not None else minimal_uniformize_s(HG, q, gamma, t)
    if s < 1:
        raise HomredError("anchor multiplicity s must be >= 1")

    hyperedges = []
    for j, f in enumerate(HG.hyperedges):
        pad = [n + j * (t - 1) + i for i in range(t - 1)]
        hyperedges.append(tuple(sorted(f)) + tuple(pad[: t - len(f)]))
        anchor = tuple(sorted([f[0]] + pad))
        hyperedges.extend([anchor] * s)
    padded = Hypergraph(n + m * (t - 1), hyperedges)

    cert = ReductionCertificate(
        kind="uniformize",
        inputs={"hypergraph": _hypergraph_to_obj(HG), "q": q, "gamma": gamma, "s": s},
        constants={"t": t, "s": s, "m": m, "scale": (1 + gamma) ** (s * m)},
        slack=Fraction(1, 4),
    )
    return padded, cert


# ---------------------------------------------------------------------------
# cut-to-j3star: minimum 3-terminal cuts via the fixed 58-vertex target


J3STAR_BRANCH_PRODUCT = 6 * 18 * 46  # walk counts at the three distinguished vertices


def minimal_j3star_r(G: Graph, s: int) -> int:
    """Smallest r with (46/40)^r >= 8 * 58^{|V| + s|E| + 7}."""
    return _least_exponent(Fraction(46, 40), 8 * 58 ** (G.n + s * len(G.edges) + 7))


def _j3star_scaffold(cut: CutInstance):
    """The junction scaffold of the cut-to-j3star source: the roles w, x0,
    x1, y0, y1, z0, z1 on vertices n..n+6, w joined to x0, y0, z0 and to
    every source vertex, and each branch ending x1, y1, z1 joined to its
    terminal.  Returns ``((x1, y1, z1), edges)``."""
    n = cut.graph.n
    v_w, v_x0, v_x1, v_y0, v_y1, v_z0, v_z1 = range(n, n + 7)
    alpha, beta, gamma_t = cut.terminals
    edges = [(v_w, v_x0), (v_w, v_y0), (v_w, v_z0)]
    edges += [(v_x0, v_x1), (v_y0, v_y1), (v_z0, v_z1)]
    edges += [(v_x1, alpha), (v_y1, beta), (v_z1, gamma_t)]
    edges += [(v_w, v) for v in range(n)]
    return (v_x1, v_y1, v_z1), edges


def build_cut_to_j3star(
    cut: CutInstance, s_override: int | None = None, r_override: int | None = None
):
    """Minimum 3-terminal cut count from one unweighted homomorphism count
    into the 58-vertex decorated junction tree.

    The source grows a junction scaffold (centre apex joined to every
    source vertex and to three 2-paths ending at the terminals) plus
    three discriminating gadgets of r pendant branches each, whose walk
    counts single out the intended branch tips; every source edge turns
    into s parallel 2-paths.  Both gadget families are folded: parallel
    2-paths become an entrywise power of the squared adjacency table,
    pendant branches a power under absorption.  The resulting count
    over 2^{s(|E|-b)} * (6*18*46)^r lies within 1/4 above the number of
    minimum cuts.

    Returns ``(instance, certificate)``.
    """
    G = cut.graph
    n, m = G.n, len(G.edges)
    s = s_override if s_override is not None else 3 + m + 2 * n
    if s < 1:
        raise HomredError("path multiplicity s must be >= 1")
    r = r_override if r_override is not None else minimal_j3star_r(G, s)
    if r < 1:
        raise HomredError("gadget multiplicity r must be >= 1")
    b, ncuts = multiterminal_cuts(G, cut.terminals)

    tree = j3star_tree()
    A2 = _two_path_table(tree.graph)

    (v_x1, v_y1, v_z1), edges = _j3star_scaffold(cut)
    g_x, g_y1, g_y2, g_z1, g_z2, g_z3 = range(n + 7, n + 13)
    edges += G.edges
    edges += [(v_x1, g_x)]  # a leaf at v_x1, branch multiplicity r
    edges += [(v_y1, g_y2), (g_y2, g_y1)]  # a 2-path at v_y1
    edges += [(v_z1, g_z3), (g_z3, g_z2), (g_z2, g_z1)]  # a 3-path at v_z1

    core = Graph(n + 13, edges)
    inst = EdgeWeightedInstance(
        core,
        tree.graph,
        edge_tables={e: A2 for e in G.edges},
        edge_mult={e: s for e in G.edges},
        vertex_mult={g_x: r, g_y2: r, g_z3: r},
    )
    cert = ReductionCertificate(
        kind="cut-to-j3star",
        inputs={
            "graph": _graph_to_obj(G),
            "terminals": list(cut.terminals),
            "s": s,
            "r": r,
        },
        constants={
            "s": s,
            "r": r,
            "b": b,
            "scale": 2 ** (s * (m - b)) * J3STAR_BRANCH_PRODUCT**r,
        },
        slack=Fraction(1, 4),
        counters={"min_cuts": ncuts},
    )
    return inst, cert


def materialise_cut_to_j3star(cut: CutInstance, s: int, r: int) -> Graph:
    """Explicit version of :func:`build_cut_to_j3star` for small cross-checks.

    Returns the fully materialised source graph: s physical midpoints
    per edge and r physical pendant branches per discriminating gadget.
    Counting plain homomorphisms into the 58-vertex tree agrees with
    the folded instance.

    New vertices are numbered from n + 7 on: the midpoints edge by edge,
    then the x leaves, the y branches as pairs (tip, root) and the z
    branches as triples (tip, middle, root).  Each edge family below is
    one ascending run, so sorting the edge list is close to linear.
    """
    (v_x1, v_y1, v_z1), edges = _j3star_scaffold(cut)
    x = cut.graph.n + 7
    for u, v in cut.graph.edges:
        mids = range(x, x + s)
        edges += [(u, mid) for mid in mids]
        edges += [(v, mid) for mid in mids]
        x += s
    y = x + r
    z = y + 2 * r
    end = z + 3 * r
    edges += [(v_x1, a) for a in range(x, y)]
    edges += [(v_y1, a + 1) for a in range(y, z, 2)]
    edges += [(a, a + 1) for a in range(y, z, 2)]
    edges += [(v_z1, a + 2) for a in range(z, end, 3)]
    edges += [(a + 1, a + 2) for a in range(z, end, 3)]
    edges += [(a, a + 1) for a in range(z, end, 3)]
    return Graph(end, edges)


def materialised_value(cert: ReductionCertificate) -> Fraction:
    """Recount the certificate's instance with every repetition explicit:
    the ``materialise_*`` graph of a folded kind, counted as it stands.

    Agrees with :func:`certificate_value`; meant for tiny instances.
    """
    inp = cert.inputs
    if cert.kind == "potts-to-jq":
        mgraph = materialise_potts_to_jq(_graph_from_obj(inp["graph"]), inp["s"])
        return Fraction(count_hom(mgraph, junction_tree(inp["q"]).graph))
    if cert.kind not in ("cut-to-whom", "cut-to-j3star"):
        raise HomredError(f"certificate kind {cert.kind!r} has no materialised form")
    cut = CutInstance(_graph_from_obj(inp["graph"]), tuple(inp["terminals"]))
    if cert.kind == "cut-to-j3star":
        mgraph = materialise_cut_to_j3star(cut, inp["s"], inp["r"])
        return Fraction(count_hom(mgraph, j3star_tree().graph))
    H = _graph_from_obj(inp["target"])
    mgraph, mwt = materialise_cut_to_whom(cut, H, inp["s"])
    return count_whom(mgraph, H, mwt)


# ---------------------------------------------------------------------------
# rebuilding, evaluation, verification


# The largest value, in bits, that a certificate's rebuild may compute.  A
# default cut-to-j3star certificate of the largest instance the cut
# oracle admits (24 edges, 25 vertices) estimates at about 676,000 bits.
MAX_VALUE_BITS = 1 << 21
# the decimal digits of such a value: the digit cap certificates are read under
_MAX_VALUE_DIGITS = math.ceil(MAX_VALUE_BITS * math.log10(2)) + 1


def _value_bits(kind: str, inp: dict) -> int:
    """Upper bound on the bit length of the value a certificate's rebuild
    counts, and so of its scale, from the sizes in its inputs alone.

    Each coloured vertex adds log2 of the colours it may take; each
    folded edge power or branch power adds its exponent times log2 of
    the largest entry it can fold in.
    """

    def lg(x) -> float:
        return math.log2(max(x, 2))

    s, r, q = (max(inp.get(key, 0), 0) for key in ("s", "r", "q"))
    if kind == "uniformize":
        hyperedges = inp["hypergraph"]["hyperedges"]
        n, m = inp["hypergraph"]["n"], len(hyperedges)
        t = max((len(set(f)) for f in hyperedges), default=1)
        base = 1 + Fraction(inp["gamma"])  # m (s + 1) hyperedges weigh this
        per_edge = base.numerator.bit_length() + base.denominator.bit_length()
        bits = (n + m * (t - 1)) * lg(q) + m * (s + 1) * per_edge
    else:
        n, m = inp["graph"]["n"], len(inp["graph"]["edges"])
        if kind == "cut-to-whom":  # three branch roots; midpoint tables hold at most 4
            bits = n * lg(3) + 2 * s * m
        elif kind == "potts-to-jq":  # 2q + 1 colours; the A^2 and leaf folds hold at most q
            bits = (n + 1) * lg(2 * q + 1) + (m + s) * lg(q)
        elif kind == "jq-to-hyperpotts":
            bits = n * lg(2 * q + 1)
        else:  # cut-to-j3star: 58 colours, A^2 entries at most 6, and each of the
            # three branch gadgets folds at most the tree's largest walk count
            # of its length (6, 18 and 46, whose product is the constant)
            bits = (n + 7) * lg(58) + s * m * lg(6) + r * lg(J3STAR_BRANCH_PRODUCT)
    return math.ceil(bits) + 1


def _rebuild(cert: ReductionCertificate):
    """Re-run the recorded construction; returns (built, fresh_certificate).

    Refuses, before any construction, a certificate whose value would
    exceed :data:`MAX_VALUE_BITS`."""
    kind, inp = cert.kind, cert.inputs
    if kind not in _INPUTS:
        raise HomredError(f"unknown certificate kind {kind!r}")
    bits = _value_bits(kind, inp)
    if bits > MAX_VALUE_BITS:
        raise HomredError(
            f"certificate value estimated at {bits} bits, above the limit of {MAX_VALUE_BITS}"
        )
    if kind == "cut-to-whom":
        cut = CutInstance(_graph_from_obj(inp["graph"]), tuple(inp["terminals"]))
        return build_cut_to_whom(cut, _graph_from_obj(inp["target"]), s_override=inp["s"])
    if kind == "potts-to-jq":
        return build_potts_to_jq(_graph_from_obj(inp["graph"]), inp["q"], s_override=inp["s"])
    if kind == "jq-to-hyperpotts":
        return build_jq_to_hyperpotts(_graph_from_obj(inp["graph"]), inp["q"], inp["side"])
    if kind == "uniformize":
        return uniformize(
            _hypergraph_from_obj(inp["hypergraph"]),
            inp["q"],
            Fraction(inp["gamma"]),
            s_override=inp["s"],
        )
    cut = CutInstance(_graph_from_obj(inp["graph"]), tuple(inp["terminals"]))  # cut-to-j3star
    return build_cut_to_j3star(cut, s_override=inp["s"], r_override=inp["r"])


def _value_of(cert: ReductionCertificate, built) -> Fraction:
    if cert.kind in ("cut-to-whom", "cut-to-j3star"):
        return count_ewhom(built)
    if cert.kind == "potts-to-jq":
        return count_ewhom(built.instance)
    if cert.kind == "jq-to-hyperpotts":
        return count_ewhom(built.restricted)
    if cert.kind == "uniformize":
        return potts_hypergraph(built, cert.inputs["q"], Fraction(cert.inputs["gamma"]))
    raise HomredError(f"unknown certificate kind {cert.kind!r}")


def certificate_value(cert: ReductionCertificate) -> Fraction:
    """The reduction's headline count, recomputed from the inputs."""
    built, _ = _rebuild(cert)
    return _value_of(cert, built)


def certificate_oracle(cert: ReductionCertificate) -> Fraction:
    """Independent ground truth for the quantity the reduction encodes.

    Uses the exhaustive oracles only (subset enumeration for cuts, the
    spin histograms for Potts sums), never the elimination core that the
    counting side runs on.
    """
    kind, inp = cert.kind, cert.inputs
    if kind in ("cut-to-whom", "cut-to-j3star"):
        G = _graph_from_obj(inp["graph"])
        _, ncuts = multiterminal_cuts_oracle(G, tuple(inp["terminals"]))
        return Fraction(ncuts)
    if kind == "potts-to-jq":
        G = _graph_from_obj(inp["graph"])
        return histogram_sum(hypergraph_mono_histogram(Hypergraph(G.n, G.edges), inp["q"]), 1)
    if kind == "jq-to-hyperpotts":
        built, _ = _rebuild(cert)
        return histogram_sum(hypergraph_mono_histogram(built.hypergraph, inp["q"]), 1)
    if kind == "uniformize":
        HG = _hypergraph_from_obj(inp["hypergraph"])
        return histogram_sum(hypergraph_mono_histogram(HG, inp["q"]), Fraction(inp["gamma"]))
    raise HomredError(f"unknown certificate kind {kind!r}")


def verify_certificate(cert: ReductionCertificate, oracle: Fraction | None = None) -> dict:
    """Rebuild, re-count, and check the sandwich or identity.

    Returns a report with the exact bounds; ``passed`` requires the
    recomputed constants to match the certificate and the scaled value
    to land inside [answer, answer + slack], with the answer recovered
    by flooring when the slack is positive.
    """
    built, fresh = _rebuild(cert)
    stored = {k: _ser(v) for k, v in cert.constants.items()}
    recomputed = {k: _ser(v) for k, v in fresh.constants.items()}
    constants_ok = stored == recomputed and {
        k: _ser(v) for k, v in cert.counters.items()
    } == {k: _ser(v) for k, v in fresh.counters.items()}

    value = _value_of(cert, built)
    truth = certificate_oracle(cert) if oracle is None else Fraction(oracle)
    scale = Fraction(fresh.constants["scale"])
    ratio = value / scale
    lower = truth
    upper = truth + cert.slack
    inside = lower <= ratio <= upper
    report = {
        "kind": cert.kind,
        "constants_ok": constants_ok,
        "value": value,
        "scale": scale,
        "ratio": ratio,
        "lower": lower,
        "upper": upper,
        "slack": cert.slack,
        "passed": constants_ok and inside,
    }
    if cert.slack and truth.denominator == 1:
        report["recovered"] = math.floor(ratio)
        report["passed"] = report["passed"] and report["recovered"] == truth
    if cert.kind == "potts-to-jq":
        typical_ok = Fraction(fresh.counters["typical"]) == scale * truth
        report["typical_ok"] = typical_ok
        report["passed"] = report["passed"] and typical_ok
    return report
