"""Potts partition functions on graphs and hypergraphs.

:func:`potts_hypergraph` evaluates the sum as a weighted homomorphism
count, on the elimination core of :mod:`homred.homcount`: each distinct
hyperedge f, of multiplicity mu, becomes an auxiliary vertex joined to
the members of f.  Original vertices take colours 1..q; an auxiliary
vertex takes 0..q, where 0 means "no colour chosen" (the centre of the
junction tree J_q) and weighs 1, and every colour c >= 1 weighs
delta = (1+gamma)^mu - 1 and requires every member to have colour c.
Summing the auxiliary vertex out gives 1 + delta * [f monochromatic],
which is (1+gamma)^mu on a monochromatic f and 1 otherwise, so the cost
is exponential only in the width of the incidence graph.
:func:`potts_graph` is the same sum on the 2-uniform hypergraph of the
edges.  Negative entries (gamma < 0) are fine: the core is exact and
sign-agnostic.

The enumerator stays as the oracle: :func:`hypergraph_mono_histogram`
iterates over all q^n spin assignments and histograms the number of
monochromatic hyperedges, for graphs too (a graph is a 2-uniform
hypergraph); :func:`histogram_sum` evaluates such a histogram at a
gamma, and :func:`random_cluster_graph` is the subset expansion.
Certificate verification takes its ground truth from them, and shares
no code with the elimination core.

Every sum refuses instances with q^n (or 2^m for the random-cluster
sum) beyond a cap of 10^8, and the elimination path keeps the same
refusal.  :func:`check_enumeration` is the package's one enumeration
budget: the cuts of :mod:`homred.gadgets` (2^m above 2^24) and the
codeword and spin enumerations of :mod:`homred.codes` are refused
through it too, all with one message.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import HomredError
from .graphs import Graph, Hypergraph, complete_graph, two_stretch
from .homcount import count_hom, sum_product


ENUMERATION_CAP = 10**8


def check_enumeration(steps: int, what: str, cap: int = ENUMERATION_CAP):
    """Refuse ``what`` when its ``steps`` exceed ``cap``."""
    if steps > cap:
        raise HomredError(f"{what} needs {steps} enumeration steps, above the cap of {cap}")


def _check_potts_size(n: int, q: int):
    """The refusals every Potts sum shares, enumerated or not."""
    if q < 1:
        raise HomredError("Potts model needs q >= 1 spins")
    check_enumeration(q**n, f"Potts sum on {n} vertices with q={q}")


def histogram_sum(hist: dict[int, int], gamma) -> Fraction:
    """sum_k hist[k] * (1+gamma)^k: the Potts sum of a histogram of
    monochromatic (hyper)edge counts."""
    base = 1 + Fraction(gamma)
    return sum((cnt * base**k for k, cnt in hist.items()), Fraction(0))


def potts_graph(G: Graph, q: int, gamma) -> Fraction:
    """Z_Potts(G; q, gamma) = sum_sigma prod_edges (1 + gamma * [same spin])."""
    return potts_hypergraph(Hypergraph(G.n, G.edges), q, gamma)


def hypergraph_mono_histogram(HG: Hypergraph, q: int) -> dict[int, int]:
    """How many spin assignments have exactly k monochromatic hyperedges,
    per k; a hyperedge of multiplicity m counts m times.

    A graph is the 2-uniform case, ``Hypergraph(G.n, G.edges)``.  The
    vertices are coloured in order, odometer-style, and each distinct
    hyperedge is scored when its highest vertex takes its colour: the
    last vertex's q colours at once.
    """
    _check_potts_size(HG.n, q)
    n = HG.n
    if n == 0:
        return {0: 1}
    grouped = Counter(HG.hyperedges)
    ending = [[] for _ in range(n)]  # (first, middle members, multiplicity) by top member
    for f, mult in grouped.items():
        if len(f) > 1:
            ending[f[-1]].append((f[0], f[1:-1], mult))
    hist = [0] * (sum(grouped.values()) + 1)
    sigma, gain = [0] * n, [None] * n
    # score[v]: the count over hyperedges ending below v; one-vertex ones always count
    score = [sum(mult for f, mult in grouped.items() if len(f) == 1)] * n
    v = 0
    while v >= 0:
        g = [0] * q  # what each colour of v adds, given sigma[:v]
        for first, middle, mult in ending[v]:
            c = sigma[first]
            for u in middle:
                if sigma[u] != c:
                    break
            else:
                g[c] += mult
        if v < n - 1:  # colour v with 0 and go on
            gain[v], sigma[v] = g, 0
            score[v + 1] = score[v] + g[0]
            v += 1
            continue
        for k in g:
            hist[score[v] + k] += 1
        v -= 1  # advance the odometer
        while v >= 0 and sigma[v] == q - 1:
            v -= 1
        if v >= 0:
            sigma[v] += 1
            score[v + 1] = score[v] + gain[v][sigma[v]]
            v += 1
    return {k: cnt for k, cnt in enumerate(hist) if cnt}


def potts_hypergraph(HG: Hypergraph, q: int, gamma) -> Fraction:
    """Hypergraph Potts sum; a hyperedge is satisfied iff monochromatic.

    Evaluated on the incidence graph (see the module docstring).
    """
    _check_potts_size(HG.n, q)
    base = 1 + Fraction(gamma)
    grouped = Counter(HG.hyperedges)
    n = HG.n
    weights = [[0] + [1] * q for _ in range(n)]
    edges = []
    for y, (f, mult) in enumerate(grouped.items(), start=n):
        weights.append([1] + [base**mult - 1] * q)
        edges.extend((u, y) for u in f)
    # nonzero entries by the member's colour: a member never takes 0, and
    # follows y unless y is 0
    incidence = [[]] + [[(0, 1), (c, 1)] for c in range(1, q + 1)]
    G = Graph(n + len(grouped), edges)
    return sum_product(G, q + 1, weights, dict.fromkeys(G.edges, incidence))


def random_cluster_graph(G: Graph, q: int, gamma) -> Fraction:
    """The subset expansion sum_{A subseteq E} gamma^|A| q^{c(A)}.

    c(A) counts connected components of (V, A), isolated vertices
    included.  Agrees with potts_graph on every graph.
    """
    if q < 1:
        raise HomredError("random-cluster sum needs q >= 1")
    gamma = Fraction(gamma)
    m = len(G.edges)
    check_enumeration(2**m, f"random-cluster sum over {m} edges")
    gpow = [Fraction(1)]
    for _ in range(m):
        gpow.append(gpow[-1] * gamma)
    qpow = [1]
    for _ in range(G.n):
        qpow.append(qpow[-1] * q)

    total = Fraction(0)
    edges = G.edges
    for mask in range(1 << m):
        parent = list(range(G.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = G.n
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        total += gpow[mask.bit_count()] * qpow[comps]
    return total


def count_proper_colourings(G: Graph, q: int) -> int:
    """Number of proper q-colourings of a bipartite graph (homs into K_q)."""
    if q < 1:
        raise HomredError("colouring needs q >= 1")
    if G.bipartition is None:
        raise HomredError("proper-colouring counting is scoped to bipartite graphs")
    return count_hom(G, complete_graph(q))


class BqColReduction(NamedTuple):
    stretched: Graph
    midpoints: dict[tuple[int, int], int]
    q: int
    gamma: Fraction
    scale: int  # (q-2)^|E|


def reduce_potts_to_bqcol(G: Graph, q: int) -> BqColReduction:
    """Relate proper q-colourings of the 2-stretch to a Potts sum on G.

    For q > 2, counting proper q-colourings of the once-subdivided graph
    evaluates (q-2)^|E| * Z_Potts(G; q, 1/(q-2)): a subdivision midpoint
    has q-1 admissible colours when its two ends agree and q-2 otherwise.
    """
    if q <= 2:
        raise HomredError("the colouring identity needs q > 2")
    stretched, mid = two_stretch(G)
    return BqColReduction(stretched, mid, q, Fraction(1, q - 2), (q - 2) ** len(G.edges))
