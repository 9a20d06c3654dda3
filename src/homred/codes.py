"""Linear codes over prime fields and the Potts / weight-enumerator bridge.

A :class:`LinearCode` is the row span of a generator matrix over F_p.
:func:`weight_enumerator` evaluates  W(lam) = sum_{c in C} lam^{wt(c)}
exactly by enumerating the p^rank distinct codewords from a row-reduced
basis; its budget counts p^rank * rank * ncols steps, the work of
building every codeword.

:func:`build_potts_code` attaches to a connected graph the classical
coupling between its q-state Potts partition function (q = p^k) and a
linear code: one matrix row per (edge, linear form) pair, one column
block of k coordinates per vertex.  Spin assignments map onto codewords
q-to-one (the kernel is the per-vertex constant shift), a nonzero spin
difference kills exactly p^{k-1} of the q forms, and the partition
function at  1 + gamma = lam^{-p^{k-1}(p-1)}  equals
q * lam^{-(1-1/p) q m} * W(lam).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import HomredError
from .graphs import Graph
from .potts import ENUMERATION_CAP, check_enumeration, potts_graph


MAX_FIELD_ORDER = 10**12  # is_prime takes up to sqrt(p) = 10^6 trial divisions here


def _check_field_order(p: int):
    if p > MAX_FIELD_ORDER:
        raise HomredError(f"field order {p} is above the limit of {MAX_FIELD_ORDER}")
    if not is_prime(p):
        raise HomredError(f"field order {p} is not prime")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class LinearCode:
    """Row span of ``rows`` over F_p, with codewords of length ``ncols``."""

    p: int
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_field_order(self.p)
        if self.ncols < 0:
            raise HomredError("code length must be nonnegative")
        for row in self.rows:
            if len(row) != self.ncols:
                raise HomredError("generator rows must all have the code length")
            if any(not 0 <= x < self.p for x in row):
                raise HomredError(f"matrix entries must lie in 0..{self.p - 1}")


def row_reduce(rows, p: int) -> list[tuple[int, ...]]:
    """Reduced row-echelon basis of the span of ``rows`` over F_p."""
    mat = [list(r) for r in rows]
    basis: list[list[int]] = []
    ncols = len(mat[0]) if mat else 0
    pivot_cols: list[int] = []
    for row in mat:
        row = row[:]
        for b, col in zip(basis, pivot_cols):
            factor = row[col]
            if factor:
                for j in range(ncols):
                    row[j] = (row[j] - factor * b[j]) % p
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [(x * inv) % p for x in row]
        for b in basis:
            factor = b[lead]
            if factor:
                for j in range(ncols):
                    b[j] = (b[j] - factor * row[j]) % p
        basis.append(row)
        pivot_cols.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivot_cols[i])
    return [tuple(basis[i]) for i in order]


def code_rank(code: LinearCode) -> int:
    return len(row_reduce(code.rows, code.p))


def weight_enumerator(code: LinearCode, lam) -> Fraction:
    """W(lam) = sum over distinct codewords of lam^(Hamming weight)."""
    lam = Fraction(lam)
    basis = row_reduce(code.rows, code.p)
    rank = len(basis)
    p = code.p
    # each of the p^rank codewords costs up to rank * ncols steps to build
    check_enumeration(
        p**rank * rank * code.ncols,
        f"weight enumerator of a rank-{rank} code of length {code.ncols} over F_{p}",
    )
    powers = [Fraction(1)]
    for _ in range(code.ncols):
        powers.append(powers[-1] * lam)
    total = Fraction(0)
    for coeffs in product(range(p), repeat=rank):
        word = [0] * code.ncols
        for c, row in zip(coeffs, basis):
            if c:
                for j in range(code.ncols):
                    word[j] = (word[j] + c * row[j]) % p
        total += powers[sum(1 for x in word if x)]
    return total


def _all_forms(p: int, k: int) -> list[tuple[int, ...]]:
    """All p^k coefficient vectors, the zero form first, in digit order."""
    return [tuple((j // p**i) % p for i in range(k)) for j in range(p**k)]


def spin_encoding(c: int, p: int, k: int) -> tuple[int, ...]:
    """Spin c in 1..p^k as the base-p digit vector of c-1."""
    if not 1 <= c <= p**k:
        raise HomredError(f"spin {c} outside 1..{p ** k}")
    return tuple(((c - 1) // p**i) % p for i in range(k))


@dataclass
class PottsCodeSystem:
    """The coupling matrix and code attached to a connected graph."""

    p: int
    k: int
    q: int
    graph: Graph
    matrix: tuple[tuple[int, ...], ...]  # q*m rows, k*n columns
    code: LinearCode  # column span of the matrix, as a generator basis

    def encode(self, sigma) -> tuple[int, ...]:
        """Concatenated digit vectors of a spin assignment (vertex-major)."""
        if len(sigma) != self.graph.n:
            raise HomredError("spin assignment length must match the vertex count")
        out = []
        for c in sigma:
            out.extend(spin_encoding(c, self.p, self.k))
        return tuple(out)

    def b_vector(self, sigma) -> tuple[int, ...]:
        """Matrix image of the encoded assignment: one entry per (edge, form)."""
        x = self.encode(sigma)
        return tuple(sum(a * b for a, b in zip(row, x)) % self.p for row in self.matrix)

    def unsat_count(self, sigma) -> int:
        return sum(1 for v in self.b_vector(sigma) if v)


def _check_potts_code_input(G: Graph, p: int, k: int):
    _check_field_order(p)
    if k < 1:
        raise HomredError("need k >= 1 coordinates per vertex")
    if G.n < 1 or not G.is_connected():
        raise HomredError("the spin graph must be connected and nonempty")


def build_potts_code(G: Graph, p: int, k: int) -> PottsCodeSystem:
    """Coupling between spins on a connected graph and a linear code.

    Vertices own k consecutive columns (vertex v, coordinate i at column
    v*k + i); each edge (u, v) with u < v yields one row per linear form
    alpha in F_p^k, carrying +alpha_i on v's block and -alpha_i on u's.
    The code is the column span, presented through a row-reduced basis.
    """
    _check_potts_code_input(G, p, k)
    q = p**k
    n, m = G.n, len(G.edges)
    forms = _all_forms(p, k)
    rows = []
    for u, v in G.edges:
        for alpha in forms:
            row = [0] * (k * n)
            for i, a in enumerate(alpha):
                row[v * k + i] = a % p
                row[u * k + i] = (-a) % p
            rows.append(tuple(row))
    matrix = tuple(rows)
    columns = [tuple(row[j] for row in matrix) for j in range(k * n)]
    basis = row_reduce(columns, p)
    code = LinearCode(p, q * m, tuple(basis))
    return PottsCodeSystem(p, k, q, G, matrix, code)


def check_q_to_one(system: PottsCodeSystem) -> bool:
    """Every codeword is hit by exactly q spin assignments."""
    n, q = system.graph.n, system.q
    check_enumeration(q**n, f"spin enumeration on {n} vertices with q={q}")
    fibres: dict[tuple[int, ...], int] = {}
    for sigma in product(range(1, q + 1), repeat=n):
        b = system.b_vector(sigma)
        fibres[b] = fibres.get(b, 0) + 1
    if any(size != q for size in fibres.values()):
        return False
    return len(fibres) == system.p ** code_rank(system.code)


def potts_gamma_for_lambda(p: int, k: int, lam) -> Fraction:
    """The coupling gamma with 1 + gamma = lam^{-p^{k-1}(p-1)}."""
    lam = Fraction(lam)
    if lam <= 0:
        raise HomredError("the enumerator argument must be positive")
    return lam ** -(p ** (k - 1) * (p - 1)) - 1


def verify_potts_we(G: Graph, p: int, k: int, lam) -> dict:
    """Check Z_Potts(G; q, gamma) == q * lam^{-(1-1/p) q m} * W(lam) exactly."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise HomredError("the identity check expects lambda strictly between 0 and 1")
    # Refuse the Potts side's q^n = p^(kn) spin assignments before the
    # build, which makes all q forms.  As p >= 2, kn at or above the cap's
    # bit length is over the cap, and p^k is not computed for a huge k.
    _check_potts_code_input(G, p, k)
    n = G.n
    if k * n >= ENUMERATION_CAP.bit_length():
        raise HomredError(
            f"Potts sum on {n} vertices with q={p}^{k} needs {p}^{k * n} "
            f"enumeration steps, above the cap of {ENUMERATION_CAP}"
        )
    check_enumeration(p ** (k * n), f"Potts sum on {n} vertices with q={p**k}")
    system = build_potts_code(G, p, k)
    gamma = potts_gamma_for_lambda(p, k, lam)
    m = len(G.edges)
    lhs = potts_graph(G, system.q, gamma)
    enumerator = weight_enumerator(system.code, lam)
    rhs = system.q * lam ** -(p ** (k - 1) * (p - 1) * m) * enumerator
    return {
        "q": system.q,
        "gamma": gamma,
        "potts": lhs,
        "enumerator": enumerator,
        "from_code": rhs,
        "match": lhs == rhs,
    }
