"""Linear codes over prime fields and the Potts partition function bridge."""

import itertools
import random
from fractions import Fraction

import pytest

from homred.codes import (
    LinearCode,
    build_potts_code,
    check_q_to_one,
    code_rank,
    is_prime,
    potts_gamma_for_lambda,
    row_reduce,
    spin_encoding,
    verify_potts_we,
    weight_enumerator,
)
from homred.errors import HomredError
from homred.graphs import Graph, cycle_graph, path_graph, star_graph
from homred.potts import potts_graph


def naive_enumerator(rows, p, ncols, lam):
    """Span the rows directly and sum lam^weight over distinct words."""
    lam = Fraction(lam)
    words = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        word = tuple(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(ncols)
        )
        words.add(word)
    return sum(lam ** sum(1 for x in w if x) for w in words)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0)


def test_linear_code_validation():
    with pytest.raises(HomredError, match="not prime"):
        LinearCode(4, 2, ((1, 0),))
    with pytest.raises(HomredError, match="code length"):
        LinearCode(2, 3, ((1, 0),))
    with pytest.raises(HomredError, match="entries must lie"):
        LinearCode(2, 2, ((1, 2),))
    LinearCode(2, 0, ())  # empty code is fine


def test_row_reduce():
    assert row_reduce([(1, 1), (0, 1)], 2) == [(1, 0), (0, 1)]
    assert row_reduce([(2, 0), (0, 1)], 3) == [(1, 0), (0, 1)]
    assert row_reduce([(1, 1), (1, 1), (0, 0)], 2) == [(1, 1)]
    # reduction is idempotent and preserves the span size
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(10):
            rows = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(3)]
            basis = row_reduce(rows, p)
            assert row_reduce(basis, p) == basis
            span = {
                tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(4))
                for cs in itertools.product(range(p), repeat=len(rows))
            }
            assert len(span) == p ** len(basis)
            assert all(tuple(b) in span for b in basis)


def test_code_rank():
    assert code_rank(LinearCode(2, 3, ((0, 0, 0),))) == 0
    assert code_rank(LinearCode(3, 2, ((1, 0), (0, 1), (1, 1)))) == 2


def test_weight_enumerator_frozen():
    lam = Fraction(1, 2)
    zero = LinearCode(2, 4, ((0, 0, 0, 0),))
    assert weight_enumerator(zero, lam) == 1
    ones = LinearCode(2, 5, ((1, 1, 1, 1, 1),))
    assert weight_enumerator(ones, lam) == 1 + lam**5
    tern = LinearCode(3, 3, ((0, 1, 2),))
    assert weight_enumerator(tern, lam) == 1 + 2 * lam**2 == Fraction(3, 2)


def test_weight_enumerator_endpoints():
    code = LinearCode(3, 4, ((1, 0, 2, 1), (0, 1, 1, 1)))
    assert weight_enumerator(code, 1) == 3 ** code_rank(code)
    assert weight_enumerator(code, 0) == 1  # only the zero word has weight 0


def test_weight_enumerator_vs_naive():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(15):
            ncols = rng.randint(1, 5)
            rows = tuple(
                tuple(rng.randrange(p) for _ in range(ncols))
                for _ in range(rng.randint(1, 3))
            )
            lam = Fraction(rng.randint(1, 3), rng.randint(4, 7))
            code = LinearCode(p, ncols, rows)
            assert weight_enumerator(code, lam) == naive_enumerator(rows, p, ncols, lam)


def test_weight_enumerator_cap():
    identity = tuple(tuple(int(i == j) for j in range(27)) for i in range(27))
    code = LinearCode(2, 27, identity)  # 2^27 codewords of 27 coordinates each
    with pytest.raises(HomredError, match=f"needs {2**27 * 27 * 27} enumeration steps, above the cap of 100000000"):
        weight_enumerator(code, Fraction(1, 2))


def test_spin_encoding():
    assert spin_encoding(1, 2, 2) == (0, 0)
    assert spin_encoding(2, 2, 2) == (1, 0)
    assert spin_encoding(3, 2, 2) == (0, 1)
    assert spin_encoding(4, 2, 2) == (1, 1)
    assert spin_encoding(3, 3, 1) == (2,)
    with pytest.raises(HomredError, match="outside"):
        spin_encoding(0, 2, 2)
    with pytest.raises(HomredError, match="outside"):
        spin_encoding(5, 2, 2)


# ---------------------------------------------------------------------------
# the graph coupling


def test_build_potts_code_single_edge():
    K2 = Graph(2, [(0, 1)])
    system = build_potts_code(K2, 3, 1)
    assert system.q == 3
    assert len(system.matrix) == 3  # one row per (edge, form) pair
    assert all(len(row) == 2 for row in system.matrix)
    assert system.code.ncols == 3
    assert code_rank(system.code) == 1
    # the code is exactly {000, 012, 021} up to presentation
    words = set()
    for c in range(3):
        basis = row_reduce(system.code.rows, 3)
        words.add(tuple((c * x) % 3 for x in basis[0]))
    assert words == {(0, 0, 0), (0, 1, 2), (0, 2, 1)}


def test_build_potts_code_shapes():
    for G, p, k in ((path_graph(3), 2, 1), (cycle_graph(3), 2, 2), (star_graph(3), 3, 1)):
        system = build_potts_code(G, p, k)
        q, m = p**k, len(G.edges)
        assert len(system.matrix) == q * m
        assert all(len(row) == k * G.n for row in system.matrix)
        assert system.code.ncols == q * m
        # one all-zero row per edge (the zero form)
        assert sum(1 for row in system.matrix if not any(row)) == m


def test_build_potts_code_validation():
    with pytest.raises(HomredError, match="not prime"):
        build_potts_code(Graph(2, [(0, 1)]), 6, 1)
    with pytest.raises(HomredError, match="k >= 1"):
        build_potts_code(Graph(2, [(0, 1)]), 2, 0)
    with pytest.raises(HomredError, match="connected"):
        build_potts_code(Graph(3, [(0, 1)]), 2, 1)


def test_constant_assignments_encode_to_zero():
    system = build_potts_code(path_graph(3), 2, 2)
    for c in range(1, 5):
        assert not any(system.b_vector((c, c, c)))
    with pytest.raises(HomredError, match="length"):
        system.b_vector((1, 1))


def test_unsat_counts_nonzero_difference():
    # a disagreeing edge violates exactly q - p^(k-1) of its q rows
    for p, k in ((2, 1), (3, 1), (2, 2)):
        system = build_potts_code(Graph(2, [(0, 1)]), p, k)
        q = p**k
        for a in range(1, q + 1):
            for b in range(1, q + 1):
                expected = 0 if a == b else q - p ** (k - 1)
                assert system.unsat_count((a, b)) == expected


def test_unsat_proportional_to_bichromatic_edges():
    G = path_graph(4)
    system = build_potts_code(G, 3, 1)
    for sigma in itertools.product(range(1, 4), repeat=4):
        bichromatic = sum(1 for u, v in G.edges if sigma[u] != sigma[v])
        assert system.unsat_count(sigma) == bichromatic * (3 - 1)


def test_b_vectors_land_in_the_code():
    system = build_potts_code(path_graph(3), 2, 2)
    basis = row_reduce(system.code.rows, 2)
    for sigma in itertools.product(range(1, 5), repeat=3):
        b = system.b_vector(sigma)
        assert row_reduce(list(basis) + [b], 2) == basis


def test_q_to_one():
    for G in (Graph(2, [(0, 1)]), path_graph(3)):
        for p, k in ((2, 1), (3, 1), (2, 2)):
            assert check_q_to_one(build_potts_code(G, p, k))


def test_q_to_one_cap():
    system = build_potts_code(path_graph(27), 2, 1)  # 2^27 spin assignments
    with pytest.raises(HomredError, match="needs 134217728 enumeration steps, above the cap"):
        check_q_to_one(system)


# ---------------------------------------------------------------------------
# the partition function identity


def test_gamma_for_lambda():
    assert potts_gamma_for_lambda(3, 1, Fraction(1, 2)) == 3
    assert potts_gamma_for_lambda(2, 2, Fraction(1, 2)) == 3
    assert potts_gamma_for_lambda(2, 1, Fraction(1, 2)) == 1
    assert potts_gamma_for_lambda(2, 1, Fraction(1, 3)) == 2
    with pytest.raises(HomredError, match="positive"):
        potts_gamma_for_lambda(2, 1, 0)


def test_verify_single_edge_worked_example():
    report = verify_potts_we(Graph(2, [(0, 1)]), 3, 1, Fraction(1, 2))
    assert report["match"]
    assert report["q"] == 3
    assert report["gamma"] == 3
    assert report["enumerator"] == Fraction(3, 2)
    assert report["potts"] == 18
    assert report["from_code"] == 3 * 4 * Fraction(3, 2)


def test_verify_triangle_four_states():
    report = verify_potts_we(cycle_graph(3), 2, 2, Fraction(1, 2))
    assert report["match"]
    assert report["q"] == 4
    assert report["potts"] == 424
    assert report["potts"] == potts_graph(cycle_graph(3), 4, 3)


def test_verify_small_sweep():
    graphs = [Graph(2, [(0, 1)]), path_graph(3), cycle_graph(3), star_graph(3), cycle_graph(4)]
    for G in graphs:
        for p, k in ((2, 1), (3, 1), (2, 2)):
            for lam in (Fraction(1, 2), Fraction(1, 3)):
                assert verify_potts_we(G, p, k, lam)["match"]


def test_verify_lambda_range():
    K2 = Graph(2, [(0, 1)])
    for lam in (0, 1, 2, Fraction(-1, 2)):
        with pytest.raises(HomredError, match="strictly between 0 and 1"):
            verify_potts_we(K2, 2, 1, lam)


def test_spin_sum_is_q_times_enumerator():
    # summing lam^unsat over all assignments counts each codeword q times
    lam = Fraction(1, 3)
    for G, p, k in ((Graph(2, [(0, 1)]), 3, 1), (path_graph(3), 2, 2)):
        system = build_potts_code(G, p, k)
        spin_sum = sum(
            lam ** system.unsat_count(sigma)
            for sigma in itertools.product(range(1, system.q + 1), repeat=G.n)
        )
        assert spin_sum == system.q * weight_enumerator(system.code, lam)
