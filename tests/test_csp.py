import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from homred.csp import (
    BitExpansion,
    CspInstance,
    WeightedCspInstance,
    ceil_lg,
    clear_denominators,
    compile_weight_gadget,
    count_csp,
    count_wcsp,
)
from homred.errors import HomredError
from oracles import naive_csp


def count_restricted(inst: CspInstance, keep: set[int], fix: dict[int, int] | None = None):
    """Brute-force the sub-instance induced on ``keep`` (pins filtered too)."""
    fix = fix or {}
    keep = sorted(keep)
    pos = {v: i for i, v in enumerate(keep)}
    imps = [(pos[x], pos[y]) for x, y in inst.imps if x in pos and y in pos]
    pins0 = [pos[x] for x in inst.pins0 if x in pos]
    pins1 = [pos[x] for x in inst.pins1 if x in pos]
    count = 0
    for assign in product((0, 1), repeat=len(keep)):
        if any(assign[pos[v]] != b for v, b in fix.items()):
            continue
        if any(assign[x] for x in pins0) or any(not assign[x] for x in pins1):
            continue
        if any(assign[x] and not assign[y] for x, y in imps):
            continue
        count += 1
    return count


def test_instance_normalisation_and_validation():
    inst = CspInstance(3, imps=((2, 1), (0, 1), (2, 1)))
    assert inst.imps == ((0, 1), (2, 1))
    with pytest.raises(HomredError):
        CspInstance(2, imps=((0, 0),))
    with pytest.raises(HomredError):
        CspInstance(2, imps=((0, 5),))
    with pytest.raises(HomredError):
        CspInstance(2, pins0=(3,))
    with pytest.raises(HomredError):
        WeightedCspInstance(2, weights=((1, 2),))  # wrong length
    with pytest.raises(HomredError):
        WeightedCspInstance(1, weights=((-1, 2),))


def test_count_csp_basics():
    assert count_csp(CspInstance(0)) == 1
    assert count_csp(CspInstance(3)) == 8
    # implication chain: thresholds only
    chain = CspInstance(4, imps=((0, 1), (1, 2), (2, 3)))
    assert count_csp(chain) == 5
    assert count_csp(CspInstance(4, imps=((0, 1), (1, 2), (2, 3)), pins1=(0,))) == 1
    assert count_csp(CspInstance(4, imps=((0, 1), (1, 2), (2, 3)), pins0=(3,))) == 1
    # contradictory pins through the chain
    assert count_csp(CspInstance(2, imps=((0, 1),), pins1=(0,), pins0=(1,))) == 0
    # a 2-cycle forces equality
    assert count_csp(CspInstance(2, imps=((0, 1), (1, 0)))) == 2


def test_chain_with_end_pins_counts_thresholds():
    # this shape is the per-vertex spine of the homomorphism encoding:
    # h+1 chained bits pinned 0 at the bottom and 1 at the top leave
    # exactly h places for the 0->1 step
    for h in range(1, 7):
        inst = CspInstance(
            h + 1,
            imps=tuple((i, i + 1) for i in range(h)),
            pins0=(0,),
            pins1=(h,),
        )
        assert count_csp(inst) == h


def test_count_csp_matches_bruteforce():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(2, 7)
        imps = []
        for _ in range(rng.randint(0, 8)):
            x, y = rng.sample(range(n), 2)
            imps.append((x, y))
        pins0 = tuple(v for v in range(n) if rng.random() < 0.1)
        pins1 = tuple(v for v in range(n) if v not in pins0 and rng.random() < 0.1)
        inst = CspInstance(n, imps=tuple(imps), pins0=pins0, pins1=pins1)
        assert count_csp(inst) == naive_csp(n, imps, pins0, pins1)


def test_count_wcsp_matches_bruteforce():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(2, 6)
        imps = tuple(
            tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 6))
        )
        weights = tuple(
            (Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5), rng.randint(1, 3)))
            for _ in range(n)
        )
        inst = WeightedCspInstance(n, imps=imps, weights=weights)
        assert count_wcsp(inst) == naive_csp(n, imps, weights=weights)


@st.composite
def cyclic_wcsps(draw):
    """Up to 12 variables: planted cycles of implications, random extra
    implications between and out of them, a few pins, and weights that
    are often zero."""
    n = draw(st.integers(min_value=2, max_value=12))
    var = st.integers(min_value=0, max_value=n - 1)
    cycles = draw(st.lists(st.lists(var, min_size=2, max_size=n, unique=True), max_size=3))
    imps = [(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]
    imps += draw(st.lists(st.tuples(var, var).filter(lambda e: e[0] != e[1]), max_size=n))
    pins0 = draw(st.sets(var, max_size=2))
    pins1 = draw(st.sets(var, max_size=2))
    weight = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2)])
    weights = draw(st.lists(st.tuples(weight, weight), min_size=n, max_size=n))
    return n, imps, pins0, pins1, weights


def _cycle(*vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


W = (Fraction(2), Fraction(1, 3))


@settings(max_examples=100, deadline=None)
@given(cyclic_wcsps())
# 2-cycles side by side, and one joined to a third variable
@example((5, _cycle(0, 1) + _cycle(2, 3) + [(3, 4)], set(), set(), [W] * 5))
# one long cycle with a tail on each side
@example((12, _cycle(*range(10)) + [(10, 0), (5, 11)], set(), set(), [W] * 12))
# two strongly connected components joined by implications both ways round a DAG
@example((9, _cycle(0, 1, 2) + _cycle(3, 4, 5) + [(0, 3), (2, 5), (6, 0), (5, 7), (8, 4)],
          set(), set(), [W] * 9))
# a cycle through a variable pinned to 1, and one through a variable pinned to 0
@example((8, _cycle(0, 1, 2) + _cycle(3, 4, 5) + [(6, 0), (5, 7)], {4}, {1}, [W] * 8))
# zero weights on cycle members: each kills one value of the whole cycle
@example((6, _cycle(0, 1, 2, 3) + [(3, 4), (5, 0)], set(), set(),
          [W, (Fraction(0), Fraction(3)), W, (Fraction(5, 2), Fraction(0)), W, W]))
def test_count_wcsp_matches_naive_with_planted_cycles(case):
    n, imps, pins0, pins1, weights = case
    inst = WeightedCspInstance(n, tuple(imps), pins0, pins1, tuple(weights))
    assert count_wcsp(inst) == naive_csp(n, imps, pins0, pins1, weights)


def test_running_example():
    inst = WeightedCspInstance(2, imps=((0, 1),), weights=((5, 2), (1, 1)))
    assert count_wcsp(inst) == 12  # 5*1 + 5*1 + 2*1
    assert count_wcsp(WeightedCspInstance(1, weights=((1, 1),))) == 2
    assert count_wcsp(WeightedCspInstance(1, weights=((5, 2),))) == 7


def test_weighted_vs_unweighted_roundtrip():
    base = CspInstance(3, imps=((0, 2),), pins1=(1,))
    w = base.with_weights(())
    assert isinstance(w, WeightedCspInstance)
    assert count_wcsp(w) == count_csp(base)
    assert w.unweighted() == base


def test_ceil_lg():
    assert [ceil_lg(x) for x in (1, 2, 3, 4, 5, 8, 9, 31, 32)] == [0, 1, 2, 2, 3, 3, 4, 5, 5]


def test_bit_expansion():
    be = BitExpansion.from_weights(5, 2)
    assert be.k == 3
    assert be.branch_bits == ((1,), (0, 2))  # branch b holds the bits of gamma(1-b)
    # gamma=(1,1) needs no doubling blocks at all: k = 0
    be = BitExpansion.from_weights(1, 1)
    assert be.k == 0 and be.branch_bits == ((0,), (0,))
    be = BitExpansion.from_weights(31, 6)
    assert be.k == 5 and be.branch_bits == ((1, 2), (0, 1, 2, 3, 4))
    assert be.min_bit(1) == 0 and be.max_bit(1) == 4
    assert be.adjacent_pairs(0) == [(1, 2)]


def test_compiled_gadget_counts_match():
    rng = random.Random(61)
    for _ in range(50):
        n = rng.randint(1, 4)
        imps = set()
        while len(imps) < rng.randint(0, 4):
            x, y = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if x != y:
                imps.add((x, y))
        weights = tuple(
            (rng.randint(1, 31), rng.randint(1, 31)) for _ in range(n)
        )
        inst = WeightedCspInstance(n, imps=tuple(sorted(imps)), weights=weights)
        compiled, roles = compile_weight_gadget(inst)
        assert count_csp(compiled) == count_wcsp(inst)
        origs = [v for v, r in roles.items() if r[0] == "orig"]
        assert sorted(origs) == list(range(n))


def test_gadget_block_subcounts():
    """A bit-i block standalone has 2^i + 2 satisfying assignments."""
    inst = WeightedCspInstance(2, imps=((0, 1),), weights=((5, 2), (1, 1)))
    compiled, roles = compile_weight_gadget(inst)
    assert count_csp(compiled) == 12

    def block_vars(x, b, i):
        return {
            v
            for v, r in roles.items()
            if r[0] in ("L", "mid", "R") and (r[1], r[2], r[3]) == (x, b, i)
        }

    # variable 0 carries gamma=(5,2): branch 0 holds bits of 2, branch 1 bits of 5
    blk = block_vars(0, 0, 1)
    assert len(blk) == 3
    assert count_restricted(CspInstance(compiled.nvars, compiled.imps), blk) == 4
    blk = block_vars(0, 1, 2)
    assert len(blk) == 4
    assert count_restricted(CspInstance(compiled.nvars, compiled.imps), blk) == 6
    blk = block_vars(0, 1, 0)
    assert len(blk) == 2
    assert count_restricted(CspInstance(compiled.nvars, compiled.imps), blk) == 3


def test_gadget_branch_invariant():
    """With the branch pins in force, branch b of variable x admits
    exactly gamma_x(1-b) completions when x = 1-b and exactly one when
    x = b."""
    inst = WeightedCspInstance(2, imps=((0, 1),), weights=((5, 2), (1, 1)))
    compiled, roles = compile_weight_gadget(inst)
    for x, gamma in ((0, (5, 2)), (1, (1, 1))):
        for b in (0, 1):
            branch = {
                v
                for v, r in roles.items()
                if r[0] in ("L", "mid", "R") and (r[1], r[2]) == (x, b)
            }
            keep = branch | {x}
            assert count_restricted(compiled, keep, fix={x: 1 - b}) == gamma[1 - b]
            assert count_restricted(compiled, keep, fix={x: b}) == 1


def test_compile_rejects_bad_weights():
    with pytest.raises(HomredError):
        compile_weight_gadget(WeightedCspInstance(1, weights=((0, 1),)))
    with pytest.raises(HomredError):
        compile_weight_gadget(
            WeightedCspInstance(1, weights=((Fraction(1, 2), Fraction(1)),))
        )


def test_clear_denominators():
    inst = WeightedCspInstance(
        2,
        imps=((0, 1),),
        weights=((Fraction(5, 2), Fraction(1, 3)), (Fraction(1), Fraction(2))),
    )
    scaled, scale = clear_denominators(inst)
    assert scale == 6
    assert scaled.weights == ((15, 2), (1, 2))
    assert count_wcsp(scaled) == scale * count_wcsp(inst)


frac = st.builds(Fraction, st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=8))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(frac, frac), min_size=1, max_size=4))
def test_clear_denominators_scales_exactly(weight_rows):
    inst = WeightedCspInstance(len(weight_rows), weights=tuple(weight_rows))
    scaled, scale = clear_denominators(inst)
    assert all(
        isinstance(w, int) or w.denominator == 1 for row in scaled.weights for w in row
    )
    assert count_wcsp(scaled) == scale * count_wcsp(inst)


def test_compiled_gadget_with_pins_and_zero_free_variables():
    # pins survive compilation untouched
    inst = WeightedCspInstance(2, imps=((0, 1),), pins1=(0,), weights=((5, 2), (3, 4)))
    compiled, roles = compile_weight_gadget(inst)
    assert count_csp(compiled) == count_wcsp(inst) == 2 * 4
