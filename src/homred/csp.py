"""Boolean implication CSPs: exact (weighted) solution counting.

An instance has variables ``0..nvars-1``, implication constraints
``imp(x, y)`` meaning ``tau(x) <= tau(y)``, and unary pins to 0 or 1.
Weighted instances attach a nonnegative rational pair ``(g0, g1)`` to
every variable; the weight of a satisfying assignment is the product of
the matching entries and :func:`count_wcsp` sums these weights exactly.

The counter propagates pins, splits into weakly connected parts, and
then branches on a high-degree variable: setting it to 1 fixes its
forward closure, setting it to 0 fixes its backward closure, and both
closures detach cleanly from the rest.  Cycles of implications need no
collapse: a variable on a cycle through the branching variable lies in
both of its closures, so each branch fixes the whole cycle at once.
Results are memoised per active variable set, and the branching runs on
an explicit stack, so its depth is not bounded by Python's recursion
limit.

:func:`compile_weight_gadget` removes the weights again: each variable
grows two chains of small implication blocks whose standalone solution
counts realise the binary digits of its two weight values, so that the
plain solution count of the compiled instance equals the weighted count
of the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import HomredError
from .homcount import _num


def _normalise_imps(nvars: int, imps) -> tuple[tuple[int, int], ...]:
    seen = set()
    for x, y in imps:
        if not (0 <= x < nvars and 0 <= y < nvars):
            raise HomredError(f"implication ({x},{y}) out of range")
        if x == y:
            raise HomredError(f"implication from variable {x} to itself")
        seen.add((x, y))
    return tuple(sorted(seen))


def _check_pins(nvars: int, pins) -> frozenset[int]:
    pins = frozenset(pins)
    for x in pins:
        if not 0 <= x < nvars:
            raise HomredError(f"pin on out-of-range variable {x}")
    return pins


@dataclass
class CspInstance:
    nvars: int
    imps: tuple[tuple[int, int], ...] = ()
    pins0: frozenset[int] = frozenset()
    pins1: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.nvars < 0:
            raise HomredError("variable count must be nonnegative")
        self.imps = _normalise_imps(self.nvars, self.imps)
        self.pins0 = _check_pins(self.nvars, self.pins0)
        self.pins1 = _check_pins(self.nvars, self.pins1)

    def with_weights(self, weights) -> "WeightedCspInstance":
        return WeightedCspInstance(self.nvars, self.imps, self.pins0, self.pins1, weights)


@dataclass
class WeightedCspInstance:
    nvars: int
    imps: tuple[tuple[int, int], ...] = ()
    pins0: frozenset[int] = frozenset()
    pins1: frozenset[int] = frozenset()
    weights: tuple = ()  # per variable: (g0, g1)

    def __post_init__(self):
        if self.nvars < 0:
            raise HomredError("variable count must be nonnegative")
        self.imps = _normalise_imps(self.nvars, self.imps)
        self.pins0 = _check_pins(self.nvars, self.pins0)
        self.pins1 = _check_pins(self.nvars, self.pins1)
        if not self.weights:
            self.weights = ((1, 1),) * self.nvars
        if len(self.weights) != self.nvars:
            raise HomredError("need one weight pair per variable")
        self.weights = tuple((_num(g0), _num(g1)) for g0, g1 in self.weights)

    def unweighted(self) -> CspInstance:
        return CspInstance(self.nvars, self.imps, self.pins0, self.pins1)


def _closure(start, adj, allowed) -> set[int]:
    out = set(start)
    stack = list(start)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in allowed and v not in out:
                out.add(v)
                stack.append(v)
    return out


def count_wcsp(inst: WeightedCspInstance) -> Fraction:
    """Sum of assignment weights over all satisfying assignments."""
    n = inst.nvars
    g0 = [w[0] for w in inst.weights]
    g1 = [w[1] for w in inst.weights]
    succ = [set() for _ in range(n)]
    pred = [set() for _ in range(n)]
    for x, y in inst.imps:
        succ[x].add(y)
        pred[y].add(x)
    both = [succ[x] | pred[x] for x in range(n)]

    # Pin propagation: 1 flows forward, 0 flows backward.
    everything = set(range(n))
    ones = _closure(inst.pins1, succ, everything)
    zeros = _closure(inst.pins0, pred, everything)
    if ones & zeros:
        return Fraction(0)
    scalar = 1
    for x in ones:
        scalar *= g1[x]
    for x in zeros:
        scalar *= g0[x]
    if not scalar:
        return Fraction(0)

    memo: dict[frozenset[int], object] = {frozenset(): 1}

    def weak_components(active: frozenset[int]) -> list[frozenset[int]]:
        left = set(active)
        out = []
        while left:
            root = next(iter(left))
            comp = _closure([root], both, left)
            left -= comp
            out.append(frozenset(comp))
        return out

    def expand(active: frozenset[int]) -> list[tuple[object, list[frozenset[int]]]]:
        """The value of ``active`` as a sum of ``coefficient * product of
        the children's values`` terms."""
        parts = weak_components(active)
        if len(parts) > 1:
            return [(1, parts)]
        if all(not (succ[v] & active) for v in active):
            result = 1
            for v in active:
                result *= g0[v] + g1[v]
            return [(result, [])]
        v = min(active, key=lambda u: (-len(both[u] & active), u))
        fwd = frozenset(_closure([v], succ, active))
        bwd = frozenset(_closure([v], pred, active))
        hi = 1
        for u in fwd:
            hi *= g1[u]
        lo = 1
        for u in bwd:
            lo *= g0[u]
        return [(c, [active - fixed]) for c, fixed in ((hi, fwd), (lo, bwd)) if c]

    def solve(root: frozenset[int]):
        """Memoised value of ``root``, with an explicit stack in place of
        recursion: a set stays on the stack until its children are known."""
        stack = [root]
        pending: dict[frozenset[int], list] = {}
        while stack:
            active = stack[-1]
            if active in memo:
                stack.pop()
                continue
            terms = pending.get(active)
            if terms is None:
                terms = pending[active] = expand(active)
            todo = [c for _, children in terms for c in children if c not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            del pending[active]
            result = 0
            for coef, children in terms:
                for c in children:
                    coef *= memo[c]
                result += coef
            memo[active] = result
        return memo[root]

    return Fraction(scalar * solve(frozenset(everything - ones - zeros)))


def count_csp(inst: CspInstance) -> int:
    """Number of satisfying assignments."""
    z = count_wcsp(inst.with_weights(()))
    assert z.denominator == 1
    return int(z)


def ceil_lg(n: int) -> int:
    """Smallest k with 2^k >= n, for n >= 1."""
    if n < 1:
        raise HomredError("ceil_lg needs a positive integer")
    return (n - 1).bit_length()


@dataclass(frozen=True)
class BitExpansion:
    """Binary digit data driving one variable's pair of gadget chains.

    Branch 0 realises the weight of the variable being 1, branch 1 the
    weight of it being 0; ``branch_bits[b]`` lists the set bit positions
    of the corresponding value, ascending.
    """

    k: int
    branch_bits: tuple[tuple[int, ...], tuple[int, ...]]

    @classmethod
    def from_weights(cls, g0: int, g1: int) -> "BitExpansion":
        if g0 < 1 or g1 < 1:
            raise HomredError("bit expansion needs positive integer weights")
        k = max(ceil_lg(g0), ceil_lg(g1))
        bits = lambda v: tuple(i for i in range(v.bit_length()) if v >> i & 1)
        return cls(k, (bits(g1), bits(g0)))

    def min_bit(self, b: int) -> int:
        return self.branch_bits[b][0]

    def max_bit(self, b: int) -> int:
        return self.branch_bits[b][-1]

    def adjacent_pairs(self, b: int):
        bits = self.branch_bits[b]
        return list(zip(bits, bits[1:]))


def compile_weight_gadget(inst: WeightedCspInstance):
    """Rewrite integer weights into implication gadget chains.

    Returns ``(compiled, roles)`` where ``compiled`` is an unweighted
    instance with ``count_csp(compiled) == count_wcsp(inst)``, and
    ``roles`` maps every variable to its meaning: ``("orig", x)`` for
    the original variables (ids preserved), and ``("L", x, b, i)``,
    ``("mid", x, b, i, j)``, ``("R", x, b, i)`` for the gadget chains.

    Each set bit i of a branch value contributes a block of 2 + i
    variables with 2^i + 2 standalone solutions; consecutive blocks are
    glued end-to-end by bidirectional implications, the far end of each
    chain is pinned, and the near end is identified with the original
    variable.  All weights must be positive integers (run
    :func:`clear_denominators` first when they are fractions).
    """
    for x, (w0, w1) in enumerate(inst.weights):
        if not isinstance(w0, int) or not isinstance(w1, int) or w0 < 1 or w1 < 1:
            raise HomredError(
                f"variable {x} has weights ({w0},{w1}); the gadget needs positive integers"
            )

    imps = list(inst.imps)
    pins0 = set(inst.pins0)
    pins1 = set(inst.pins1)
    roles: dict[int, tuple] = {x: ("orig", x) for x in range(inst.nvars)}
    nxt = inst.nvars

    def new(role: tuple) -> int:
        nonlocal nxt
        roles[nxt] = role
        nxt += 1
        return nxt - 1

    for x, (w0, w1) in enumerate(inst.weights):
        exp = BitExpansion.from_weights(w0, w1)
        for b in (0, 1):
            ends: dict[int, tuple[int, int]] = {}
            for i in exp.branch_bits[b]:
                left = new(("L", x, b, i))
                mids = [new(("mid", x, b, i, j)) for j in range(1, i + 1)]
                right = new(("R", x, b, i))
                for m in mids:
                    imps.append((left, m))
                    imps.append((m, right))
                if not mids:
                    imps.append((left, right))
                ends[i] = (left, right)
            for i, j in exp.adjacent_pairs(b):
                imps.append((ends[i][1], ends[j][0]))
                imps.append((ends[j][0], ends[i][1]))
            if b == 0:
                pins0.add(ends[exp.min_bit(b)][0])
                anchor = ends[exp.max_bit(b)][1]
            else:
                pins1.add(ends[exp.max_bit(b)][1])
                anchor = ends[exp.min_bit(b)][0]
            imps.append((x, anchor))
            imps.append((anchor, x))

    return CspInstance(nxt, imps, pins0, pins1), roles


def clear_denominators(inst: WeightedCspInstance):
    """Scale each variable's weight pair to integers.

    Returns ``(scaled, scale)`` with
    ``count_wcsp(inst) == count_wcsp(scaled) / scale``.
    """
    new_weights = []
    scale = 1
    for g0, g1 in inst.weights:
        g0, g1 = Fraction(g0), Fraction(g1)
        d = lcm(g0.denominator, g1.denominator)
        scale *= d
        new_weights.append((g0 * d, g1 * d))
    scaled = WeightedCspInstance(
        inst.nvars, inst.imps, inst.pins0, inst.pins1, tuple(new_weights)
    )
    return scaled, scale
