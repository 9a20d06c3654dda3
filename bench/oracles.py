"""Reference evaluators for checking the benchmark's answers.

Nothing here imports homred: every target tree, count and check is
rebuilt from the definitions, with algorithms that differ from the
package's (transfer matrices, series-parallel composition, frontier
dynamic programming over a vertex order).  Exact arithmetic only: rows
of rational weights are scaled to integers and the product of the
scales is divided out at the end, so nothing is ever converted to a
decimal string.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm

# ---------------------------------------------------------------------------
# targets


def j3star_adj() -> list[list[int]]:
    """Adjacency lists of the 58-vertex decorated junction tree.

    Vertex ids follow the order in which the construction names them:
    w, then branch x (x0, x1, five leaves), branch y (y0, y1, four
    children with three leaves each), branch z (z0, z1, three children,
    nine grandchildren with two leaves each), depth first.
    """
    edges: list[tuple[int, int]] = []
    count = [0]

    def new() -> int:
        count[0] += 1
        return count[0] - 1

    def chain(parent: int, fanout: list[int]) -> None:
        if not fanout:
            return
        for _ in range(fanout[0]):
            child = new()
            edges.append((parent, child))
            chain(child, fanout[1:])

    w = new()
    for fanout in ([5], [4, 3], [3, 3, 2]):
        b0 = new()
        b1 = new()
        edges += [(w, b0), (b0, b1)]
        chain(b1, fanout)
    return adj_lists(count[0], edges)


def junction_adj(q: int) -> list[list[int]]:
    """Centre 0 joined to q paths of length two: c'_i = 2i-1, c_i = 2i."""
    edges = []
    for i in range(1, q + 1):
        edges += [(0, 2 * i - 1), (2 * i - 1, 2 * i)]
    return adj_lists(2 * q + 1, edges)


def adj_lists(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


# ---------------------------------------------------------------------------
# weights


def scaled_rows(n: int, h: int, rows: dict[int, list[Fraction]]):
    """Integer weight rows plus the product of the per-row scales.

    Vertices without a row weigh 1 everywhere.  The weighted sum over
    the integer rows divided by the returned scale is the original sum.
    """
    out = []
    scale = 1
    for v in range(n):
        row = rows.get(v)
        if row is None:
            out.append([1] * h)
            continue
        d = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * d) for x in row])
        scale *= d
    return out, scale


def _neighbour_sum(adj, vec) -> list[int]:
    return [sum(vec[b] for b in adj[c]) for c in range(len(adj))]


# ---------------------------------------------------------------------------
# homomorphism sums into a tree target


def tree_hom(n: int, edges, adj, rows=None) -> Fraction:
    """Weighted homomorphism sum of a forest: leaf-to-root messages."""
    h = len(adj)
    w, scale = scaled_rows(n, h, rows or {})
    g = adj_lists(n, edges)
    seen = [False] * n
    total = 1
    for root in range(n):
        if seen[root]:
            continue
        order = []
        parent = {root: -1}
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in g[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    queue.append(v)
        msg = {v: list(w[v]) for v in order}
        for v in reversed(order[1:]):
            up = _neighbour_sum(adj, msg[v])
            mp = msg[parent[v]]
            for c in range(h):
                mp[c] *= up[c]
        total *= sum(msg[root])
    return Fraction(total, scale)


def cycle_hom(order: list[int], adj, rows=None) -> Fraction:
    """Trace of prod_i D_i A around the cycle v_0 ... v_{n-1}, v_0."""
    h = len(adj)
    w, scale = scaled_rows(max(order) + 1, h, rows or {})
    total = 0
    for a in range(h):
        if not w[order[0]][a]:
            continue
        vec = [0] * h
        vec[a] = w[order[0]][a]
        for v in order[1:]:
            up = _neighbour_sum(adj, vec)
            wv = w[v]
            vec = [wv[c] * up[c] for c in range(h)]
        total += sum(vec[b] for b in adj[a])
    return Fraction(total, scale)


def ladder_hom(top: list[int], bottom: list[int], adj, rows=None) -> Fraction:
    """Transfer matrix over the colour pairs of one rung of a 2 x k ladder."""
    h = len(adj)
    n = max(top + bottom) + 1
    w, scale = scaled_rows(n, h, rows or {})
    rungs = [(a, b) for a in range(h) for b in adj[a]]
    state = {(a, b): w[top[0]][a] * w[bottom[0]][b] for a, b in rungs}
    for t, u in zip(top[1:], bottom[1:]):
        new = {}
        for a, b in rungs:
            x = w[t][a] * w[u][b]
            if not x:
                continue
            s = 0
            for pa in adj[a]:
                for pb in adj[b]:
                    s += state.get((pa, pb), 0)
            if s:
                new[(a, b)] = x * s
        state = new
    return Fraction(sum(state.values()), scale)


def sp_hom(tree, terminals, pendants, n: int, adj, rows=None) -> Fraction:
    """Series-parallel composition of colour-pair matrices.

    ``tree`` is the decomposition recorded by the generator: ``("e", u,
    v)`` is one edge, ``("s", children, mids)`` a chain of children
    through the vertices ``mids``, ``("p", children)`` children sharing
    both ends.  ``pendants`` lists hanging paths ``[v, p1, ..., pk]``
    (p1 adjacent to the core vertex v); each is folded into v's weight
    row before the composition.
    """
    h = len(adj)
    w, scale = scaled_rows(n, h, rows or {})
    for path in pendants:
        v, rest = path[0], path[1:]
        vec = list(w[rest[-1]])
        for u in reversed(rest[:-1]):
            up = _neighbour_sum(adj, vec)
            vec = [w[u][c] * up[c] for c in range(h)]
        up = _neighbour_sum(adj, vec)
        w[v] = [w[v][c] * up[c] for c in range(h)]

    edge = [{b: 1 for b in adj[a]} for a in range(h)]

    def series(m1, mid, m2):
        out = []
        for row in m1:
            acc: dict[int, int] = {}
            for j, x in row.items():
                x *= mid[j]
                if not x:
                    continue
                for k, y in m2[j].items():
                    acc[k] = acc.get(k, 0) + x * y
            out.append({k: v for k, v in acc.items() if v})
        return out

    def parallel(m1, m2):
        out = []
        for r1, r2 in zip(m1, m2):
            out.append({k: x * r2[k] for k, x in r1.items() if k in r2})
        return out

    def evaluate(node):
        tag = node[0]
        if tag == "e":
            return edge
        if tag == "s":
            children, mids = node[1], node[2]
            m = evaluate(children[0])
            for mid, child in zip(mids, children[1:]):
                m = series(m, w[mid], evaluate(child))
            return m
        m = evaluate(node[1][0])
        for child in node[1][1:]:
            m = parallel(m, evaluate(child))
        return m

    s, t = terminals
    m = evaluate(tree)
    total = sum(w[s][a] * sum(w[t][b] * x for b, x in m[a].items()) for a in range(h))
    return Fraction(total, scale)


def core_and_pendant(n: int, edges) -> tuple[int, int]:
    """Vertices left after repeatedly removing degree-one vertices (not
    counting isolated ones), and the number removed."""
    g = [set(a) for a in adj_lists(n, edges)]
    alive = [True] * n
    queue = deque(v for v in range(n) if len(g[v]) == 1)
    removed = 0
    while queue:
        v = queue.popleft()
        if not alive[v] or len(g[v]) != 1:
            continue
        alive[v] = False
        removed += 1
        (u,) = g[v]
        g[u].discard(v)
        g[v].clear()
        if len(g[u]) == 1:
            queue.append(u)
    core = sum(1 for v in range(n) if alive[v] and g[v])
    return core, removed


# ---------------------------------------------------------------------------
# frontier dynamic programming over a vertex order


def frontier_dp(n, order, factors, domains, weigh, unit, mul, add):
    """Sum over all colourings of the product of factor values.

    Vertices are coloured in ``order``; each factor (a tuple of
    vertices) is evaluated once its last vertex is coloured, and a
    vertex leaves the state once every factor touching it has been
    evaluated.  ``weigh(factor, colours)`` gives a factor's value;
    ``mul``/``add`` are the semiring operations.
    """
    pos = {v: i for i, v in enumerate(order)}
    due: list[list[tuple]] = [[] for _ in order]
    last = dict(pos)
    for f in factors:
        p = max(pos[v] for v in f)
        due[p].append(f)
        for v in f:
            last[v] = max(last[v], p)
    live: list[int] = []
    states = {(): unit}
    for i, v in enumerate(order):
        cols = live + [v]
        idx = {u: j for j, u in enumerate(cols)}
        fs = [(f, [idx[u] for u in f]) for f in due[i]]
        keep = [j for j, u in enumerate(cols) if last[u] > i]
        new: dict[tuple, object] = {}
        for st, val in states.items():
            for c in domains[v]:
                full = st + (c,)
                x = val
                for f, ix in fs:
                    x = mul(x, weigh(f, [full[j] for j in ix]))
                key = tuple(full[j] for j in keep)
                new[key] = add(new[key], x) if key in new else x
        states = new
        live = [cols[j] for j in keep]
    return states[()]


def bfs_order(n: int, edges) -> list[int]:
    g = adj_lists(n, edges)
    seen = [False] * n
    out = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            out.append(u)
            for v in g[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return out


def potts_sum(n: int, hyperedges, q: int, gamma, order=None) -> Fraction:
    """sum over spins of prod over (hyper)edges of (1 + gamma [monochromatic])."""
    base = 1 + Fraction(gamma)
    a, b = base.numerator, base.denominator
    factors = [tuple(f) for f in hyperedges]
    if order is None:
        order = bfs_order(n, [(f[0], u) for f in factors for u in f[1:]])

    def weigh(_f, cols):
        return a if all(c == cols[0] for c in cols) else b

    total = frontier_dp(
        n, order, factors, [range(q)] * n, weigh, 1,
        lambda x, y: x * y, lambda x, y: x + y,
    )
    return Fraction(total, b ** len(factors))


def min_cuts(n: int, edges, terminals, order=None) -> tuple[int, int]:
    """(size, number) of minimum edge sets separating three terminals.

    In a connected graph these are exactly the minimum-cost
    3-colourings with the terminals on distinct colours, cost being the
    number of bichromatic edges.
    """
    domains = [range(3)] * n
    for colour, t in enumerate(terminals):
        domains[t] = (colour,)
    if order is None:
        order = bfs_order(n, edges)

    def mul(x, y):
        return (x[0] + y[0], x[1] * y[1])

    def add(x, y):
        if x[0] != y[0]:
            return x if x[0] < y[0] else y
        return (x[0], x[1] + y[1])

    return frontier_dp(
        n, order, [tuple(e) for e in edges], domains,
        lambda _f, c: (0, 1) if c[0] == c[1] else (1, 1), (0, 1), mul, add,
    )


# ---------------------------------------------------------------------------
# codes


def potts_code_rows(n: int, edges, p: int, k: int) -> list[list[int]]:
    """Generator rows of the code coupled to the q = p^k Potts model.

    One codeword coordinate per (edge (u, v), linear form alpha on
    F_p^k), equal to alpha . (x_v - x_u); a vertex's k coordinates
    x_v span the rows, so row (v, i) is the codeword of the unit vector.
    """
    forms = [[(j // p**i) % p for i in range(k)] for j in range(p**k)]
    rows = []
    for v in range(n):
        for i in range(k):
            row = []
            for a, b in edges:
                for alpha in forms:
                    coef = (alpha[i] if b == v else 0) - (alpha[i] if a == v else 0)
                    row.append(coef % p)
            rows.append(row)
    return rows


def potts_code_enumerator(n: int, edges, p: int, k: int, lam) -> Fraction:
    """W(lam) of the coupled code, from the Potts sum through
    Z(G; q, gamma) = q lam^{-(1-1/p) q m} W(lam),
    1 + gamma = lam^{-p^{k-1}(p-1)}."""
    lam = Fraction(lam)
    q = p**k
    gamma = lam ** -(p ** (k - 1) * (p - 1)) - 1
    z = potts_sum(n, edges, q, gamma)
    return z * lam ** ((p - 1) * p ** (k - 1) * len(edges)) / q


# ---------------------------------------------------------------------------
# structure


def classify_tree(n: int, edges) -> str:
    """Star, BisEquivalent or ContainsJ3 for a tree, in linear time."""
    g = adj_lists(n, edges)
    deep = [v for v in range(n) if len(g[v]) >= 2]
    if len(deep) <= 1:
        return "Star"
    for v in range(n):
        if sum(1 for u in g[v] if len(g[u]) >= 2) >= 3:
            return "ContainsJ3"
    return "BisEquivalent"


def walk_profile(adj, v: int) -> tuple[int, ...]:
    """d1..d3 (vertices at distance k, a tree) and w1..w3 (walks)."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for t in adj[u]:
            if t not in dist:
                dist[t] = dist[u] + 1
                queue.append(t)
    d = [sum(1 for x in dist.values() if x == k) for k in (1, 2, 3)]
    vec = [1] * len(adj)
    walks = []
    for _ in range(3):
        vec = _neighbour_sum(adj, vec)
        walks.append(vec[v])
    return tuple(d + walks)


def csp_tree_count(nvars: int, links, pins0, pins1, weights=None) -> Fraction:
    """Weighted count of a CSP whose constraint graph is a forest.

    ``links`` are ``(x, y, rel)`` with rel ``"le"`` (x <= y), ``"ge"``
    or ``"eq"``; the forest is solved by leaf-to-root messages.
    """
    ok = {
        "le": lambda a, b: a <= b,
        "ge": lambda a, b: a >= b,
        "eq": lambda a, b: a == b,
    }
    g: list[list[tuple[int, str]]] = [[] for _ in range(nvars)]
    for x, y, rel in links:
        g[x].append((y, rel))
        flip = {"le": "ge", "ge": "le", "eq": "eq"}[rel]
        g[y].append((x, flip))
    w = []
    scale = 1
    for x in range(nvars):
        g0, g1 = (weights or {}).get(x, (1, 1))
        g0, g1 = Fraction(g0), Fraction(g1)
        d = lcm(g0.denominator, g1.denominator)
        scale *= d
        row = [int(g0 * d), int(g1 * d)]
        if x in pins0:
            row[1] = 0
        if x in pins1:
            row[0] = 0
        w.append(row)
    seen = [False] * nvars
    total = 1
    for root in range(nvars):
        if seen[root]:
            continue
        seen[root] = True
        order = [(root, -1, None)]
        i = 0
        while i < len(order):
            u = order[i][0]
            for v, rel in g[u]:
                if not seen[v]:
                    seen[v] = True
                    order.append((v, u, rel))
            i += 1
        msg = {u: list(w[u]) for u, _, _ in order}
        for v, parent, rel in reversed(order[1:]):
            # rel relates parent (left) to v (right)
            f = ok[rel]
            mv = msg[v]
            mp = msg[parent]
            for a in (0, 1):
                mp[a] *= sum(mv[b] for b in (0, 1) if f(a, b))
        total *= sum(msg[root])
    return Fraction(total, scale)
