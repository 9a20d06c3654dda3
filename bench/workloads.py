"""Seeded job generators for the four workloads.

``make_job(workload, seed, i)`` returns ``(spec, check)``: ``spec`` is
what the worker hands to homred (instance text in homred's file formats
plus parameters), ``check`` is what the parent needs to verify the
answer with :mod:`oracles`.  Job i depends only on (workload, seed, i),
so the worker and the parent regenerate the same job independently.

Sizes follow a fixed per-workload schedule indexed by i; the seed
chooses the contents (random structure, terminals, weights, vertex
labels).  Every seed therefore runs the same mix of job kinds and sizes,
which keeps run-to-run spread low while no two seeds share inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import potts_code_rows

WORKLOADS = ("hom-core", "certify", "enumerate", "cli")

# Setup of every workload imports these modules and builds the fixed
# targets: j3star_tree() (58 vertices) and junction_tree(q) for q in
# JQ_RANGE (2q + 1 vertices).
SETUP_MODULES = {
    "hom-core": ("homred", "homred.formats"),
    "certify": ("homred", "homred.formats", "homred.gadgets"),
    "enumerate": ("homred", "homred.formats", "homred.gadgets", "homred.codes"),
    "cli": ("homred", "homred.cli"),
}
JQ_RANGE = range(3, 9)


def setup_code(workload: str) -> str:
    """Python source a fresh interpreter runs to reproduce one setup."""
    imports = "; ".join(f"import {m}" for m in SETUP_MODULES[workload])
    return (
        f"{imports}; from homred.graphs import j3star_tree, junction_tree; "
        f"j3star_tree(); [junction_tree(q) for q in range({JQ_RANGE.start}, {JQ_RANGE.stop})]"
    )


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"homred-bench:{workload}:{seed}:{i}")


def _slot(schedule, i: int):
    """Job i's kind and how many earlier jobs share that kind."""
    per = len(schedule)
    kind = schedule[i % per]
    return kind, (i // per) * schedule.count(kind) + schedule[: i % per].count(kind)


# ---------------------------------------------------------------------------
# instance text in homred's formats


def graph_text(n: int, edges) -> str:
    return f"graph {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def weights_text(n: int, h: int, rows: dict) -> str:
    out = [f"weights {n} {h}\n"]
    for v in sorted(rows):
        out.append(f"w {v} " + " ".join(_q(x) for x in rows[v]) + "\n")
    return "".join(out)


def hypergraph_text(n: int, hyperedges) -> str:
    out = [f"hypergraph {n} {len(hyperedges)}\n"]
    out += [f"h {len(f)} " + " ".join(map(str, f)) + "\n" for f in hyperedges]
    return "".join(out)


def csp_text(nvars: int, imps, pins0, pins1, weights=None) -> str:
    out = [f"csp {nvars} {len(imps) + len(pins0) + len(pins1)}\n"]
    out += [f"pin0 {x}\n" for x in sorted(pins0)]
    out += [f"pin1 {x}\n" for x in sorted(pins1)]
    out += [f"imp {x} {y}\n" for x, y in imps]
    for x in sorted(weights or {}):
        g0, g1 = weights[x]
        out.append(f"wt {x} {_q(g0)} {_q(g1)}\n")
    return "".join(out)


def code_text(p: int, rows) -> str:
    out = [f"code {p} {len(rows)} {len(rows[0])}\n"]
    out += [" ".join(map(str, r)) + "\n" for r in rows]
    return "".join(out)


def _q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# graph families


def relabel(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_rows(rng: random.Random, vertices, h: int) -> dict:
    """Positive rational weight rows with small numerators/denominators.

    No zero entries, so a row never prunes colourings and the cost of a
    weighted job does not depend on where the zeros fall.
    """
    return {v: [Fraction(rng.randint(1, 4), rng.choice((1, 2, 3))) for _ in range(h)]
            for v in vertices}


def cycle_labels(rng: random.Random, n: int) -> list[int]:
    """Vertex ids around a cycle: a random rotation, possibly reversed.

    Ids stay in cyclic order, so every seed eliminates the cycle the
    same way and only the weights differ.
    """
    r = rng.randrange(n)
    step = rng.choice((1, -1))
    return [(r + step * j) % n for j in range(n)]


def sp_graph(rng: random.Random, n: int):
    """Random 2-connected bipartite series-parallel graph on n (even) vertices.

    Starts from C4 between terminals 0 and 1 and repeatedly picks an
    edge (u, v) and either subdivides it into a 3-path or adds a
    parallel 3-path beside it; both keep every cycle even.  Returns
    ``(edges, tree)`` with the decomposition tree used by the oracle.
    """
    assert n >= 4 and n % 2 == 0
    nxt = 4
    tree = ["p", [["s", [["e", 0, 2], ["e", 2, 1]], [2]], ["s", [["e", 0, 3], ["e", 3, 1]], [3]]]]
    leaves = [(tree[1][0][1], 0), (tree[1][0][1], 1), (tree[1][1][1], 0), (tree[1][1][1], 1)]
    while nxt < n:
        k = rng.randrange(len(leaves))
        holder, idx = leaves[k]
        leaves[k] = leaves[-1]
        leaves.pop()
        _, u, v = holder[idx]
        x, y = nxt, nxt + 1
        nxt += 2
        path = ["s", [["e", u, x], ["e", x, y], ["e", y, v]], [x, y]]
        new_leaves = [(path[1], 0), (path[1], 1), (path[1], 2)]
        if rng.random() < 0.5:
            node = ["p", [["e", u, v], path]]
            new_leaves.append((node[1], 0))
        else:
            node = path
        holder[idx] = node
        leaves += new_leaves
    edges = [tuple(holder[idx][1:]) for holder, idx in leaves]
    return edges, tree


def _map_tree(node, perm):
    if node[0] == "e":
        return ("e", perm[node[1]], perm[node[2]])
    if node[0] == "s":
        return ("s", [_map_tree(c, perm) for c in node[1]], [perm[m] for m in node[2]])
    return ("p", [_map_tree(c, perm) for c in node[1]])


def sp_with_pendants(rng: random.Random, core: int, npend: int):
    """SP core plus ``npend`` hanging paths of length 1 or 2, relabelled."""
    edges, tree = sp_graph(rng, core)
    n = core
    pendants = []
    for _ in range(npend):
        at = rng.randrange(core)
        path = [at]
        for _ in range(rng.choice((1, 2))):
            edges.append((path[-1], n))
            path.append(n)
            n += 1
        pendants.append(path)
    perm = relabel(rng, n)
    edges = [(perm[u], perm[v]) for u, v in edges]
    check = {
        "family": "sp",
        "tree": _map_tree(tree, perm),
        "terminals": [perm[0], perm[1]],
        "pendants": [[perm[v] for v in p] for p in pendants],
    }
    return n, edges, check


def random_tree(rng: random.Random, n: int):
    return [(rng.randrange(v), v) for v in range(1, n)]


def connected_graph(rng: random.Random, n: int, m: int):
    """Random connected simple graph: a random tree plus m - n + 1 chords."""
    edges = {tuple(sorted(e)) for e in random_tree(rng, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    perm = relabel(rng, n)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def bipartite_graph(rng: random.Random, n: int, extra: int):
    """Connected bipartite graph: a random tree plus chords that join the
    two colour classes.  Returns (edges, colour of each vertex)."""
    tree = random_tree(rng, n)
    colour = [0] * n
    for u, v in tree:  # parents precede children
        colour[v] = 1 - colour[u]
    edges = {tuple(sorted(e)) for e in tree}
    cross = [(u, v) for u in range(n) for v in range(u + 1, n)
             if colour[u] != colour[v] and (u, v) not in edges]
    rng.shuffle(cross)
    edges.update(cross[:extra])
    return sorted(edges), colour


def grid(r: int, c: int):
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                edges.append((v, v + 1))
            if i + 1 < r:
                edges.append((v, v + c))
    return edges


def caterpillar(rng: random.Random, spine: int, legs: int):
    """A path of ``spine`` vertices, each with ``legs`` leaves, relabelled."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(legs):
            edges.append((i, n))
            n += 1
    perm = relabel(rng, n)
    return n, [(perm[u], perm[v]) for u, v in edges]


def tree_csp(rng: random.Random, n: int, npins: int, weighted: bool):
    """Implication CSP whose constraint graph is a random tree.

    Relations are chosen to agree with a hidden assignment, so the
    instance is satisfiable; pins also follow it.
    """
    tau = [rng.randint(0, 1) for _ in range(n)]
    links = []
    imps = []
    for u, v in random_tree(rng, n):
        if tau[u] < tau[v] or (tau[u] == tau[v] and rng.random() < 0.45):
            rel = "le"
        elif tau[u] > tau[v] or rng.random() < 0.8:
            rel = "ge"
        else:
            rel = "eq"
        links.append((u, v, rel))
        if rel in ("le", "eq"):
            imps.append((u, v))
        if rel in ("ge", "eq"):
            imps.append((v, u))
    pinned = rng.sample(range(n), npins)
    pins0 = {x for x in pinned if tau[x] == 0}
    pins1 = {x for x in pinned if tau[x] == 1}
    weights = None
    if weighted:
        weights = {
            x: (Fraction(rng.randint(1, 4), rng.choice((1, 2))), Fraction(rng.randint(1, 4), rng.choice((1, 3))))
            for x in range(n)
        }
    check = {"links": links, "pins0": sorted(pins0), "pins1": sorted(pins1), "weights": weights}
    return csp_text(n, imps, pins0, pins1, weights), check


# ---------------------------------------------------------------------------
# hom-core: the elimination core on sources with a large 2-core

# Ladders and small series-parallel graphs make up three quarters of the
# jobs and share one time band, so the median job falls inside a dense
# part of the distribution and does not jump between job kinds.
HOM_SCHEDULE = ("cycle", "ladder", "sp-j3", "ladder", "sp-jq", "ladder", "sp-j3", "ladder")
CYCLE_SIZES = (10, 16, 12, 18, 14, 20)
LADDER_SIZES = (5, 4, 5, 6)  # 2x5 twice: a dense band of jobs at the median
SP_J3_SIZES = (8, 12, 10, 14)
SP_JQ_SIZES = (20, 30, 40, 24, 34, 26, 36)


def _hom_core(rng: random.Random, i: int):
    kind, k = _slot(HOM_SCHEDULE, i)
    # A quarter of all jobs carry rational weights: half the cycles and
    # jq jobs, a quarter of the ladders.  Weighted series-parallel graphs
    # into j3star are left out: their Fraction cost swings 3x with the
    # random structure, which would make the run-to-run spread too wide.
    weighted = {"cycle": k % 2 == 0, "ladder": k % 4 == 1, "sp-jq": k % 2 == 1}.get(kind, False)
    target = "j3star"
    if kind == "cycle":
        n = CYCLE_SIZES[k % len(CYCLE_SIZES)]
        order = cycle_labels(rng, n)
        edges = [(order[j], order[(j + 1) % n]) for j in range(n)]
        check = {"family": "cycle", "order": order}
    elif kind == "ladder":
        r = LADDER_SIZES[k % len(LADDER_SIZES)]
        top, bottom = list(range(r)), list(range(r, 2 * r))
        if rng.random() < 0.5:  # one of the ladder's symmetries
            top, bottom = bottom, top
        if rng.random() < 0.5:
            top, bottom = top[::-1], bottom[::-1]
        edges = [(top[j], bottom[j]) for j in range(r)]
        edges += [(top[j], top[j + 1]) for j in range(r - 1)]
        edges += [(bottom[j], bottom[j + 1]) for j in range(r - 1)]
        n = 2 * r
        check = {"family": "ladder", "top": top, "bottom": bottom}
    elif kind == "sp-j3":
        n, edges, check = sp_with_pendants(rng, SP_J3_SIZES[k % len(SP_J3_SIZES)], rng.randint(0, 2))
    else:
        n, edges, check = sp_with_pendants(rng, SP_JQ_SIZES[k % len(SP_JQ_SIZES)], rng.randint(1, 3))
        target = f"jq:{JQ_RANGE[k % len(JQ_RANGE)]}"
    h = 58 if target == "j3star" else 2 * int(target[3:]) + 1
    rows = random_rows(rng, range(n), h) if weighted else None
    spec = {
        "op": "hom",
        "kind": kind,
        "target": target,
        "graph": graph_text(n, edges),
        "weights": weights_text(n, h, rows) if rows else None,
    }
    check.update(n=n, edges=edges, target=target, rows=rows)
    return spec, check


# ---------------------------------------------------------------------------
# certify: build -> emit -> load -> verify for all five reduction kinds

CERT_SCHEDULE = ("j3-tree", "cut-whom", "j3-tree", "potts-jq", "j3-tree", "uniformize",
                 "j3-tree", "j3-tree", "jq-hyper", "j3-tree", "j3-tree", "j3-cyclic")
J3_TREES = (
    ("P3", 3, [(0, 1), (1, 2)], (0, 1, 2)),
    ("K13", 4, [(0, 1), (0, 2), (0, 3)], (1, 2, 3)),
    ("P4", 4, [(0, 1), (1, 2), (2, 3)], (0, 1, 3)),
)
UNIFORM_SHAPES = ((2, 4, 3, 3), (3, 3, 3, 2), (2, 5, 3, 3), (3, 4, 2, 3), (3, 3, 3, 3))


def _certify(rng: random.Random, i: int):
    kind, k = _slot(CERT_SCHEDULE, i)
    rnd = i // len(CERT_SCHEDULE)
    if kind == "j3-cyclic" and rnd % 2 == 0:
        kind = "j3-tree"
    spec: dict = {"op": "certify"}
    check: dict = {"kind": kind}
    if kind in ("j3-tree", "j3-cyclic"):
        if kind == "j3-tree":
            _, n, edges, terms = J3_TREES[k % len(J3_TREES)]
        else:
            n, edges, terms = 3, [(0, 1), (1, 2), (0, 2)], (0, 1, 2)
        # ids stay fixed: they set the elimination order, and with it how
        # many 19k-bit factor tables are alive at once (the peak memory);
        # the seed only assigns the terminals to the three branches
        terms = list(terms)
        rng.shuffle(terms)
        spec.update(reduction="cut-to-j3star", graph=graph_text(n, edges), terminals=terms)
        check.update(n=n, edges=edges, terminals=terms)
    elif kind == "cut-whom":
        n = rng.randint(5, 7)
        edges = connected_graph(rng, n, n + rng.randint(0, 2))
        terms = rng.sample(range(n), 3)
        q = rng.choice((3, 4))
        spec.update(reduction="cut-to-whom", graph=graph_text(n, edges), terminals=terms,
                    target=f"jq:{q}")
        check.update(n=n, edges=edges, terminals=terms)
    elif kind == "potts-jq":
        q = 3 + rnd % 2
        n = 8 if q == 3 else 7
        edges = connected_graph(rng, n, n + rng.randint(0, 2))
        spec.update(reduction="potts-to-jq", graph=graph_text(n, edges), q=q)
        check.update(n=n, edges=edges, q=q)
    elif kind == "jq-hyper":
        q = 2 + rnd % 3
        n = rng.randint(7, 9)
        edges, colour = bipartite_graph(rng, n, rng.randint(1, 3))
        side = rng.choice(("left", "right"))
        spec.update(reduction="jq-to-hyperpotts", graph=graph_text(n, edges), q=q, side=side)
        # homred puts the side holding vertex 0 on the left
        occupied = [v for v in range(n) if (colour[v] == colour[0]) == (side == "left")]
        index = {v: j for j, v in enumerate(occupied)}
        nbrs = {v: [] for v in range(n)}
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        hyper = [sorted(index[u] for u in nbrs[v]) for v in range(n) if v not in index]
        check.update(n=len(occupied), hyperedges=hyper, q=q, gamma=1)
    else:
        q, n, m, t = UNIFORM_SHAPES[rnd % len(UNIFORM_SHAPES)]
        hyper = [rng.sample(range(n), t)] + [rng.sample(range(n), rng.randint(1, t)) for _ in range(m - 1)]
        hyper = [sorted(f) for f in hyper]
        gamma = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
        spec.update(reduction="uniformize", hypergraph=hypergraph_text(n, hyper), q=q, gamma=_q(gamma))
        check.update(n=n, hyperedges=hyper, q=q, gamma=gamma)
    return spec, check


# ---------------------------------------------------------------------------
# enumerate: the brute-force layers

ENUM_SCHEDULE = ("potts3", "cuts", "hyper", "wenum", "potts-we",
                 "potts4", "cuts", "hyper", "wenum", "potts-we")
CUT_SHAPES = ((3, 4), (3, 5), (2, 8), (4, 4), (2, 7))  # at most 24 edges, the cut cap
HYPER_SHAPES = ((3, 9, 8), (2, 14, 10), (3, 10, 8), (2, 15, 9))
CODE_SHAPES = ((3, 1, 9, 12), (2, 2, 7, 9), (3, 1, 10, 12), (2, 2, 8, 8))
LAMBDAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
GAMMAS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2))


def _enumerate(rng: random.Random, i: int):
    kind, k = _slot(ENUM_SCHEDULE, i)
    if kind in ("potts3", "potts4"):
        q = 3 if kind == "potts3" else 4
        n = (11, 12, 11, 10)[k % 4] if q == 3 else (9, 8, 9)[k % 3]
        edges = connected_graph(rng, n, n + 3 + k % 3)
        gamma = rng.choice(GAMMAS)
        spec = {"op": "potts", "graph": graph_text(n, edges), "q": q, "gamma": _q(gamma)}
        check = {"n": n, "hyperedges": edges, "q": q, "gamma": gamma}
    elif kind == "cuts":
        # three grid corners as terminals: the minimum cut size, and so
        # the number of edge subsets tried, is the same for every seed
        a, b = CUT_SHAPES[k % len(CUT_SHAPES)]
        n, edges = a * b, grid(a, b)
        perm = relabel(rng, n)
        edges = [(perm[u], perm[v]) for u, v in edges]
        terms = [perm[v] for v in rng.sample((0, b - 1, n - b, n - 1), 3)]
        spec = {"op": "cuts", "graph": graph_text(n, edges), "terminals": terms}
        check = {"n": n, "edges": edges, "terminals": terms}
    elif kind == "hyper":
        q, n, m = HYPER_SHAPES[k % len(HYPER_SHAPES)]
        hyper = [sorted(rng.sample(range(n), 2 + j % 3)) for j in range(m)]
        gamma = rng.choice(GAMMAS)
        spec = {"op": "hyperpotts", "hypergraph": hypergraph_text(n, hyper), "q": q, "gamma": _q(gamma)}
        check = {"n": n, "hyperedges": hyper, "q": q, "gamma": gamma}
    else:
        p, kk, n, m = CODE_SHAPES[k % len(CODE_SHAPES)]
        edges = connected_graph(rng, n, m)
        lam = rng.choice(LAMBDAS)
        if kind == "wenum":
            spec = {"op": "wenum", "code": code_text(p, potts_code_rows(n, edges, p, kk)), "lam": _q(lam)}
        else:
            spec = {"op": "potts-we", "graph": graph_text(n, edges), "p": p, "k": kk, "lam": _q(lam)}
        check = {"n": n, "edges": edges, "p": p, "k": kk, "lam": lam}
    spec["kind"] = kind
    check["kind"] = kind
    return spec, check


# ---------------------------------------------------------------------------
# cli: one homred process per job

# Three heavy slots (hom on trees and paths, classify on caterpillars and
# paths, whom) and nine light ones: the median job sits inside the
# narrow band of light jobs, where start-up dominates.
CLI_SCHEDULE = ("hom", "csp", "classify", "wcsp", "whom", "compile",
                "cuts", "whom-csp", "csp", "walk", "verify", "wcsp")
CSP_TARGETS = ("p4", "star:3", "file")


def _cli(rng: random.Random, i: int):
    kind, k = _slot(CLI_SCHEDULE, i)
    if kind in ("hom", "classify"):  # alternate the two source families
        kind = {"hom": ("hom-tree", "hom-path"), "classify": ("classify-cat", "classify-path")}[kind][k % 2]
        k //= 2
    files: dict[str, str] = {}
    check: dict = {"kind": kind}
    if kind in ("hom-tree", "hom-path", "whom"):
        if kind == "hom-tree":
            n = (500, 700, 600, 800)[k % 4]
            edges = random_tree(rng, n)
        elif kind == "hom-path":
            n = (500, 700, 600)[k % 3]
            edges = [(j, j + 1) for j in range(n - 1)]
        else:
            n = (150, 200, 250)[k % 3]
            edges = random_tree(rng, n)
        # paths keep ids in path order (possibly reversed): with shuffled
        # ids the order of pendant absorption, and the peak memory of the
        # largest path job, would change from seed to seed
        if kind == "hom-path":
            perm = list(range(n)) if rng.random() < 0.5 else list(range(n - 1, -1, -1))
        else:
            perm = relabel(rng, n)
        edges = [(perm[u], perm[v]) for u, v in edges]
        files["g.graph"] = graph_text(n, edges)
        argv = ["hom", "--target", "j3star", "{g.graph}"]
        rows = None
        if kind == "whom":
            rows = random_rows(rng, rng.sample(range(n), 4), 58)
            files["g.weights"] = weights_text(n, 58, rows)
            argv = ["whom", "--target", "j3star", "--weights", "{g.weights}", "{g.graph}"]
        check.update(n=n, edges=edges, rows=rows)
    elif kind in ("classify-cat", "classify-path"):
        if kind == "classify-cat":
            n, edges = caterpillar(rng, (35, 45, 40)[k % 3], 2)
        else:
            n = (100, 150, 200)[k % 3]
            perm = relabel(rng, n)
            edges = [(perm[j], perm[j + 1]) for j in range(n - 1)]
        files["t.graph"] = graph_text(n, edges)
        argv = ["classify", "--tree", "{t.graph}"]
        check.update(n=n, edges=edges)
    elif kind in ("csp", "wcsp", "compile"):
        n = {"csp": (300, 600, 1000), "wcsp": (200, 400, 600), "compile": (20, 40, 60)}[kind][k % 3]
        text, check_csp = tree_csp(rng, n, max(1, n // 30), kind != "csp")
        files["x.csp"] = text
        cmd = {"csp": "csp-count", "wcsp": "wcsp-count", "compile": "compile-weights"}[kind]
        argv = [cmd, "{x.csp}"]
        check.update(nvars=n, **check_csp)
    elif kind == "cuts":
        shape, a, b = (("grid", 3, 4), ("random", 10, 15), ("grid", 2, 7), ("random", 9, 16))[k % 4]
        if shape == "grid":
            n, edges = a * b, grid(a, b)
            perm = relabel(rng, n)
            edges = [(perm[u], perm[v]) for u, v in edges]
        else:
            n, edges = a, connected_graph(rng, a, b)
        terms = rng.sample(range(n), 3)
        files["c.graph"] = graph_text(n, edges)
        argv = ["cuts", "--terminals", ",".join(map(str, terms)), "{c.graph}"]
        check.update(n=n, edges=edges, terminals=terms)
    elif kind == "whom-csp":
        n = (8, 12, 16)[k % 3]
        edges = random_tree(rng, n)
        perm = relabel(rng, n)
        edges = [(perm[u], perm[v]) for u, v in edges]
        target = CSP_TARGETS[k % len(CSP_TARGETS)]
        files["s.graph"] = graph_text(n, edges)
        if target == "file":
            hn, hedges = 7, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (2, 6)]
            files["h.graph"] = graph_text(hn, hedges)
            spec_target = "file:{h.graph}"
        else:
            hn = 4
            hedges = [(0, 1), (1, 2), (2, 3)] if target == "p4" else [(0, 1), (0, 2), (0, 3)]
            spec_target = target
        rows = random_rows(rng, rng.sample(range(n), n // 2), hn)
        files["s.weights"] = weights_text(n, hn, rows)
        argv = ["reduce", "whom-to-csp", "--target", spec_target, "--weights", "{s.weights}",
                "--out", "{out}", "{s.graph}"]
        check.update(n=n, edges=edges, target_n=hn, target_edges=hedges, rows=rows)
    elif kind == "walk":
        argv = ["walk-table"]
    else:
        n = (4, 5, 6)[k % 3]
        edges = connected_graph(rng, n, n + (k % 2))
        terms = rng.sample(range(n), 3)
        files["v.graph"] = graph_text(n, edges)
        argv = ["verify", "certificate", "{v.cert.json}"]
        check.update(n=n, edges=edges, terminals=terms)
        # the certificate itself is made by homred before the job is timed
        return {"op": "cli", "kind": kind, "argv": argv, "files": files,
                "prepare": ["reduce", "cut-to-whom", "--terminals", ",".join(map(str, terms)),
                            "--target", "jq:3", "--out", "{v}", "{v.graph}"]}, check
    return {"op": "cli", "kind": kind, "argv": argv, "files": files}, check


_MAKERS = {"hom-core": _hom_core, "certify": _certify, "enumerate": _enumerate, "cli": _cli}

# Jobs per round: a run ends on a round boundary, so every run holds
# whole rounds and the same mix of job kinds.  certify's round is two
# passes of its schedule, as the cyclic cut job comes every other pass.
ROUND = {"hom-core": len(HOM_SCHEDULE), "certify": 2 * len(CERT_SCHEDULE),
         "enumerate": len(ENUM_SCHEDULE), "cli": len(CLI_SCHEDULE)}


def make_job(workload: str, seed: int, i: int):
    return _MAKERS[workload](_rng(workload, seed, i), i)
