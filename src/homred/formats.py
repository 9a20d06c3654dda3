"""Parsers and writers for the plain-text instance formats.

All formats share the same conventions: UTF-8 text, ``#`` starts a
comment that runs to end of line, blank lines are skipped, and the first
meaningful line is a header naming the record type and its dimensions.
Parse errors raise :class:`~homred.errors.FormatError` carrying the
1-based line number of the offending record.

Formats::

    graph <n> <m>           # then m lines:  e <u> <v>
    hypergraph <n> <m>      # then m lines:  h <k> <v1> ... <vk>
    weights <n> <h>         # then rows:     w <v> <r1> ... <rh>
    csp <nvars> <nc>        # then nc lines: imp <x> <y> | pin0 <x> | pin1 <x>
                            # plus optional: wt <x> <g0> <g1>
    code <p> <rows> <cols>  # then matrix rows over F_p

Rationals are written ``a/b`` in lowest terms (or a bare integer).
Weight rows may cover any subset of vertices; a vertex without a row has
all-ones weights.  ``wt`` lines in a csp file are not counted against
``<nc>`` and turn the result into a weighted instance.
"""

from __future__ import annotations

from fractions import Fraction

from .codes import LinearCode
from .csp import CspInstance, WeightedCspInstance
from .errors import FormatError, HomredError
from .graphs import MAX_VERTICES, Graph, Hypergraph
from .homcount import WeightTable


def _lines(text: str):
    """Yield (lineno, tokens) for every non-blank, non-comment line."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _int(tok: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"expected {what}, got {tok!r}", lineno) from None


def _fraction(tok: str, lineno: int) -> Fraction:
    try:
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad rational {tok!r}", lineno) from None
    if value < 0:
        raise FormatError(f"negative weight {tok!r}", lineno)
    return value


def _header(lines, keyword: str, nfields: int):
    try:
        lineno, toks = next(lines)
    except StopIteration:
        raise FormatError(f"empty input, expected a {keyword!r} header") from None
    if toks[0] != keyword:
        raise FormatError(f"expected {keyword!r} header, got {toks[0]!r}", lineno)
    if len(toks) != 1 + nfields:
        raise FormatError(
            f"{keyword!r} header takes {nfields} numbers, got {len(toks) - 1}", lineno
        )
    return lineno, [_int(t, lineno) for t in toks[1:]]


def _check_vertices(n: int, lineno: int, what: str = "vertices"):
    if n > MAX_VERTICES:
        raise FormatError(f"header announces {n} {what}, above the limit of {MAX_VERTICES}", lineno)


def _no_more(lines):
    for lineno, toks in lines:
        raise FormatError(f"unexpected extra line starting with {toks[0]!r}", lineno)


def parse_graph(text: str) -> Graph:
    lines = _lines(text)
    header_line, (n, m) = _header(lines, "graph", 2)
    if n < 0 or m < 0:
        raise FormatError("graph header dimensions must be nonnegative", 1)
    _check_vertices(n, header_line)
    edges = []
    seen = set()
    for _ in range(m):
        try:
            lineno, toks = next(lines)
        except StopIteration:
            raise FormatError(f"expected {m} edges, got {len(edges)}") from None
        if toks[0] != "e" or len(toks) != 3:
            raise FormatError("expected edge line 'e <u> <v>'", lineno)
        u, v = _int(toks[1], lineno), _int(toks[2], lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u},{v}) out of range for n={n}", lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge ({key[0]},{key[1]})", lineno)
        seen.add(key)
        edges.append(key)
    _no_more(lines)
    return Graph(n, edges)


def parse_hypergraph(text: str) -> Hypergraph:
    lines = _lines(text)
    header_line, (n, m) = _header(lines, "hypergraph", 2)
    if n < 0 or m < 0:
        raise FormatError("hypergraph header dimensions must be nonnegative", 1)
    _check_vertices(n, header_line)
    hyperedges = []
    for _ in range(m):
        try:
            lineno, toks = next(lines)
        except StopIteration:
            raise FormatError(f"expected {m} hyperedges, got {len(hyperedges)}") from None
        if toks[0] != "h" or len(toks) < 2:
            raise FormatError("expected hyperedge line 'h <k> <v1> ... <vk>'", lineno)
        k = _int(toks[1], lineno)
        if k < 1:
            raise FormatError("hyperedges must be nonempty", lineno)
        if len(toks) != 2 + k:
            raise FormatError(f"hyperedge announces {k} vertices, lists {len(toks) - 2}", lineno)
        verts = [_int(t, lineno) for t in toks[2:]]
        if len(set(verts)) != k:
            raise FormatError("repeated vertex inside a hyperedge", lineno)
        for v in verts:
            if not 0 <= v < n:
                raise FormatError(f"vertex {v} out of range for n={n}", lineno)
        hyperedges.append(tuple(sorted(verts)))
    _no_more(lines)
    return Hypergraph(n, hyperedges)


def parse_weights(text: str) -> WeightTable:
    lines = _lines(text)
    _, (n, h) = _header(lines, "weights", 2)
    if n < 0 or h < 1:
        raise FormatError("weights header needs n >= 0 and h >= 1", 1)
    rows: dict[int, tuple[Fraction, ...]] = {}
    for lineno, toks in lines:
        if toks[0] != "w":
            raise FormatError("expected weight line 'w <v> <r1> ... <rh>'", lineno)
        if len(toks) != 2 + h:
            raise FormatError(f"weight line needs {h} values, got {len(toks) - 2}", lineno)
        v = _int(toks[1], lineno, "vertex")
        if not 0 <= v < n:
            raise FormatError(f"vertex {v} out of range for n={n}", lineno)
        if v in rows:
            raise FormatError(f"duplicate weight row for vertex {v}", lineno)
        rows[v] = tuple(_fraction(t, lineno) for t in toks[2:])
    return WeightTable(n, h, rows)


def parse_csp(text: str) -> CspInstance | WeightedCspInstance:
    """Parse a csp file; returns a weighted instance iff any ``wt`` line appears."""
    lines = _lines(text)
    header_line, (nvars, nc) = _header(lines, "csp", 2)
    if nvars < 0 or nc < 0:
        raise FormatError("csp header dimensions must be nonnegative", 1)
    _check_vertices(nvars, header_line, "variables")

    def var(tok: str, lineno: int) -> int:
        x = _int(tok, lineno, "variable")
        if not 0 <= x < nvars:
            raise FormatError(f"variable {x} out of range for nvars={nvars}", lineno)
        return x

    imps: list[tuple[int, int]] = []
    pins0: set[int] = set()
    pins1: set[int] = set()
    weights: dict[int, tuple[Fraction, Fraction]] = {}
    seen_constraints = 0
    for lineno, toks in lines:
        kind = toks[0]
        if kind == "imp":
            if len(toks) != 3:
                raise FormatError("expected 'imp <x> <y>'", lineno)
            x, y = var(toks[1], lineno), var(toks[2], lineno)
            if x == y:
                raise FormatError(f"implication from variable {x} to itself", lineno)
            imps.append((x, y))
            seen_constraints += 1
        elif kind in ("pin0", "pin1"):
            if len(toks) != 2:
                raise FormatError(f"expected '{kind} <x>'", lineno)
            x = var(toks[1], lineno)
            (pins0 if kind == "pin0" else pins1).add(x)
            seen_constraints += 1
        elif kind == "wt":
            if len(toks) != 4:
                raise FormatError("expected 'wt <x> <g0> <g1>'", lineno)
            x = var(toks[1], lineno)
            if x in weights:
                raise FormatError(f"duplicate wt line for variable {x}", lineno)
            weights[x] = (_fraction(toks[2], lineno), _fraction(toks[3], lineno))
        else:
            raise FormatError(f"unknown csp line kind {kind!r}", lineno)
    if seen_constraints != nc:
        raise FormatError(f"header announces {nc} constraints, found {seen_constraints}")
    base = CspInstance(nvars, imps, pins0, pins1)
    if not weights:
        return base
    one = Fraction(1)
    full = tuple(weights.get(x, (one, one)) for x in range(nvars))
    return WeightedCspInstance(nvars, imps, pins0, pins1, full)


def parse_code(text: str) -> LinearCode:
    lines = _lines(text)
    header_line, (p, nrows, ncols) = _header(lines, "code", 3)
    rows = []
    for _ in range(nrows):
        try:
            lineno, toks = next(lines)
        except StopIteration:
            raise FormatError(f"expected {nrows} matrix rows, got {len(rows)}") from None
        if len(toks) != ncols:
            raise FormatError(f"matrix row needs {ncols} entries, got {len(toks)}", lineno)
        row = [_int(t, lineno, "matrix entry") for t in toks]
        for x in row:
            if not 0 <= x < p:
                raise FormatError(f"entry {x} outside 0..{p - 1}", lineno)
        rows.append(tuple(row))
    _no_more(lines)
    try:
        return LinearCode(p, ncols, tuple(rows))
    except HomredError as exc:
        raise FormatError(str(exc), header_line) from None


def format_graph(g: Graph) -> str:
    out = [f"graph {g.n} {len(g.edges)}"]
    out += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(out) + "\n"


def format_hypergraph(hg: Hypergraph) -> str:
    out = [f"hypergraph {hg.n} {len(hg.hyperedges)}"]
    out += [f"h {len(f)} " + " ".join(map(str, f)) for f in hg.hyperedges]
    return "\n".join(out) + "\n"


def format_weights(wt: WeightTable) -> str:
    out = [f"weights {wt.n} {wt.h}"]
    for v in range(wt.n):
        out.append(f"w {v} " + " ".join(str(x) for x in wt.row(v)))
    return "\n".join(out) + "\n"


def format_csp(inst: CspInstance | WeightedCspInstance) -> str:
    nc = len(inst.imps) + len(inst.pins0) + len(inst.pins1)
    out = [f"csp {inst.nvars} {nc}"]
    out += [f"pin0 {x}" for x in sorted(inst.pins0)]
    out += [f"pin1 {x}" for x in sorted(inst.pins1)]
    out += [f"imp {x} {y}" for x, y in inst.imps]
    if isinstance(inst, WeightedCspInstance):
        for x, (g0, g1) in enumerate(inst.weights):
            out.append(f"wt {x} {g0} {g1}")
    return "\n".join(out) + "\n"
