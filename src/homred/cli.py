"""Command-line surface.

One subcommand per operation family: counting (hom / whom / potts /
hyperpotts / qcol / csp-count / wcsp-count / cuts / wenum), structure
queries (classify, walk-table), the gadget compiler (compile-weights),
reduction builders (reduce <kind>), and verification (verify certificate,
verify potts-we).

Counts print as bare integers, rationals as ``a/b`` in lowest terms.
Multi-field results print as ``key: value`` lines; ``--json`` switches to
a JSON report carrying the same fields plus sha256 digests of every
input file read.  ``--timing`` appends the wall-clock duration (kept out
of the default output so identical inputs give identical bytes).

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .codes import verify_potts_we, weight_enumerator
from .convex import ConvexOrder, convex_order, reduce_whom_sides
from .csp import (
    CspInstance,
    WeightedCspInstance,
    clear_denominators,
    compile_weight_gadget,
    count_csp,
    count_wcsp,
)
from .errors import FormatError, HomredError
from .formats import (
    format_csp,
    format_graph,
    format_hypergraph,
    format_weights,
    parse_code,
    parse_csp,
    parse_graph,
    parse_hypergraph,
    parse_weights,
)
from .gadgets import (
    CutInstance,
    ReductionCertificate,
    build_cut_to_j3star,
    build_cut_to_whom,
    build_jq_to_hyperpotts,
    build_potts_to_jq,
    int_str_digits,
    materialise_cut_to_j3star,
    materialise_cut_to_whom,
    materialise_potts_to_jq,
    materialised_value,
    multiterminal_cuts,
    uniformize,
    verify_certificate,
)
from .graphs import (
    MAX_VERTICES,
    Graph,
    classify_tree,
    j3star_tree,
    junction_tree,
    path_graph,
    star_graph,
)
from .homcount import (
    WeightTable,
    count_hom,
    count_whom,
    format_walk_table,
    j3star_walk_table,
)
from .potts import count_proper_colourings, potts_graph, potts_hypergraph

_digests: dict[str, str] = {}


def _read(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise HomredError(f"cannot read {path}: {exc.strerror or exc}") from None
    _digests[path] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise HomredError(f"{path} is not UTF-8 text") from None


def _load(parser, path: str):
    """Parse an instance file, qualifying errors with the file name."""
    try:
        return parser(_read(path))
    except FormatError as exc:
        raise HomredError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> str:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise HomredError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _fmt(x) -> str:
    with int_str_digits(0):
        if isinstance(x, Fraction) and x.denominator == 1:
            return str(x.numerator)
        return str(x)


def _rational(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {tok!r}") from None


def _terminal_triple(tok: str) -> tuple[int, int, int]:
    parts = tok.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("terminals must be three comma-separated vertices")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad terminal list {tok!r}") from None
    return a, b, c


def load_target(spec: str) -> Graph:
    """Resolve a target spec: p4, star:<n>, jq:<q>, j3star, or file:<path>."""
    if spec == "p4":
        return path_graph(4)
    if spec == "j3star":
        return j3star_tree().graph
    for prefix, build, vertices in (
        ("star:", star_graph, lambda n: n + 1),
        ("jq:", lambda q: junction_tree(q).graph, lambda q: 2 * q + 1),
    ):
        if spec.startswith(prefix):
            try:
                param = int(spec[len(prefix):])
            except ValueError:
                raise HomredError(f"bad target parameter in {spec!r}") from None
            if vertices(param) > MAX_VERTICES:
                raise HomredError(
                    f"target {spec!r} has {vertices(param)} vertices, above the limit of {MAX_VERTICES}"
                )
            return build(param)
    if spec.startswith("file:"):
        return _load(parse_graph, spec[5:])
    raise HomredError(
        f"unknown target {spec!r}: use p4, star:<n>, jq:<q>, j3star, or file:<path>"
    )


# ---------------------------------------------------------------------------
# counting and structure commands


def cmd_classify(args):
    tree = _load(parse_graph, args.tree)
    kind = classify_tree(tree)
    return {"_stdout": kind, "class": kind}, 0


def cmd_hom(args):
    H = load_target(args.target)
    g = _load(parse_graph, args.graph)
    z = _fmt(count_hom(g, H))
    return {"_stdout": z, "count": z}, 0


def cmd_whom(args):
    H = load_target(args.target)
    g = _load(parse_graph, args.graph)
    wt = _load(parse_weights, args.weights) if args.weights else WeightTable(g.n, H.n)
    z = count_whom(g, H, wt)
    return {"_stdout": _fmt(z), "count": _fmt(z)}, 0


def cmd_potts(args):
    g = _load(parse_graph, args.graph)
    z = potts_graph(g, args.q, args.gamma)
    return {"_stdout": _fmt(z), "value": _fmt(z), "q": args.q, "gamma": _fmt(args.gamma)}, 0


def cmd_hyperpotts(args):
    hg = _load(parse_hypergraph, args.hypergraph)
    z = potts_hypergraph(hg, args.q, args.gamma)
    return {"_stdout": _fmt(z), "value": _fmt(z), "q": args.q, "gamma": _fmt(args.gamma)}, 0


def cmd_qcol(args):
    g = _load(parse_graph, args.graph)
    z = _fmt(count_proper_colourings(g, args.q))
    return {"_stdout": z, "count": z, "q": args.q}, 0


def cmd_csp_count(args):
    inst = _load(parse_csp, args.file)
    if isinstance(inst, WeightedCspInstance):
        raise HomredError(f"{args.file} carries wt lines; use wcsp-count")
    z = _fmt(count_csp(inst))
    return {"_stdout": z, "count": z}, 0


def cmd_wcsp_count(args):
    inst = _load(parse_csp, args.file)
    if isinstance(inst, CspInstance):
        inst = inst.with_weights(())
    z = count_wcsp(inst)
    return {"_stdout": _fmt(z), "count": _fmt(z)}, 0


def cmd_cuts(args):
    g = _load(parse_graph, args.graph)
    b, n = multiterminal_cuts(g, args.terminals)
    return {"_stdout": f"{b} {n}", "min_size": b, "count": n}, 0


def cmd_wenum(args):
    code = _load(parse_code, args.matrix)
    if args.p is not None and args.p != code.p:
        raise HomredError(f"-p {args.p} disagrees with the file header (p={code.p})")
    w = weight_enumerator(code, args.lam)
    return {"_stdout": _fmt(w), "value": _fmt(w), "lambda": _fmt(args.lam)}, 0


def cmd_walk_table(args):
    text = format_walk_table(j3star_walk_table())
    return {"_stdout": text, "table": text}, 0


def cmd_compile_weights(args):
    inst = _load(parse_csp, args.file)
    if isinstance(inst, CspInstance):
        inst = inst.with_weights(())
    scaled, scale = clear_denominators(inst)
    compiled, roles = compile_weight_gadget(scaled)

    lines = ["# weight gadget compilation"]
    lines.append(f"# plain count of this instance = {scale} * weighted count of the input")
    lines.append("# variable roles:")
    for v in range(compiled.nvars):
        role = roles[v]
        if role[0] == "orig":
            lines.append(f"#   {v}: original variable {role[1]}")
        elif role[0] == "mid":
            _, x, b, i, j = role
            lines.append(f"#   {v}: mid x={x} branch={b} bit={i} pos={j}")
        else:
            tag, x, b, i = role
            lines.append(f"#   {v}: {tag} x={x} branch={b} bit={i}")
    text = "\n".join(lines) + "\n" + format_csp(compiled)

    report = {"nvars": compiled.nvars, "scale": _fmt(scale)}
    if args.output:
        report["output_file"] = _write(args.output, text)
    else:
        report["_stdout"] = text
    return report, 0


# ---------------------------------------------------------------------------
# reductions


def cmd_reduce_cut_to_whom(args):
    g = _load(parse_graph, args.graph)
    H = load_target(args.target)
    cut = CutInstance(g, args.terminals)
    inst, cert = build_cut_to_whom(cut, H, s_override=args.s)
    s = cert.constants["s"]
    mgraph, mwt = materialise_cut_to_whom(cut, H, s)
    return {
        "kind": cert.kind,
        "s": s,
        "b": cert.constants["b"],
        "min_cuts": cert.counters["min_cuts"],
        "scale": _fmt(cert.constants["scale"]),
        "graph_file": _write(args.out + ".graph", format_graph(mgraph)),
        "weights_file": _write(args.out + ".weights", format_weights(mwt)),
        "certificate_file": _write(args.out + ".cert.json", cert.to_json()),
    }, 0


def cmd_reduce_potts_to_jq(args):
    g = _load(parse_graph, args.graph)
    red, cert = build_potts_to_jq(g, args.q, s_override=args.s)
    s = cert.constants["s"]
    mgraph = materialise_potts_to_jq(g, s)
    return {
        "kind": cert.kind,
        "q": args.q,
        "s": s,
        "scale": _fmt(cert.constants["scale"]),
        "typical": _fmt(cert.counters["typical"]),
        "graph_file": _write(args.out + ".graph", format_graph(mgraph)),
        "certificate_file": _write(args.out + ".cert.json", cert.to_json()),
    }, 0


def cmd_reduce_jq_to_hyperpotts(args):
    g = _load(parse_graph, args.graph)
    red, cert = build_jq_to_hyperpotts(g, args.q, args.side)
    return {
        "kind": cert.kind,
        "q": args.q,
        "side": args.side,
        "occupied": list(red.occupied),
        "hypergraph_file": _write(args.out + ".hypergraph", format_hypergraph(red.hypergraph)),
        "certificate_file": _write(args.out + ".cert.json", cert.to_json()),
    }, 0


def cmd_reduce_uniformize(args):
    hg = _load(parse_hypergraph, args.hypergraph)
    padded, cert = uniformize(hg, args.q, args.gamma, s_override=args.s)
    return {
        "kind": cert.kind,
        "q": args.q,
        "gamma": _fmt(args.gamma),
        "t": cert.constants["t"],
        "s": cert.constants["s"],
        "scale": _fmt(cert.constants["scale"]),
        "hypergraph_file": _write(args.out + ".hypergraph", format_hypergraph(padded)),
        "certificate_file": _write(args.out + ".cert.json", cert.to_json()),
    }, 0


def cmd_reduce_cut_to_j3star(args):
    g = _load(parse_graph, args.graph)
    cut = CutInstance(g, args.terminals)
    inst, cert = build_cut_to_j3star(cut, s_override=args.s, r_override=args.r)
    s, r = cert.constants["s"], cert.constants["r"]
    mgraph = materialise_cut_to_j3star(cut, s, r)
    return {
        "kind": cert.kind,
        "s": s,
        "r": r,
        "b": cert.constants["b"],
        "min_cuts": cert.counters["min_cuts"],
        "scale": _fmt(cert.constants["scale"]),
        "graph_file": _write(args.out + ".graph", format_graph(mgraph)),
        "certificate_file": _write(args.out + ".cert.json", cert.to_json()),
    }, 0


def _order_obj(order: ConvexOrder) -> dict:
    return {
        "U": list(order.U),
        "Up": list(order.Up),
        "pi": {str(v): p for v, p in sorted(order.pi.items())},
        "pip": {str(v): p for v, p in sorted(order.pip.items())},
        "m": {str(i): order.m[i] for i in sorted(order.m)},
        "M": {str(i): order.M[i] for i in sorted(order.M)},
        "mp": {str(i): order.mp[i] for i in sorted(order.mp)},
        "Mp": {str(i): order.Mp[i] for i in sorted(order.Mp)},
    }


def _layout_obj(layout: dict) -> list:
    return sorted(([v, i, var] for (v, i), var in layout.items()), key=lambda t: t[2])


def cmd_reduce_whom_to_csp(args):
    g = _load(parse_graph, args.graph)
    H = load_target(args.target)
    wt = _load(parse_weights, args.weights) if args.weights else WeightTable(g.n, H.n)
    order = convex_order(H)
    own, swap = reduce_whom_sides(g, order, wt)
    value = count_wcsp(own.instance) + count_wcsp(swap.instance)

    with int_str_digits(0):  # a level ratio can be twice as long as the weights
        own_file = _write(args.out + ".own.csp", format_csp(own.instance))
        swap_file = _write(args.out + ".swap.csp", format_csp(swap.instance))
    sidecar = {
        "order": _order_obj(order),
        "left": list(own.left),
        "right": list(own.right),
        "own": {"file": own_file, "layout": _layout_obj(own.layout)},
        "swap": {"file": swap_file, "layout": _layout_obj(swap.layout)},
        "value": _fmt(value),
    }
    sidecar_file = _write(args.out + ".json", json.dumps(sidecar, indent=2) + "\n")
    return {
        "kind": "whom-to-csp",
        "h": order.h,
        "hp": order.hp,
        "value": _fmt(value),
        "own_file": own_file,
        "swap_file": swap_file,
        "sidecar_file": sidecar_file,
    }, 0


# ---------------------------------------------------------------------------
# verification


def cmd_verify_certificate(args):
    cert = ReductionCertificate.from_json(_read(args.certificate))
    report = verify_certificate(cert)
    passed = report.pop("passed")
    out = {k: (_fmt(v) if isinstance(v, Fraction) else v) for k, v in report.items()}
    if args.materialise:
        out["materialised_ok"] = materialised_value(cert) == report["value"]
        passed = passed and out["materialised_ok"]
    out["passed"] = passed
    return out, 0 if passed else 1


def cmd_verify_potts_we(args):
    g = _load(parse_graph, args.graph)
    report = verify_potts_we(g, args.p, args.k, args.lam)
    out = {
        "q": report["q"],
        "gamma": _fmt(report["gamma"]),
        "potts": _fmt(report["potts"]),
        "enumerator": _fmt(report["enumerator"]),
        "from_code": _fmt(report["from_code"]),
        "passed": report["match"],
    }
    return out, 0 if report["match"] else 1


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--timing", action="store_true", help="append the wall-clock duration")

    parser = argparse.ArgumentParser(
        prog="homred",
        description="Exact homomorphism, Potts, CSP, and weight-enumerator counting "
        "with verified reduction gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("classify", parents=[common], help="tree trichotomy class")
    p.add_argument("--tree", required=True, metavar="FILE", help="graph file holding a tree")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("hom", parents=[common], help="homomorphism count into a target")
    p.add_argument("--target", required=True, help="p4 | star:<n> | jq:<q> | j3star | file:<path>")
    p.add_argument("graph", help="source graph file")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("whom", parents=[common], help="vertex-weighted homomorphism sum")
    p.add_argument("--target", required=True, help="target spec (see hom)")
    p.add_argument("--weights", metavar="FILE", help="weights file (default all ones)")
    p.add_argument("graph", help="source graph file")
    p.set_defaults(func=cmd_whom)

    p = sub.add_parser("potts", parents=[common], help="graph Potts partition function")
    p.add_argument("-q", required=True, type=int, help="number of spins")
    p.add_argument("--gamma", required=True, type=_rational, help="coupling, e.g. 1 or 1/2")
    p.add_argument("graph", help="graph file")
    p.set_defaults(func=cmd_potts)

    p = sub.add_parser("hyperpotts", parents=[common], help="hypergraph Potts partition function")
    p.add_argument("-q", required=True, type=int)
    p.add_argument("--gamma", required=True, type=_rational)
    p.add_argument("hypergraph", help="hypergraph file")
    p.set_defaults(func=cmd_hyperpotts)

    p = sub.add_parser("qcol", parents=[common], help="proper q-colourings of a bipartite graph")
    p.add_argument("-q", required=True, type=int)
    p.add_argument("graph", help="graph file")
    p.set_defaults(func=cmd_qcol)

    p = sub.add_parser("csp-count", parents=[common], help="satisfying assignments of a csp file")
    p.add_argument("file", help="csp file (unweighted)")
    p.set_defaults(func=cmd_csp_count)

    p = sub.add_parser("wcsp-count", parents=[common], help="weighted count of a csp file")
    p.add_argument("file", help="csp file (wt lines optional)")
    p.set_defaults(func=cmd_wcsp_count)

    p = sub.add_parser("compile-weights", parents=[common],
                       help="compile wt lines into implication gadgets")
    p.add_argument("file", help="weighted csp file")
    p.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_compile_weights)

    p = sub.add_parser("cuts", parents=[common], help="minimum 3-terminal cut size and count")
    p.add_argument("--terminals", required=True, type=_terminal_triple, metavar="a,b,c")
    p.add_argument("graph", help="graph file")
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("wenum", parents=[common], help="weight enumerator of a code file")
    p.add_argument("-p", type=int, help="field order (checked against the file header)")
    p.add_argument("--lambda", dest="lam", required=True, type=_rational)
    p.add_argument("matrix", help="code file")
    p.set_defaults(func=cmd_wenum)

    p = sub.add_parser("walk-table", parents=[common],
                       help="path/walk count table of the 58-vertex tree")
    p.set_defaults(func=cmd_walk_table)

    reduce_p = sub.add_parser("reduce", help="build a reduction instance plus certificate")
    rsub = reduce_p.add_subparsers(dest="kind", required=True, metavar="kind")

    p = rsub.add_parser("cut-to-whom", parents=[common],
                        help="minimum cuts via weighted homomorphisms")
    p.add_argument("--terminals", required=True, type=_terminal_triple, metavar="a,b,c")
    p.add_argument("--target", required=True, help="tree containing a 3-branch junction")
    p.add_argument("--s", type=int, help="override the path multiplicity")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("graph", help="graph file")
    p.set_defaults(func=cmd_reduce_cut_to_whom)

    p = rsub.add_parser("potts-to-jq", parents=[common],
                        help="Potts at gamma=1 via junction-tree homomorphisms")
    p.add_argument("-q", required=True, type=int)
    p.add_argument("--s", type=int, help="override the pendant star size")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("graph", help="connected graph file")
    p.set_defaults(func=cmd_reduce_potts_to_jq)

    p = rsub.add_parser("jq-to-hyperpotts", parents=[common],
                        help="side-restricted junction homomorphisms as hypergraph Potts")
    p.add_argument("-q", required=True, type=int)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("graph", help="bipartite graph file")
    p.set_defaults(func=cmd_reduce_jq_to_hyperpotts)

    p = rsub.add_parser("uniformize", parents=[common], help="pad hyperedges to uniform size")
    p.add_argument("-q", required=True, type=int)
    p.add_argument("--gamma", required=True, type=_rational)
    p.add_argument("--s", type=int, help="override the anchor multiplicity")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("hypergraph", help="hypergraph file")
    p.set_defaults(func=cmd_reduce_uniformize)

    p = rsub.add_parser("cut-to-j3star", parents=[common],
                        help="minimum cuts via the 58-vertex tree")
    p.add_argument("--terminals", required=True, type=_terminal_triple, metavar="a,b,c")
    p.add_argument("--s", type=int, help="override the path multiplicity")
    p.add_argument("--r", type=int, help="override the gadget multiplicity")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("graph", help="graph file")
    p.set_defaults(func=cmd_reduce_cut_to_j3star)

    p = rsub.add_parser("whom-to-csp", parents=[common],
                        help="weighted homomorphisms as a weighted implication CSP")
    p.add_argument("--target", required=True, help="junction-free tree target spec")
    p.add_argument("--weights", metavar="FILE", help="weights file (default all ones)")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("graph", help="connected bipartite graph file")
    p.set_defaults(func=cmd_reduce_whom_to_csp)

    verify_p = sub.add_parser("verify", help="re-run both sides of an identity or sandwich")
    vsub = verify_p.add_subparsers(dest="kind", required=True, metavar="kind")

    p = vsub.add_parser("certificate", parents=[common],
                        help="rebuild a reduction certificate and check its guarantee")
    p.add_argument("--materialise", action="store_true",
                   help="also recount with explicit repetitions (tiny instances only)")
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(func=cmd_verify_certificate)

    p = vsub.add_parser("potts-we", parents=[common],
                        help="Potts / weight-enumerator identity on a connected graph")
    p.add_argument("-p", required=True, type=int, help="field characteristic (prime)")
    p.add_argument("-k", required=True, type=int, help="spins per vertex block: q = p^k")
    p.add_argument("--lambda", dest="lam", required=True, type=_rational)
    p.add_argument("graph", help="connected graph file")
    p.set_defaults(func=cmd_verify_potts_we)

    return parser


def _text(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return " ".join(_fmt(x) for x in v)
    return _fmt(v)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _digests.clear()
    t0 = time.perf_counter()
    try:
        report, code = args.func(args)
    except HomredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    duration = time.perf_counter() - t0

    if args.json:
        payload = {"command": args.command}
        if getattr(args, "kind", None):
            payload["kind"] = args.kind
        payload.update((k, v) for k, v in report.items() if k != "_stdout")
        if _digests:
            payload["inputs"] = dict(sorted(_digests.items()))
        if args.timing:
            payload["duration_seconds"] = round(duration, 6)
        with int_str_digits(0):
            print(json.dumps(payload, indent=2))
    else:
        if "_stdout" in report:
            text = report["_stdout"]
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
        else:
            for k, v in report.items():
                print(f"{k}: {_text(v)}")
        if args.timing:
            print(f"duration: {duration:.3f}s")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
