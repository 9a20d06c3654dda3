"""A frozen corpus of ``homred`` command lines and the bytes they give.

Every command runs in-process through :func:`homred.cli.main` in one
scratch directory, in order, so that ``verify`` can read the
certificates the ``reduce`` commands wrote.  A command's record holds
its exit code and the sha256 of its stdout, its stderr and every file it
writes or changes.  ``$TMP`` in an argument stands for the scratch
directory, and the directory's path is written back as ``$TMP`` before
anything is hashed, so the records do not depend on where they ran.

``tests/golden/cli/digests.json`` holds the records.  Regenerate it with

    PYTHONPATH=src python3 tests/cli_corpus.py --write

and record every regeneration as a test change.  Without ``--write``
the script prints the records as JSON on stdout; given command names,
it runs only those (name the ``reduce`` a ``verify`` reads, too).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from homred.cli import main

DIGESTS = pathlib.Path(__file__).parent / "golden" / "cli" / "digests.json"


def _graph(n, edges):
    return f"graph {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


# 3x3 grid: 9 vertices, 12 edges
GRID3 = _graph(9, [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
               + [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)])

INPUTS = {
    "k2.graph": _graph(2, [(0, 1)]),
    "p3.graph": _graph(3, [(0, 1), (1, 2)]),
    "p4.graph": _graph(4, [(0, 1), (1, 2), (2, 3)]),
    "c4.graph": _graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "triangle.graph": _graph(3, [(0, 1), (1, 2), (0, 2)]),
    "two-k2.graph": _graph(4, [(0, 1), (2, 3)]),
    "star3.graph": _graph(4, [(0, 1), (0, 2), (0, 3)]),
    "grid3.graph": GRID3,
    "bad.graph": "graph 2 2\ne 0 1\nx 9 9\n",
    "big.graph": "graph 1000000000 0\n",
    "p3.weights": "weights 3 4\nw 1 0 1 1 0\n",
    "k2.weights": "weights 2 4\nw 0 3 1 1/2 1\nw 1 1 2 1 5/3\n",
    "mixed.hypergraph": "hypergraph 4 3\nh 2 0 1\nh 3 1 2 3\nh 2 2 3\n",
    "plain.csp": "csp 2 1\nimp 0 1\n",
    "weighted.csp": "csp 2 1\nimp 0 1\nwt 0 5 2\nwt 1 1 1\n",
    "chain.csp": "csp 4 4\nimp 0 1\nimp 1 2\nimp 2 3\npin0 3\nwt 1 2 3\n",
    "tern.code": "code 3 1 3\n0 1 2\n",
    "hamming.code": "code 2 3 7\n1 0 0 1 1 0 1\n0 1 0 1 0 1 1\n0 0 1 0 1 1 1\n",
}

# (name, argv); commands run in this order
COMMANDS = [
    ("classify-star", ["classify", "--tree", "$TMP/star3.graph"]),
    ("classify-path-json", ["classify", "--json", "--tree", "$TMP/p4.graph"]),
    ("classify-not-a-tree", ["classify", "--tree", "$TMP/c4.graph"]),
    ("hom-p4", ["hom", "--target", "p4", "$TMP/k2.graph"]),
    ("hom-j3star-json", ["hom", "--target", "j3star", "--json", "$TMP/grid3.graph"]),
    ("hom-star", ["hom", "--target", "star:5", "$TMP/c4.graph"]),
    ("hom-jq", ["hom", "--target", "jq:3", "$TMP/grid3.graph"]),
    ("hom-file-target", ["hom", "--target", "file:$TMP/p4.graph", "$TMP/p3.graph"]),
    ("whom-weights", ["whom", "--target", "p4", "--weights", "$TMP/p3.weights", "$TMP/p3.graph"]),
    ("whom-default-json", ["whom", "--target", "jq:2", "--json", "$TMP/c4.graph"]),
    ("potts-grid", ["potts", "-q", "3", "--gamma", "1", "$TMP/grid3.graph"]),
    ("potts-negative-json", ["potts", "-q", "3", "--gamma", "-1", "--json", "$TMP/triangle.graph"]),
    ("hyperpotts", ["hyperpotts", "-q", "2", "--gamma", "1/2", "$TMP/mixed.hypergraph"]),
    ("qcol", ["qcol", "-q", "4", "$TMP/grid3.graph"]),
    ("csp-count", ["csp-count", "$TMP/plain.csp"]),
    ("csp-count-weighted-refused", ["csp-count", "$TMP/weighted.csp"]),
    ("wcsp-count", ["wcsp-count", "$TMP/chain.csp"]),
    ("wcsp-count-plain-json", ["wcsp-count", "--json", "$TMP/plain.csp"]),
    ("compile-weights-file", ["compile-weights", "-o", "$TMP/compiled.csp", "$TMP/weighted.csp"]),
    ("compile-weights-stdout", ["compile-weights", "$TMP/chain.csp"]),
    ("cuts-grid", ["cuts", "--terminals", "0,2,8", "$TMP/grid3.graph"]),
    ("cuts-json", ["cuts", "--json", "--terminals", "1,2,3", "$TMP/star3.graph"]),
    ("wenum", ["wenum", "--lambda", "1/2", "$TMP/tern.code"]),
    ("wenum-hamming-json", ["wenum", "-p", "2", "--json", "--lambda", "1/3", "$TMP/hamming.code"]),
    ("wenum-wrong-p", ["wenum", "-p", "2", "--lambda", "1/2", "$TMP/tern.code"]),
    ("walk-table", ["walk-table"]),
    ("reduce-cut-to-whom", ["reduce", "cut-to-whom", "--terminals", "1,2,3", "--target", "jq:3",
                            "--s", "2", "--out", "$TMP/cw", "$TMP/star3.graph"]),
    ("reduce-potts-to-jq", ["reduce", "potts-to-jq", "-q", "3", "--out", "$TMP/pj", "$TMP/k2.graph"]),
    ("reduce-potts-to-jq-p3-json", ["reduce", "potts-to-jq", "-q", "3", "--json",
                                    "--out", "$TMP/pj3", "$TMP/p3.graph"]),
    ("reduce-jq-to-hyperpotts", ["reduce", "jq-to-hyperpotts", "-q", "3", "--side", "right",
                                 "--out", "$TMP/jh", "$TMP/p3.graph"]),
    ("reduce-uniformize", ["reduce", "uniformize", "-q", "2", "--gamma", "1/2",
                           "--out", "$TMP/uni", "$TMP/mixed.hypergraph"]),
    ("reduce-cut-to-j3star-12-edges", ["reduce", "cut-to-j3star", "--terminals", "0,2,8",
                                       "--out", "$TMP/j3grid", "$TMP/grid3.graph"]),
    ("reduce-cut-to-j3star-star", ["reduce", "cut-to-j3star", "--terminals", "1,2,3",
                                   "--out", "$TMP/j3", "$TMP/star3.graph"]),
    ("reduce-cut-to-j3star-undersized", ["reduce", "cut-to-j3star", "--terminals", "1,2,3",
                                         "--s", "1", "--r", "1", "--out", "$TMP/j3small",
                                         "$TMP/star3.graph"]),
    ("reduce-whom-to-csp", ["reduce", "whom-to-csp", "--target", "p4", "--out", "$TMP/wc",
                            "$TMP/p3.graph"]),
    ("reduce-whom-to-csp-weights-json", ["reduce", "whom-to-csp", "--json", "--target", "p4",
                                         "--weights", "$TMP/k2.weights", "--out", "$TMP/wcw",
                                         "$TMP/k2.graph"]),
    ("reduce-whom-to-csp-c4", ["reduce", "whom-to-csp", "--target", "file:$TMP/p4.graph",
                               "--out", "$TMP/wc4", "$TMP/c4.graph"]),
    ("reduce-whom-to-csp-disconnected", ["reduce", "whom-to-csp", "--target", "p4",
                                         "--out", "$TMP/wcd", "$TMP/two-k2.graph"]),
    ("reduce-whom-to-csp-odd-cycle", ["reduce", "whom-to-csp", "--target", "p4",
                                      "--out", "$TMP/wct", "$TMP/triangle.graph"]),
    ("verify-cut-to-whom", ["verify", "certificate", "$TMP/cw.cert.json"]),
    ("verify-cut-to-whom-materialise", ["verify", "certificate", "--materialise",
                                        "$TMP/cw.cert.json"]),
    ("verify-potts-to-jq-json", ["verify", "certificate", "--json", "$TMP/pj.cert.json"]),
    ("verify-potts-to-jq-p3-materialise-json", ["verify", "certificate", "--json", "--materialise",
                                                "$TMP/pj3.cert.json"]),
    ("verify-jq-to-hyperpotts", ["verify", "certificate", "$TMP/jh.cert.json"]),
    ("verify-uniformize-json", ["verify", "certificate", "--json", "$TMP/uni.cert.json"]),
    ("verify-cut-to-j3star", ["verify", "certificate", "$TMP/j3.cert.json"]),
    ("verify-cut-to-j3star-undersized", ["verify", "certificate", "$TMP/j3small.cert.json"]),
    ("verify-potts-we", ["verify", "potts-we", "-p", "3", "-k", "1", "--lambda", "1/2",
                         "$TMP/k2.graph"]),
    ("verify-potts-we-json", ["verify", "potts-we", "-p", "2", "-k", "1", "--json",
                              "--lambda", "1/3", "$TMP/p3.graph"]),
    ("verify-potts-we-bad-lambda", ["verify", "potts-we", "-p", "3", "-k", "1", "--lambda", "2",
                                    "$TMP/k2.graph"]),
    ("error-missing-file", ["hom", "--target", "p4", "$TMP/absent.graph"]),
    ("error-parse", ["hom", "--target", "p4", "$TMP/bad.graph"]),
    ("error-bad-target", ["hom", "--target", "spiral", "$TMP/k2.graph"]),
    ("error-vertex-bound", ["hom", "--target", "j3star", "$TMP/big.graph"]),
    ("error-terminal-out-of-range", ["cuts", "--terminals", "1,2,9", "$TMP/star3.graph"]),
    ("error-missing-certificate", ["verify", "certificate", "$TMP/absent.cert.json"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(workdir: pathlib.Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in workdir.iterdir()}


def run_command(workdir: pathlib.Path, argv: list[str]) -> dict:
    """Run one command line in ``workdir`` and return its record."""
    root = str(workdir)
    before = _snapshot(workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("$TMP", root) for a in argv])
    written = sorted(name for name, sha in _snapshot(workdir).items() if before.get(name) != sha)
    files = {name: _sha((workdir / name).read_bytes().replace(root.encode(), b"$TMP"))
             for name in written}
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha(out.getvalue().replace(root, "$TMP").encode()),
        "stderr": _sha(err.getvalue().replace(root, "$TMP").encode()),
        "files": files,
    }


def run_corpus(workdir: pathlib.Path, names=None) -> dict[str, dict]:
    """Write the inputs into ``workdir`` and run the commands (``names``
    only, when given, in corpus order) there."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    return {name: run_command(workdir, argv) for name, argv in COMMANDS
            if names is None or name in names}


if __name__ == "__main__":
    args = sys.argv[1:]
    write = "--write" in args
    names = [a for a in args if a != "--write"] or None
    with tempfile.TemporaryDirectory() as tmp:
        records = run_corpus(pathlib.Path(tmp), names)
    text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    if write:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
