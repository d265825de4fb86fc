"""A frozen corpus of command-line calls and the digests of their outputs.

`CALLS` lists `adideals.cli.main` argument vectors: `enumerate` with every
class and pair of classes on the systems of rank <= 5 and on G2, F4 and E6,
in every format; the minimax classes of E7 and E8; `classify` of the
antichain of the roots of each height; `count` of every quantity on A-D up
to rank 11 and the exceptional types; every `verify` suite and `tables`
table; and the malformed calls that exit 2.  `outcome` runs one call in
process at COLUMNS=80 and returns its exit code and the sha256 of its
stdout and of its stderr, each cut to its first 16 hex digits.

`output_digests.txt`, beside this file, holds one line per call: its
`label` (the shell-quoted argument vector, an argument of over 100
characters abbreviated), then its three outcome fields, tab-separated.  A change
that alters an output on purpose re-freezes it with

    PYTHONPATH=src python tests/output_corpus.py

and lists every call whose line changed, and why, with the change.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import shlex
import sys

from adideals import cli
from adideals.rootsys import build

DIGESTS = pathlib.Path(__file__).with_name("output_digests.txt")

_CLASSES = ("all", "strictly-positive", "nontrivial", "heisenberg-contained",
            "abelian", "non-abelian", "minimax")
_SMALL = ([("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
          + [("C", n) for n in range(2, 6)] + [("D", 4), ("D", 5)]
          + [("G2", 2), ("F4", 4), ("E6", 6)])
_EXCEPTIONAL = [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]
_COUNTED = ([("A", n) for n in range(1, 12)] + [("B", n) for n in range(2, 12)]
            + [("C", n) for n in range(2, 12)] + [("D", n) for n in range(4, 12)]
            + _EXCEPTIONAL)


def _system(label, rank):
    return ["--type", label, "--rank", str(rank)]


def _calls():
    specs = list(_CLASSES) + [",".join(pair) for pair in itertools.combinations(_CLASSES, 2)]
    for (label, rank), spec, fmt in itertools.product(_SMALL, specs, ("text", "json", "csv")):
        yield ["enumerate", *_system(label, rank), "--class", spec, "--format", fmt]
    for label, rank in (("E7", 7), ("E8", 8)):
        for fmt in ("text", "json"):
            yield ["enumerate", *_system(label, rank), "--class", "minimax", "--format", fmt]
    for label, rank in _SMALL + [("E7", 7), ("E8", 8)]:
        roots = build(label, rank).positive_roots
        for height in sorted({r.height for r in roots}):
            gens = json.dumps([list(r.coords) for r in roots if r.height == height])
            for fmt in ("text", "json"):
                yield ["classify", *_system(label, rank), "--generators", gens, "--format", fmt]
        yield ["classify", *_system(label, rank), "--generators", "[]"]
    for (label, rank), quantity, fmt in itertools.product(
            _COUNTED, ("AD", "AD0", "minimax", "heisenberg_nontrivial"), ("text", "json", "csv")):
        yield ["count", *_system(label, rank), "--quantity", quantity, "--format", fmt]
    for suite in ("all", "motzkin", "animals", "soD", "exceptional", "f4table", "formulas",
                  "bijections", "heisenberg"):
        for fmt in ("text", "json"):
            yield ["verify", "--suite", suite, "--format", fmt]
    for which in ("all", "sequences", "f4", "fmm"):
        yield ["tables", "--which", which]
    # exit 2: malformed generators, unwritable --out targets, unknown types,
    # ranks and class tokens, refused dumps and argparse's usage errors
    for gens in ("5", "[1]", '[["1", 0]]', "[[true, 0]]", "[[1, 0, 0]]", "[[1,",
                 "[[1,0],[1,1]]", "[" * 100000):
        yield ["classify", *_system("A", 2), "--generators", gens]
    for out in ("corpus-missing-dir/out.txt", "."):
        yield ["count", *_system("A", 2), "--quantity", "AD", "--out", out]
    yield ["count", *_system("D", 3), "--quantity", "AD"]
    yield ["count", *_system("H", 3), "--quantity", "AD"]
    yield ["count", *_system("A", 2), "--quantity", "AD", "--class", "all"]
    yield ["count", *_system("A", 2), "--quantity", "minimax", "--force"]
    yield ["count", "--type", "A", "--rank", "x", "--quantity", "AD"]
    yield ["enumerate", *_system("A", 2), "--class", "bogus"]
    yield ["enumerate", *_system("E8", 8)]
    yield ["enumerate", *_system("A", 11)]
    yield ["bogus"]
    yield []
    yield ["--help"]
    yield ["count", "--help"]


CALLS = tuple(_calls())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def label(argv):
    """The shell-quoted argument vector, each argument of over 100 characters
    abbreviated to its first 20 and its digest."""
    return shlex.join(a if len(a) <= 100 else "%s...<%s>" % (a[:20], _sha(a)) for a in argv)


def outcome(argv):
    """(exit code, stdout digest, stderr digest) of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def outcomes():
    """The outcome of every call of `CALLS`, in order."""
    return [outcome(argv) for argv in CALLS]


def read_digests():
    """{label: (exit code, stdout digest, stderr digest)} as frozen."""
    frozen = {}
    for line in DIGESTS.read_text().splitlines():
        key, code, out, err = line.split("\t")
        frozen[key] = (int(code), out, err)
    return frozen


def freeze():
    DIGESTS.write_text("".join("%s\t%d\t%s\t%s\n" % (label(argv), *result)
                               for argv, result in zip(CALLS, outcomes())))


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        # the outcomes as one JSON list, for a run in another interpreter
        json.dump(outcomes(), sys.stdout)
    else:
        freeze()
