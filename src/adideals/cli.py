"""Command line surface: enumerate, classify, count, verify, tables.

Exit codes: 0 on success, 1 on a verification mismatch, 2 on usage
errors (including refused oversized dumps) and on a closed stdout, 130 on
an interrupt.
Output is deterministic: identical invocations produce identical bytes.

The grammar is one table, `_COMMANDS`, from which `make_parser` builds the
argparse tree.  `main` reads a well-formed call (a command followed by exact
option strings, each with one value or standing alone as a flag) straight off
the table: `_read_args` returns a `types.SimpleNamespace` holding the vars
argparse would give.  Every other call (help, abbreviations, `--opt=value`,
usage errors) goes to argparse, whose tree `main` builds the first time it
needs one and reuses for the rest of the process: `parse_args` leaves the
parser unchanged, and help text is formatted when printed.  `make_parser`
still builds a fresh one.

argparse is imported only when a call needs it, and so are `csv` (`--format
csv`), `tempfile` (`--out`), `json` (JSON output, `--stats` and classify's
`--generators`) and `classical_types` (`tables --which fmm|all`), so that a
cold import loads none of them and a well-formed call only what it uses.

`enumerate --stats` and `verify --stats` write one JSON object to stderr
when the command completes: the seconds of enumerate's stages (build, with
the work guard; walk_and_records; write), its counters (records written,
bytes out, growth steps) and the route its records took (`method`:
"lattice" or "image_walk"), or the seconds of each verify suite and its
check and failure counts.  Stdout is the same with and without the flag.

JSON output is written by `_json_text`, byte for byte what
`json.dumps(obj, indent=1, sort_keys=True)` gives, without the
pure-Python encoder that `indent` selects.
"""

import functools
import io
import os
import stat
import sys
from time import perf_counter
from types import SimpleNamespace

from .rootsys import TYPES, Root, build
from . import ideals as I
from . import affine as A
from . import lattice_count as L
from . import verify as V

IDEAL_RECORD_SCHEMA_ID = "adideals/ideal-record/v1"

IDEAL_RECORD_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": IDEAL_RECORD_SCHEMA_ID,
    "type": "object",
    "required": [
        "generators", "size", "strictly_positive", "abelian", "minimax",
        "heisenberg_contained", "rootlet", "length_min", "lattice_image", "y",
    ],
    "properties": {
        "generators": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "size": {"type": "integer", "minimum": 0},
        "strictly_positive": {"type": "boolean"},
        "abelian": {"type": "boolean"},
        "minimax": {"type": "boolean"},
        "heisenberg_contained": {"type": "boolean"},
        "rootlet": {
            "type": "object",
            "required": ["level", "root"],
            "properties": {
                "level": {"type": "integer"},
                "root": {"type": "array", "items": {"type": "integer"}},
            },
            "additionalProperties": False,
        },
        "length_min": {"type": "integer", "minimum": 0},
        "lattice_image": {"type": "array", "items": {"type": "integer"}},
        "y": {"type": "array", "items": {"type": "integer"}},
    },
    "additionalProperties": False,
}

# refuse unguarded dumps beyond this budget
MAX_CLASSIFY_WORK = 100_000_000

# the --class tokens whose records `enumerate` reads off D_min
_LATTICE_CLASSES = {"all", "nontrivial", "non-abelian"}


def ideal_record(ideal: I.Ideal) -> dict:
    """Full classification record of one ideal (schema ideal-record/v1)."""
    lt = I._l_table(ideal)
    # l(gamma, I) >= 1 on the members and None off them; w_min has
    # m*delta - gamma as an inversion for each 1 <= m <= l(gamma, I)
    return _record(ideal, *A._w_min_fields(ideal, lt), sum(filter(None, lt)))


def _record(ideal: I.Ideal, rootlet, point, y, length) -> dict:
    """The record of an ideal whose minimal element has the given rootlet
    (nu, level), lattice image, y-coordinates and length."""
    nu, level = rootlet
    return {
        "generators": [list(r.coords) for r in I.generators(ideal).roots],
        "size": ideal.size,
        "strictly_positive": I.is_strictly_positive(ideal),
        "abelian": I.is_abelian(ideal),
        "minimax": I.is_minimax(ideal),
        "heisenberg_contained": I.is_heisenberg_contained(ideal),
        "rootlet": {"level": level, "root": list(nu.coords)},
        "length_min": length,
        "lattice_image": list(point),
        "y": y,
    }


def _lattice_records(rs, kept):
    """The records of the kept ideals, their fields looked up in one walk
    over the points of D_min cap Q^vee, taken when the first is asked for."""
    fields = A._d_min_fields(rs)
    for ideal in kept:
        yield _record(ideal, *fields[ideal.mask])


def _record_line(rec: dict) -> str:
    gens = ";".join(",".join(map(str, g)) for g in rec["generators"]) or "-"
    flags = "".join(
        tag if rec[key] else "-"
        for tag, key in (("P", "strictly_positive"), ("A", "abelian"),
                         ("M", "minimax"), ("H", "heisenberg_contained"))
    )
    return "gens=%s size=%d flags=%s rootlet=%d:[%s] len=%d y=(%s)" % (
        gens, rec["size"], flags, rec["rootlet"]["level"],
        ",".join(map(str, rec["rootlet"]["root"])), rec["length_min"],
        ",".join(map(str, rec["y"])),
    )


def _class_tokens():
    """The --class tokens: the ideals' class names, hyphenated."""
    return sorted(name.replace("_", "-") for name in I.CLASSES)


def _parse_class(raw: str):
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    bad = [t for t in tokens if t not in _class_tokens()]
    if bad:
        raise ValueError(
            "unknown class %r; tokens may be %s" % (bad[0], _class_tokens())
        )
    return tokens or ["all"]


class _CountingWriter:
    """A text stream that passes writes on to `out` and counts their UTF-8 bytes."""

    def __init__(self, out):
        self.out = out
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.out.write(text)


def _stats_records(records, seconds, counters):
    """Yield the records, adding the seconds spent making them to
    seconds["walk_and_records"] and counting them and their growth steps,
    the summed `length_min`: the steps the image route takes to grow the
    images of w_min, whichever route made the record."""
    records = iter(records)
    while True:
        start = perf_counter()
        rec = next(records, None)
        seconds["walk_and_records"] += perf_counter() - start
        if rec is None:
            return
        counters["records_written"] += 1
        counters["growth_steps"] += rec["length_min"]
        yield rec


def _json_text(obj):
    """`json.dumps(obj, indent=1, sort_keys=True)`, without the pure-Python
    encoder that `indent` selects."""
    from json.encoder import encode_basestring_ascii
    return _json_nested(obj, "", encode_basestring_ascii)


def _json_nested(obj, indent, encode_str):
    """`_json_text(obj)` nested `indent` deep, strings written by `encode_str`:
    dicts with str keys, lists, str, int, bool and None are written here, int
    lists by one join, and any other value by `json.dumps`."""
    kind = type(obj)
    if kind is str:
        return encode_str(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is list:
        if not obj:
            return "[]"
        inner = indent + " "
        sep = ",\n" + inner
        if {*map(type, obj)} == _INT_ONLY:
            body = sep.join(map(str, obj))
        else:
            body = sep.join([_json_nested(x, inner, encode_str) for x in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if kind is dict and obj and {*map(type, obj)} == _STR_ONLY:
        inner = indent + " "
        return "{\n" + inner + (",\n" + inner).join([
            encode_str(k) + ": " + _json_nested(obj[k], inner, encode_str)
            for k in sorted(obj)
        ]) + "\n" + indent + "}"
    import json
    # the encoder escapes every newline inside a string, so each "\n" it
    # writes starts a line, which the nesting indents
    return json.dumps(obj, indent=1, sort_keys=True).replace("\n", "\n" + indent)


_INT_ONLY, _STR_ONLY = frozenset({int}), frozenset({str})


def _write_json(out, obj):
    out.write(_json_text(obj) + "\n")


def _write_stats(command, seconds, counters, **fields):
    import json
    print(json.dumps({"command": command, "seconds": seconds, "counters": counters,
                      **fields}, sort_keys=True), file=sys.stderr)


def cmd_enumerate(args, out) -> int:
    start = perf_counter()
    rs = build(args.type, args.rank)
    tokens = _parse_class(args.klass)
    if not args.force:
        # an ideal is kept when it is in every listed class, so their smallest
        # size bounds the records; count_AD bounds every class, so it is
        # taken only when no listed class has a count of its own
        sizes = {"strictly-positive": lambda: L.count_AD0(rs).value,
                 "abelian": lambda: 2 ** rs.rank,
                 "minimax": lambda: L.count_minimax(rs).value}
        expected = min([size() for t, size in sizes.items() if t in tokens]
                       or [L.count_AD(rs).value])
        # this bounds the image route, which the classes that drop more than
        # 2^rank ideals take: a record grows the images of its minimal element
        # one step per unit of length, and lengths are bounded by the summed
        # root heights; a step updates and tests against the l-table the
        # images of its affine simple root and of that node's neighbours in
        # the affine Dynkin diagram, at most rank + 1 integer updates.  The
        # lattice route costs less per record
        work = expected * sum(r.height for r in rs.positive_roots) * (rs.rank + 1)
        if work > MAX_CLASSIFY_WORK:
            print(
                "refusing to classify %d ideals of %s (heavy sweep); "
                "pass --force to insist"
                % (expected, V.system_name(args.type, args.rank)),
                file=sys.stderr)
            return 2
    kept = I.enumerate_ideals(rs, [t.replace("-", "_") for t in tokens])
    # classes that drop at most 2^rank ideals read every record off the
    # points of D_min; the others grow the images of w_min per kept ideal
    lattice = set(tokens) <= _LATTICE_CLASSES
    records = (_lattice_records(rs, kept) if lattice
               else (ideal_record(idl) for idl in kept))
    if args.stats:
        seconds = {"build": perf_counter() - start, "walk_and_records": 0.0}
        counters = {"records_written": 0, "growth_steps": 0}
        records = _stats_records(records, seconds, counters)
        out = _CountingWriter(out)
        start = perf_counter()
    if args.format == "json":
        payload = {
            "schema": IDEAL_RECORD_SCHEMA_ID,
            "type": args.type,
            "rank": args.rank,
            "class": ",".join(tokens),
            "records": list(records),
        }
        payload["count"] = len(payload["records"])
        _write_json(out, payload)
    elif args.format == "csv":
        import csv
        writer = csv.writer(out)
        writer.writerow(["generators", "size", "strictly_positive", "abelian",
                         "minimax", "heisenberg_contained", "rootlet_level",
                         "rootlet_root", "length_min", "lattice_image", "y"])
        for rec in records:
            writer.writerow([
                ";".join(",".join(map(str, g)) for g in rec["generators"]),
                rec["size"], rec["strictly_positive"], rec["abelian"],
                rec["minimax"], rec["heisenberg_contained"],
                rec["rootlet"]["level"],
                ",".join(map(str, rec["rootlet"]["root"])),
                rec["length_min"],
                ",".join(map(str, rec["lattice_image"])),
                ",".join(map(str, rec["y"])),
            ])
    else:
        count = 0
        for rec in records:
            out.write(_record_line(rec) + "\n")
            count += 1
        out.write("# %d record(s) for %s class=%s\n"
                  % (count, V.system_name(args.type, args.rank),
                     ",".join(tokens)))
    if args.stats:
        seconds["write"] = perf_counter() - start - seconds["walk_and_records"]
        counters["bytes_out"] = out.bytes
        _write_stats("enumerate", seconds, counters,
                     method="lattice" if lattice else "image_walk")
    return 0


def cmd_classify(args, out) -> int:
    import json
    rs = build(args.type, args.rank)
    try:
        gens = json.loads(args.generators)
    except RecursionError:
        raise ValueError("--generators is nested too deeply") from None
    if not (isinstance(gens, list) and all(
            isinstance(g, list) and all(type(c) is int for c in g) for g in gens)):
        raise ValueError("--generators must be a JSON list of integer lists, "
                         "e.g. [[1,1,0],[0,1,1]]")
    antichain = I.Antichain(rs, [Root(tuple(g)) for g in gens])
    rec = ideal_record(I.ideal_of(antichain))
    if args.format == "json":
        _write_json(out, {"schema": IDEAL_RECORD_SCHEMA_ID, "record": rec})
    else:
        out.write(_record_line(rec) + "\n")
    return 0


def cmd_count(args, out) -> int:
    report = getattr(L, "count_" + args.quantity)(build(args.type, args.rank))
    if args.format == "json":
        _write_json(out, report._asdict())
    elif args.format == "csv":
        import csv
        writer = csv.writer(out)
        writer.writerow(["type", "rank", "quantity", "value", "method",
                         "congruence_applied"])
        writer.writerow(list(report))
    else:
        out.write(
            "type=%s rank=%d quantity=%s value=%d method=%s congruence_applied=%s\n"
            % (report.type_label, report.rank, report.quantity, report.value,
               report.method, report.congruence_applied))
    return 0


def cmd_verify(args, out) -> int:
    names = V.SUITE_NAMES if args.suite == "all" else (args.suite,)
    failures = 0
    results = []
    seconds = {}
    for name in names:
        start = perf_counter()
        for row in V.run_suite(name):
            results.append(row)
            if not row.ok:
                failures += 1
        seconds[name] = perf_counter() - start
    if args.format == "json":
        _write_json(out, {
            "suites": list(names),
            "passed": failures == 0,
            "results": [
                {"suite": r.suite, "name": r.name, "ok": r.ok,
                 "expected": repr(r.expected), "computed": repr(r.computed)}
                for r in results
            ],
        })
    else:
        for r in results:
            if r.ok:
                out.write("ok   [%s] %s = %s\n" % (r.suite, r.name, r.computed))
            else:
                out.write("FAIL [%s] %s: expected=%s computed=%s\n"
                          % (r.suite, r.name, r.expected, r.computed))
        out.write("# %d check(s), %d failure(s)\n" % (len(results), failures))
    if args.stats:
        _write_stats("verify", seconds, {"checks": len(results), "failures": failures})
    return 1 if failures else 0


def cmd_tables(args, out) -> int:
    which = args.which
    if which in ("sequences", "all"):
        out.write("n        : " + " ".join("%6d" % n for n in range(1, 9)) + "\n")
        out.write("A_n      : " + " ".join(
            "%6d" % L.count_minimax(build("A", n)).value for n in range(1, 9)) + "\n")
        out.write("B_n/C_n  : " + "   -   " + " ".join(
            "%6d" % L.count_minimax(build("C", n)).value for n in range(2, 9)) + "\n")
        out.write("D_n      : " + "   -   " * 3 + " ".join(
            "%6d" % L.count_minimax(build("D", n)).value for n in range(4, 9)) + "\n")
        out.write("exceptional: " + " ".join(
            "%s=%d" % (t, L.count_minimax(build(t, r)).value)
            for t, r in V._EXCEPTIONAL)
            + "\n")
    if which in ("f4", "all"):
        out.write("non-Abelian minimax ideals of F4:\n")
        out.write("generators | #I | #I^2 | w(alpha_0) | y\n")
        for row in V.minimax_table_rows(build("F4", 4)):
            out.write("%s | %d | %d | %s | %s\n" % (
                " ".join("[%s]" % ",".join(map(str, g)) for g in row["generators"]),
                row["size"], row["size2"], row["w_alpha0"], row["y"]))
    if which in ("fmm", "all"):
        from . import classical_types as C
        for n in range(1, 7):
            out.write("F_mm(A%d) = %s\n" % (n, C.generating_function_Fmm("A", n)))
        for n in range(2, 7):
            out.write("F_mm(C%d) = %s\n" % (n, C.generating_function_Fmm("C", n)))
        for label, lo in (("B", 2), ("D", 4)):
            for n in range(lo, 6):
                dist = C.minimax_generator_distribution(build(label, n))
                out.write("F_mm(%s%d) = %s (empirical; no closed form)\n"
                          % (label, n, dist))
    return 0


# the grammar of every command: its help and its options in the order of its
# usage line, each (option string, dest, kind, default, required, help), where
# kind is a tuple of choices, int, str, or None for a flag; `make_parser` builds
# argparse's tree from it and `_read_args` reads well-formed calls off it
_SYSTEM = (("--type", "type", tuple(TYPES), None, True, None),
           ("--rank", "rank", int, None, True, None))
_OUT = ("--out", "out", str, None, False, None)
_COMMANDS = {
    "enumerate": ("stream classified ideal records", _SYSTEM + (
        ("--class", "klass", str, "all", False,
         "comma-joined filters: " + ", ".join(_class_tokens())),
        ("--format", "format", ("text", "json", "csv"), "text", False, None),
        _OUT,
        ("--force", "force", None, False, False, "allow oversized dumps"),
        ("--stats", "stats", None, False, False,
         "write seconds per stage and counters as JSON to stderr"),
    )),
    "classify": ("classify one ideal given its generators", _SYSTEM + (
        ("--generators", "generators", str, None, True,
         "JSON list of coordinate vectors, e.g. [[1,1,0],[0,1,1]]"),
        ("--format", "format", ("text", "json"), "text", False, None),
        _OUT,
    )),
    "count": ("count a quantity with method provenance", _SYSTEM + (
        ("--quantity", "quantity", ("AD", "AD0", "minimax", "heisenberg_nontrivial"),
         None, True, None),
        ("--format", "format", ("text", "json", "csv"), "text", False, None),
        _OUT,
    )),
    "verify": ("run the verification suites", (
        ("--suite", "suite", ("all",) + V.SUITE_NAMES, "all", False, None),
        ("--format", "format", ("text", "json"), "text", False, None),
        _OUT,
        ("--stats", "stats", None, False, False,
         "write seconds per suite and counters as JSON to stderr"),
    )),
    "tables": ("print the reproduced tables", (
        ("--which", "which", ("all", "sequences", "f4", "fmm"), "all", False, None),
        _OUT,
    )),
}


def make_parser() -> "argparse.ArgumentParser":
    import argparse
    parser = argparse.ArgumentParser(
        prog="adideals",
        description="Ideals of positive root posets: enumeration, minimax "
                    "classification, and lattice-point counts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for option, dest, kind, default, required, text in options:
            if kind is None:
                p.add_argument(option, dest=dest, action="store_true", help=text)
            else:
                p.add_argument(option, dest=dest, default=default, required=required,
                               help=text, type=int if kind is int else None,
                               choices=kind if type(kind) is tuple else None)
    return parser


# built on the first `main` call that needs it, not at import; a functools
# cache, so that clearing the package's caches makes the next call build it afresh
_parser = functools.cache(make_parser)

# each command's (dest, kind) by option string, its defaults, and the dests of
# its required options, whose defaults are None
_READER = {
    command: ({o[0]: o[1:3] for o in options}, {o[1]: o[3] for o in options},
              [o[1] for o in options if o[4]])
    for command, (_, options) in _COMMANDS.items()
}


def _read_args(argv):
    """A namespace with the vars of `_parser().parse_args(argv)`, read off `_COMMANDS`
    when argv is a command followed by exact option strings, each with one value
    that does not start with "-" or standing alone as a flag; None for any other
    argv (help, abbreviations, --opt=value, usage errors), which argparse reads."""
    if not argv or type(argv[0]) is not str or argv[0] not in _READER:
        return None
    lookup, defaults, required = _READER[argv[0]]
    args = SimpleNamespace(command=argv[0])
    values = vars(args)
    values.update(defaults)
    tokens = iter(argv)
    next(tokens)
    for token in tokens:
        if type(token) is not str or token not in lookup:
            return None
        dest, kind = lookup[token]
        if kind is None:
            values[dest] = True
            continue
        value = next(tokens, None)
        if type(value) is not str or value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    # a value read is a str or an int, so a required option left at None is missing
    for dest in required:
        if values[dest] is None:
            return None
    return args


_HANDLERS = {
    "enumerate": cmd_enumerate,
    "classify": cmd_classify,
    "count": cmd_count,
    "verify": cmd_verify,
    "tables": cmd_tables,
}


def _write_out(path: str, text: str) -> None:
    """Write text to path, following symlinks.  A regular file, or a path that
    does not exist yet, is written through a temporary file in its directory that
    is renamed over it, so that it holds either its old content or all of text;
    the file keeps its mode, and a new one gets 0666 less the umask.  Anything
    else, such as a FIFO, is written directly."""
    import tempfile
    target = os.path.realpath(path)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | 0o666 & ~umask
        if not stat.S_ISREG(mode):
            with open(target, "w") as fh:
                fh.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".adideals-", suffix=".tmp")
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror)) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException as exc:
        # an interrupt, too, leaves the target as it was
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValueError("cannot write %s: %s" % (path, exc.strerror)) from None
        raise


def main(argv=None) -> int:
    """Run one command; return its exit code.  If stdout's reader has gone, fd 1
    stays on devnull for the rest of the process, to silence the exit flush.
    An interrupt ends the command with one line on stderr and 130, the
    shell's code for SIGINT."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        if args.out:
            buf = io.StringIO()
            code = _HANDLERS[args.command](args, buf)
            _write_out(args.out, buf.getvalue())
        elif sys.stdout is None:
            raise ValueError("standard output is closed")
        else:
            code = _HANDLERS[args.command](args, sys.stdout)
            sys.stdout.flush()
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return code


if __name__ == "__main__":
    sys.exit(main())
