"""The benchmark workloads and the independent values they are checked against.

There are four operation sets (sweep, classify, lattice, poset), run as three
workloads: `records` (sweep + classify), `lattice` and `poset`.  Each
workload names the root systems its set-up builds and the operations one
pass runs.  An operation is either one `adideals.cli.main` invocation
(stdout captured) or one library call; both return the text that is
checked.  CLI outputs are checked against digests frozen from the seed tree
(`expected.json`, `classify_pool.txt`, both written by `freeze.py`); counts
are also checked against values computed here from the paper's closed forms
and literature tables, which share no code with the package.
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "adideals"
EXPECTED_FILE = HERE / "expected.json"
POOL_FILE = HERE / "classify_pool.txt"

# classify: a pass draws one ideal from each of 100 length strata, shared out
# between the systems in proportion to their numbers of ideals (17 E6, 83 E7)
CLASSIFY_SYSTEMS = (("E6", 6), ("E7", 7))
CLASSIFY_CALLS = 100


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_package():
    """Import the package afresh from the checkout's src, dropping any earlier copy.

    A fresh import also drops every module-level cache, as a new CLI process
    would; it fails unless the package comes from this checkout.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE + ".cli")
    pkg = sys.modules[PACKAGE]
    where = Path(pkg.__file__).resolve().parent
    if where != (SRC / PACKAGE).resolve():
        raise ImportError("%s was imported from %s, not from %s" % (PACKAGE, where, SRC))
    return pkg


def package_modules(pkg):
    """The package and its loaded submodules."""
    prefix = pkg.__name__
    return [m for name, m in sorted(sys.modules.items())
            if name == prefix or name.startswith(prefix + ".")]


def capture(main, argv):
    """Run a CLI entry point with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# -- independent values ------------------------------------------------------


def exponents(label, n):
    table = {
        "E6": (1, 4, 5, 7, 8, 11), "E7": (1, 5, 7, 9, 11, 13, 17),
        "E8": (1, 7, 11, 13, 17, 19, 23, 29), "F4": (1, 5, 7, 11), "G2": (1, 5),
    }
    if label in table:
        return table[label]
    if label == "A":
        return tuple(range(1, n + 1))
    if label in ("B", "C"):
        return tuple(range(1, 2 * n, 2))
    return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)  # D


def _product(label, n, shift):
    h = max(exponents(label, n)) + 1
    total = Fraction(1)
    for e in exponents(label, n):
        total *= Fraction(h + e + shift, e + 1)
    assert total.denominator == 1
    return int(total)


def ad(label, n):
    """Number of ad-nilpotent ideals, prod (h + e_i + 1) / (e_i + 1)."""
    return _product(label, n, 1)


def ad0(label, n):
    """Number of strictly positive ideals, prod (h + e_i - 1) / (e_i + 1)."""
    return _product(label, n, -1)


# literature values the exponent tables must reproduce
LITERATURE_AD = {"E6": 833, "E7": 4160, "E8": 25080, "F4": 105, "G2": 8}


def motzkin(n):
    m = [1, 1]
    for k in range(2, n + 1):
        m.append(m[k - 1] + sum(m[j] * m[k - 2 - j] for j in range(k - 1)))
    return m[n]


def directed_animals(n):
    """dir_1 = 1, dir_{k+1} = 3 dir_k - M_{k-1}."""
    d = 1
    for k in range(1, n):
        d = 3 * d - motzkin(k - 1)
    return d


EXCEPTIONAL_MINIMAX = {"G2": 3, "F4": 17, "E6": 67, "E7": 217, "E8": 834}


def minimax_count(label, n):
    if label in EXCEPTIONAL_MINIMAX:
        return EXCEPTIONAL_MINIMAX[label]
    if label == "A":
        return motzkin(n)
    if label in ("B", "C"):
        return directed_animals(n)
    return 2 * directed_animals(n - 2) + directed_animals(n - 1)  # D


def heisenberg_nontrivial(label, n):
    """#(long roots minus long simple roots) = 2 #long positive - #long simple."""
    table = {"E6": (36, 6), "E7": (63, 7), "E8": (120, 8), "F4": (12, 2), "G2": (3, 1)}
    if label in table:
        pos, simple = table[label]
    elif label == "A":
        pos, simple = n * (n + 1) // 2, n
    elif label == "B":
        pos, simple = n * (n - 1), n - 1
    elif label == "C":
        pos, simple = n, 1
    else:  # D
        pos, simple = n * (n - 1), n
    return 2 * pos - simple


COUNT_VALUES = {"AD": ad, "AD0": ad0, "minimax": minimax_count,
                "heisenberg_nontrivial": heisenberg_nontrivial}


# -- operations --------------------------------------------------------------


class CliOp:
    """One `adideals.cli.main(argv)` call; its stdout is the output."""

    def __init__(self, argv, check=None, expected=None, slot=None):
        self.argv = list(argv)
        self.key = " ".join(self.argv)
        self.check = check  # output -> error message or None
        self.expected = expected  # digest frozen from the seed tree
        self.slot = self.key if slot is None else slot  # ops timed together

    def run(self, pkg):
        code, out = capture(pkg.cli.main, self.argv)
        if code != 0:
            raise RuntimeError("exit code %r" % (code,))
        return out

    def records_kept(self, out):
        """Records in the output: one per classify, the count of an enumerate."""
        if self.argv[0] == "classify":
            return 1
        if self.argv[0] != "enumerate":
            return 0
        if "json" in self.argv:
            return json.loads(out)["count"]
        return len(out.splitlines()) - 1  # text: one line per record, then a summary


class PosetOp:
    """`enumerate_ideals(build(E8), which)`, consumed; the output is the count."""

    def __init__(self, label, rank, which, count):
        self.label, self.rank, self.which = label, rank, which
        self.key = self.slot = "enumerate_ideals %s%d %s" % (label, rank, which)
        self.count = count
        self.expected = digest("%d\n" % count)

    def run(self, pkg):
        rs = pkg.rootsys.build(self.label, self.rank)
        return "%d\n" % sum(1 for _ in pkg.ideals.enumerate_ideals(rs, self.which))

    def records_kept(self, out):
        return 0

    def check(self, out):
        if int(out) != self.count:
            return "%s yielded %s, expected %d" % (self.key, out.strip(), self.count)
        return None


def _enumerate_json_check(label, n):
    def check(out):
        recs = json.loads(out)["records"]
        got = (len(recs), sum(r["strictly_positive"] for r in recs),
               sum(r["abelian"] for r in recs), sum(r["minimax"] for r in recs))
        want = (ad(label, n), ad0(label, n), 2 ** n, minimax_count(label, n))
        if got != want:
            return "%s%d (ideals, strictly positive, abelian, minimax) = %s, expected %s" % (
                label, n, got, want)
        return None
    return check


def _enumerate_text_check(out):
    for line in out.splitlines()[:-1]:
        flags = line.split()[2]
        if "M" not in flags or "A" in flags:
            return "record outside class minimax,non-abelian: %s" % line
    return None


def _count_check(label, n, quantity):
    want = COUNT_VALUES[quantity](label, n)

    def check(out):
        fields = dict(f.split("=", 1) for f in out.split())
        if int(fields["value"]) != want:
            return "%s%d %s = %s, expected %d" % (label, n, quantity, fields["value"], want)
        return None
    return check


def _system_args(label, n):
    return ["--type", label, "--rank", str(n)]


def sweep_ops():
    ops = []
    for label, n in (("B", 5), ("D", 5)):
        ops.append(CliOp(["enumerate"] + _system_args(label, n) + ["--format", "json"],
                         _enumerate_json_check(label, n)))
    for label, n in (("C", 5), ("F4", 4)):
        ops.append(CliOp(["enumerate"] + _system_args(label, n)
                         + ["--class", "minimax,non-abelian"], _enumerate_text_check))
    return ops


LATTICE_SYSTEMS = (("A", 11), ("B", 11), ("C", 11), ("D", 11), ("G2", 2),
                   ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8))
QUANTITIES = ("minimax", "AD", "AD0", "heisenberg_nontrivial")


def lattice_ops():
    pairs = [(s, q) for s in LATTICE_SYSTEMS for q in QUANTITIES] + [(("D", 20), "AD")]
    return [CliOp(["count"] + _system_args(label, n) + ["--quantity", q],
                  _count_check(label, n, q))
            for (label, n), q in pairs]


def poset_ops():
    values = {"all": ad("E8", 8), "strictly_positive": ad0("E8", 8),
              "abelian": 2 ** 8, "minimax": minimax_count("E8", 8)}
    return [PosetOp("E8", 8, which, value) for which, value in values.items()]


def classify_argv(label, n, gens):
    return (["classify"] + _system_args(label, n)
            + ["--generators", json.dumps(gens, separators=(",", ":")), "--format", "json"])


def pool_gens(compact):
    """'0112211;1122111' -> [[0,1,1,2,2,1,1],[1,1,2,2,1,1,1]]; '-' is the empty antichain."""
    return [] if compact == "-" else [[int(c) for c in root] for root in compact.split(";")]


def read_pool():
    """{system: [(length_min, compact generators, digest)]}, sorted by (length, generators)."""
    pool = {label: [] for label, _ in CLASSIFY_SYSTEMS}
    with open(POOL_FILE) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            label, length, gens, dig = line.split()
            pool[label].append((int(length), gens, dig))
    for rows in pool.values():
        rows.sort()
    return pool


def classify_draws(rng):
    """Endless lists of classify ops: a stratified draw from all ideals of E6 and E7.

    Each system's ideals, sorted by the length of their minimal element, are
    cut into strata of equal size, one call per stratum.  The cost of a call
    grows with that length, so every list holds the same mix of cheap and
    expensive ideals and the latency quantiles of a run vary little from seed
    to seed.  Each stratum is drawn without replacement until it runs out, so
    that no two of a run's first passes repeat a call.
    """
    pool = read_pool()
    total = sum(len(rows) for rows in pool.values())
    strata = []
    for label, n in CLASSIFY_SYSTEMS:
        rows = pool[label]
        count = round(CLASSIFY_CALLS * len(rows) / total)
        size = len(rows) / count
        for s in range(count):
            stratum = rows[round(s * size):round((s + 1) * size)]
            strata.append((label, n, rng.sample(stratum, len(stratum))))
    for k in itertools.count():
        ops = []
        for slot, (label, n, rows) in enumerate(strata):
            _, gens, dig = rows[k % len(rows)]
            ops.append(CliOp(classify_argv(label, n, pool_gens(gens)), expected=dig,
                             slot=slot))
        yield ops


def records_passes(seed):
    """The four sweep enumerations plus a fresh classify draw; the seed draws and orders."""
    rng = random.Random(seed)
    sweep = sweep_ops()
    draws = classify_draws(rng)
    while True:
        ops = sweep + next(draws)
        rng.shuffle(ops)
        yield ops


def fixed_passes(ops):
    """A passes function that runs `ops` every pass, in an order the seed fixes."""
    def passes(seed):
        order = list(ops)
        random.Random(seed).shuffle(order)
        while True:
            yield order
    return passes


class Workload:
    def __init__(self, name, systems, items, passes, min_calls=0):
        self.name = name
        self.systems = systems  # built in set-up
        self.items = items  # items per pass
        self.passes = passes  # seed -> endless iterator of op lists
        self.min_calls = min_calls  # a run makes at least this many distinct calls


SWEEP_SYSTEMS = (("B", 5), ("D", 5), ("C", 5), ("F4", 4))

WORKLOADS = {
    w.name: w for w in (
        # sweep + classify; items: ideals classified.  200 classify calls leave
        # ten samples beyond p95
        Workload("records", SWEEP_SYSTEMS + CLASSIFY_SYSTEMS,
                 items=sum(ad(label, n) for label, n in SWEEP_SYSTEMS) + CLASSIFY_CALLS,
                 passes=records_passes, min_calls=200),
        # items: counts reported
        Workload("lattice", LATTICE_SYSTEMS + (("D", 20),), items=len(lattice_ops()),
                 passes=fixed_passes(lattice_ops())),
        # items: ideals yielded
        Workload("poset", (("E8", 8),), items=sum(op.count for op in poset_ops()),
                 passes=fixed_passes(poset_ops())),
    )
}


def check_tables():
    """The exponent tables must give the literature counts; run before any pass."""
    for label, value in LITERATURE_AD.items():
        n = int(label[1])
        if ad(label, n) != value:
            raise AssertionError("exponent table of %s gives %d ideals, not %d"
                                 % (label, ad(label, n), value))
    if [motzkin(n) for n in range(8)] != [1, 1, 2, 4, 9, 21, 51, 127]:
        raise AssertionError("Motzkin recurrence is wrong")
    if [directed_animals(n) for n in range(1, 8)] != [1, 2, 5, 13, 35, 96, 267]:
        raise AssertionError("directed-animal recurrence is wrong")
    if math.comb(10, 5) != ad("B", 5):
        raise AssertionError("type B exponents are wrong")
