"""Freeze the expected outputs of every benchmark operation from the current tree.

    python3 perfbench/freeze.py

Writes `expected.json` (a digest of each sweep and lattice CLI output) and
`classify_pool.txt` (every ideal of E6 and E7 as its generators, with the
length of its minimal element and a digest of its `classify` output).  Run it
only on a tree whose outputs are known to be right: the benchmark treats any
later difference as a failure.  Every output is first checked against the
independent values in `workloads.py`; the classify pool takes a few minutes.
"""

import json
import sys

import workloads as W


def _frozen(pkg, op):
    out = op.run(pkg)
    problem = op.check(out) if op.check else None
    if problem:
        raise SystemExit("refusing to freeze: " + problem)
    return W.digest(out)


def main():
    W.check_tables()
    pkg = W.load_package()
    cli_ops = W.sweep_ops() + W.lattice_ops()
    expected = {op.key: _frozen(pkg, op) for op in cli_ops}
    with open(W.EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")

    lines = ["# system  length_min  generators (';'-joined roots, '-' = none)  digest\n"]
    for label, n in W.CLASSIFY_SYSTEMS:
        rs = pkg.rootsys.build(label, n)
        ideals = list(pkg.ideals.enumerate_ideals(rs))
        if len(ideals) != W.ad(label, n):
            raise SystemExit("refusing to freeze: %s has %d ideals" % (label, len(ideals)))
        for ideal in ideals:
            roots = [r.coords for r in pkg.ideals.generators(ideal).roots]
            compact = ";".join("".join(map(str, c)) for c in roots) or "-"
            out = W.CliOp(W.classify_argv(label, n, W.pool_gens(compact))).run(pkg)
            length = json.loads(out)["record"]["length_min"]
            lines.append("%s %d %s %s\n" % (label, length, compact, W.digest(out)))
        print("froze %d %s ideals" % (len(ideals), label), file=sys.stderr)
    with open(W.POOL_FILE, "w") as fh:
        fh.writelines(lines)


if __name__ == "__main__":
    main()
