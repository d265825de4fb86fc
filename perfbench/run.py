#!/usr/bin/env python3
"""Benchmark of the adideals package, one workload per run.

    python3 perfbench/run.py --workload records --seed 1 --seconds 36 --trace 0

A run imports the package from `src/`, builds the workload's root systems,
then runs passes over the workload's operations, one after another in this
process, and stops at the pass boundary nearest to `--seconds`.  Every
output is checked against the frozen expectations outside the timed body; a
failed check, an exception or a non-zero exit counts as a failed operation.

`setup_s` is timed in fresh child processes (a cold `import adideals.cli`
plus a build of the workload's root systems), started one at a time between
operations all through the run, so that its samples cover the same stretch
of time as the passes; the median is reported.

Every time behind an end-to-end metric is rescaled to a nominal host speed
with the reference loop in `reference.py`, timed just before and just after
it; the summary lines also give the raw pass times and the host's speed.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics.  With `--trace 1`, after one untimed warm-up pass, each
pass runs twice, untraced and traced, in an order that alternates from
pass to pass; the two outputs must agree byte for byte, and the JSON
object holds the per-layer metrics; the spans are written to
`perfbench/out/<workload>-trace.tsv`.  Exit code 2 means the run could
not start (for instance, no package to import).
"""

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import reference
import tracing
import workloads as W

# between operations, start another cold set-up whenever fewer than
# SETUP_MIN x (share of --seconds gone) have been made, or set-ups have taken
# less than SETUP_SHARE of the run so far: at least SETUP_MIN per run, spread
# over it and not added after it, and more where a set-up is cheap
SETUP_MIN = 6
SETUP_SHARE = 0.1
TIME_LIMIT_S = 170

# run in a fresh interpreter: argv = [benchmark directory, src directory,
# "label:rank", ...]; prints the seconds taken by the import and the builds,
# the reference loop's time before and after them, and where rootsys came from
SETUP_CHILD = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
import reference
before = reference.loop_s()
t0 = perf_counter()
sys.path.insert(0, sys.argv[2])
import adideals.cli
from adideals import rootsys
for system in sys.argv[3:]:
    label, rank = system.split(":")
    rootsys.build(label, int(rank))
t1 = perf_counter()
print(t1 - t0, before, reference.loop_s(), rootsys.__file__)
"""
OUT_DIR = W.HERE / "out"

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed in the summary but not declared: on `lattice` and `poset` the 95th
# percentile rests on 37 and 4 calls, too few to be steady from run to run
PRINTED_ONLY = {"latency_p95_ms": "ms"}
PER_LAYER = {
    "rootsys.build_s": "s", "rootsys.builds": "count",
    "ideals.enumerate_self_s": "s", "ideals.is_minimax_s": "s",
    "ideals.is_minimax_calls": "count", "ideals.is_abelian_s": "s",
    "ideals.generators_s": "s", "ideals.kept_ratio": "ratio",
    "affine.w_min_self_s": "s", "affine.element_from_inversions_s": "s",
    "affine.length_s": "s", "affine.elements_built": "count",
    "affine.inversions_total": "count",
    "lattice_count.count_minimax_self_s": "s",
    "lattice_count.solve_extended_system_s": "s",
    "lattice_count.points_swept": "count", "lattice_count.hit_ratio": "ratio",
    "cli.main_self_s": "s", "cli.ideal_record_self_s": "s",
    "cli.records_built": "count", "cli.records_kept": "count",
    "cli.kept_ratio": "ratio", "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}


def cold_setup_s(workload):
    """Seconds a fresh interpreter takes to import the package and build the systems.

    Returns (seconds at nominal speed, raw seconds).
    """
    argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(W.HERE), str(W.SRC)]
    argv += ["%s:%d" % system for system in workload.systems]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    seconds, before, after, where = proc.stdout.split()
    expected = W.SRC / W.PACKAGE / "rootsys.py"
    if W.Path(where).resolve() != expected.resolve():
        raise ImportError("set-up imported %s, not %s" % (where, expected))
    seconds = float(seconds)
    return reference.rescale(seconds, float(before), float(after)), seconds


class SetupSampler:
    """Cold set-ups spread over a run of `seconds`: see SETUP_MIN and SETUP_SHARE."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.times = []
        self.raw_times = []
        self.spent = 0.0
        self.start = perf_counter()

    def sample(self):
        t0 = perf_counter()
        seconds, raw = cold_setup_s(self.workload)
        self.times.append(seconds)
        self.raw_times.append(raw)
        self.spent += perf_counter() - t0

    def between_ops(self):
        elapsed = perf_counter() - self.start
        due = SETUP_MIN * elapsed / self.seconds if self.seconds > 0 else 0
        if len(self.times) < due or self.spent <= SETUP_SHARE * elapsed:
            self.sample()

    def finish(self, minimum):
        while len(self.times) < minimum:
            self.sample()
        return self.times


def set_up(workload, tracer_for=None):
    """Import plus a build of every root system the workload uses, in this process.

    With `tracer_for`, the builds run under a tracer made from the freshly
    imported package, and (seconds, package, tracer) is returned.
    """
    gc.collect()  # free the previous copy of the package before timing a new one
    t0 = perf_counter()
    pkg = W.load_package()
    tracer = tracer_for(pkg) if tracer_for else None
    if tracer:
        tracer.install()
    try:
        for label, n in workload.systems:
            pkg.rootsys.build(label, n)
    finally:
        if tracer:
            tracer.uninstall()
    return perf_counter() - t0, pkg, tracer


def reset_caches(pkg):
    """Empty the package's functools caches: each pass starts like a new CLI call."""
    for mod in W.package_modules(pkg):
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checked = set()

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def run_pass(pkg, ops, tally, tracer=None, between_ops=None):
    """Run the ops in order, timing only the calls.

    Returns (seconds per op at nominal speed, raw seconds of the pass, outputs).
    `between_ops`, if given, is called before each op, outside its timing.
    """
    reset_caches(pkg)
    times, raw, outputs = [], 0.0, []
    for op in ops:
        if between_ops:
            between_ops()
        if tracer:
            tracer.op += 1
        before = reference.loop_s()
        t0 = perf_counter()
        try:
            out = op.run(pkg)
        except (Exception, SystemExit) as exc:
            out = None
            error = "%s: %r" % (op.key, exc)
        elapsed = perf_counter() - t0
        after = reference.loop_s()
        times.append(reference.rescale(elapsed, before, after))
        raw += elapsed
        outputs.append(out)
        tally.attempted += 1
        if out is None:
            tally.fail(error)
        elif W.digest(out) != op.expected:
            tally.fail("%s: output differs from the frozen one" % op.key)
        elif op.check and op.key not in tally.checked:
            tally.checked.add(op.key)
            problem = op.check(out)
            if problem:
                tally.fail(problem)
    return times, raw, outputs


def run_traced(pkg, ops, tally, tracer):
    """`run_pass` with the tracer's wrappers installed, and checked removed after."""
    tracer.install()
    try:
        result = run_pass(pkg, ops, tally, tracer)
    finally:
        tracer.uninstall()
    leftover = tracer.leftover_wrappers()
    if leftover:
        raise RuntimeError("wrappers left installed: %s" % leftover)
    return result


def attach_expected(ops, expected):
    """Give each op its frozen digest, unless it carries one already."""
    for op in ops:
        if op.expected is None:
            op.expected = expected.get(op.key)
    return ops


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical_pass_s(slot_times):
    """A typical pass: each slot (an operation, or a classify stratum) at its median."""
    return sum(statistics.median(times) for times in slot_times.values())


def end_to_end(workload, setup_times, slot_times, op_times):
    wall = typical_pass_s(slot_times)
    # one latency per distinct call: the median of its repeats in the run
    latencies = [statistics.median(times) for times in op_times.values()]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "items_per_s": workload.items / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p95_ms": 1000 * quantile(latencies, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(setup_tracer, tracer, ops, outputs):
    t = tracer.layer_times()
    s = setup_tracer.layer_times()
    c = tracer.counts
    built = t["cli.ideal_record"][0]
    kept = sum(op.records_kept(out) for op, out in zip(ops, outputs) if out is not None)
    return {
        "rootsys.build_s": s[tracing.BUILD_SPAN][1] + t[tracing.BUILD_SPAN][1],
        "rootsys.builds": s[tracing.BUILD_SPAN][0] + t[tracing.BUILD_SPAN][0],
        "ideals.enumerate_self_s": t["ideals.enumerate_ideals"][2],
        "ideals.is_minimax_s": t["ideals.is_minimax"][1],
        "ideals.is_minimax_calls": t["ideals.is_minimax"][0],
        "ideals.is_abelian_s": t["ideals.is_abelian"][1],
        "ideals.generators_s": t["ideals.generators"][1],
        "ideals.kept_ratio": _ratio(c["ideals.enumerate_ideals.yielded"], c["ideals.ad_base"]),
        "affine.w_min_self_s": t["affine.w_min"][2],
        "affine.element_from_inversions_s": t["affine.element_from_inversions"][1],
        "affine.length_s": t["affine.length"][1],
        "affine.elements_built": t["affine.element_from_inversions"][0],
        "affine.inversions_total": c["affine.inversions"],
        "lattice_count.count_minimax_self_s": t["lattice_count.count_minimax"][2],
        "lattice_count.solve_extended_system_s": t["lattice_count.solve_extended_system"][1],
        "lattice_count.points_swept": c["lattice_count.points"],
        "lattice_count.hit_ratio": _ratio(c["lattice_count.solutions"],
                                          c["lattice_count.points"]),
        "cli.main_self_s": t["cli.main"][2],
        "cli.ideal_record_self_s": t["cli.ideal_record"][2],
        "cli.records_built": built,
        "cli.records_kept": kept,
        "cli.kept_ratio": _ratio(kept, built),
        "cli.bytes_out": sum(len(out.encode()) for op, out in zip(ops, outputs)
                             if out is not None and isinstance(op, W.CliOp)),
    }


def write_spans(name, tracers):
    OUT_DIR.mkdir(exist_ok=True)
    origin = min((tr.spans[0][1] for tr in tracers if tr.spans), default=0.0)
    with open(OUT_DIR / ("%s-trace.tsv" % name), "w") as fh:
        fh.write("tracer\tspan\tname\tstart_s\tend_s\tparent\top\n")
        for k, tr in enumerate(tracers):
            for i, (span, start, end, parent, op) in enumerate(tr.spans):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (k, i, span, start - origin, end - origin, parent, op))


def run_workload(name, seed, seconds, trace, min_calls=None, setup_min=SETUP_MIN):
    """One benchmark run in this process; returns (summary lines, result object)."""
    W.check_tables()
    workload = W.WORKLOADS[name]
    if min_calls is None:
        min_calls = workload.min_calls
    expected = json.loads(W.EXPECTED_FILE.read_text())
    tally = Tally()
    tracers = []

    def new_tracer(pkg):
        tracers.append(tracing.Tracer(pkg, W.ad))
        return tracers[-1]

    def check_pair(ops, outputs, traced_outputs):
        for op, a, b in zip(ops, outputs, traced_outputs):
            if a != b:
                tally.fail("%s: traced output differs from untraced" % op.key)

    passes = workload.passes(seed)
    if trace:
        seconds_, pkg, setup_tracer = set_up(workload, new_tracer)
        setup_times = [seconds_]
        between_ops = None
        # warm-up: the interpreter specialises the code on first use, so the
        # first pass of a process would otherwise make the order of a pair matter
        run_pass(pkg, attach_expected(next(passes), expected), tally)
    else:
        _, pkg, _ = set_up(workload)
        sampler = SetupSampler(workload, seconds)
        between_ops = sampler.between_ops

    pass_times, raw_pass_times, layers = [], [], []
    slot_times, op_times = defaultdict(list), defaultdict(list)
    traced_slot_times = defaultdict(list)
    start = perf_counter()
    while True:
        began = perf_counter()
        ops = attach_expected(next(passes), expected)
        if trace:
            tracer = new_tracer(pkg)
            traced_first = len(pass_times) % 2 == 1
            if traced_first:
                traced_times, _, traced_outputs = run_traced(pkg, ops, tally, tracer)
            times, raw, outputs = run_pass(pkg, ops, tally)
            if not traced_first:
                traced_times, _, traced_outputs = run_traced(pkg, ops, tally, tracer)
            check_pair(ops, outputs, traced_outputs)
            for op, t in zip(ops, traced_times):
                traced_slot_times[op.slot].append(t)
            layers.append(per_layer(setup_tracer, tracer, ops, traced_outputs))
        else:
            times, raw, outputs = run_pass(pkg, ops, tally, between_ops=between_ops)
        pass_times.append(sum(times))
        raw_pass_times.append(raw)
        for op, t in zip(ops, times):
            slot_times[op.slot].append(t)
            op_times[op.key].append(t)
        # once the run has made its minimum number of distinct calls, stop where
        # it ends nearest to --seconds: before a pass that would end more than
        # half a pass late
        now = perf_counter()
        if len(op_times) >= min_calls and now - start + (now - began) / 2 > seconds:
            break
    if not trace:
        setup_times = sampler.finish(setup_min)
        raw_setup_times = sampler.raw_times
    else:
        raw_setup_times = setup_times

    if trace:
        metrics = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
        metrics["trace.overhead_ratio"] = (typical_pass_s(traced_slot_times)
                                           / typical_pass_s(slot_times))
        units = PER_LAYER
        write_spans(name, tracers)
    else:
        metrics = end_to_end(workload, setup_times, slot_times, op_times)
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    summary = [
        "workload=%s seed=%d trace=%d items/pass=%d" % (name, seed, trace, workload.items),
        "samples: passes=%d operations=%d distinct_calls=%d setups=%d" % (
            len(pass_times), tally.attempted, len(op_times), len(setup_times)),
        "fail_ratio=%.6g (%d of %d)" % (tally.failed / tally.attempted, tally.failed,
                                        tally.attempted),
        "pass_s=" + " ".join("%.4f" % t for t in pass_times),
        "raw_pass_s=" + " ".join("%.4f" % t for t in raw_pass_times),
        "raw_setup_s=%.4f (median)  host speed=%.3f of nominal (raw / nominal pass time)" % (
            statistics.median(raw_setup_times),
            statistics.median(t / r for t, r in zip(pass_times, raw_pass_times))),
    ]
    summary += ["problem: %s" % p for p in tally.problems]
    summary += ["%-40s %14.6g %s" % (k, metrics[k], unit)
                for k, unit in {**units, **PRINTED_ONLY}.items() if k in metrics]
    return summary, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def expire(signum, frame):
        raise TimeoutError("run exceeded %d s" % TIME_LIMIT_S)
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        summary, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except Exception as exc:
        print("benchmark could not run: %r" % (exc,), file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    for line in summary:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
