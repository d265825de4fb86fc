#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json declares exactly the metrics run.py emits, with
names made of [A-Za-z0-9_.-]; that a traced call leaves every package
namespace as it found it; and that a smoke-sized run of each workload,
untraced and traced, fails no operation and emits exactly the declared
metrics.  Exits 1 on the first problem.  Takes two to three minutes.
"""

import json
import re
import sys

import run
import tracing
import workloads as W

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check(cond, message):
    if not cond:
        sys.exit("selfcheck: " + message)


def declared():
    bench = json.loads((W.HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in list(e2e) + list(layer):
        check(NAME.fullmatch(name), "bad metric name %r" % name)
    check(e2e == run.END_TO_END, "end_to_end in BENCHMARK.json != run.END_TO_END")
    check(layer == run.PER_LAYER, "per_layer in BENCHMARK.json != run.PER_LAYER")
    check(set(W.WORKLOADS) == {w["name"] for w in bench["workloads"]},
          "workloads in BENCHMARK.json != workloads.WORKLOADS")
    return e2e, layer


def check_unwrapped():
    pkg = W.load_package()
    before = {(m.__name__, k): v for m in W.package_modules(pkg) for k, v in vars(m).items()}
    init = pkg.rootsys.RootSystem.__init__
    tracer = tracing.Tracer(pkg, W.ad)
    tracer.install()
    try:
        pkg.rootsys.RootSystem("G2", 2)
        W.capture(pkg.cli.main, ["enumerate", "--type", "G2", "--rank", "2"])
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    check({"rootsys.build", "cli.main", "ideals.enumerate_ideals", "affine.w_min"} <= names,
          "traced call recorded only %s" % sorted(names))
    check(not tracer.leftover_wrappers(), "wrappers left: %s" % tracer.leftover_wrappers())
    after = {(m.__name__, k): v for m in W.package_modules(pkg) for k, v in vars(m).items()}
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not changed, "namespaces changed by tracing: %s" % changed)
    check(pkg.rootsys.RootSystem.__init__ is init, "RootSystem.__init__ not restored")


def main():
    e2e, layer = declared()
    check_unwrapped()
    for name in sorted(W.WORKLOADS):
        for trace, want in ((0, e2e), (1, layer)):
            min_calls = min(20, W.WORKLOADS[name].min_calls)
            _, result = run.run_workload(name, seed=1, seconds=0, trace=trace,
                                         min_calls=min_calls, setup_min=1)
            label = "%s --trace %d" % (name, trace)
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s: %d of %d operations failed" % (label, result["failed"],
                                                      result["attempted"]))
            metrics = result["metrics"]
            check(set(metrics) == set(want), "%s: metrics %s" % (label, sorted(metrics)))
            for key, m in metrics.items():
                check(m["unit"] == want[key] and isinstance(m["value"], (int, float)),
                      "%s: bad metric %s=%r" % (label, key, m))
            print("ok %s (%d operations, fail_ratio 0)" % (label, result["attempted"]))
    print("selfcheck passed")


if __name__ == "__main__":
    main()
