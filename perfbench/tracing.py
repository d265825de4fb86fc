"""Span recorder that wraps the package's public functions from outside.

A span is (name, start, end, parent, op): `parent` is the index of the span
open when it started (-1 at top level) and `op` numbers the benchmark
operation it belongs to.  Spans stay in memory until the run ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.

`Tracer.install` replaces each traced function in every `adideals` module
namespace that holds it (so `affine.is_minimax` is wrapped along with
`ideals.is_minimax`) and wraps `RootSystem.__init__` for the builds;
`uninstall` puts every original back.  Per-point helpers such as
`congruence_filter` are not wrapped: the points a sweep visits are derived
from its rank, 3^(p+1).
"""

import functools
from collections import defaultdict
from time import perf_counter

from workloads import package_modules

MARK = "__perfbench_span__"

# (module, function, kind); "gen" marks a generator, timed per resumption
TRACED = (
    ("ideals", "enumerate_ideals", "gen"),
    ("ideals", "is_minimax", "call"),
    ("ideals", "is_abelian", "call"),
    ("ideals", "generators", "call"),
    ("affine", "w_min", "call"),
    ("affine", "element_from_inversions", "call"),
    ("affine", "length", "call"),
    ("lattice_count", "count_minimax", "call"),
    ("lattice_count", "solve_extended_system", "call"),
    ("cli", "main", "call"),
    ("cli", "ideal_record", "call"),
)
BUILD_SPAN = "rootsys.build"


class Tracer:
    def __init__(self, package, ad_count):
        self.package = package
        self.ad_count = ad_count  # (type label, rank) -> number of ideals
        self.spans = []
        self.stack = []
        self.op = 0
        self.counts = defaultdict(int)
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1,
                           self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap_call(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count(name, args, result)
            return result
        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrap_gen(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(name, args, None)
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.counts[name + ".yielded"] += 1
                yield item
        setattr(wrapper, MARK, fn)
        return wrapper

    def _count(self, name, args, result):
        c = self.counts
        if name == "ideals.enumerate_ideals":
            rs = args[0]
            c["ideals.ad_base"] += self.ad_count(rs.type_label, rs.rank)
        elif name == "affine.element_from_inversions":
            c["affine.inversions"] += len(args[1])
        elif name == "lattice_count.solve_extended_system":
            c["lattice_count.points"] += 3 ** (args[0].rank + 1)
            c["lattice_count.solutions"] += len(result)

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = package_modules(self.package)
        for mod_name, fn_name, kind in TRACED:
            orig = getattr(getattr(self.package, mod_name), fn_name)
            name = "%s.%s" % (mod_name, fn_name)
            wrapper = (self._wrap_gen if kind == "gen" else self._wrap_call)(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        cls = self.package.rootsys.RootSystem
        self._patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap_call(BUILD_SPAN, cls.__init__)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def leftover_wrappers(self):
        """Names still bound to a wrapper; empty after `uninstall`."""
        owners = package_modules(self.package) + [self.package.rootsys.RootSystem]
        return ["%s.%s" % (getattr(o, "__name__", o), attr)
                for o in owners for attr, value in list(vars(o).items())
                if hasattr(value, MARK)]

    # -- results ------------------------------------------------------------

    def layer_times(self):
        """{span name: (calls, total seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out
