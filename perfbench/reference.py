"""A fixed piece of pure-Python work that measures how fast the host runs right now.

On a shared host the speed of one core drifts, by as much as a factor of two
within minutes, and it slows the package and any other Python code alike.
`run.py` times this loop on either side of every timed call and rescales the
call's time to the speed at which the loop takes `NOMINAL_S`, so that a run
made while the host is slow reads about the same as one made while it is
fast.  The loop shares no code with the package, so a change to the package
cannot move it.

This module imports nothing from the package: the set-up probes that time a
cold import in a fresh interpreter import it too.
"""

from time import perf_counter

ITERATIONS = 2000
REPEATS = 3
# the loop's time on an idle core of a shared 2-vCPU x86-64 VM with CPython 3.11
NOMINAL_S = 0.0006


def loop():
    """Dict, tuple and small-integer work, the kind the package does."""
    counts = {}
    acc = 0
    for i in range(ITERATIONS):
        key = (i & 15, (i >> 4) & 15, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc += sum(key) if key[0] else -key[1]
    return acc


def loop_s():
    """The fastest of a few back-to-back runs of the loop: an interrupt only slows one."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        loop()
        best = min(best, perf_counter() - t0)
    return best


def rescale(seconds, before, after):
    """`seconds` at nominal speed, from the loop's times just before and just after."""
    return seconds * 2 * NOMINAL_S / (before + after)
