"""Every command-line output of the corpus in `output_corpus` stays byte for
byte as frozen in `output_digests.txt`, plainly and under `python -O`."""

import json
import os
import pathlib
import subprocess
import sys

import output_corpus as oc


def test_the_corpus_is_the_frozen_call_list():
    labels = [oc.label(argv) for argv in oc.CALLS]
    assert len(set(labels)) == len(labels)
    assert labels == list(oc.read_digests())


def _mismatches(mode, outcomes):
    streams = ("exit code", "stdout", "stderr")
    return ["%s (%s): %s differs" % (oc.label(argv), mode, stream)
            for argv, got, frozen in zip(oc.CALLS, outcomes, oc.read_digests().values())
            for stream, a, b in zip(streams, got, frozen) if a != b]


def test_outputs_match_the_frozen_digests_plainly_and_under_optimize():
    # the -O run is one interpreter, working while this one runs the calls
    src = pathlib.Path(oc.cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    optimized = subprocess.Popen(
        [sys.executable, "-O", oc.__file__, "--print"], env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        plain = oc.outcomes()
        out, err = optimized.communicate(timeout=300)
    finally:
        optimized.kill()
    assert optimized.returncode == 0, err
    bad = _mismatches("plain", plain) + _mismatches("python -O", map(tuple, json.loads(out)))
    assert not bad, "%d outcome(s) differ:\n%s" % (len(bad), "\n".join(bad))
