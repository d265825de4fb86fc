import argparse
import errno
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from adideals import affine as A
from adideals import cli
from adideals import ideals as I
from adideals import verify as V
from adideals.rootsys import build
from helpers import systems_up_to


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text_is_deterministic(capsys):
    code1, out1, _ = run(["enumerate", "--type", "B", "--rank", "3"], capsys)
    code2, out2, _ = run(["enumerate", "--type", "B", "--rank", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("# 20 record(s) for B3 class=all\n")


def test_enumerate_a2_has_five_records(capsys):
    code, out, _ = run(["enumerate", "--type", "A", "--rank", "2"], capsys)
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("gens=")) == 5


def test_enumerate_a1_minimax(capsys):
    code, out, _ = run(
        ["enumerate", "--type", "A", "--rank", "1", "--class", "minimax"], capsys
    )
    assert code == 0
    records = [line for line in out.splitlines() if line.startswith("gens=")]
    assert records == ["gens=- size=0 flags=PAMH rootlet=-1:[-1] len=0 y=(0)"]


def test_enumerate_f4_minimax_nonabelian(capsys):
    code, out, _ = run(
        ["enumerate", "--type", "F4", "--rank", "4", "--class",
         "minimax,non-abelian", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    for rec in payload["records"]:
        jsonschema.validate(rec, cli.IDEAL_RECORD_SCHEMA)


@pytest.mark.parametrize("label,rank", [("A", 3), ("C", 2), ("G2", 2)])
def test_json_records_validate_against_schema(label, rank, capsys):
    code, out, _ = run(
        ["enumerate", "--type", label, "--rank", str(rank), "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == cli.IDEAL_RECORD_SCHEMA_ID
    assert payload["count"] == len(payload["records"])
    for rec in payload["records"]:
        jsonschema.validate(rec, cli.IDEAL_RECORD_SCHEMA)


def test_enumerate_refuses_e8_without_force(capsys):
    code, out, err = run(["enumerate", "--type", "E8", "--rank", "8"], capsys)
    assert code == 2
    assert "25080" in err and "--force" in err
    assert out == ""


@pytest.mark.parametrize("label,rank,count", [("A", 11, 208012), ("B", 10, 184756),
                                              ("D", 10, 136136)])
def test_enumerate_refuses_large_text_dumps_without_force(label, rank, count, capsys,
                                                          monkeypatch):
    # the smallest systems with more than 100000 ideals: the work guard
    # refuses their text dumps before any ideal is visited
    def no_sweep(*args):
        raise AssertionError("the guard walked the ideals")

    monkeypatch.setattr(cli.I, "enumerate_ideals", no_sweep)
    start = time.perf_counter()
    code, out, err = run(["enumerate", "--type", label, "--rank", str(rank)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("refusing ")
    assert str(count) in err and "--force" in err


def test_enumerate_classifies_e7_without_force(capsys, monkeypatch):
    # the guard's estimate for all 4160 ideals of E7 is within budget; a stub
    # sweep of two ideals keeps the test short
    rs = build("E7", 7)
    few = [I.Ideal(rs, 0), I.Ideal(rs, (1 << rs.num_positive) - 1)]
    monkeypatch.setattr(cli.I, "enumerate_ideals", lambda rs, which="all": iter(few))
    code, out, err = run(["enumerate", "--type", "E7", "--rank", "7"], capsys)
    assert code == 0 and err == ""
    assert out.endswith("# 2 record(s) for E7 class=all\n")


def test_enumerate_classifies_e8_minimax_without_force(capsys, monkeypatch):
    # the guard bounds the work by the 834 minimax ideals, not all 25080
    rs = build("E8", 8)
    few = [I.Ideal(rs, 0)]
    monkeypatch.setattr(cli.I, "enumerate_ideals", lambda rs, which="all": iter(few))
    code, out, err = run(
        ["enumerate", "--type", "E8", "--rank", "8", "--class", "minimax"], capsys)
    assert code == 0 and err == ""
    assert out.endswith("# 1 record(s) for E8 class=minimax\n")


@pytest.mark.parametrize("klass", ["all", "minimax", "strictly-positive,abelian"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enumerate_force_skips_the_guard(klass, fmt, capsys, monkeypatch):
    argv = ["enumerate", "--type", "B", "--rank", "3", "--class", klass,
            "--format", fmt, "--force"]
    expected = run(argv, capsys)

    def no_guard(rs):
        raise AssertionError("--force computed the guard")

    for name in ("count_minimax", "count_AD", "count_AD0"):
        monkeypatch.setattr(cli.L, name, no_guard)
    assert run(argv, capsys) == expected


def test_enumerate_guard_counts_all_ideals_once(capsys, monkeypatch):
    calls = []
    count_AD = cli.L.count_AD
    monkeypatch.setattr(cli.L, "count_AD", lambda rs: calls.append(rs) or count_AD(rs))
    code, out, _ = run(["enumerate", "--type", "A", "--rank", "3", "--class",
                        "all,nontrivial,non-abelian"], capsys)
    assert code == 0 and len(calls) == 1
    assert out.endswith("# 6 record(s) for A3 class=all,nontrivial,non-abelian\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_refuses_a20_minimax_without_sweeping(fmt, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the guard swept the lattice")

    monkeypatch.setattr(cli.L, "solve_extended_system", no_sweep)
    monkeypatch.setattr(cli.I, "enumerate_ideals", no_sweep)
    start = time.perf_counter()
    code, out, err = run(["enumerate", "--type", "A", "--rank", "20", "--class",
                          "minimax", "--format", fmt], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "50852019" in err and "--force" in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_count_a20_minimax_without_sweeping(fmt, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the count swept the lattice")

    monkeypatch.setattr(cli.L, "solve_extended_system", no_sweep)
    start = time.perf_counter()
    code, out, err = run(["count", "--type", "A", "--rank", "20", "--quantity",
                          "minimax", "--format", fmt], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    shown = {"text": " value=50852019 ", "json": '"value": 50852019',
             "csv": ",50852019,"}
    assert shown[fmt] in out


@pytest.mark.parametrize("argv,value", [
    (["--type", "A", "--rank", "12", "--quantity", "minimax"], 15511),
    (["--type", "D", "--rank", "12", "--quantity", "minimax"], 29395),
    (["--type", "A", "--rank", "13", "--quantity", "minimax"], 41835),
    (["--type", "A", "--rank", "20", "--quantity", "AD"], 24466267020),
])
def test_count_high_ranks_without_sweeping(argv, value, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the count swept the lattice")

    monkeypatch.setattr(cli.L, "solve_extended_system", no_sweep)
    code, out, err = run(["count"] + argv, capsys)
    assert code == 0 and err == ""
    assert " value=%d " % value in out


def test_count_has_no_force_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--type", "A", "--rank", "2", "--quantity", "minimax",
                  "--force"])
    assert exc.value.code == 2
    assert "--force" in capsys.readouterr().err


def test_verify_exits_nonzero_on_mismatch(capsys, monkeypatch):
    from adideals import verify as V

    def broken_suite(name):
        return [V.CheckResult("motzkin", "stub", 1, 2)]

    monkeypatch.setattr(cli.V, "run_suite", broken_suite)
    code, out, _ = run(["verify", "--suite", "motzkin"], capsys)
    assert code == 1
    assert "FAIL" in out and "1 failure(s)" in out


def test_classify(capsys):
    code, out, _ = run(
        ["classify", "--type", "F4", "--rank", "4", "--generators",
         "[[1,2,1,1]]"], capsys)
    assert code == 0
    assert "size=9" in out and "y=(1,-1,0,1)" in out


def test_enumerate_csv(capsys):
    code, out, _ = run(
        ["enumerate", "--type", "A", "--rank", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("generators,size,")
    assert len(lines) == 6
    assert "1,1" in lines[-1] or any("1,1" in ln for ln in lines[1:])


def test_classify_json(capsys):
    code, out, _ = run(
        ["classify", "--type", "A", "--rank", "4", "--generators",
         "[[1,1,0,0],[0,0,1,1]]", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload["record"], cli.IDEAL_RECORD_SCHEMA)
    assert payload["record"]["minimax"] is True
    assert payload["record"]["size"] == 5


def test_classify_rejects_non_antichain(capsys):
    code, _, err = run(
        ["classify", "--type", "A", "--rank", "2", "--generators",
         "[[1,0],[1,1]]"], capsys)
    assert code == 2
    assert "comparable" in err


def test_count_formats(capsys):
    code, out, _ = run(
        ["count", "--type", "E8", "--rank", "8", "--quantity", "minimax"], capsys)
    assert code == 0 and "value=834" in out
    code, out, _ = run(
        ["count", "--type", "A", "--rank", "2", "--quantity",
         "heisenberg_nontrivial"], capsys)
    assert code == 0 and "value=4" in out
    code, out, _ = run(
        ["count", "--type", "C", "--rank", "8", "--quantity", "minimax",
         "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "C,8,minimax,750,lattice,True"
    code, out, _ = run(
        ["count", "--type", "D", "--rank", "5", "--quantity", "AD",
         "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 182


def test_invalid_rank_is_usage_error(capsys):
    code, _, err = run(
        ["count", "--type", "D", "--rank", "3", "--quantity", "AD"], capsys)
    assert code == 2
    assert "rank" in err


def test_unknown_class_token_is_usage_error(capsys):
    code, _, err = run(
        ["enumerate", "--type", "A", "--rank", "2", "--class", "bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_verify_suite_passes(capsys):
    code, out, _ = run(["verify", "--suite", "f4table"], capsys)
    assert code == 0
    assert "0 failure(s)" in out
    code, out, _ = run(
        ["verify", "--suite", "motzkin", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(r["ok"] for r in payload["results"])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enumerate_stats_go_to_stderr_only(fmt, capsys):
    argv = ["enumerate", "--type", "B", "--rank", "4", "--format", fmt]
    code, out, err = run(argv, capsys)
    stats_code, stats_out, stats_err = run(argv + ["--stats"], capsys)
    assert code == stats_code == 0
    assert stats_out == out and err == ""
    stats = json.loads(stats_err)
    assert stats["command"] == "enumerate"
    assert sorted(stats["seconds"]) == ["build", "walk_and_records", "write"]
    assert all(isinstance(s, float) for s in stats["seconds"].values())
    assert stats["method"] == "lattice"
    ideals = list(I.enumerate_ideals(build("B", 4)))
    assert stats["counters"] == {
        "records_written": len(ideals),
        "bytes_out": len(out.encode()),
        "growth_steps": sum(A.length(A.w_min(ideal)) for ideal in ideals),
    }


@pytest.mark.parametrize("klass,method", [
    ("all", "lattice"), ("non-abelian,nontrivial", "lattice"),
    ("minimax", "image_walk"), ("all,abelian", "image_walk"),
    ("strictly-positive", "image_walk"),
])
def test_enumerate_stats_name_the_record_route(klass, method, capsys):
    # growth_steps is the summed length of w_min on either route
    argv = ["enumerate", "--type", "C", "--rank", "4", "--class", klass]
    code, out, _ = run(argv, capsys)
    stats_code, stats_out, stats_err = run(argv + ["--stats"], capsys)
    assert code == stats_code == 0 and stats_out == out
    stats = json.loads(stats_err)
    assert stats["method"] == method
    kept = list(I.enumerate_ideals(build("C", 4), [t.replace("-", "_") for t in klass.split(",")]))
    assert stats["counters"]["records_written"] == len(kept)
    assert stats["counters"]["growth_steps"] == sum(A.length(A.w_min(i)) for i in kept)


LATTICE_CLASS_SETS = ["all", "nontrivial", "non-abelian", "all,nontrivial",
                      "all,non-abelian", "nontrivial,non-abelian"]


@pytest.mark.parametrize("label,rank", systems_up_to(5) + [("E6", 6)])
def test_lattice_records_equal_the_image_route(label, rank, capsys, monkeypatch):
    # the records read off D_min against `ideal_record` of each kept ideal,
    # and every format against the image route's output
    rs = build(label, rank)
    for klass in LATTICE_CLASS_SETS:
        kept = I.enumerate_ideals(rs, [t.replace("-", "_") for t in klass.split(",")])
        expected = [cli.ideal_record(ideal) for ideal in kept]
        argvs = [["enumerate", "--type", label, "--rank", str(rank), "--class", klass,
                  "--format", fmt, "--stats"] for fmt in ("text", "json", "csv")]
        outs = []
        for argv in argvs:
            code, out, err = run(argv, capsys)
            assert code == 0 and json.loads(err)["method"] == "lattice"
            outs.append(out)
        assert json.loads(outs[1])["records"] == expected
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_LATTICE_CLASSES", set())
            for argv, out in zip(argvs, outs):
                code, image_out, err = run(argv, capsys)
                assert json.loads(err)["method"] == "image_walk"
                assert image_out == out


@pytest.mark.parametrize("suite,fmt", [("f4table", "text"), ("f4table", "json"),
                                       ("all", "text")])
def test_verify_stats_go_to_stderr_only(suite, fmt, capsys):
    argv = ["verify", "--suite", suite, "--format", fmt]
    code, out, err = run(argv, capsys)
    stats_code, stats_out, stats_err = run(argv + ["--stats"], capsys)
    assert code == stats_code == 0
    assert stats_out == out and err == ""
    stats = json.loads(stats_err)
    assert stats["command"] == "verify"
    names = V.SUITE_NAMES if suite == "all" else (suite,)
    assert sorted(stats["seconds"]) == sorted(names)
    checks = (len(json.loads(out)["results"]) if fmt == "json"
              else int(out.splitlines()[-1].split()[1]))  # "# N check(s), ..."
    assert stats["counters"] == {"checks": checks, "failures": 0}


def test_verify_under_optimize_matches_in_process_run(capsys):
    # `python -O` strips asserts; the suites must pass and print the same
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for suite in ("heisenberg", "f4table"):
        argv = ["verify", "--suite", suite]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "adideals.cli"] + argv,
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=300,
        )
        code, out, _ = run(argv, capsys)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out


def test_minimax_enumeration_under_optimize_matches_in_process_run(capsys):
    # the minimax walk's pruning must not rest on an assert
    argv = ["enumerate", "--type", "E7", "--rank", "7", "--class", "minimax",
            "--format", "json"]
    proc = _python(["-O", "-m", "adideals.cli"] + argv, stdout=subprocess.PIPE)
    code, out, _ = run(argv, capsys)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out


def test_lattice_enumeration_under_optimize_matches_in_process_run(capsys):
    # the D_min walk and the JSON writer must not rest on an assert
    argv = ["enumerate", "--type", "E6", "--rank", "6", "--format", "json"]
    proc = _python(["-O", "-m", "adideals.cli"] + argv, stdout=subprocess.PIPE)
    code, out, _ = run(argv, capsys)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out


def test_tables(capsys):
    code, out, _ = run(["tables", "--which", "f4"], capsys)
    assert code == 0
    assert "-2delta+[2,2,1,0] | (1,1,-1,-1)" in out
    code, out, _ = run(["tables", "--which", "sequences"], capsys)
    assert code == 0
    assert "323" in out and "750" in out and "E8=834" in out
    code, out, _ = run(["tables", "--which", "fmm"], capsys)
    assert code == 0
    assert "F_mm(A4) = [1, 6, 2]" in out
    assert "empirical" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        ["count", "--type", "G2", "--rank", "2", "--quantity", "minimax",
         "--format", "csv", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert "G2,2,minimax,3,lattice,True" in target.read_text()


@pytest.mark.parametrize("argv", [
    ["classify", "--type", "A", "--rank", "2", "--generators", "5"],
    ["classify", "--type", "A", "--rank", "2", "--generators", "[1]"],
    ["classify", "--type", "A", "--rank", "2", "--generators", '[["1", 0]]'],
    ["classify", "--type", "A", "--rank", "2", "--generators", "[[true, 0]]"],
    ["classify", "--type", "A", "--rank", "2", "--generators", "[[1, 0, 0]]"],
    ["classify", "--type", "A", "--rank", "2", "--generators", "[[1,"],
    ["count", "--type", "A", "--rank", "2", "--quantity", "AD",
     "--out", "{tmp}/missing/x"],
    ["count", "--type", "A", "--rank", "2", "--quantity", "AD", "--out", "{tmp}"],
    # json.loads raises RecursionError on deep nesting
    ["classify", "--type", "A", "--rank", "2", "--generators", "[" * 100000],
])
def test_bad_input_exits_2_without_traceback(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.rglob("*")) == []  # no temporary file is left behind


def _python(args, **kwargs):
    """`python args` in a subprocess that imports this adideals, with stderr captured."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable] + args, env=dict(os.environ, PYTHONPATH=path),
        stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)


def _cli_process(argv, **kwargs):
    """`python -m adideals.cli argv` in a subprocess, with stderr captured."""
    return _python(["-m", "adideals.cli"] + argv, **kwargs)


@pytest.mark.parametrize("argv", [
    # small enough to stay buffered until main flushes it
    ["enumerate", "--type", "A", "--rank", "3"],
    # large enough to fail in the middle of the dump
    ["enumerate", "--type", "E6", "--rank", "6", "--format", "json"],
])
def test_closed_pipe_exits_2_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = _cli_process(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


# calls main in-process on a fresh broken pipe each time; the lowest free
# descriptor must not move, so no call leaves a descriptor open
_REPEATED_BROKEN_PIPES = """
import json, os, sys
from adideals import cli

def lowest_free_fd():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd

before = lowest_free_fd()
codes = []
for _ in range(3):
    read_end, write_end = os.pipe()
    os.close(read_end)
    os.dup2(write_end, sys.stdout.fileno())
    os.close(write_end)
    codes.append(cli.main(["enumerate", "--type", "E6", "--rank", "6", "--format", "json"]))
print(json.dumps([codes, before, lowest_free_fd()]), file=sys.stderr)
"""


def test_broken_pipe_leaks_no_descriptor():
    proc = _python(["-c", _REPEATED_BROKEN_PIPES], stdout=subprocess.DEVNULL)
    assert proc.returncode == 0
    codes, before, after = json.loads(proc.stderr)
    assert codes == [2, 2, 2] and after == before


def test_closed_stdout_exits_2_without_traceback():
    proc = _cli_process(["count", "--type", "A", "--rank", "2", "--quantity", "AD"],
                        preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output is closed\n"


def test_out_file_is_written_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.txt"
    argv = ["count", "--type", "A", "--rank", "2", "--quantity", "AD", "--out", str(target)]
    target.write_text("old content that is longer than the new report\n" * 10)
    code, out, _ = run(argv, capsys)
    assert code == 0 and out == ""
    report = "type=A rank=2 quantity=AD value=5 method=closed_form congruence_applied=False\n"
    assert target.read_text() == report
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def no_space(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    target.write_text("old\n")
    monkeypatch.setattr(cli.os, "replace", no_space)
    code, out, err = run(argv, capsys)
    assert code == 2 and "No space left on device" in err
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_an_interrupted_out_write_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    target = tmp_path / "report.txt"
    target.write_text("old\n")

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "chmod", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli._write_out(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]  # no temporary file is left behind


_STARTED = ("import sys; from adideals import cli; print('started', flush=True); "
            "sys.exit(cli.main(sys.argv[1:]))")


def test_an_interrupt_exits_130_without_traceback(tmp_path):
    # one child and one SIGINT, sent while the E8 records (about 3 s) are made
    target = tmp_path / "e8.json"
    target.write_text("old\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-c", _STARTED, "enumerate", "--type", "E8", "--rank", "8",
         "--force", "--format", "json", "--out", str(target)],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "started\n"
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=120)
    finally:
        child.kill()
    assert (child.returncode, out, err) == (130, "", "interrupted\n")
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


_AD_A2 = "type=A rank=2 quantity=AD value=5 method=closed_form congruence_applied=False\n"


def _count_to(out, capsys):
    return run(["count", "--type", "A", "--rank", "2", "--quantity", "AD", "--out", out],
               capsys)


def test_out_follows_a_symlink_to_a_file(tmp_path, capsys):
    target, link = tmp_path / "report.txt", tmp_path / "link"
    target.write_text("old\n")
    link.symlink_to(target)
    assert _count_to(str(link), capsys) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == _AD_A2
    assert sorted(tmp_path.iterdir()) == [link, target]  # no temporary file is left


def test_out_through_a_dangling_symlink_creates_its_target(tmp_path, capsys):
    target, link = tmp_path / "new.txt", tmp_path / "link"
    link.symlink_to(target)
    assert _count_to(str(link), capsys) == (0, "", "")
    assert link.is_symlink() and target.read_text() == _AD_A2


def test_out_symlink_loop_exits_2(tmp_path, capsys):
    link = tmp_path / "loop"
    link.symlink_to(link)
    code, out, err = _count_to(str(link), capsys)
    assert code == 2 and out == "" and err.startswith("error: cannot write %s: " % link)
    assert link.is_symlink() and list(tmp_path.iterdir()) == [link]


def test_out_writes_into_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert _count_to(str(fifo), capsys) == (0, "", "")
    reader.join(timeout=60)
    assert received == [_AD_A2]
    assert stat.S_ISFIFO(fifo.stat().st_mode) and list(tmp_path.iterdir()) == [fifo]


def test_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    target, hard = tmp_path / "report.txt", tmp_path / "hard.txt"
    target.write_text("old\n")
    target.chmod(0o600)
    os.link(target, hard)
    assert _count_to(str(target), capsys) == (0, "", "")
    assert target.read_text() == _AD_A2
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    # the file is replaced, not rewritten in place, so a hard link keeps the old content
    assert hard.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == [hard, target]


# the record flag each --class token keeps, read off an unfiltered sweep
RECORD_CLASSES = {
    "all": lambda rec: True,
    "strictly-positive": lambda rec: rec["strictly_positive"],
    "abelian": lambda rec: rec["abelian"],
    "non-abelian": lambda rec: not rec["abelian"],
    "minimax": lambda rec: rec["minimax"],
    "heisenberg-contained": lambda rec: rec["heisenberg_contained"],
    "nontrivial": lambda rec: rec["size"] > 0,
}


def test_class_tokens_are_the_record_classes():
    assert cli._class_tokens() == sorted(RECORD_CLASSES)


def _sweep(label, rank, klass, capsys):
    code, out, _ = run(["enumerate", "--type", label, "--rank", str(rank),
                        "--class", klass, "--format", "json"], capsys)
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("label,rank", [("A", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)])
@pytest.mark.parametrize("klass", sorted(RECORD_CLASSES)
                         + ["minimax,non-abelian", "nontrivial,heisenberg-contained"])
def test_filter_before_build_equals_build_then_filter(label, rank, klass, capsys):
    everything = _sweep(label, rank, "all", capsys)["records"]
    tokens = klass.split(",")
    expected = [rec for rec in everything
                if all(RECORD_CLASSES[t](rec) for t in tokens)]
    payload = _sweep(label, rank, klass, capsys)
    assert payload["class"] == klass
    assert payload["records"] == expected
    assert payload["count"] == len(expected)


def _assert_record_fields_match_w_min(ideal):
    # ideal_record reads length_min off the l-table and the other fields off
    # the images of w_min; the element w_min builds is the oracle
    rec = cli.ideal_record(ideal)
    w = A.w_min(ideal)
    nu, level = A.rootlet(w)
    point = A.lattice_image(w)
    assert rec["rootlet"] == {"level": level, "root": list(nu.coords)}
    assert rec["lattice_image"] == list(point)
    assert rec["y"] == A.y_coordinates(ideal.rs, point)
    assert rec["length_min"] == A.length(w)


@pytest.mark.parametrize("label,rank", systems_up_to(5) + [("E6", 6)])
def test_length_min_is_the_length_of_w_min(label, rank):
    for ideal in I.enumerate_ideals(build(label, rank)):
        _assert_record_fields_match_w_min(ideal)


@pytest.mark.parametrize("label,rank,stride", [("E7", 7, 10), ("E8", 8, 25)])
def test_record_fields_match_w_min_on_sampled_ideals(label, rank, stride):
    # every stride-th ideal in walk order; E8's stride keeps the test near 2 s
    for n, ideal in enumerate(I.enumerate_ideals(build(label, rank))):
        if n % stride == 0:
            _assert_record_fields_match_w_min(ideal)


def _outcomes(argvs, capsys):
    """(exit code, stdout, stderr) of each `cli.main` call, usage errors included."""
    out = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_main_builds_one_parser_tree_for_many_calls(capsys, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.make_parser()
    tree = len(made)
    assert tree == 1 + len(cli._HANDLERS)  # the top level and one per subcommand
    made.clear()
    cli._parser.cache_clear()
    # well-formed calls are read without argparse
    argvs = [["count", "--type", "A", "--rank", "3", "--quantity", q]
             for q in ("AD", "AD0", "minimax")]
    assert [code for code, _, _ in _outcomes(argvs, capsys)] == [0, 0, 0]
    assert made == []
    assert cli._parser.cache_info().misses == 0
    # calls that need argparse share one tree
    argvs = [["count", "--type", "A", "--rank=3", "--quantity", "AD"],
             ["count", "--type", "A", "--rank", "x", "--quantity", "AD"],
             ["count", "--type=A", "--rank", "4", "--quantity", "AD0"]]
    assert [code for code, _, _ in _outcomes(argvs, capsys)] == [0, 2, 0]
    assert len(made) == tree
    assert cli._parser.cache_info().misses == 1


# usage errors (exit 2 from argparse), a ValueError (exit 2 from main) and
# valid calls, interleaved
MIXED_CALLS = [
    ["count", "--type", "A", "--rank", "x", "--quantity", "AD"],
    ["count", "--type", "B", "--rank", "3", "--quantity", "minimax", "--format", "json"],
    ["bogus"],
    ["enumerate", "--type", "A", "--rank", "2", "--format", "csv"],
    ["count", "--type", "G2", "--rank", "2", "--quantity", "AD", "--class", "all"],
    [],
    ["count", "--type", "D", "--rank", "3", "--quantity", "AD"],
    ["classify", "--type", "A", "--rank", "2", "--generators", "[[1,1]]"],
    ["enumerate", "--type", "C", "--rank", "3", "--class", "minimax"],
    ["tables", "--which", "sequences"],
]


def test_cached_parser_after_usage_errors_matches_fresh_parsers(capsys, monkeypatch):
    cli._parser.cache_clear()
    cached = _outcomes(MIXED_CALLS, capsys)
    assert [code for code, _, _ in cached] == [2, 0, 2, 0, 2, 2, 2, 0, 0, 0]
    monkeypatch.setattr(cli, "_parser", cli.make_parser)  # a fresh parser per call
    assert _outcomes(MIXED_CALLS, capsys) == cached


@pytest.mark.parametrize("argv", [["--help"], ["count", "--help"], ["enumerate", "-h"]])
def test_help_of_the_cached_parser_matches_a_fresh_one(argv, capsys, monkeypatch):
    # help is formatted when printed, so a parser built at one width prints
    # at the width of the moment
    monkeypatch.setenv("COLUMNS", "200")
    cli._parser.cache_clear()
    assert cli._parser().format_help() == cli.make_parser().format_help()
    wide = _outcomes([argv], capsys)
    monkeypatch.setenv("COLUMNS", "50")
    cached = _outcomes([argv], capsys)
    assert cached != wide
    assert cached[0][0] == 0 and cached[0][1].startswith("usage: adideals")
    monkeypatch.setattr(cli, "_parser", cli.make_parser)
    assert _outcomes([argv], capsys) == cached


def test_parser_cache_is_lazy_and_cleared_with_the_package_caches():
    # not built at import: the cold start of a process pays nothing for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from adideals import cli; print(cli._parser.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr
    # emptying every cache_clear-able name of the module drops the parser too
    cli._parser()
    for value in list(vars(cli).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    assert cli._parser.cache_info().currsize == 0


# a valid call of every command, with its required options
WELL_FORMED = [
    ["enumerate", "--type", "B", "--rank", "3"],
    ["enumerate", "--rank", "4", "--type", "C", "--class", "minimax,abelian",
     "--format", "json", "--force", "--stats", "--out", "x.json", "--force"],
    ["classify", "--type", "A", "--rank", "2", "--generators", "[[1,1]]",
     "--format", "json"],
    ["count", "--type", "E8", "--rank", " 8", "--quantity", "heisenberg_nontrivial",
     "--format", "csv"],
    ["count", "--type", "A", "--rank", "+1_0", "--quantity", "AD", "--type", "D"],
    ["verify", "--suite", "all", "--stats", "--out", ""],
    ["tables"],
    ["tables", "--which", "fmm", "--out", "t.txt"],
]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_read_args_reads_well_formed_calls_as_argparse_does(argv):
    args = cli._read_args(argv)
    assert args is not None
    assert vars(args) == vars(cli.make_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [],
    [b"count"],  # not a str
    ["count", "--type", "A", "--rank", 3, "--quantity", "AD"],
    ["bogus", "--type", "A"],  # not a command
    ["--type", "A", "count"],
    ["count", "--type", "A", "--rank", "3", "--quantity", "AD", "--class", "all"],
    ["count", "--ty", "A", "--rank", "3", "--quantity", "AD"],  # abbreviated
    ["count", "--type=A", "--rank", "3", "--quantity", "AD"],
    ["count", "-h"],
    ["count", "--help"],
    ["count", "--", "--type", "A", "--rank", "3", "--quantity", "AD"],
    ["count", "--type", "A", "--rank", "3", "--quantity"],  # missing value
    ["count", "--type", "A", "--rank", "-3", "--quantity", "AD"],  # value starts with -
    ["enumerate", "--type", "A", "--rank", "3", "--out", "-"],
    ["count", "--type", "X", "--rank", "3", "--quantity", "AD"],  # outside the choices
    ["count", "--type", "A", "--rank", "x", "--quantity", "AD"],  # int() fails
    ["count", "--type", "A", "--rank", "", "--quantity", "AD"],
    ["count", "--type", "A", "--quantity", "AD"],  # missing required option
    ["classify", "--type", "A", "--rank", "2"],
    ["tables", "--which", "all", "sequences"],  # a stray value
    ["enumerate", "--type", "A", "--rank", "2", "--force", "yes"],
])
def test_read_args_leaves_every_other_argv_to_argparse(argv):
    assert cli._read_args(argv) is None


_OPTION_STRINGS = sorted({o[0] for _, options in cli._COMMANDS.values() for o in options})
_VALUES = ["A", "D", "E8", "G2", "X", "a", "3", "0", " 5", "-3", "+4", "1_0", "", "x",
           "json", "text", "csv", "xml", "AD", "AD0", "minimax", "heisenberg_nontrivial",
           "all", "abelian,minimax", "sequences", "f4", "fmm", "[[1,1]]", "[]",
           '[[1,0],[0,1]]', "[[1,", "out.txt"] + list(V.SUITE_NAMES)
_DASHED = ["-3", "-", "-h", "--help", "--", "--ty", "--stats", "--type"]
_NOISE = ["--ty", "--ra", "--quant", "--form", "--rank=3", "--type=A", "--format=json",
          "-h", "--help", "--", "count", "tables"]
# (option, value) pairs that some command reads, and its flags alone
_GOOD = [["--type", "A"], ["--type", "E8"], ["--rank", "3"], ["--rank", " 5"],
         ["--rank", "+4"], ["--rank", "1_0"], ["--quantity", "AD0"],
         ["--quantity", "heisenberg_nontrivial"], ["--generators", "[[1,1]]"],
         ["--class", "abelian,minimax"], ["--format", "json"], ["--format", "csv"],
         ["--out", "out.txt"], ["--out", ""], ["--suite", V.SUITE_NAMES[0]],
         ["--which", "f4"], ["--force"], ["--stats"]]
# valid pairs that give every option a command requires
_SYSTEM = [["--type", "A"], ["--rank", "3"]]
_REQUIRED = {"enumerate": _SYSTEM, "classify": _SYSTEM + [["--generators", "[[1,1]]"]],
             "count": _SYSTEM + [["--quantity", "AD"]]}


@st.composite
def _argvs(draw):
    """A command, most of the options it requires, pairs that some command reads,
    and now and then a pair or token from the whole vocabulary, shuffled."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["bogus", "-h", "--help"]))
    required = _REQUIRED.get(command, [])
    pairs = draw(st.permutations(required))[:draw(st.sampled_from([3, 3, 3, 2, 0]))]
    pairs += draw(st.lists(st.sampled_from(_GOOD), max_size=4))
    if draw(st.booleans()):
        pairs += draw(st.lists(st.one_of(
            st.tuples(st.sampled_from(_OPTION_STRINGS), st.sampled_from(_VALUES)),
            st.tuples(st.sampled_from(_OPTION_STRINGS), st.sampled_from(_DASHED)),
            st.tuples(st.sampled_from(_OPTION_STRINGS + _NOISE + _VALUES))),
            min_size=1, max_size=2))
    return [command] + [t for pair in draw(st.permutations(pairs)) for t in pair]


_ORACLE = cli.make_parser()


@given(_argvs())
@settings(derandomize=True, max_examples=600, deadline=None, database=None)
def test_read_args_agrees_with_argparse(argv):
    args = cli._read_args(argv)
    if args is not None:
        # a SystemExit here is a usage error that the reader let through
        assert vars(args) == vars(_ORACLE.parse_args(argv))


@pytest.mark.parametrize("argv", MIXED_CALLS + [["--help"], ["-h"]] + [
    [command, flag] for command in cli._COMMANDS for flag in ("--help", "-h")])
def test_main_gives_the_same_bytes_with_and_without_the_reader(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    direct = _outcomes([argv], capsys)
    monkeypatch.setattr(cli, "_read_args", lambda argv: None)
    assert _outcomes([argv], capsys) == direct
