"""The command-line entry point, run as a separate interpreter, and its
report of an internal error, run in process."""

import os
import subprocess
import sys
from pathlib import Path

from sizedcheck import cli

from conftest import CORPUS

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sizedcheck", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


def test_module_entry_point_runs_golden_without_warnings():
    r = run_cli("golden", str(CORPUS))
    assert r.returncode == 0, r.stdout + r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert r.stdout.count("PASS ") == len(list(CORPUS.glob("*/*.ma")))


def test_internal_error_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    # an exception that is not a diagnostic, raised on the worker thread
    # that checks, is reported on the caller's
    def crash(source):
        raise RecursionError("maximum recursion depth exceeded")

    src = tmp_path / "any.ma"
    src.write_text("let x : Set = Set\n")
    monkeypatch.setattr(cli, "parse_source", crash)
    assert cli.main(["check", str(src)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: RecursionError: ")


def test_size_offset_past_the_bound_is_a_diagnostic(tmp_path):
    src = tmp_path / "offset.ma"
    src.write_text("sized data SNat : Size -> Set\n{ zero : [i : Size] -> SNat ($ i)\n}\n"
                   f"let T : [i : Size] -> SNat i -> SNat ({'$' * 70000} i) = \\ i -> \\ n -> n\n")
    r = run_cli("check", str(src))
    assert r.returncode == 1
    assert r.stderr == f"LIMIT {src}:4:1 size offset exceeds 65536\n"
    assert "65536" in " ".join(run_cli("--help").stdout.split())


def test_constraint_dump_is_printed_on_rejection():
    r = run_cli("check", "--print-constraints", str(CORPUS / "reject" / "deep_rewritten.ma"))
    assert r.returncode == 1
    assert r.stdout.splitlines() == [
        "-- deep clause 1",
        "j2 <= m1+2",
        "m1+1 <= m2",
        "m2+1 <= m3",
        "j2 <= m3",
        "m3+1 <= m4",
    ]
    assert r.stderr.startswith("UNSOLVED-META ")


def test_blank_expectation_header_is_malformed(tmp_path):
    (tmp_path / "accept").mkdir()
    (tmp_path / "accept" / "one.ma").write_text("let T : Set = Set\n")
    (tmp_path / "accept" / "one.expect").write_text("\nACCEPT\n")
    r = run_cli("golden", str(tmp_path))
    assert r.returncode == 2
    assert r.stderr.startswith("error: malformed expectation ")


def test_undecodable_source_cannot_be_read(tmp_path):
    bad = tmp_path / "latin1.ma"
    bad.write_bytes("let café : Set = Set\n".encode("latin-1"))
    r = run_cli("check", str(bad))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {bad}: ")


def test_dangling_golden_source_cannot_be_read(tmp_path):
    (tmp_path / "accept").mkdir()
    src = tmp_path / "accept" / "gone.ma"
    src.symlink_to(tmp_path / "nowhere.ma")
    (tmp_path / "accept" / "gone.expect").write_text("ACCEPT\n")
    r = run_cli("golden", str(tmp_path))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {src}: ")


def test_explain_totality_shows_the_calls_of_a_rejected_function():
    spin = CORPUS / "reject" / "spin.ma"
    r = run_cli("check", "--explain-totality", "spin", str(spin))
    assert r.returncode == 1
    assert r.stdout.splitlines() == ["spin: rejected", "  call spin at 9:21: size <= args [? eq]"]
    assert r.stderr == run_cli("check", str(spin)).stderr
    assert r.stderr.startswith("TERMINATION ")


def test_golden_rejects_the_options_only_check_reads():
    for flag in ("--print-constraints", "--explain-totality=spin"):
        r = run_cli("golden", flag, str(CORPUS))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "unrecognized arguments: " + flag in r.stderr


def test_closed_stdout_exits_2_quietly():
    # the reading end of the pipe is closed before the checker writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = run_cli("golden", str(CORPUS), stdout=write_end)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (2, "")
