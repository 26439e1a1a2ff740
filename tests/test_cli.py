import json
import subprocess
import sys
from pathlib import Path

import pytest

from tensorcomplex import cli
from tensorcomplex.cli import main
from tensorcomplex.fields import TypedField, field_to_text
from tensorcomplex.poly import Poly3, monomials_up_to
from tensorcomplex.suites import SuiteConfig, check_config, run_suite

from conftest import FullStream, cli_env, run_cli


def test_identities_suite_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", "--suite", "identities", "--samples", "2", "--degree", "1", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["summary"]["pass"] == 11
    assert rep["summary"]["fail"] == 0
    assert all("anchor" in c and c["status"] == "pass" for c in rep["cases"])


def test_trivial_degree_zero_identities():
    cfg = SuiteConfig(suite="identities", seed=0, degree=0, samples=1)
    rep = run_suite(cfg)
    assert rep.all_passed


def test_degree_past_the_exponent_limit_is_one_line_exit_two(capsys):
    tables = monomials_up_to.cache_info()
    assert main(["run", "--suite", "all", "--samples", "1", "--degree", "256"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: degree 256 is past 255, the largest exponent a monomial can hold\n"
    assert captured.out == ""
    with pytest.raises(ValueError, match="degree 256 is past 255"):
        run_suite(SuiteConfig(suite="identities", degree=256))
    # No monomial table was asked for, let alone built.
    assert monomials_up_to.cache_info() == tables


def test_bad_config_leaves_the_out_path_as_it_was(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_bytes(b"12345678")
    for out in (new, old):
        assert main(["run", "--suite", "identities", "--samples", "1", "--degree", "256", "--out", str(out)]) == 2
    assert not new.exists()
    assert old.read_bytes() == b"12345678"


def test_config_checks_share_one_message():
    cfg = SuiteConfig(suite="nope")
    for check in (check_config, run_suite):
        with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from identities, .* or all$"):
            check(cfg)
    # each would pass every case with nothing checked
    for cfg in (SuiteConfig(suite="identities", seed=7, degree=-1), SuiteConfig(suite="identities", seed=7, samples=0),
                SuiteConfig(suite="identities", seed=7, samples=-3)):
        for check in (check_config, run_suite):
            with pytest.raises(ValueError, match="^degree must be >= 0 and samples >= 1$"):
                check(cfg)


def test_two_complex_suite_has_44_cases(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", "--suite", "two-complex", "--seed", "7", "--degree", "3", "--samples", "2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["summary"] == {"pass": 44, "fail": 0, "error": 0, "total": 44}


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--suite", "decompositions", "--seed", "7", "--samples", "2", "--degree", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_suite_exits_two():
    r = run_cli("run", "--suite", "nope")
    assert r.returncode == 2


def test_bad_flag_exits_two():
    for flag, value in (("--samples", "0"), ("--degree", "-1")):
        r = run_cli("run", "--suite", "identities", flag, value)
        assert (r.returncode, r.stderr, r.stdout) == (2, "error: degree must be >= 0 and samples >= 1\n", "")


def test_large_seed_accepted(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["run", "--suite", "identities", "--samples", "1", "--degree", "1",
         "--seed", str(2**63 - 1), "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 2**63 - 1


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORCOMPLEX_SEED", "99")
    out = tmp_path / "r.json"
    assert main(["run", "--suite", "identities", "--samples", "1", "--degree", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["seed"] == 99


def test_strict_preconditions_reports_errors(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "run", "--suite", "right-inverses", "--strict-preconditions",
            "--samples", "1", "--degree", "2", "--out", str(out),
        ]
    )
    assert code == 1
    rep = json.loads(out.read_text())
    errored = [c for c in rep["cases"] if c["status"] == "error"]
    assert errored, "moment-conditioned chains should reject unconstrained inputs in strict mode"
    assert all("witness" in c for c in errored)
    # the witness is a serialized field, recheckable by hand
    assert any("kind:" in c["witness"] for c in errored)


def test_markdown_format(tmp_path):
    out = tmp_path / "r.md"
    assert main(["run", "--suite", "cells", "--samples", "1", "--degree", "1", "--format", "markdown", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# Suite: cells")
    assert "| cell (1,1) |" in text


def test_dump_diagram_json(tmp_path):
    out = tmp_path / "d.json"
    assert main(["dump-diagram", "--flavor", "with-bc", "--format", "json", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["schema"] == 1
    assert len(d["nodes"]) == 16
    assert sum(1 for e in d["edges"] if e["orientation"] != "diagonal") == 24


def test_dump_diagram_flavors_share_operators(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["dump-diagram", "--flavor", "with-bc", "--out", str(a)])
    main(["dump-diagram", "--flavor", "no-bc", "--out", str(b)])
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert [e["op"] for e in da["edges"]] == [e["op"] for e in db["edges"]]
    assert da["nodes"] != db["nodes"]


def test_dump_diagram_markdown():
    r = run_cli("dump-diagram", "--format", "markdown")
    assert r.returncode == 0
    assert "| from | to | operator | scale |" in r.stdout


def test_timings_flag_adds_durations(tmp_path):
    out = tmp_path / "r.json"
    main(["run", "--suite", "identities", "--samples", "1", "--degree", "1", "--timings", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert all("duration_ms" in c for c in rep["cases"])


def test_default_report_has_no_timing_fields(tmp_path):
    out = tmp_path / "r.json"
    main(["run", "--suite", "identities", "--samples", "1", "--degree", "1", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert all("duration_ms" not in c for c in rep["cases"])


def test_bad_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("TENSORCOMPLEX_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "identities", "--samples", "1", "--degree", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "TENSORCOMPLEX_SEED must be an integer, got 'abc'" in err


@pytest.mark.parametrize("text", ["1_0", "\u0667", " 7 ", "+7"])
def test_env_seed_is_read_only_as_ascii_digits(monkeypatch, capsys, text):
    # int() reads each of these (as 10 or 7); only -?[0-9]+ is read
    monkeypatch.setenv("TENSORCOMPLEX_SEED", text)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "identities", "--samples", "1", "--degree", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"TENSORCOMPLEX_SEED must be an integer, got {text!r}")


@pytest.mark.parametrize(
    "flag, text", [("--seed", "1_0"), ("--seed", "+7"), ("--seed", " 7 "), ("--degree", "\u0660"), ("--samples", "\u0661")]
)
def test_integer_flags_are_read_only_as_ascii_digits(capsys, flag, text):
    args = {"--seed": "7", "--degree": "1", "--samples": "1", flag: text}
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "identities", *(word for pair in args.items() for word in pair)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {flag}: invalid integer value: {text!r}")


@pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("-7", -7), (str(2**64), 2**64)])
def test_integer_reads_ascii_digits(text, value):
    assert cli.integer(text) == value


def test_unwritable_out_path_is_one_line_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(["run", "--suite", "identities", "--samples", "1", "--degree", "1", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert captured.out == ""


def test_unwritable_out_path_is_found_before_any_case_runs(tmp_path, monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("run_suite was called")

    monkeypatch.setattr(cli, "run_suite", no_run)
    out = tmp_path / "missing" / "x.json"
    assert main(["run", "--suite", "all", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert captured.out == ""


def test_unwritable_dump_diagram_out_path_is_one_line_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "d.json"
    assert main(["dump-diagram", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [["run", "--suite", "identities", "--samples", "1", "--degree", "1"], ["dump-diagram", "--format", "markdown"]],
)
def test_failed_write_to_stdout_is_one_line_exit_two(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", FullStream())
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("args, stdin", [
    (("run", "--suite", "identities", "--samples", "1", "--degree", "1"), None),
    (("dump-diagram",), None),
    (("decompose", "cc"), field_to_text(TypedField.identity_scaled(Poly3.variable(1)))),
], ids=["run", "dump-diagram", "decompose"])
def test_a_closed_stdout_is_one_line_exit_two(args, stdin):
    # An interpreter started with fd 1 closed has no sys.stdout; it is refused as a failed write.
    r = run_cli(*args, input=stdin, closed=(1,))
    assert (r.returncode, r.stderr) == (2, "error: cannot write stdout: Bad file descriptor\n")
    # With stderr closed too there is nowhere to report, and still no traceback, which would exit 1.
    assert run_cli(*args, input=stdin, closed=(1, 2)).returncode == 2


def test_a_closed_stdout_is_found_before_any_case_runs(monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("run_suite was called")

    monkeypatch.setattr(cli, "run_suite", no_run)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["run", "--suite", "all"]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: Bad file descriptor\n"


def test_failed_write_to_the_out_path_is_one_line_exit_two(tmp_path, monkeypatch, capsys):
    # The path opens, but the disk is full: the write itself fails.
    out = tmp_path / "r.json"
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullStream(), raising=False)
    assert main(["run", "--suite", "identities", "--samples", "1", "--degree", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No space left on device\n"
    assert captured.out == ""


_RUN_ALL = Path(__file__).resolve().parents[1] / "scripts" / "run_all_suites.py"


def test_run_all_suites_bad_seed_is_one_line_exit_two(tmp_path):
    r = subprocess.run([sys.executable, str(_RUN_ALL), "abc", str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 2
    assert r.stderr == "run_all_suites.py: seed must be an integer, got 'abc'\n"
    assert r.stdout == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["1_0", "\u0667"])
def test_run_all_suites_reads_the_seed_only_as_ascii_digits(tmp_path, text):
    r = subprocess.run([sys.executable, str(_RUN_ALL), text, str(tmp_path)], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"run_all_suites.py: seed must be an integer, got {text!r}\n"
    assert not any(tmp_path.iterdir())


def test_run_all_suites_refuses_an_argument_past_the_outdir(tmp_path):
    r = subprocess.run([sys.executable, str(_RUN_ALL), "7", str(tmp_path), "extra-arg"], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "run_all_suites.py: unexpected argument 'extra-arg'\n"
    assert not any(tmp_path.iterdir())


def test_run_all_suites_bad_outdir_is_one_line_exit_two(tmp_path):
    outdir = tmp_path / "a-file" / "reports"
    outdir.parent.write_text("")
    r = subprocess.run([sys.executable, str(_RUN_ALL), "7", str(outdir)], capture_output=True, text=True)
    assert r.returncode == 2
    assert r.stderr == f"run_all_suites.py: cannot create {outdir}: Not a directory\n"
    assert r.stdout == ""


def test_run_all_suites_unwritable_report_is_one_line_exit_two(tmp_path):
    (tmp_path / "identities.json").mkdir()
    r = subprocess.run([sys.executable, str(_RUN_ALL), "7", str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 2
    assert r.stderr == f"run_all_suites.py: cannot write {tmp_path / 'identities.json'}: Is a directory\n"
    assert r.stdout == ""


@pytest.mark.parametrize("args", [
    ("run", "--suite", "pairings", "--degree", "1", "--samples", "1", "--format", "markdown"),
    ("dump-diagram", "--format", "markdown"),
])
def test_a_markdown_report_to_an_ascii_stdout_is_written_as_utf8(args):
    # The reports' ∘, ⊥ and ° have no ASCII form: stdout gets the bytes of a UTF-8 run, as --out does.
    ascii_run, utf8_run = (run_cli(*args, text=False, PYTHONIOENCODING=encoding) for encoding in ("ascii", "utf-8"))
    assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
    assert ascii_run.stdout == utf8_run.stdout and not ascii_run.stdout.isascii()


def test_run_all_suites_writes_utf8_reports_in_an_ascii_locale(tmp_path):
    # Under the C locale with neither coercion nor UTF-8 mode, the preferred encoding is ASCII.
    ascii_locale = cli_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    runs = {}
    for name, env in (("ascii", ascii_locale), ("utf-8", cli_env(PYTHONUTF8="1"))):
        r = subprocess.run([sys.executable, str(_RUN_ALL), "7", str(tmp_path / name)], capture_output=True, env=env)
        assert (r.returncode, r.stderr) == (0, b""), name
        runs[name] = {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
    assert len(runs["ascii"]) == 14 and runs["ascii"] == runs["utf-8"]
    assert not runs["ascii"]["pairings.md"].isascii()
