import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdtensor
from sdtensor import cli
from sdtensor.cli import main

# (arguments, exit code, byte length, sha256) of small reports, pinned so
# that any change to their bytes, witness order included, is caught.
GOLDEN_REPORTS = [
    ("classes --n 2", 0, 1320,
     "1a5b741014569628a6744e480b59c2f177dfa464a44a90d7022e6665aa22a917"),
    ("classes --n 2 --format pretty", 0, 195,
     "2c3bc1281dfb33bc222fcfa1390ffdd6802a0f30d81da2418483233e94a7690e"),
    ("table --n 2", 0, 11880,
     "110dbbf6788538f6a904feeadbe0255e377e8d5a21d8bdefa89b76048b26e2e9"),
    ("table --n 2 --format csv", 0, 1559,
     "a080729d8e8ff5463e8e586a31c50c3dc6291e04304b7c7359f6edcbd2e45255"),
    ("table --n 3 --format pretty", 0, 3432,
     "5ce6731d9d0a1fa791b4a528c068d9776f4880e71e53d5969164af173a0314e0"),
    ("dims --n 2 --m 2", 0, 1089,
     "ae080642653b6135985eafc01fe40f58c6ec10e2a72e82d61e0486050f09b166"),
    ("dims --n 2 --m 2 --format pretty", 0, 322,
     "ed372e3ebb10fd10954e8f09e1d070238cf32090eed99ccab5c21f736152b350"),
    ("orbits --n 2 --m 2 --char zeta:2", 0, 11424,
     "40d7e94452380a65bd21cb0bed3578381a7f2bbc4a37a42c3287d21733f532f1"),
    ("orbits --n 2 --m 2 --format pretty", 0, 776,
     "6f44183edb1f1e5a4cf8155633d43514032b4798238fb22cb68cef104a048009"),
    ("basis --n 2 --m 2 --char all", 0, 84720,
     "29d0edeabb6888d96ea2293834833bee93336afb773b0f44183b90e15791020a"),
    ("basis --n 3 --m 2 --char zeta:2 --format pretty", 0, 7816,
     "e7fcf2dbba2484588b9f6d9b87c0b981594c0877776dae0e9470811dcc339e23"),
    ("verify --n 2", 0, 1252,
     "c33065c5b8afdc335a2686d41f540586c5531d29da92f00a5f8829f76f9b0610"),
    ("verify --n 2 --format pretty", 0, 612,
     "a8bba20556e388bd1f67ea4b873b878dc5c3bb879819c5ff381b919e5f33a9bc"),
    ("verify --n 2 --m 2", 1, 2205,
     "fa3a0934cc4d00d4efff12664727fdad01e85e14c939cb3c35a571739fa23255"),
]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, length, sha256", GOLDEN_REPORTS, ids=[g[0] for g in GOLDEN_REPORTS])
def test_golden_report_bytes(capsys, argv, code, length, sha256):
    got_code, out, _ = run_cli(capsys, *argv.split())
    data = out.encode()
    assert (got_code, len(data), hashlib.sha256(data).hexdigest()) == (code, length, sha256)


def test_classes_json(capsys):
    code, out, _ = run_cli(capsys, "classes", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 7
    assert payload["group_order"] == 16
    sizes = [c["size"] for c in payload["classes"]]
    assert sorted(sizes) == [1, 1, 2, 2, 2, 4, 4]


def test_classes_pretty(capsys):
    code, out, _ = run_cli(capsys, "classes", "--n", "3", "--format", "pretty")
    assert code == 0
    assert "12 conjugacy classes" in out


def test_json_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "--n", "3")
    _, second, _ = run_cli(capsys, "table", "--n", "3")
    assert first == second
    # the second run answers from the decision cache
    _, fresh, _ = run_cli(capsys, "basis", "--n", "2", "--m", "2", "--char", "zeta:2")
    _, cached, _ = run_cli(capsys, "basis", "--n", "2", "--m", "2", "--char", "zeta:2")
    assert fresh == cached


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "character,1,a,a^2,a^4,a^5,b,ba"
    assert len(lines) == 8  # header + 7 characters
    assert lines[1].startswith("chi:0,")
    # exact coordinates and a float rendering share each cell
    assert "(1;0;0;0) +1.000000+0.000000i" in lines[1]


def test_table_json_entries(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2")
    payload = json.loads(out)
    assert [row["character"] for row in payload["rows"]] == [
        "chi:0", "chi:1", "chi:2", "chi:3", "zeta:2", "psi:1", "psi:5",
    ]
    chi0 = payload["rows"][0]["values"]
    assert all(v["exact"]["coeffs"] == [1, 0, 0, 0] for v in chi0)


def test_dims_m1(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    by_char = {d["character"]: d["general"] for d in payload["dims"]}
    assert by_char == {
        "chi:0": 1, "chi:1": 0, "chi:2": 0, "chi:3": 0,
        "zeta:2": 0, "psi:1": 0, "psi:5": 0,
    }
    assert payload["total_identity_holds"] is True


def test_dims_flags_closed_form_defects(capsys):
    _, out, _ = run_cli(capsys, "dims", "--n", "2", "--m", "2")
    payload = json.loads(out)
    psi1 = next(d for d in payload["dims"] if d["character"] == "psi:1")
    assert psi1["general"] == 60 and psi1["closed_form"] == 30
    assert psi1["agree"] is False and "note" in psi1


def test_orbits_listing(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--n", "2", "--m", "2", "--char", "zeta:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_count"] == 27
    marked = next(
        o for o in payload["orbits"] if o["representative"] == [1, 2, 2, 2, 2, 2, 2, 2]
    )
    assert marked["orbit_size"] == 8
    assert marked["stabilizer"] == ["1", "ba^2"]
    assert marked["in_delta_bar"] is True


def test_basis_decision_agreeing_case(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "3", "--m", "2", "--char", "zeta:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] is False
    assert payload["exhaustive"] is False
    assert payload["agree"] is True
    assert any("failure" in o for o in payload["orbits"])


def test_basis_decision_disagreeing_case(capsys):
    # the psi prediction is falsified by the exhaustive search at even n;
    # the report carries both verdicts side by side
    code, out, _ = run_cli(capsys, "basis", "--n", "2", "--m", "2", "--char", "psi:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] is False
    assert payload["exhaustive"] is True
    assert payload["agree"] is False
    assert all("witness" in o for o in payload["orbits"])


def test_budget_refusal_exit_code(capsys):
    code, _, err = run_cli(capsys, "orbits", "--n", "3", "--m", "3", "--budget", "100")
    assert code == 3
    assert "refused" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SDTENSOR_BUDGET", "10")
    code, _, err = run_cli(capsys, "orbits", "--n", "2", "--m", "2")
    assert code == 3
    # an explicit flag overrides the environment default
    code, out, _ = run_cli(capsys, "orbits", "--n", "2", "--m", "2", "--budget", "300")
    assert code == 0


def test_negative_budget_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "orbits", "--n", "2", "--m", "2", "--budget", "-5")
    assert (code, out) == (2, "")
    assert "budget must be >= 0" in err
    monkeypatch.setenv("SDTENSOR_BUDGET", "-5")
    code, out, err = run_cli(capsys, "orbits", "--n", "2", "--m", "2")
    assert (code, out) == (2, "")
    assert "budget must be >= 0" in err


def test_bad_character_spec_exit_code(capsys):
    code, _, err = run_cli(capsys, "basis", "--n", "2", "--m", "2", "--char", "zeta:3")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classes"])  # missing --n
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "classes --n 2",
        "dims --n 2 --m 2",
        "orbits --n 2 --m 2",
        "basis --n 2 --m 2 --char zeta:2",
        "verify --n 2",
    ],
)
def test_csv_outside_the_table_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "csv format is only available for the character table" in captured.err


def test_jobs_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--n", "2", "--m", "2", "--char", "zeta:2", "--jobs", "2"])
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "classes", "--n", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["class_count"] == 7


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "classes", "--n", "2", "--output", str(target))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_closed_pipe_is_an_io_error():
    # the report (84,720 bytes) outgrows the pipe buffer, so writing it
    # fails once the reader has gone
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdtensor", "basis", "--n", "2", "--m", "2", "--char", "all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 4
    assert "Traceback" not in err
    assert "Exception ignored" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


INTERNAL_EXCEPTIONS = [
    RuntimeError("orbit construction is inconsistent"),
    ZeroDivisionError("exact_div by zero"),
    MemoryError(),
]


@pytest.mark.parametrize("exc", INTERNAL_EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_internal_failure_while_building_exits_5(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "classes", (fail, cli.COMMANDS["classes"][1]))
    code, out, err = run_cli(capsys, "classes", "--n", "2")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal error: ") and len(err.splitlines()) == 1
    assert (str(exc) or type(exc).__name__) in err


@pytest.mark.parametrize("exc", INTERNAL_EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_internal_failure_while_emitting_exits_5(capsys, monkeypatch, exc):
    def fail(report, output):
        raise exc

    monkeypatch.setattr(cli, "_emit", fail)
    code, out, err = run_cli(capsys, "classes", "--n", "2")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal error: ") and len(err.splitlines()) == 1


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c", "import sys, sdtensor.cli; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
        timeout=60,
    )


def test_verify_group_level(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--format", "pretty")
    assert code == 0
    assert "all checks passed" in out


def test_verify_with_alphabet_n3(capsys):
    # at odd n every check passes, including criterion equivalence
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--m", "2", "--format", "pretty")
    assert code == 0
    assert "criterion_equivalence" in out


def test_verify_reports_prediction_failure_at_even_n(capsys):
    # at n=2 the exhaustive search contradicts the psi prediction; verify
    # surfaces that honestly with a nonzero exit code
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--m", "2")
    assert code == 1
    payload = json.loads(out)
    failing = [c for c in payload["checks"] if not c["ok"]]
    assert [c["name"] for c in failing] == ["criterion_equivalence"]
    assert "psi:1" in failing[0]["detail"]
