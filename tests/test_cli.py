import errno
import fcntl
import hashlib
import io
import json
import mmap
import os
import struct
import subprocess
import sys
import termios
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdtensor
from sdtensor import cli, symclass, verify
from sdtensor.cli import main

# (arguments, exit code, byte length, sha256) of reports, pinned so
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
    # The reports of the benchmark's verify-orbits, verify-table and dims-large workloads.
    ("verify --n 3 --m 3", 0, 2193,
     "51a7d834eedf23dfa6890979b434bcea59384129da1fc7cf4911994c2076eb1e"),
    ("verify --n 20", 0, 1258,
     "f39aa04b99ab59c54af7d8c53079706169961d367e91f5f479770d481d2e57fd"),
    ("dims --n 48 --m 3", 0, 34445,
     "f63ca841ecc13d1b2f225d20b6ed74864e5d90ffd58a1fab0d2185be0b534df8"),
]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(capsys, argv, code, length, sha256):
    got_code, out, _ = run_cli(capsys, *argv.split())
    data = out.encode()
    assert (got_code, len(data), hashlib.sha256(data).hexdigest()) == (code, length, sha256)


@pytest.mark.parametrize("argv, code, length, sha256", GOLDEN_REPORTS, ids=[g[0] for g in GOLDEN_REPORTS])
def test_golden_report_bytes(capsys, argv, code, length, sha256):
    assert_golden(capsys, argv, code, length, sha256)


def written_json(payload) -> str:
    out = io.StringIO()
    cli._write_json(out, payload)
    return out.getvalue()


def dumped_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


JSON_KEYS = st.text() | st.sampled_from(["", '"', "\\", "\x00\x1f\n\t\u2028", "é✓", "\ud800"])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | JSON_KEYS
    | st.lists(st.integers() | st.booleans())
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(JSON_KEYS, children)
        | st.dictionaries(st.integers(), children)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(payload):
    assert written_json(payload) == dumped_json(payload)


def test_json_writer_rejects_what_json_rejects():
    for payload in ({"a": [1, object()]}, [{1, 2}], {"k": {(1, 2): 3}}):
        with pytest.raises(TypeError):
            written_json(payload)


@pytest.mark.parametrize("argv", [g[0] for g in GOLDEN_REPORTS if "--format" not in g[0]])
def test_json_writer_matches_json_dumps_on_golden_payloads(argv):
    args = cli.build_parser().parse_args(argv.split())
    payload = cli.COMMANDS[args.command][0](args)
    assert written_json(payload) == dumped_json(payload)


class RecordingFile(io.StringIO):
    """A text file that remembers the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_json_report_is_streamed_in_bounded_writes(monkeypatch):
    stdout = RecordingFile()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["basis", "--n", "2", "--m", "2", "--char", "all"]) == 0
    data = stdout.getvalue().encode()
    (pinned,) = [g[2:] for g in GOLDEN_REPORTS if g[0] == "basis --n 2 --m 2 --char all"]
    assert (len(data), hashlib.sha256(data).hexdigest()) == pinned
    assert len(stdout.sizes) > 1
    assert max(stdout.sizes) <= cli._WRITE_CHARS


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


def test_over_budget_verify_is_refused(capsys, monkeypatch):
    # refused before any check runs, not reported as a passing partial suite
    def fail(n):
        raise AssertionError("a check ran before the enumeration")

    monkeypatch.setattr(verify.group, "conjugacy_classes", fail)
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--m", "2", "--budget", "10")
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", ["basis --n 2 --m 2 --char all", "verify --n 2 --m 2"])
def test_one_enumeration_per_request(capsys, monkeypatch, argv):
    calls = []
    enumerate_orbits = symclass.orbits

    def counted(*args):
        calls.append(args)
        return enumerate_orbits(*args)

    monkeypatch.setattr(symclass, "orbits", counted)
    run_cli(capsys, *argv.split())
    assert len(calls) == 1


def test_orbits_report_reads_each_orbits_stabilizer(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("stabilizer scanned again")

    monkeypatch.setattr(symclass, "stabilizer_char_sum", fail)
    golden = GOLDEN_REPORTS[7]
    assert golden[0] == "orbits --n 2 --m 2 --char zeta:2"
    assert_golden(capsys, *golden)


def test_negative_budget_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "orbits", "--n", "2", "--m", "2", "--budget", "-5")
    assert (code, out) == (2, "")
    assert "budget must be >= 0" in err
    monkeypatch.setenv("SDTENSOR_BUDGET", "-5")
    code, out, err = run_cli(capsys, "orbits", "--n", "2", "--m", "2")
    assert (code, out) == (2, "")
    assert "budget must be >= 0" in err


@pytest.mark.parametrize("source", ["flag", "environment"])
@pytest.mark.parametrize(
    "argv",
    [
        "classes --n 2",
        "table --n 2",
        "dims --n 2 --m 2",
        "orbits --n 2 --m 2",
        "basis --n 2 --m 2 --char zeta:2",
        "verify --n 2",
    ],
)
def test_negative_budget_is_a_usage_error_on_every_subcommand(capsys, monkeypatch, argv, source):
    args = argv.split()
    if source == "flag":
        args += ["--budget", "-5"]
    else:
        monkeypatch.setenv("SDTENSOR_BUDGET", "-5")
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: the sequence budget must be >= 0, got -5"]


def test_non_integer_budget_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SDTENSOR_BUDGET", "1e7")
    code, out, err = run_cli(capsys, "dims", "--n", "2", "--m", "2")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: SDTENSOR_BUDGET must be an integer, got '1e7'"]


def test_bad_character_spec_exit_code(capsys):
    code, _, err = run_cli(capsys, "basis", "--n", "2", "--m", "2", "--char", "zeta:3")
    assert code == 2
    assert "error" in err


def test_orbits_rejects_a_bad_character_before_enumerating(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("orbits enumerated before the character was parsed")

    monkeypatch.setattr(symclass, "orbits", fail)
    code, out, err = run_cli(capsys, "orbits", "--n", "4", "--m", "2", "--char", "chi:99")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_orbits_with_every_character_is_a_usage_error(capsys):
    # one report carries one character's Omega flags; "all" would drop them
    code, out, err = run_cli(capsys, "orbits", "--n", "2", "--m", "2", "--char", "all")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
    assert os.listdir(tmp_path) == ["report.json"]


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "classes", "--n", "2", "--output", str(target))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_failed_write_keeps_the_previous_report(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")

    def disk_full(fh, payload):
        fh.write('{"class_count": ')
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_json", disk_full)
    code, out, err = run_cli(capsys, "classes", "--n", "2", "--output", str(target))
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert target.read_text() == "previous report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_output_through_a_symlink_keeps_the_link(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")
    link = tmp_path / "latest.json"
    link.symlink_to("report.json")
    code, out, _ = run_cli(capsys, "classes", "--n", "2", "--output", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink() and os.readlink(link) == "report.json"
    assert json.loads(target.read_text())["class_count"] == 7
    assert sorted(os.listdir(tmp_path)) == ["latest.json", "report.json"]


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    expected = run_cli(capsys, "classes", "--n", "2")[1].encode()
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, _ = run_cli(capsys, "classes", "--n", "2", "--output", str(fifo))
    reader.join(timeout=30)
    assert (code, out) == (0, "")
    assert received == [expected]
    assert os.listdir(tmp_path) == ["report.fifo"] and fifo.is_fifo()


def test_output_file_in_a_read_only_directory_is_written_in_place(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")
    tmp_path.chmod(0o555)
    try:
        if os.access(tmp_path, os.W_OK):
            pytest.skip("this process may write any directory")
        code, out, _ = run_cli(capsys, "classes", "--n", "2", "--output", str(target))
    finally:
        tmp_path.chmod(0o755)
    assert (code, out) == (0, "")
    assert json.loads(target.read_text())["class_count"] == 7
    assert os.listdir(tmp_path) == ["report.json"]


def test_output_to_an_inherited_pipe_path():
    # as a shell's process substitution passes it: /dev/fd/<n> names a pipe
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as reader:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sdtensor", "classes", "--n", "2",
             "--output", f"/dev/fd/{write_fd}"],
            pass_fds=(write_fd,),
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_fd)
        report = reader.read()
    assert proc.wait(timeout=60) == 0
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert json.loads(report)["class_count"] == 7


def _spawn_basis_report(**env):
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]), **env)
    return subprocess.Popen(
        [sys.executable, "-m", "sdtensor", "basis", "--n", "2", "--m", "2", "--char", "all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def _read_exactly(fd, size):
    # os.read, not the buffered pipe object, which would drain up to a page more
    head = b""
    while len(head) < size and (chunk := os.read(fd, size - len(head))):
        head += chunk
    return head


def test_closed_pipe_is_an_io_error():
    # the report (84,720 bytes) outgrows the pipe buffer, so writing it
    # fails once the reader has gone
    proc = _spawn_basis_report()
    assert len(_read_exactly(proc.stdout.fileno(), 100)) == 100
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 4
    assert "Traceback" not in err
    assert "Exception ignored" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_closed_pipe_mid_write_is_an_io_error_with_unbuffered_stdout():
    # Unbuffered, sys.stdout drops the rest of a short write.  Reading one
    # page frees one page of the pipe, so the child's next write puts some
    # bytes in and blocks; closing the pipe then makes that write return
    # short, and the report must still fail rather than end truncated with
    # exit 0.
    proc = _spawn_basis_report(PYTHONUNBUFFERED="1")
    fd = proc.stdout.fileno()
    assert len(_read_exactly(fd, mmap.PAGESIZE)) == mmap.PAGESIZE
    waiting, previous = 0, -1
    while waiting < 3:
        time.sleep(0.1)
        held = struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0\0\0\0"))[0]
        waiting = waiting + 1 if held == previous else 0
        previous = held
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 4
    assert err.startswith("error: cannot write the report: ") and len(err.splitlines()) == 1


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
