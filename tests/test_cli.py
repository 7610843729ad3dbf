import collections
import enum
import errno
import fcntl
import hashlib
import io
import json
import mmap
import os
import pty
import select
import signal
import struct
import subprocess
import sys
import termios
import threading
import time
import tracemalloc
import tty
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import add, mul, root_power, sub

import sdtensor
from sdtensor import chartab, cli, group, symclass, verify
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
    # The report of the benchmark's basis-all workload.
    ("basis --n 4 --m 2 --char all", 0, 29641613,
     "8ac0819428263b67796f9971e502eba6999355608035c94d102f183bd555a897"),
    # The chi:3 note at odd n, whose closed form is integral at (3, 6), and
    # the in-delta-bar suffix of the pretty orbits report.
    ("dims --n 3 --m 6", 0, 1907,
     "abcf059430caf83205ea427308298b4aa8c78ff8f19ebdf8a913aaa0f4c109fe"),
    ("orbits --n 2 --m 2 --char psi:1 --format pretty", 0, 1070,
     "868ab6d44252a90dd7c21bf157a67efd4f7ea39d28c2a291b347dc6ee40c6fc5"),
    # Character tables at odd n in JSON (chi:4..7), at n=4 in CSV and at
    # n=5 in pretty form, each value reduced from its exponent terms.
    ("table --n 3", 0, 34053,
     "050197c52eea9d312f252e61c8fedbea47420ec3f0c6690acf432be24c46f653"),
    ("table --n 4 --format csv", 0, 4768,
     "c92e1aada4b97f5ae3f5fc0ed56c45bedf96f0b92b7d8ff12d5193148a13ad37"),
    ("table --n 5 --format pretty", 0, 8704,
     "57bf484f1d9ecad662744ceb2be43d1ec451d10e8c67743e87b443ba18109252"),
    # Larger tables: 35 characters at n=16, and chi:4..7 at n=7 in CSV.
    ("table --n 16", 0, 865828,
     "d04978ce2d94d2c217db1178eaaa3769bfcd96c7910e52d45de9b494494a40bb"),
    ("table --n 7 --format csv", 0, 18927,
     "0a5291b831712b070cee488c364c5889648117afe4fb4705160b1c9757df9b46"),
    # Every orbit and stabilizer at (3, 3), 23,102 orbits with all 19
    # stabilizers named, and at (2, 4).
    ("orbits --n 3 --m 3", 0, 6362867,
     "fd89f3f8c1e5c1458b6970c94c15831a7bcee3a2652cabeefde3c94f72bd624c"),
    ("orbits --n 2 --m 4", 0, 1016200,
     "3d71ef9f7eb7686f613b8f6b7db09cdee673c8f94b887a76aa29d9fb5bbb29c6"),
    # Every stabilizer at (4, 2) named, with its character sum F(H) for psi:1.
    ("orbits --n 4 --m 2 --char psi:1", 0, 1164893,
     "c65cfca40fe4de344315836567d65887f49c5aab1401135e619675eb90f7e8e2"),
    # The pretty table at an even n, and the odd-n closed forms for chi:4..7 and psi.
    ("table --n 6 --format pretty", 0, 7936,
     "77eee13dc8b9d11faf38474defe9eb6b8e7fd0271cda99ef4188248ce82c9ba9"),
    ("dims --n 5 --m 3", 0, 2441,
     "ed2ccb166711d4d3f17d35f4711c53a5744a7bd4437014fb8f066ee2e23cbbbd"),
    # A single decision (indent 4) with 202 failure entries, every character
    # at (3, 2), the pretty basis-all report, and empty listings at m = 1.
    ("basis --n 3 --m 2 --char psi:1", 0, 64767,
     "558e9937ae46f2ca0fc1b4e60432d4f37a7d9815678534baee6ed32f76e75226"),
    ("basis --n 3 --m 2 --char all", 0, 1155230,
     "4003c4453d11646573fe5c07199f087ac9677eac5e2aefd9444d19dfdc4211e5"),
    ("basis --n 4 --m 2 --char all --format pretty", 0, 914078,
     "73030213db19d89bbb9d83a30eadd14bf90b7038c4d01255325dde541e2f916e"),
    ("basis --n 2 --m 1 --char all", 0, 1625,
     "d05239bdf70d2756035185fbd14ae185581fde9f4cc68a70e5d7eeddb961aec5"),
    # 132 letters, past the JSON writer's 128 placeholders: every entry
    # takes its % template.
    ("basis --n 33 --m 1 --char all", 0, 16276,
     "cfdd9dfc3a16d8cff61c30a575f5667e3e610468915b4d7cfac487a957f8fb3b"),
    # Conjugacy classes at odd n: four central classes and four of size n.
    ("classes --n 3", 0, 2176,
     "45c32d9cb2e4d38a7e989348e5d65f3a4b9dc49111037104f9f8738e82070ca1"),
    ("classes --n 5 --format pretty", 0, 474,
     "f1e564a5af9619e11a24fc5d3f8d2b59d764a15eff26366bc1135720d41082a2"),
    # The reports that print elements: (s, r) and names with 3-digit
    # exponents in the classes, and the pretty table's representatives,
    # read back by name.
    ("classes --n 64", 0, 28132,
     "d11e6628a4c36feadd16c82bae61a6171b7b481c3fc65993d1c7b5ca26ee5c4d"),
    ("classes --n 63 --format pretty", 0, 5352,
     "a1743260535918ffcd9149a4ee057c1c13d37e6a9b12fb3a11c30be21d323648"),
    ("table --n 12 --format pretty", 0, 38360,
     "2382146cb9b469bc9aa0970fc424b45f76c8b02d855e2bd728b960144854d5c0"),
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


def report_key(text: str):
    """text itself, or (length, sha256) past 1 MB: pytest's diff of two long
    unequal strings would run for minutes."""
    if len(text) <= 2**20:
        return text
    return len(text), hashlib.sha256(text.encode()).hexdigest()


FAILURE = {"failure": "no orthogonal set of size orbital_dim exists"}


def listed(value):
    """value with every generator in it, at any depth, replaced by its list,
    and every orbital outcome by the dict of its basis entry."""
    if type(value) is symclass.OrbitalOutcome:
        rep, size, order, dim, found = value[:5]
        return {
            "representative": rep,
            "orbit_size": size,
            "stabilizer_order": order,
            "orbital_dim": dim,
            **({"witness": value.witness} if found else FAILURE),
        }
    if type(value) in (list, tuple, types.GeneratorType):
        return [listed(item) for item in value]
    if type(value) is dict:
        return {key: listed(item) for key, item in value.items()}
    return value


JSON_KEYS = st.text() | st.sampled_from(["", '"', "\\", "\x00\x1f\n\t\u2028", "é✓", "\ud800"])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | JSON_KEYS
    | st.lists(st.integers() | st.booleans())
    | st.lists(st.integers() | st.booleans()).map(tuple)
    | st.lists(st.lists(st.integers()) | st.lists(st.integers()).map(tuple))
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


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


@pytest.mark.parametrize(
    "payload",
    [
        (True, 1),
        (1, True),
        [[1], [True]],
        [2**80, -3],
        [Level.LOW, 3],
        [Level.HIGH],
        {"a": [Level.LOW], "b": (5, 6), "c": [[1, 2], (3,)]},
        [[[-(2**80)]], [[0, 1], []]],
    ],
    ids=repr,
)
def test_json_writer_int_lists_match_json_dumps(payload):
    # bools and int subclasses must not take the template of plain ints
    assert written_json(payload) == dumped_json(payload)


class Name(str):
    pass


class Row(list):
    pass


class Table(dict):
    pass


Pair = collections.namedtuple("Pair", "x y")


@pytest.mark.parametrize(
    "payload",
    [
        {"a": Name("x\n"), "b": [Name("y")]},
        {Name("k"): 1, "j": [2]},
        Row([1, 2]),
        [Row([[3], "z"])],
        Table(a=1, b=[2, 3]),
        [collections.OrderedDict([("b", (True, None)), ("a", 1)])],
        Pair(1, 2),
        {"p": [Pair(3, -(2**70))]},
        {1.5: "x", 0.5: [1]},
        [{-2.0: {"k": 1}}],
    ],
    ids=repr,
)
def test_json_writer_subclasses_match_json_dumps(payload):
    # subclasses take the json.dumps route, at the top level and nested
    assert written_json(payload) == dumped_json(payload)


def test_json_writer_rejects_what_json_rejects():
    for payload in ({"a": [1, object()]}, [{1, 2}], {"k": {(1, 2): 3}}):
        with pytest.raises(TypeError):
            written_json(payload)


GENERATOR_PAYLOADS = {
    "empty": lambda: (x for x in ()),
    "ints": lambda: {"a": (x * x for x in range(-3, 4)), "b": [2**70]},
    "dicts": lambda: {"orbits": ({"k": x, "w": [(x, x), ()]} for x in range(3))},
    "nested": lambda: [((k * x for x in range(k)) for k in range(4))],
    "top level": lambda: (x for x in ["a", 1, None, True, [2, 3], {}]),
    "in a tuple": lambda: (1, (str(x) for x in range(3)), (x for x in ())),
}


@pytest.mark.parametrize("make", GENERATOR_PAYLOADS.values(), ids=GENERATOR_PAYLOADS)
def test_json_writer_writes_a_generator_as_its_list(make):
    assert written_json(make()) == dumped_json(listed(make()))


def _sample_outcomes():
    """A found and a failed outcome at (3, 2), and hand-built edge shapes:
    no witness members; an empty representative, failed, and found with
    two empty members; letters 0 and 9 on the digit path; and letters the
    digit path cannot carry, which take the % path: 10, 255 and 1000, a
    letter -1, and 129 letters, one past the placeholders."""
    found = next(o for o in symclass.orbital_outcomes(2, chartab.zeta(2), symclass.orbits(2, 2)))
    failed = next(
        o for o in symclass.orbital_outcomes(3, chartab.zeta(2), symclass.orbits(3, 2)) if not o.found
    )
    assert found.found and found.orbital_dim == 2 and failed.orbital_dim > 0
    return [
        found,
        failed,
        symclass.OrbitalOutcome((1, 2), 4, 2, 0, True, ()),
        symclass.OrbitalOutcome((), 1, 1, 0, False, ()),
        symclass.OrbitalOutcome((), 8, 1, 2, True, ()),
        symclass.OrbitalOutcome((0, 9, 0), 24, 1, 2, True, (2, 1, 0, 0, 0, 1)),
        symclass.OrbitalOutcome((10, 255), 8, 1, 2, True, (1, 0, 0, 0)),
        symclass.OrbitalOutcome((1000, 2), 8, 1, 1, True, (0, 1)),
        symclass.OrbitalOutcome((-1, 0), 4, 2, 1, True, (1, 0)),
        symclass.OrbitalOutcome((0, -1), 4, 2, 1, False, ()),
        symclass.OrbitalOutcome((1,) * 128 + (2,), 1, 1, 1, True, tuple(range(128, -1, -1))),
    ]


OUTCOME_PAYLOADS = {
    "top level": lambda outcomes: outcomes[0],
    "nested": lambda outcomes: {"a": [outcomes[1], {"b": (outcomes[0], 7)}], "c": outcomes[2:]},
    "in a generator": lambda outcomes: {"orbits": (o for o in outcomes * 2)},
}


@pytest.mark.parametrize("make", OUTCOME_PAYLOADS.values(), ids=OUTCOME_PAYLOADS)
def test_json_writer_writes_an_outcome_as_its_basis_entry(make):
    outcomes = _sample_outcomes()
    assert written_json(make(outcomes)) == dumped_json(listed(make(outcomes)))


def test_json_writer_rejects_an_outcome_with_a_bool_letter():
    # json.dumps would write true where the template would write 1
    outcome = symclass.OrbitalOutcome((True, 2), 4, 2, 1, True, (0, 1))
    with pytest.raises(TypeError):
        written_json([outcome])


@pytest.mark.parametrize("positions", [(0,), (0, 1, 0), ()], ids=["short", "long", "none"])
def test_json_writer_rejects_an_outcome_with_a_wrong_positions_length(positions):
    # one member of two letters reads exactly two positions
    outcome = symclass.OrbitalOutcome((1, 2), 4, 2, 1, True, positions)
    with pytest.raises(ValueError, match="witness positions"):
        written_json([outcome])


@pytest.mark.parametrize("position", [2, -1, 200])
def test_json_writer_rejects_an_outcome_with_a_position_outside_the_representative(position):
    outcome = symclass.OrbitalOutcome((1, 2), 4, 2, 1, True, (0, position))
    with pytest.raises(ValueError, match="outside the representative"):
        written_json([outcome])


def test_json_writer_passes_on_a_failing_generator():
    def entries():
        yield {"k": 1}
        raise ZeroDivisionError("exact_div by zero")

    with pytest.raises(ZeroDivisionError, match="exact_div by zero"):
        written_json({"orbits": entries()})


@pytest.mark.parametrize("argv", [g[0] for g in GOLDEN_REPORTS if "--format" not in g[0]])
def test_json_writer_matches_json_dumps_on_golden_payloads(argv):
    # writing consumes the payload's generators, so it is built twice
    args = cli.build_parser().parse_args(argv.split())
    build = cli.COMMANDS[args.command][0]
    assert report_key(written_json(build(args))) == report_key(dumped_json(listed(build(args))))


class RecordingFile(io.StringIO):
    """A text file that remembers the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    ["basis --n 2 --m 2 --char all", "basis --n 3 --m 2 --char zeta:2 --format pretty"],
    ids=["json", "pretty"],
)
def test_json_report_is_streamed_in_bounded_writes(monkeypatch, argv):
    # every format is written as it is rendered, never as one whole string
    stdout = RecordingFile()
    monkeypatch.setattr(sys, "stdout", stdout)
    (pinned,) = [g[1:] for g in GOLDEN_REPORTS if g[0] == argv]
    code = main(argv.split())
    data = stdout.getvalue().encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == pinned
    assert len(stdout.sizes) > 1
    assert max(stdout.sizes) <= 1 << 16


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


def trig_text_value(n, text):
    """The exact value of a pretty-table text: 2cos(x*pi) is zeta^(2nx) + zeta^(-2nx),
    2i*sin(x*pi) is zeta^(2nx) - zeta^(-2nx), with zeta = e^(i*pi/2n)."""
    order = 4 * n
    i = root_power(order, n)
    exact = {"0": 0, "1": 1, "2": 2, "i": i, "-1": -1, "-i": mul(-1, i)}
    if text in exact:
        return exact[text]
    kind, x = text[:-len("*pi)")].split("(")
    e = Fraction(x) * 2 * n
    assert e.denominator == 1, text
    e = int(e)
    sign = {"2cos": 1, "2i*sin": -1}[kind]
    return add(root_power(order, e), mul(sign, root_power(order, -e)))


def test_character_text_is_the_exact_value():
    for n in range(2, 9):
        for cid in chartab.character_ids(n):
            for g in group.elements(n):
                want = trig_text_value(n, cli._trig_str(n, cid, g))
                assert sub(chartab.character_value(n, cid, g), want).is_zero, (n, cid, g)


def test_table_json_entries(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2")
    payload = json.loads(out)
    assert [row["character"] for row in payload["rows"]] == [
        "chi:0", "chi:1", "chi:2", "chi:3", "zeta:2", "psi:1", "psi:5",
    ]
    chi0 = payload["rows"][0]["values"]
    assert all(v["exact"]["coeffs"] == [1, 0, 0, 0] for v in chi0)


def test_pretty_table_builds_the_table_once(capsys, monkeypatch):
    calls = []
    value = chartab.character_value

    def counted(n, cid, g):
        calls.append((cid, g))
        return value(n, cid, g)

    monkeypatch.setattr(chartab, "character_value", counted)
    (golden,) = [g for g in GOLDEN_REPORTS if g[0] == "table --n 5 --format pretty"]
    assert_golden(capsys, *golden)
    cells = [(cid, rep) for cid in chartab.character_ids(5) for rep, _ in group.conjugacy_classes(5)]
    assert calls == cells


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


class NullSink:
    """A text file that keeps only the count of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_basis_report_is_written_in_bounded_memory():
    # each entry is freed once written: with the caches warm, building and
    # writing the 29.6 MB report at (4, 2) peaks under 2 MiB
    args = cli.build_parser().parse_args("basis --n 4 --m 2 --char all".split())
    cli._basis_payload(args)  # decides every (character, stabilizer) pair
    sink = NullSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_json(sink, cli._basis_payload(args))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.chars == 29641613
    assert peak < 2 * 2**20, peak / 2**20


def test_pretty_basis_report_is_written_in_bounded_memory():
    # each line is written as it is reached: with the caches warm, the
    # 914,078-character pretty report at (4, 2) peaks under 1 MiB
    args = cli.build_parser().parse_args("basis --n 4 --m 2 --char all --format pretty".split())
    cli._basis_payload(args)  # decides every (character, stabilizer) pair
    sink = NullSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._basis_pretty(sink, cli._basis_payload(args))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.chars == 914078
    assert peak < 2**20, peak / 2**20


def test_table_report_is_written_in_bounded_memory():
    # each row is computed as it is written: with the caches warm, the
    # 2,807,424-character table at n = 30 peaks under 0.5 MiB
    args = cli.build_parser().parse_args("table --n 30".split())
    cli._write_json(NullSink(), cli._table_payload(args))  # warms the value tables
    sink = NullSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_json(sink, cli._table_payload(args))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.chars == 2807424
    assert peak < 2**19, peak / 2**20


def test_budget_refusal_exit_code(capsys):
    # the streamed reports refuse before their first byte
    for command in (["orbits"], ["basis", "--char", "all"]):
        code, out, err = run_cli(capsys, *command, "--n", "3", "--m", "3", "--budget", "100")
        assert (code, out) == (3, "")
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
    # one enumeration, and each entry's F(H) comes from the integer decision
    # on the stabilizer the orbit carries: one lookup per distinct
    # stabilizer, in orbit order, with no second scan
    calls, lookups = [], []
    enumerate_orbits, decide = symclass.orbits, symclass._stabilizer_decision

    def counted_orbits(*args):
        calls.append(enumerate_orbits(*args))
        return calls[-1]

    def counted_decision(n, cid, stabilizer):
        lookups.append(stabilizer)
        return decide(n, cid, stabilizer)

    monkeypatch.setattr(symclass, "orbits", counted_orbits)
    monkeypatch.setattr(symclass, "_stabilizer_decision", counted_decision)
    golden = GOLDEN_REPORTS[7]
    assert golden[0] == "orbits --n 2 --m 2 --char zeta:2"
    assert_golden(capsys, *golden)
    assert len(calls) == 1
    firsts = {}
    for o in calls[0]:
        firsts.setdefault(o.stabilizer, o.stabilizer)
    assert lookups == list(firsts)
    assert all(h is firsts[h] for h in lookups)


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
    if source == "environment":
        monkeypatch.setenv("SDTENSOR_BUDGET", "-5")
    elif args[0] in ("classes", "table", "dims"):
        # these never enumerate, so they take no --budget
        with pytest.raises(SystemExit) as exc:
            main(args + ["--budget", "-5"])
        assert (exc.value.code, capsys.readouterr().out) == (2, "")
        return
    else:
        args += ["--budget", "-5"]
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: the sequence budget must be >= 0, got -5"]


def test_non_integer_budget_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SDTENSOR_BUDGET", "1e7")
    code, out, err = run_cli(capsys, "dims", "--n", "2", "--m", "2")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: SDTENSOR_BUDGET must be an integer, got '1e7'"]


def test_bad_character_spec_exit_code(capsys):
    code, out, err = run_cli(capsys, "basis", "--n", "2", "--m", "2", "--char", "zeta:3")
    assert (code, out) == (2, "")
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


def test_orbits_with_an_empty_character_is_a_usage_error(capsys, monkeypatch):
    # an empty spec names no character, as for basis; it is not "no --char"
    def fail(*args):
        raise AssertionError("orbits enumerated for an empty character spec")

    monkeypatch.setattr(symclass, "orbits", fail)
    for command in ("orbits", "basis"):
        code, out, err = run_cli(capsys, command, "--n", "2", "--m", "2", "--char", "")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), command


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
    assert "invalid choice: 'csv'" in captured.err


# The fewest arguments each subcommand parses with.
LEAST_ARGV = {
    "classes": "classes --n 2",
    "table": "table --n 2",
    "dims": "dims --n 2 --m 2",
    "orbits": "orbits --n 2 --m 2",
    "basis": "basis --n 2 --m 2 --char zeta:2",
    "verify": "verify --n 2",
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_budget_and_csv_parse_only_where_they_are_read(command):
    # only an enumerating subcommand reads a budget, and only the table has a CSV form
    parse = cli.build_parser().parse_args
    argv = LEAST_ARGV[command].split()
    for option, value, parsed, takers in (
        ("--budget", "5", 5, ("orbits", "basis", "verify")),
        ("--format", "csv", "csv", ("table",)),
    ):
        if command in takers:
            assert getattr(parse(argv + [option, value]), option[2:]) == parsed
        else:
            with pytest.raises(SystemExit) as exc:
                parse(argv + [option, value])
            assert exc.value.code == 2, option


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


@pytest.mark.parametrize("argv", ["classes --n 2", "orbits --n 3 --m 2"])
def test_empty_output_path_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # realpath("") is the working directory, so a report "beside" it would
    # land in its parent; the path is refused before anything is computed
    def fail(*args):
        raise AssertionError("computed a report for an empty --output")

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(group, "conjugacy_classes", fail)
    monkeypatch.setattr(symclass, "orbits", fail)
    code, out, err = run_cli(capsys, *argv.split(), "--output", "")
    assert (code, out) == (2, "")
    assert err == "error: --output needs a file path, not an empty string\n"
    assert os.listdir(tmp_path) == ["work"] and os.listdir(work) == []


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


def test_unwritable_temporary_file_names_the_output_path(tmp_path, capsys, monkeypatch):
    # the report goes to a temporary file beside --output first; when that
    # cannot be created, the error names the path that was given
    target = tmp_path / "report.json"
    target.write_text("previous report\n")

    def refuse_temporary(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refuse_temporary, raising=False)
    code, out, err = run_cli(capsys, "classes", "--n", "2", "--output", str(target))
    assert (code, out) == (4, "")
    assert err == f"error: cannot write the report: [Errno 13] Permission denied: {str(target)!r}\n"
    assert ".tmp" not in err
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


@pytest.mark.parametrize("to_output", [False, True], ids=["stdout", "output"])
def test_terminal_report_is_block_buffered(monkeypatch, to_output):
    # a text file on a terminal is line-buffered, which would be one system
    # call per line a renderer writes; the report file is block-buffered
    # instead, whether it is stdout or an --output path
    master, terminal = pty.openpty()
    tty.setraw(terminal)
    arrived = []

    def render(fh, payload):
        fh.write("SD_16\n")
        # a terminal passes written bytes on asynchronously, so wait for them
        arrived.append(select.select([master], [], [], 0.2)[0])

    row = cli.COMMANDS["classes"]
    monkeypatch.setitem(cli.COMMANDS, "classes", (row[0], {"pretty": render}, *row[2:]))
    argv = ["classes", "--n", "2", "--format", "pretty"]
    with open(master, "rb", buffering=0) as reader, open(terminal, "w") as stdout:
        assert stdout.line_buffering
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv + ["--output", os.ttyname(terminal)] * to_output) == 0
        assert arrived == [[]]
        assert reader.read(6) == b"SD_16\n"


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


def test_import_loads_neither_dataclasses_nor_inspect():
    # every run pays its imports; dataclasses and the inspect module it
    # loads took 7-10 ms of start-up, for records that tuples hold
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sdtensor.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        stdout=subprocess.PIPE,
        env=env,
        timeout=60,
        check=True,
    )
    assert proc.stdout == b"[]\n"


def test_closed_stdout_is_an_io_error():
    # with descriptor 1 closed at start-up, sys.stdout is None
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "sdtensor", "classes", "--n", "2"],
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=lambda: os.close(1),
        timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 4
    assert "Traceback" not in err
    assert err.startswith("error: cannot write the report: ") and len(err.splitlines()) == 1


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
    IndexError("tuple index out of range"),
    KeyError("zeta:2"),
    TypeError("Object of type set is not JSON serializable"),
    AttributeError("'NoneType' object has no attribute 'stabilizer'"),
    AssertionError(),
]


@pytest.mark.parametrize("exc", INTERNAL_EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_internal_failure_while_building_exits_5(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "classes", (fail, *cli.COMMANDS["classes"][1:]))
    code, out, err = run_cli(capsys, "classes", "--n", "2")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal error: ") and len(err.splitlines()) == 1
    assert (str(exc) or type(exc).__name__) in err


@pytest.mark.parametrize("exc", INTERNAL_EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_internal_failure_while_emitting_exits_5(capsys, monkeypatch, exc):
    def fail(render, payload, output):
        raise exc

    monkeypatch.setattr(cli, "_emit", fail)
    code, out, err = run_cli(capsys, "classes", "--n", "2")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal error: ") and len(err.splitlines()) == 1


def test_failure_in_the_middle_of_a_report_exits_5(tmp_path, capsys, monkeypatch):
    # stdout keeps what was written before the failure; an --output file
    # keeps its earlier report
    argv = ["basis", "--n", "2", "--m", "2", "--char", "all"]
    full = run_cli(capsys, *argv)[1]
    produce = symclass.orbital_outcomes

    def failing(n, cid, orbit_list):
        yield from produce(n, cid, orbit_list)
        if cid == chartab.psi(5):
            raise RuntimeError("witness producer failed")

    monkeypatch.setattr(symclass, "orbital_outcomes", failing)
    code, out, err = run_cli(capsys, *argv)
    assert code == 5
    assert err == "error: internal error: witness producer failed\n"
    assert 0 < len(out) < len(full) and full.startswith(out)
    target = tmp_path / "report.json"
    target.write_text("previous report\n")
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out, err) == (5, "", "error: internal error: witness producer failed\n")
    assert target.read_text() == "previous report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def _interrupt_basis_report(n, *args, ready):
    """Start `basis --n n --m 2 --char all`, SIGINT it once ready(proc) has
    returned, and give (exit code, stderr).  The child starts with SIGINT at
    its default, which Python turns into KeyboardInterrupt, even where this
    process ignores it."""
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "sdtensor", "basis", "--n", str(n), "--m", "2", "--char", "all",
         *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        try:
            ready(proc)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # nothing to do once it has exited
    return proc.returncode, err.decode()


def test_interrupt_exits_130_with_one_line():
    # the 29.6 MB report outgrows the pipe, so the child is still writing
    # when its first line has been read
    code, err = _interrupt_basis_report(4, ready=lambda proc: proc.stdout.readline())
    assert code == 130
    assert err == "error: interrupted\n"


def test_interrupt_keeps_the_earlier_output_file(tmp_path):
    # interrupted while the temporary file beside it is being written
    target = tmp_path / "report.json"
    target.write_text("previous report\n")

    def writing(proc):
        while len(os.listdir(tmp_path)) == 1:
            assert proc.poll() is None
            time.sleep(0.01)

    code, err = _interrupt_basis_report(5, "--output", str(target), ready=writing)
    assert (code, err) == (130, "error: interrupted\n")
    assert target.read_text() == "previous report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_integers_past_the_str_digit_cap_keep_their_exit_codes():
    # m^8 at m = 10^600 has 4,801 digits, past CPython's default cap of 4,300
    # on int-to-str conversion; a child process runs it, so this one keeps
    # its cap, and the total is compared as digits, never converted here.
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    m = "1" + "0" * 600

    def run(*args):
        argv = [sys.executable, "-m", "sdtensor", *args, "--n", "2", "--m", m]
        return subprocess.run(argv, capture_output=True, env=env, timeout=60)

    reports = {fmt: run("dims", "--format", fmt) for fmt in ("json", "pretty")}
    assert {(p.returncode, p.stderr) for p in reports.values()} == {(0, b"")}
    assert json.loads(reports["json"].stdout, parse_int=str)["total"] == "1" + "0" * 4800
    proc = run("orbits")
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"refused: ") and len(proc.stderr.splitlines()) == 1


def test_an_alphabet_past_one_byte_fails_fast():
    # the budget admits all 256^8 sequences; an enumeration would not end
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "sdtensor", "orbits", "--n", "2", "--m", "256",
            "--budget", str(256**8)]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and len(proc.stderr.splitlines()) == 1


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c", "import sys, sdtensor.cli; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
        timeout=60,
    )


def test_package_import_loads_no_submodule():
    # the library is its modules; the package itself exposes no public name
    env = dict(os.environ, PYTHONPATH=str(Path(sdtensor.__file__).resolve().parents[1]))
    probe = (
        "import json, sys, sdtensor; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith('sdtensor.')), "
        "sorted(k for k in vars(sdtensor) if not k.startswith('_'))]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, check=True, timeout=60
    )
    assert json.loads(proc.stdout) == [[], []]


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
