"""Command-line interface: every computation as a reproducible report.

Subcommands: classes, table, dims, orbits, basis, verify.  JSON is the
machine format and is byte-identical across runs for identical arguments;
CSV is available for the character table only; pretty mode renders
character values as trigonometric expressions next to their exact
coordinates.  A COMMANDS row describes a whole subcommand: its payload
builder, its text renderers by format, its help and the options it takes
besides --n, --format and --output.  build_parser builds each subcommand's
parser from its row alone, so --format offers json and the row's renderers,
and only the enumerating subcommands take --budget.  A renderer, like the
JSON writer `_write_json`, writes the payload to a file as it goes; `_emit`
opens the file.  JSON bytes are those of json.dump(payload, indent=2,
sort_keys=True) plus a newline.  The table payload holds a generator of
its rows, and the orbits and basis payloads one generator per listing, so
their entries are built as they are written; the pretty table collects its
rows, since every cell sizes its column.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
refusal, 4 the report could not be written (an unwritable --output, or a
reader that closed the pipe), 5 internal error (any other exception, such as
a broken invariant, an arithmetic failure or exhausted memory), 130 SIGINT.
Diagnostics go to standard error as one line, never as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import itertools
import json
import math
import operator
import os
import sys
from types import GeneratorType

from . import chartab, dims, group, symclass, verify
from .chartab import CharacterId
from .cyclo import CycloInt, exact_div
from .symclass import BudgetExceededError, OrbitalOutcome

USAGE_ERROR = 2
VERIFY_ERROR = 1
BUDGET_ERROR = 3
IO_ERROR = 4
INTERNAL_ERROR = 5
INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that SIGINT ended

# A basis entry's text where its orbital subspace has no orthogonal basis.
BASIS_FAILURE = "no orthogonal set of size orbital_dim exists"

# The JSON writer's byte tables for basis entries: letters 0..9 become their
# digits and every other byte "-"; ASCII text stays itself; placeholder
# 0x80 + p of a marked template stands for representative position p.
DIGITS = b"0123456789".ljust(256, b"-")
PLAIN = bytes(range(128))
MARKS = bytes(range(128, 256))


def _cyclo_json(x: CycloInt) -> dict:
    return {"order": x.order, "coeffs": list(x.coeffs)}


def _approx_str(x: CycloInt) -> str:
    z = x.to_complex()
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def _element_json(n: int, x: int) -> dict:
    s, r = divmod(x, 4 * n)
    return {"s": s, "r": r, "name": group.element_name(n, x)}


def _trig_str(n: int, cid: CharacterId, x: int) -> str:
    """Human-readable exact form of the value of a character at the element
    x, read from its first exponent term (e, c)."""
    terms = chartab.value_terms(n, cid)[x]
    if not terms:
        return "0"
    e, c = terms[0]
    if cid.kind == "chi":
        # one term c * zeta^e, with e a multiple of n and zeta^n = i
        return ("1", "i", "-1", "-i")[(e // n + 2 * (c < 0)) % 4]
    # zeta^e + zeta^(ke), where ke = 2ne - e mod 4n makes zeta^(ke) = (-1)^e zeta^(-e)
    d = math.gcd(e, 2 * n)
    num, den = e // d, 2 * n // d
    frac = f"{num}/{den}" if den != 1 else str(num)
    if e % 2 == 0:
        return f"2cos({frac}*pi)" if e else "2"
    return f"2i*sin({frac}*pi)"


def _classes_payload(args) -> dict:
    n = args.n
    classes = group.conjugacy_classes(n)
    return {
        "n": n,
        "group_order": 8 * n,
        "class_count": len(classes),
        "classes": [
            {
                "representative": _element_json(n, rep),
                "size": len(members),
                "members": [group.element_name(n, x) for x in members],
            }
            for rep, members in classes
        ],
    }


def _classes_pretty(fh, payload: dict) -> None:
    fh.write(f"SD_{payload['group_order']}: {payload['class_count']} conjugacy classes\n")
    for c in payload["classes"]:
        fh.write(f"  [{c['representative']['name']}] size {c['size']}: {' '.join(c['members'])}\n")


def _table_payload(args) -> dict:
    """The square table of character values on the first member of each
    conjugacy class; its "rows" value is a generator, so each row's values
    are computed as the row is written."""
    n = args.n
    ids = chartab.character_ids(n)
    classes = group.conjugacy_classes(n)
    if len(ids) != len(classes):
        raise RuntimeError("character count does not match class count")
    return {
        "n": n,
        "class_labels": [group.element_name(n, rep) for rep, _ in classes],
        "class_sizes": [len(m) for _, m in classes],
        "rows": (
            {
                "character": cid.label(),
                "degree": cid.degree,
                "values": [
                    {"exact": _cyclo_json(v), "approx": _approx_str(v)}
                    for v in (chartab.character_value(n, cid, rep) for rep, _ in classes)
                ],
            }
            for cid in ids
        ),
    }


def _coeffs_str(value: dict) -> str:
    return ";".join(str(c) for c in value["exact"]["coeffs"])


def _table_csv(fh, payload: dict) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["character"] + payload["class_labels"])
    for row in payload["rows"]:
        writer.writerow(
            [row["character"]] + [f"({_coeffs_str(v)}) {v['approx']}" for v in row["values"]]
        )


def _table_pretty(fh, payload: dict) -> None:
    """The table of the payload, whose rows and columns are the cached
    chartab.character_ids and group.conjugacy_classes it was built from.
    Its rows are collected first: every cell sizes its column."""
    n = payload["n"]
    reps = [rep for rep, _ in group.conjugacy_classes(n)]
    rows = [["character"] + payload["class_labels"]]
    for cid, row in zip(chartab.character_ids(n), payload["rows"]):
        rows.append(
            [row["character"]]
            + [f"{_trig_str(n, cid, rep)} ({_coeffs_str(v)})" for rep, v in zip(reps, row["values"])]
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        fh.write("  ".join(s.ljust(w) for s, w in zip(r, widths)) + "\n")


def _dims_payload(args) -> dict:
    n, m = args.n, args.m
    report = dims.dim_report(n, m)
    return {
        "n": n,
        "m": m,
        "dims": [
            {
                "character": e.character.label(),
                "general": e.general,
                "closed_form": e.closed_form,
                "agree": e.agree,
                **({"note": e.note} if e.note else {}),
            }
            for e in report.entries
        ],
        "total": report.total,
        "total_identity_holds": report.total_identity_holds,
    }


def _dims_pretty(fh, payload: dict) -> None:
    fh.write(f"dim V_chi(SD_{8 * payload['n']}) at m = {payload['m']}\n")
    for e in payload["dims"]:
        closed = "-" if e["closed_form"] is None else str(e["closed_form"])
        flag = "ok" if e["agree"] else "MISMATCH"
        fh.write(f"  {e['character']:>8}  general={e['general']}  closed={closed}  {flag}\n")
    identity = "== m^4n" if payload["total_identity_holds"] else "!= m^4n (BROKEN)"
    fh.write(f"  total {payload['total']} {identity}\n")


def _orbits_payload(args) -> dict:
    """The orbit listing; its "orbits" value is a generator, one entry per orbit."""
    n, m = args.n, args.m
    if args.char == "all":
        raise ValueError("orbits takes one character; --char all is for basis")
    cid = None
    if args.char is not None:
        (cid,) = chartab.parse_character_spec(n, args.char)
    orbit_list = symclass.orbits(n, m, args.budget)
    names = [group.element_name(n, x) for x in group.elements(n)]
    # F(H) per distinct stabilizer, read off its cached integer decision:
    # orbital_dim = chi(1) F(H) / |H|, so F(H) = orbital_dim * |H| / chi(1)
    char_sums: dict[tuple[int, ...], CycloInt] = {}

    def entries():
        for o in orbit_list:
            entry = {
                "representative": o.representative,
                "orbit_size": 8 * n // len(o.stabilizer),
                "stabilizer_order": len(o.stabilizer),
                "stabilizer": [names[x] for x in o.stabilizer],
            }
            if cid is not None:
                char_sum = char_sums.get(o.stabilizer)
                if char_sum is None:
                    dim = symclass._stabilizer_decision(n, cid, o.stabilizer)[0]
                    value = exact_div(dim * len(o.stabilizer), cid.degree)
                    char_sum = char_sums[o.stabilizer] = CycloInt.from_int(4 * n, value)
                entry["char_sum"] = _cyclo_json(char_sum)
                entry["in_delta_bar"] = not char_sum.is_zero
            yield entry

    payload = {"n": n, "m": m, "orbit_count": len(orbit_list), "orbits": entries()}
    if cid is not None:
        payload["character"] = cid.label()
    return payload


def _orbits_pretty(fh, payload: dict) -> None:
    fh.write(
        f"{payload['orbit_count']} orbits of SD_{8 * payload['n']} on "
        f"{payload['m']}^{4 * payload['n']} sequences\n"
    )
    for o in payload["orbits"]:
        fh.write(
            f"  {'%d' * len(o['representative']) % o['representative']}"
            f"  size {o['orbit_size']}  stab {o['stabilizer_order']}"
            + ("  in_delta_bar\n" if o.get("in_delta_bar") else "\n")
        )


def _basis_payload(args) -> dict:
    """One decision, or {"decisions": [...]} when the spec names several.

    Each decision's "orbits" value is the generator
    symclass.orbital_outcomes, so the writer holds one entry at a time; the
    verdict before it comes from the distinct stabilizers' cached decisions.
    """
    n, m = args.n, args.m
    cids = chartab.parse_character_spec(n, args.char)
    orbit_list = symclass.orbits(n, m, args.budget)
    stabilizers = {o.stabilizer for o in orbit_list}
    decisions = []
    for cid in cids:
        predicted = symclass.predicted_basis(n, cid)
        exists = symclass.has_orthogonal_basis(n, cid, stabilizers)
        decisions.append(
            {
                "n": n,
                "m": m,
                "character": cid.label(),
                "predicted": predicted,
                "exhaustive": exists,
                "agree": predicted == exists,
                "orbits": symclass.orbital_outcomes(n, cid, orbit_list),
            }
        )
    return decisions[0] if len(decisions) == 1 else {"decisions": decisions}


def _basis_pretty(fh, payload: dict) -> None:
    for d in payload.get("decisions", [payload]):
        fh.write(
            f"{d['character']} at n={d['n']}, m={d['m']}: "
            f"predicted={d['predicted']} exhaustive={d['exhaustive']}"
            + ("\n" if d["agree"] else "  (DISAGREE)\n")
        )
        for o in d["orbits"]:
            rep = "%d" * len(o.representative) % o.representative
            status = "ok" if o.found else "FAIL"
            fh.write(f"  {rep}  dim {o.orbital_dim}  size {o.orbit_size}  {status}\n")


def _verify_payload(args) -> dict:
    checks = verify.run_checks(args.n, args.m, args.budget)
    return {
        "n": args.n,
        "m": args.m,
        "ok": all(flag for _, flag, _ in checks),
        "checks": [{"name": name, "ok": flag, "detail": detail} for name, flag, detail in checks],
    }


def _verify_pretty(fh, payload: dict) -> None:
    for c in payload["checks"]:
        fh.write(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}\n")
    fh.write("all checks passed\n" if payload["ok"] else "SOME CHECKS FAILED\n")


# The options a subcommand may take besides --n, --format and --output.
OPTIONS = {
    "--m": {"type": int, "help": "alphabet size / dim V"},
    "--char": {"help": "character spec: chi:<i> | zeta:<h> | psi:<h> | all (basis only)"},
    "--budget": {"type": int, "help": "sequence enumeration budget override"},
}

# subcommand -> (payload builder, text renderers by format, help, its OPTIONS
# with whether each is required); JSON needs no renderer.
COMMANDS = {
    "classes": (_classes_payload, {"pretty": _classes_pretty}, "conjugacy class report", {}),
    "table": (
        _table_payload,
        {"csv": _table_csv, "pretty": _table_pretty},
        "character table (json, csv, or pretty)",
        {},
    ),
    "dims": (_dims_payload, {"pretty": _dims_pretty}, "symmetry class dimensions", {"--m": True}),
    "orbits": (
        _orbits_payload,
        {"pretty": _orbits_pretty},
        "orbit / stabilizer listing",
        {"--m": True, "--char": False, "--budget": False},
    ),
    "basis": (
        _basis_payload,
        {"pretty": _basis_pretty},
        "orthogonal-basis decision (predicted and decided)",
        {"--m": True, "--char": True, "--budget": False},
    ),
    "verify": (
        _verify_payload,
        {"pretty": _verify_pretty},
        "full invariant suite",
        {"--m": False, "--budget": False},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdtensor",
        description="Exact reports on SD_{8n}: conjugacy classes, character tables, "
        "symmetry-class dimensions, orbits, and orthogonal-basis decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, renderers, help_text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--n", type=int, required=True, help="group parameter; the group is SD_{8n}")
        for option, required in options.items():
            command.add_argument(option, required=required, **OPTIONS[option])
        command.add_argument("--format", choices=("json", *renderers), default="json")
        command.add_argument("--output", help="write report to this path instead of stdout")
    return parser


def _write_json(fh, payload) -> None:
    """Write payload to fh exactly as json.dump(payload, fh, indent=2,
    sort_keys=True) followed by a newline would, one value at a time: the
    file does the buffering, so memory does not grow with the report.

    One loop renders every value under one rule, by exact type: a str or an
    int, a non-empty list or tuple, a generator, and a non-empty dict whose
    keys are all str are written here, and a list of ints by one % on a
    template cached per (indent, length).  A generator is written as the
    list of what it yields, "[]" if nothing, one item at a time, so a report
    of one entry per orbit never holds all its entries; an exception it
    raises passes through.  A symclass.OrbitalOutcome is written as its
    basis entry, the object {"representative", "orbit_size",
    "stabilizer_order", "orbital_dim"} with "witness" (its members) if found
    and "failure" if not, from a template cached per (indent, representative
    length, orbit_size, stabilizer_order, orbital_dim, found,
    witness_positions).  A representative of at most 128 letters, each 0..9,
    is written by one bytes.translate of the template marked with byte
    0x80 + p where a slot reads representative position p; any other by one
    % of its letters.  A representative letter or a count that is not an
    int raises TypeError, and witness positions of the wrong number or
    outside the representative raise ValueError.  Everything else goes to
    json.dumps: None, bools, floats, empty containers, subclasses (IntEnum,
    namedtuple, OrderedDict, str subclasses) and unserializable values,
    which raise TypeError.

    >>> import io
    >>> out = io.StringIO()
    >>> _write_json(out, {"b": [1, 2], "a": {"y": (True, 1.5), "x": None}})
    >>> print(out.getvalue(), end="")
    {
      "a": {
        "x": null,
        "y": [
          true,
          1.5
        ]
      },
      "b": [
        1,
        2
      ]
    }
    """
    encode = json.encoder.encode_basestring_ascii
    put = fh.write
    templates: dict[tuple, str] = {}

    def block(parts: list[str], indent: str, brackets: str = "[]") -> str:
        """The text of a list, or of an object, with these parts inside."""
        if not parts:
            return brackets
        inner = indent + "  "
        return brackets[0] + "\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + brackets[1]

    def ints(value, indent: str) -> str:
        """The text of a non-empty list of plain ints: one % on a template
        per (indent, length).  For an exact int, "%d" % x == int.__repr__(x)."""
        template = templates.get((indent, len(value)))
        if template is None:
            template = templates[indent, len(value)] = block(["%d"] * len(value), indent)
        return template % tuple(value)

    def outcome(item: OrbitalOutcome, indent: str) -> str:
        """The basis entry of an outcome, from templates cached per shape
        and witness positions: one translate of the marked template if every
        letter is a digit, else one % of its letters."""
        rep, size, order, dim, found, positions = item
        if {*map(type, rep), type(size), type(order), type(dim)} != {int}:
            raise TypeError(f"a basis entry holds ints only, not {item!r}")
        width = len(rep)
        key = (indent, width, size, order, dim, found, positions)
        entry = templates.get(key)
        if entry is None:
            expected = dim * width if found else 0
            if len(positions) != expected:
                raise ValueError(f"{len(positions)} witness positions, not {expected}")
            if not all(0 <= p < width for p in positions):
                raise ValueError(f"a witness position is outside the representative: {positions!r}")
            inner = indent + "  "
            fields = {
                "orbit_size": int.__repr__(size),
                "orbital_dim": int.__repr__(dim),
                "representative": block(["%d"] * width, inner),
                "stabilizer_order": int.__repr__(order),
            }
            if found:
                member = block(["%d"] * width, inner + "  ")
                fields["witness"] = block([member] * dim, inner)
            else:
                fields["failure"] = encode(BASIS_FAILURE)
            template = block([encode(k) + ": " + v for k, v in sorted(fields.items())], indent, "{}")
            marked = None
            if width <= 128:
                # each slot's placeholder byte is 0x80 + the position it reads
                marks = tuple(0x80 + p for p in (*range(width), *positions))
                marked = (template.replace("%d", "%c") % marks).encode("latin-1")
            entry = templates[key] = (template, marked, MARKS[width:])
        template, marked, tail = entry
        try:
            digits = bytes(rep).translate(DIGITS)
        except ValueError:  # a letter below 0 or past 255
            digits = b""
        if marked is not None and digits.isdigit():
            # the table: ASCII to itself, then 0x80 + p to the digit of letter p
            return marked.translate(digits.join((PLAIN, tail))).decode()
        return template % (*rep, *map(rep.__getitem__, positions))

    def children(leads, items, indent: str) -> None:
        """Render each item after its lead, the separator and key before it."""
        for item, lead in zip(items, leads):
            kind = type(item)
            if kind is str:
                put(lead + encode(item))
            elif kind is int:
                put(lead + int.__repr__(item))
            elif kind is OrbitalOutcome:
                put(lead + outcome(item, indent))
            elif (kind is list or kind is tuple) and item or kind is GeneratorType:
                if kind is not GeneratorType and {*map(type, item)} == {int}:
                    put(lead + ints(item, indent))
                else:
                    inner = indent + "  "
                    opening = lead + "[\n" + inner
                    seps = itertools.chain((opening,), itertools.repeat(",\n" + inner))
                    children(seps, item, inner)
                    # items are drawn before their leads: an empty generator leaves the opening
                    put(lead + "[]" if next(seps) == opening else "\n" + indent + "]")
            elif kind is dict and item and {*map(type, item)} == {str}:
                inner = indent + "  "
                keys = sorted(item)
                seps = itertools.chain((lead + "{\n" + inner,), itertools.repeat(",\n" + inner))
                keyed = map(operator.add, seps, (encode(key) + ": " for key in keys))
                children(keyed, map(item.__getitem__, keys), inner)
                put("\n" + indent + "}")
            else:
                # JSON strings hold no raw newline, so re-indenting is exact.
                put(lead + json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n" + indent))

    children(("",), (payload,), "")
    put("\n")


def _stdout():
    """sys.stdout, or a block-buffered text file on its descriptor if it is
    unbuffered or line-buffered.

    Under python -u or PYTHONUNBUFFERED, sys.stdout writes straight to the
    raw file and drops whatever a short write leaves over.  A pipe whose
    reader closes mid-write gives such a short write, which would truncate
    the report and still exit 0; a buffered file retries the rest and gets
    the broken pipe instead.  On a terminal, line buffering would make a
    system call per line the renderers write.  With no standard output
    (its descriptor was closed at start-up) it raises OSError.
    """
    out = sys.stdout
    if out is None:
        raise OSError(errno.EBADF, "standard output is closed")
    unbuffered = isinstance(getattr(out, "buffer", None), io.RawIOBase)
    if not (unbuffered or getattr(out, "line_buffering", False)):
        return contextlib.nullcontext(out)
    out.flush()
    return open(out.fileno(), "w", io.DEFAULT_BUFFER_SIZE, out.encoding, out.errors, closefd=False)


def _emit(render, payload, output: str | None) -> None:
    """Write payload to stdout or to output as render(fh, payload) renders it,
    through a block-buffered file even on a terminal.

    A new or regular output file (symlinks followed) is replaced by a complete
    temporary file beside it, so a failed write keeps any earlier report; a
    device, FIFO or pipe, or a file in an unwritable directory, is written in place.
    """
    partial = None
    if output and (os.path.isfile(output) or not os.path.exists(output)):
        target = os.path.realpath(output)
        if os.access(os.path.dirname(target), os.W_OK):
            partial = f"{target}.{os.getpid()}.tmp"
    try:
        with open(partial or output, "w", io.DEFAULT_BUFFER_SIZE) if output else _stdout() as fh:
            render(fh, payload)
            # A closed pipe must fail here, where main reports it, not at shutdown.
            fh.flush()
        if partial:
            os.replace(partial, target)
    except BaseException as exc:
        if partial and os.path.exists(partial):
            os.remove(partial)
        if isinstance(exc, OSError) and partial in (exc.filename, exc.filename2):
            # Name the file that was asked for, not the temporary one beside it.
            raise OSError(exc.errno, exc.strerror, output) from None
        raise


def _internal_error(exc: BaseException) -> int:
    print(f"error: internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return INTERNAL_ERROR


def main(argv=None) -> int:
    try:
        return _run(argv)
    except KeyboardInterrupt:
        # An --output file keeps its earlier report: _emit removes its temporary file.
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED


def _run(argv) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # reports print integers of any length
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    build, renderers = COMMANDS[args.command][:2]
    render = renderers.get(args.format, _write_json)
    try:
        # A bad SDTENSOR_BUDGET is a usage error on every subcommand, not only
        # where enumeration reads it.
        symclass.resolve_budget(getattr(args, "budget", None))
        if args.output == "":
            # _emit would take it for stdout; its real path is the working directory.
            raise ValueError("--output needs a file path, not an empty string")
        payload = build(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # The program, not the request, is at fault.
        return _internal_error(exc)
    try:
        _emit(render, payload, args.output)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader is gone; send what is still buffered to devnull so
            # the flush at interpreter shutdown cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return IO_ERROR
    except Exception as exc:
        return _internal_error(exc)
    # Only verify payloads carry "ok".
    return VERIFY_ERROR if payload.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
