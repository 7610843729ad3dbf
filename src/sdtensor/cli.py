"""Command-line interface: every computation as a reproducible report.

Subcommands: classes, table, dims, orbits, basis, verify.  JSON is the
machine format and is byte-identical across runs for identical arguments;
CSV is available for the character table only; pretty mode renders
character values as trigonometric expressions next to their exact
coordinates.  COMMANDS maps each subcommand to its payload builder and its
text renderers; `_emit` writes the rendered text, or streams the JSON payload
through the one JSON writer, `_write_json`, whose bytes are those of
json.dump(payload, indent=2, sort_keys=True) plus a newline.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
refusal, 4 the report could not be written (an unwritable --output, or a
reader that closed the pipe), 5 internal error (a broken invariant, an
arithmetic failure or exhausted memory).  Diagnostics go to standard error,
never as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import chartab, dims, group, symclass, verify
from .chartab import CharacterId
from .cyclo import CycloInt
from .group import SDElement
from .symclass import BudgetExceededError

USAGE_ERROR = 2
VERIFY_ERROR = 1
BUDGET_ERROR = 3
IO_ERROR = 4
INTERNAL_ERROR = 5

# What a computation raises when the program, not the request, is at fault.
# BudgetExceededError is a RuntimeError too, so it must be caught first.
INTERNAL_FAILURES = (RuntimeError, ArithmeticError, MemoryError)


def _cyclo_json(x: CycloInt) -> dict:
    return {"order": x.order, "coeffs": list(x.coeffs)}


def _approx_str(x: CycloInt) -> str:
    z = x.to_complex()
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def _element_json(g: SDElement) -> dict:
    return {"s": g.s, "r": g.r, "name": group.element_name(g)}


def _trig_str(n: int, cid: CharacterId, g: SDElement) -> str:
    """Human-readable exact form of a character value."""
    if cid.kind == "chi":
        value = chartab.character_value(n, cid, g)
        z = value.to_complex()
        if abs(z.imag) < 1e-9:
            return str(int(round(z.real)))
        return "i" if z.imag > 0 else "-i"
    if g.s:
        return "0"
    h = cid.param
    frac = Fraction(h * g.r, 2 * n) % 2
    if h % 2 == 0 or g.r % 2 == 0:
        return f"2cos({frac}*pi)" if frac else "2"
    # odd h at an odd rotation exponent: purely imaginary sine value
    return f"2i*sin({frac}*pi)"


def _classes_payload(args) -> dict:
    n = args.n
    report = group.conjugacy_classes(n)
    return {
        "n": n,
        "group_order": 8 * n,
        "class_count": report.count,
        "classes": [
            {
                "representative": _element_json(rep),
                "size": len(members),
                "members": [group.element_name(g) for g in members],
            }
            for rep, members in report.classes
        ],
    }


def _classes_pretty(payload: dict) -> str:
    lines = [f"SD_{payload['group_order']}: {payload['class_count']} conjugacy classes"]
    for c in payload["classes"]:
        lines.append(
            f"  [{c['representative']['name']}] size {c['size']}: "
            + " ".join(c["members"])
        )
    return "\n".join(lines) + "\n"


def _table_payload(args) -> dict:
    n = args.n
    table = chartab.character_table(n)
    return {
        "n": n,
        "class_labels": [group.element_name(rep) for rep in table.class_reps],
        "class_sizes": [len(m) for _, m in table.classes.classes],
        "rows": [
            {
                "character": cid.label(),
                "degree": cid.degree,
                "values": [
                    {
                        "exact": _cyclo_json(value),
                        "approx": _approx_str(value),
                    }
                    for value in table.entries[i]
                ],
            }
            for i, cid in enumerate(table.ids)
        ],
    }


def _coeffs_str(value: dict) -> str:
    return ";".join(str(c) for c in value["exact"]["coeffs"])


def _table_csv(payload: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["character"] + payload["class_labels"])
    for row in payload["rows"]:
        writer.writerow(
            [row["character"]] + [f"({_coeffs_str(v)}) {v['approx']}" for v in row["values"]]
        )
    return out.getvalue()


def _table_pretty(payload: dict) -> str:
    n = payload["n"]
    table = chartab.character_table(n)
    rows = [["character"] + payload["class_labels"]]
    for cid, row in zip(table.ids, payload["rows"]):
        rows.append(
            [row["character"]]
            + [
                f"{_trig_str(n, cid, rep)} ({_coeffs_str(v)})"
                for rep, v in zip(table.class_reps, row["values"])
            ]
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "".join("  ".join(s.ljust(w) for s, w in zip(r, widths)) + "\n" for r in rows)


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


def _dims_pretty(payload: dict) -> str:
    lines = [f"dim V_chi(SD_{8 * payload['n']}) at m = {payload['m']}"]
    for e in payload["dims"]:
        closed = "-" if e["closed_form"] is None else str(e["closed_form"])
        flag = "ok" if e["agree"] else "MISMATCH"
        lines.append(f"  {e['character']:>8}  general={e['general']}  closed={closed}  {flag}")
    lines.append(
        f"  total {payload['total']} "
        + ("== m^4n" if payload["total_identity_holds"] else "!= m^4n (BROKEN)")
    )
    return "\n".join(lines) + "\n"


def _orbits_payload(args) -> dict:
    n, m = args.n, args.m
    if args.char == "all":
        raise ValueError("orbits takes one character; --char all is for basis")
    cid = None
    if args.char:
        (cid,) = chartab.parse_character_spec(n, args.char)
    orbit_list = symclass.orbits(n, m, args.budget)
    payload = {
        "n": n,
        "m": m,
        "orbit_count": len(orbit_list),
        "orbits": [],
    }
    if cid is not None:
        payload["character"] = cid.label()
    for o in orbit_list:
        entry = {
            "representative": list(o.representative),
            "orbit_size": o.size,
            "stabilizer_order": o.stabilizer_order,
            "stabilizer": [group.element_name(g) for g in o.stabilizer],
        }
        if cid is not None:
            char_sum = symclass._subgroup_char_sum(n, cid, o.stabilizer)
            entry["char_sum"] = _cyclo_json(char_sum)
            entry["in_delta_bar"] = not char_sum.is_zero
        payload["orbits"].append(entry)
    return payload


def _orbits_pretty(payload: dict) -> str:
    lines = [
        f"{payload['orbit_count']} orbits of SD_{8 * payload['n']} on "
        f"{payload['m']}^{4 * payload['n']} sequences"
    ]
    for o in payload["orbits"]:
        line = (
            f"  {''.join(str(x) for x in o['representative'])}"
            f"  size {o['orbit_size']}  stab {o['stabilizer_order']}"
        )
        if "in_delta_bar" in o:
            line += "  in_delta_bar" if o["in_delta_bar"] else ""
        lines.append(line)
    return "\n".join(lines) + "\n"


def _basis_payload(args) -> dict:
    """One decision, or {"decisions": [...]} when the spec names several."""
    cids = chartab.parse_character_spec(args.n, args.char)
    orbit_list = symclass.orbits(args.n, args.m, args.budget)
    decisions = [_decision_payload(args.n, args.m, cid, orbit_list) for cid in cids]
    return decisions[0] if len(decisions) == 1 else {"decisions": decisions}


def _decision_payload(n: int, m: int, cid: CharacterId, orbit_list) -> dict:
    decision = symclass.decide_orthogonal_basis(cid, orbit_list)
    predicted = symclass.predicted_basis(n, cid)
    return {
        "n": n,
        "m": m,
        "character": cid.label(),
        "predicted": predicted,
        "exhaustive": decision.exists,
        "agree": predicted == decision.exists,
        "orbits": [
            {
                "representative": list(o.representative),
                "orbit_size": o.orbit_size,
                "stabilizer_order": o.stabilizer_order,
                "orbital_dim": o.orbital_dim,
                **(
                    {"witness": [list(w) for w in o.witness]}
                    if o.witness is not None
                    else {"failure": "no orthogonal set of size orbital_dim exists"}
                ),
            }
            for o in decision.orbits
        ],
    }


def _basis_pretty(payload: dict) -> str:
    lines = []
    for d in payload.get("decisions", [payload]):
        lines.append(
            f"{d['character']} at n={d['n']}, m={d['m']}: "
            f"predicted={d['predicted']} exhaustive={d['exhaustive']}"
            + ("" if d["agree"] else "  (DISAGREE)")
        )
        for o in d["orbits"]:
            rep = "".join(str(x) for x in o["representative"])
            status = "ok" if "witness" in o else "FAIL"
            lines.append(
                f"  {rep}  dim {o['orbital_dim']}  size {o['orbit_size']}  {status}"
            )
    return "\n".join(lines) + "\n"


def _verify_payload(args) -> dict:
    checks = verify.run_checks(args.n, args.m, args.budget)
    return {
        "n": args.n,
        "m": args.m,
        "ok": all(flag for _, flag, _ in checks),
        "checks": [{"name": name, "ok": flag, "detail": detail} for name, flag, detail in checks],
    }


def _verify_pretty(payload: dict) -> str:
    lines = [
        f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}" for c in payload["checks"]
    ]
    lines.append("all checks passed" if payload["ok"] else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n"


# subcommand -> (payload builder, text renderers by format); JSON needs none.
COMMANDS = {
    "classes": (_classes_payload, {"pretty": _classes_pretty}),
    "table": (_table_payload, {"csv": _table_csv, "pretty": _table_pretty}),
    "dims": (_dims_payload, {"pretty": _dims_pretty}),
    "orbits": (_orbits_payload, {"pretty": _orbits_pretty}),
    "basis": (_basis_payload, {"pretty": _basis_pretty}),
    "verify": (_verify_payload, {"pretty": _verify_pretty}),
}


def _add_common(parser, with_m=False, m_required=False, with_char=False, char_required=False):
    parser.add_argument("--n", type=int, required=True, help="group parameter; the group is SD_{8n}")
    if with_m:
        parser.add_argument("--m", type=int, required=m_required, help="alphabet size / dim V")
    if with_char:
        parser.add_argument(
            "--char",
            required=char_required,
            help="character spec: chi:<i> | zeta:<h> | psi:<h> | all (basis only)",
        )
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    parser.add_argument("--output", help="write report to this path instead of stdout")
    parser.add_argument("--budget", type=int, help="sequence enumeration budget override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdtensor",
        description="Exact reports on SD_{8n}: conjugacy classes, character tables, "
        "symmetry-class dimensions, orbits, and orthogonal-basis decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("classes", help="conjugacy class report"))
    _add_common(sub.add_parser("table", help="character table (json, csv, or pretty)"))
    _add_common(sub.add_parser("dims", help="symmetry class dimensions"), with_m=True, m_required=True)
    _add_common(
        sub.add_parser("orbits", help="orbit / stabilizer listing"),
        with_m=True,
        m_required=True,
        with_char=True,
    )
    _add_common(
        sub.add_parser("basis", help="orthogonal-basis decision (predicted and exhaustive)"),
        with_m=True,
        m_required=True,
        with_char=True,
        char_required=True,
    )
    _add_common(sub.add_parser("verify", help="full invariant suite"), with_m=True)
    return parser


# The JSON writer hands the file at most this many characters per write, so
# its memory does not grow with the report.
_WRITE_CHARS = 1 << 16


def _write_json(fh, payload) -> None:
    """Write payload to fh exactly as json.dump(payload, fh, indent=2,
    sort_keys=True) followed by a newline would, in writes of at most
    _WRITE_CHARS characters (unless one string or int list is longer).

    A list of plain ints is rendered by one join.  Anything that is not a
    str, int, bool, None, or a non-empty list, tuple or str-keyed dict goes
    to json.dumps, so floats match and an unserializable value raises
    TypeError.

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
    pieces: list[str] = []
    held = 0

    def put(piece: str) -> None:
        nonlocal held
        if held + len(piece) > _WRITE_CHARS and pieces:
            fh.write("".join(pieces))
            pieces.clear()
            held = 0
        pieces.append(piece)
        held += len(piece)

    def render(value, indent: str, lead: str) -> None:
        """Render value after lead, the separator and key that precede it."""
        # The order of these tests is json.encoder's: bool before int.
        if isinstance(value, str):
            put(lead + encode(value))
        elif value is None:
            put(lead + "null")
        elif value is True:
            put(lead + "true")
        elif value is False:
            put(lead + "false")
        elif isinstance(value, int):
            put(lead + int.__repr__(value))
        elif isinstance(value, (list, tuple)) and value:
            inner = indent + "  "
            if {*map(type, value)} == {int}:
                items = (",\n" + inner).join(map(str, value))
                put(lead + "[\n" + inner + items + "\n" + indent + "]")
                return
            sep = lead + "[\n" + inner
            for item in value:
                render(item, inner, sep)
                sep = ",\n" + inner
            put("\n" + indent + "]")
        elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
            inner = indent + "  "
            sep = lead + "{\n" + inner
            for key in sorted(value):
                render(value[key], inner, sep + encode(key) + ": ")
                sep = ",\n" + inner
            put("\n" + indent + "}")
        else:
            # Empty containers, floats and the rest.  JSON strings hold no
            # raw newline, so re-indenting is exact.
            put(lead + json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))

    render(payload, "", "")
    put("\n")
    fh.write("".join(pieces))


def _stdout():
    """sys.stdout, or a buffered text file on its descriptor if it is unbuffered.

    Under python -u or PYTHONUNBUFFERED, sys.stdout writes straight to the
    raw file and drops whatever a short write leaves over.  A pipe whose
    reader closes mid-write gives such a short write, which would truncate
    the report and still exit 0; a buffered file retries the rest and gets
    the broken pipe instead.
    """
    if not isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        return contextlib.nullcontext(sys.stdout)
    sys.stdout.flush()
    return open(
        sys.stdout.fileno(), "w", encoding=sys.stdout.encoding, errors=sys.stdout.errors, closefd=False
    )


def _emit(report: str | dict, output: str | None) -> None:
    """Write a text report, or stream a JSON payload, to stdout or to output.

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
        with open(partial or output, "w") if output else _stdout() as fh:
            if isinstance(report, str):
                fh.write(report)
            else:
                _write_json(fh, report)
            # A closed pipe must fail here, where main reports it, not at shutdown.
            fh.flush()
        if partial:
            os.replace(partial, target)
    except BaseException:
        if partial and os.path.exists(partial):
            os.remove(partial)
        raise


def _internal_error(exc: BaseException) -> int:
    print(f"error: internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return INTERNAL_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    build, renderers = COMMANDS[args.command]
    if args.format != "json" and args.format not in renderers:
        parser.error(f"{args.format} format is only available for the character table")
    try:
        # A bad budget is a usage error on every subcommand, not only where
        # enumeration reads it.
        symclass.resolve_budget(args.budget)
        payload = build(args)
        report = payload if args.format == "json" else renderers[args.format](payload)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except INTERNAL_FAILURES as exc:
        return _internal_error(exc)
    try:
        _emit(report, args.output)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader is gone; send what is still buffered to devnull so
            # the flush at interpreter shutdown cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return IO_ERROR
    except INTERNAL_FAILURES as exc:
        return _internal_error(exc)
    # Only verify payloads carry "ok".
    return VERIFY_ERROR if payload.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
