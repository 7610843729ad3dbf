"""Command-line interface: every computation as a reproducible report.

Subcommands: classes, table, dims, orbits, basis, verify.  JSON is the
machine format and is byte-identical across runs for identical arguments;
CSV is available for the character table only; pretty mode renders
character values as trigonometric expressions next to their exact
coordinates.  COMMANDS maps each subcommand to its payload builder and its
text renderers.  A renderer, like the JSON writer `_write_json`, writes the
payload to a file as it goes; `_emit` opens the file.  JSON bytes are those of
json.dump(payload, indent=2, sort_keys=True) plus a newline.  The orbits and
basis payloads hold one generator per listing, so their entries are built
as they are written.

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
import io
import itertools
import json
import operator
import os
import sys
from fractions import Fraction
from types import GeneratorType

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
INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that SIGINT ended


def _cyclo_json(x: CycloInt) -> dict:
    return {"order": x.order, "coeffs": list(x.coeffs)}


def _approx_str(x: CycloInt) -> str:
    z = x.to_complex()
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def _element_json(g: SDElement) -> dict:
    return {"s": g.s, "r": g.r, "name": group.element_name(g)}


def _trig_str(n: int, cid: CharacterId, g: SDElement) -> str:
    """Human-readable exact form of a character value, read from its first
    exponent term (e, c)."""
    terms = chartab.value_terms(n, cid)[group.element_index(n, g)]
    if not terms:
        return "0"
    e, c = terms[0]
    if cid.kind == "chi":
        # one term c * zeta^e, with e a multiple of n and zeta^n = i
        return ("1", "i", "-1", "-i")[(e // n + 2 * (c < 0)) % 4]
    # zeta^e + zeta^(ke), where ke = 2ne - e mod 4n makes zeta^(ke) = (-1)^e zeta^(-e)
    frac = Fraction(e, 2 * n)
    if e % 2 == 0:
        return f"2cos({frac}*pi)" if e else "2"
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


def _classes_pretty(fh, payload: dict) -> None:
    fh.write(f"SD_{payload['group_order']}: {payload['class_count']} conjugacy classes\n")
    for c in payload["classes"]:
        fh.write(f"  [{c['representative']['name']}] size {c['size']}: {' '.join(c['members'])}\n")


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


def _table_csv(fh, payload: dict) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["character"] + payload["class_labels"])
    for row in payload["rows"]:
        writer.writerow(
            [row["character"]] + [f"({_coeffs_str(v)}) {v['approx']}" for v in row["values"]]
        )


def _table_pretty(fh, payload: dict) -> None:
    """The table of the payload, its characters and class representatives
    read back from their labels, so the table is built once per request.
    Its rows are collected first: every cell sizes its column."""
    n = payload["n"]
    by_name = {group.element_name(g): g for g in group.elements(n)}
    reps = [by_name[label] for label in payload["class_labels"]]
    rows = [["character"] + payload["class_labels"]]
    for row in payload["rows"]:
        (cid,) = chartab.parse_character_spec(n, row["character"])
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
    if args.char:
        (cid,) = chartab.parse_character_spec(n, args.char)
    orbit_list = symclass.orbits(n, m, args.budget)
    names = [group.element_name(g) for g in group.elements(n)]

    def entries():
        for o in orbit_list:
            entry = {
                "representative": o.representative,
                "orbit_size": o.size,
                "stabilizer_order": o.stabilizer_order,
                "stabilizer": [names[x] for x in o.stabilizer],
            }
            if cid is not None:
                char_sum = symclass._coset_sums(n, cid, o.stabilizer)[0]
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
            f"  {''.join(str(x) for x in o['representative'])}"
            f"  size {o['orbit_size']}  stab {o['stabilizer_order']}"
            + ("  in_delta_bar\n" if o.get("in_delta_bar") else "\n")
        )


def _basis_payload(args) -> dict:
    """One decision, or {"decisions": [...]} when the spec names several.

    Each decision's "orbits" value is a generator over
    symclass.orbital_outcomes, so the writer holds one entry at a time; the
    verdict before it comes from the distinct stabilizers' cached decisions.
    """
    n, m = args.n, args.m
    cids = chartab.parse_character_spec(n, args.char)
    orbit_list = symclass.orbits(n, m, args.budget)
    stabilizers = {o.stabilizer for o in orbit_list}
    failure = {"failure": "no orthogonal set of size orbital_dim exists"}

    def entries(cid):
        for rep, size, order, dim, found, witness in symclass.orbital_outcomes(cid, orbit_list):
            yield {
                "representative": rep,
                "orbit_size": size,
                "stabilizer_order": order,
                "orbital_dim": dim,
                **({"witness": witness} if found else failure),
            }

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
                "orbits": entries(cid),
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
            rep = "".join(str(x) for x in o["representative"])
            status = "ok" if "witness" in o else "FAIL"
            fh.write(f"  {rep}  dim {o['orbital_dim']}  size {o['orbit_size']}  {status}\n")


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
    raises passes through.  Everything else goes to json.dumps: None, bools,
    floats, empty containers, subclasses (IntEnum, namedtuple, OrderedDict,
    str subclasses) and unserializable values, which raise TypeError.

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
    templates: dict[tuple[str, int], str] = {}

    def ints(value, indent: str) -> str:
        """The text of a non-empty list of plain ints: one % on a template
        per (indent, length).  For an exact int, "%d" % x == int.__repr__(x)."""
        template = templates.get((indent, len(value)))
        if template is None:
            inner = indent + "  "
            template = templates[indent, len(value)] = (
                "[\n" + inner + (",\n" + inner).join(["%d"] * len(value)) + "\n" + indent + "]"
            )
        return template % tuple(value)

    def children(leads, items, indent: str) -> None:
        """Render each item after its lead, the separator and key before it."""
        for item, lead in zip(items, leads):
            kind = type(item)
            if kind is str:
                put(lead + encode(item))
            elif kind is int:
                put(lead + int.__repr__(item))
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
    system call per line the renderers write.
    """
    out = sys.stdout
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
    except BaseException:
        if partial and os.path.exists(partial):
            os.remove(partial)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    build, renderers = COMMANDS[args.command]
    render = _write_json if args.format == "json" else renderers.get(args.format)
    if render is None:
        parser.error(f"{args.format} format is only available for the character table")
    try:
        # A bad budget is a usage error on every subcommand, not only where
        # enumeration reads it.
        symclass.resolve_budget(args.budget)
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
