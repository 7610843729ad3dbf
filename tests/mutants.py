"""The mutation gate: small faults that named tests must catch.

Each row of MUTANTS names a file, an exact text in it that must occur there
once, the text that replaces it, the test ids that must fail and why.  Run
from anywhere:

    python tests/mutants.py

The named tests of every row first run once on an unmutated copy of the
tree (src/, tests/ and pyproject.toml) and must pass there.  Then each row
runs alone: a fresh temporary copy, its one replacement, and pytest -x on
its ids.  A row is killed when pytest exits 1, tests failed.  Exit 0 means
the mutant survived; any other exit (2 interrupted, 4 usage error, 5 no
tests collected) or a text that does not occur once means the row itself
is broken.  The script exits 0 only when every row is killed, and writes
nothing into the checkout.  pytest does not collect this file: its name
does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str


MUTANTS = (
    Mutant(
        "src/sdtensor/symclass.py",
        "reflected = stabilizer[-1] >= order",
        "reflected = stabilizer[-1] > order",
        ("tests/test_symclass.py::test_closed_form_decision_matches_the_search_on_every_subgroup",),
        "a stabilizer whose one reflection is b, at position 4n, is read as holding none",
    ),
    Mutant(
        "src/sdtensor/symclass.py",
        "if h * d % order:",
        "if h * d % (2 * order):",
        (
            "tests/test_symclass.py::test_closed_form_decision_matches_the_search_on_every_subgroup",
            "tests/test_symclass.py::test_coset_sums_match_explicit_cosets",
        ),
        "F(H) of a degree-2 character vanishes unless 4n divides hd, not 8n",
    ),
    Mutant(
        "src/sdtensor/symclass.py",
        "for x in subgroup for term in terms[x]",
        "for x in subgroup[1:] for term in terms[x]",
        (
            "tests/test_symclass.py::test_stabilizer_char_sum_examples",
            "tests/test_symclass.py::test_coset_sums_match_explicit_cosets",
        ),
        "F(H) drops the identity's term",
    ),
    Mutant(
        "src/sdtensor/cyclo.py",
        "vec[e % order] += c",
        "vec[e] += c",
        (
            "tests/test_dims.py::test_one_letter_alphabet",
            "tests/test_exponent_sums.py::test_from_exponents_matches_the_unfolded_reduction",
        ),
        "from_terms must fold exponents past the order, as dim_general's exp_a * r0",
    ),
    Mutant(
        "src/sdtensor/cyclo.py",
        "vec[e % order] += c",
        "vec[e % order] = c",
        (
            "tests/test_dims.py::test_one_letter_alphabet",
            "tests/test_chartab.py::test_column_relation",
        ),
        "from_terms must add terms that share an exponent, not keep the last",
    ),
    Mutant(
        "src/sdtensor/dims.py",
        "for r0 in range(4)]",
        "for r0 in range(3)]",
        (
            "tests/test_dims.py::test_one_letter_alphabet",
            "tests/test_dims.py::test_divisor_route_matches_the_trace",
        ),
        "the reflection sum of a linear character has four classes of r mod 4",
    ),
    Mutant(
        "src/sdtensor/group.py",
        "    check_element(n, x)\n    s, r = divmod(x, 4 * n)\n",
        "    s, r = divmod(x, 4 * n)\n",
        ("tests/test_group.py::test_element_entry_points_check_position",),
        "element_name names 8n as b and -1 as ba^(8n-1)",
    ),
    Mutant(
        "src/sdtensor/dims.py",
        "if not (type(m) is int and m >= 1):",
        "if m < 1:",
        ("tests/test_dims.py::test_rejects_bad_parameters",),
        "a float alphabet size gives a float dimension, and True runs as m = 1",
    ),
    Mutant(
        "src/sdtensor/symclass.py",
        "if not (type(m) is int and m >= 1):",
        "if m < 1:",
        ("tests/test_symclass.py::test_orbits_refuse_an_alphabet_past_one_byte",),
        "orbits(n, True) runs as m = 1, and a float m fails with TypeError",
    ),
    Mutant(
        "src/sdtensor/symclass.py",
        "first = length + (c - k * o) % period",
        "first = length + (c + k * o) % period",
        ("tests/test_symclass.py::test_orbit_stabilizers_match_the_scan_of_all_8n_maps",),
        "the reflections fixing a necklace are b a^r with r = c - k o, not c + k o",
    ),
    Mutant(
        "src/sdtensor/symclass.py",
        "if any(t != (k * s + c) % (4 * n) for s, t in enumerate(row)):",
        "if False:",
        ("tests/test_symclass.py::test_orbits_refuse_a_reflection_that_is_not_affine",),
        "an embedding of b that is not affine must be refused, not read as (k, c)",
    ),
    Mutant(
        "src/sdtensor/group.py",
        "(twist(n) ** s2 * r1 + r2) % m",
        "(twist(n) ** s1 * r1 + r2) % m",
        ("tests/test_group.py::test_defining_relations",),
        "pushing a^r1 past b^s2 twists by k^s2",
    ),
    Mutant(
        "src/sdtensor/group.py",
        "0 <= x < 8 * n",
        "0 <= x <= 8 * n",
        ("tests/test_group.py::test_element_entry_points_check_position",),
        "8n is past the last element",
    ),
    Mutant(
        "src/sdtensor/cyclo.py",
        "for d in [d for mu, d in pairs if mu > 0]:",
        "for d in [d for mu, d in pairs if mu < 0]:",
        ("tests/test_cyclo.py::test_cyclotomic_known_values",),
        "Phi_k multiplies the binomials with mu = +1 and divides by those with mu = -1",
    ),
    Mutant(
        "src/sdtensor/verify.py",
        "CycloInt.from_int(4 * n, den if id1 == id2 else 0)",
        "CycloInt.from_int(4 * n, 0)",
        ("tests/test_cli.py::test_verify_group_level",),
        "row_orthonormality must hold a character's norm to 8n",
    ),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=skip)
        else:
            shutil.copy2(source, dest / name)


def _pytest(tree: Path, ids) -> int | str:
    """pytest's exit code on ids in tree, or "timed out"."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    try:
        done = subprocess.run(
            argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return done.returncode


def _run(mutant: Mutant | None, ids) -> int | str:
    with tempfile.TemporaryDirectory(prefix="sdtensor-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return f"old text occurs {text.count(mutant.old)} times"
            target.write_text(text.replace(mutant.old, mutant.new))
        return _pytest(tree, ids)


def main() -> int:
    every_id = list(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
    baseline = _run(None, every_id)
    if baseline != 0:
        print(f"error: the named tests do not pass on the unmutated tree (pytest: {baseline})")
        return 1
    broken = 0
    for i, mutant in enumerate(MUTANTS):
        start = time.perf_counter()
        outcome = _run(mutant, mutant.tests)
        verdict = "killed" if outcome == 1 else "SURVIVED" if outcome == 0 else f"ERROR ({outcome})"
        broken += outcome != 1
        print(f"{i:2} {verdict:<9} {time.perf_counter() - start:5.1f}s  {mutant.path}: {mutant.new!r}", flush=True)
    print(f"{len(MUTANTS) - broken} of {len(MUTANTS)} mutants killed")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
