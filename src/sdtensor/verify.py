"""The invariant suite behind the `verify` subcommand.

Each check returns (name, ok, detail).  Checks that need the alphabet size
are skipped when m is not supplied; enumeration checks respect the budget.
Everything asserted here is an exact identity, no tolerances anywhere.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from . import chartab, dims, group, perm, symclass
from .cyclo import CycloInt, root_power


def run_checks(n: int, m: int | None, budget: int | None):
    checks = []

    classes = group.conjugacy_classes(n)
    expected = 2 * n + 3 if n % 2 == 0 else 2 * n + 6
    checks.append(
        (
            "class_count",
            classes.count == expected,
            f"{classes.count} classes (expected {expected})",
        )
    )
    checks.append(
        (
            "class_equation",
            sum(len(ms) for _, ms in classes.classes) == 8 * n,
            f"class sizes sum to {sum(len(ms) for _, ms in classes.classes)}",
        )
    )

    ids = chartab.character_ids(n)
    checks.append(
        (
            "character_count",
            len(ids) == classes.count,
            f"{len(ids)} irreducible characters vs {classes.count} classes",
        )
    )
    checks.append(
        (
            "degree_sum",
            sum(cid.degree**2 for cid in ids) == 8 * n,
            "sum of squared degrees equals the group order",
        )
    )

    ortho_ok = True
    for i, id1 in enumerate(ids):
        for id2 in ids[i:]:
            num, den = chartab.char_inner_product(n, id1, id2)
            want = den if id1 == id2 else 0
            if not (num - want).is_zero:
                ortho_ok = False
    checks.append(
        ("row_orthonormality", ortho_ok, "inner products are exactly 8n * delta")
    )

    column_ok = True
    for rep in classes.representatives:
        acc = CycloInt.zero(4 * n)
        for cid in ids:
            acc = acc + cid.degree * chartab.character_value(n, cid, rep)
        want = 8 * n if rep == group.identity() else 0
        if not (acc - want).is_zero:
            column_ok = False
    checks.append(
        ("column_relation", column_ok, "degree-weighted column sums vanish off the identity")
    )

    class_fun_ok = all(
        chartab.character_value(n, cid, g) == chartab.character_value(n, cid, rep)
        for cid in ids
        for rep, members in classes.classes
        for g in members
    )
    checks.append(("class_function", class_fun_ok, "values constant on conjugacy classes"))

    embedded = {g: perm.embed(n, g) for g in group.elements(n)}
    cycle_ok = all(
        perm.cycle_count_formula(n, g) == perm.cycle_decomposition(p).count
        for g, p in embedded.items()
    )
    checks.append(("cycle_count_formula", cycle_ok, "closed form matches direct factorization"))

    hom_ok = all(
        embedded[group.multiply(n, g, h)] == perm.compose(p, q)
        for g, p in embedded.items()
        for h, q in embedded.items()
    )
    checks.append(("embedding_homomorphism", hom_ok, "checked on all pairs"))

    vanish_ok = all(
        symclass.cosine_vanishing_exists(n, h) == (symclass.nu2(h, 2 * n) < 0)
        for h in range(1, 2 * n)
    )
    checks.append(
        ("valuation_criterion", vanish_ok, "cosine vanishing matches nu2(h/2n) < 0 for all h")
    )

    report = None
    if m is not None:
        report = dims.dim_report(n, m)
        flagged = [e for e in report.entries if not e.agree]
        clean_ok = all(
            e.agree for e in report.entries if e.character.kind not in ("psi",)
            and not (e.character == chartab.chi(3) and n % 2 == 1)
        )
        checks.append(
            (
                "dims_cross_check",
                clean_ok,
                f"{len(report.entries) - len(flagged)} closed forms agree; "
                f"flagged: {', '.join(e.character.label() for e in flagged) or 'none'}",
            )
        )
        checks.append(
            (
                "dims_total_identity",
                report.total_identity_holds,
                f"dimensions sum to {report.total} (m^4n = {m ** (4 * n)})",
            )
        )

        total = m ** (4 * n)
        limit = symclass.resolve_budget(budget)
        if total <= limit:
            orbit_list = symclass.orbits(n, m, budget)
            chi0 = chartab.chi(0)
            checks.append(
                (
                    "burnside_orbit_count",
                    len(orbit_list) == dims.dim_general(n, m, chi0),
                    f"{len(orbit_list)} orbits vs dim for {chi0.label()}",
                )
            )
            checks.append(
                (
                    "orbit_stabilizer",
                    all(o.size * o.stabilizer_order == 8 * n for o in orbit_list),
                    "orbit size times stabilizer order equals 8n",
                )
            )

            # orbits sharing a stabilizer share its character sums
            stabilizer_counts = Counter(frozenset(o.stabilizer) for o in orbit_list)
            direct_ok = True
            for cid in ids:
                dim_sum = 0
                for stab, count in stabilizer_counts.items():
                    char_sum = symclass._subgroup_char_sum(n, cid, stab)
                    if char_sum.is_zero:
                        continue
                    dim_sum += count * symclass._orbital_dim(n, cid, char_sum, len(stab))
                if dim_sum != dims.dim_general(n, m, cid):
                    direct_ok = False
            checks.append(
                (
                    "orbital_direct_sum",
                    direct_ok,
                    "orbital dimensions over delta-bar sum to the class dimension",
                )
            )

            zeta_ok = True
            zetas = [chartab.zeta(h) for h in chartab.index_sets(n).Cdag_even]
            for stab in stabilizer_counts:
                r, _ = group.cyclic_intersection(n, stab)
                l = 4 * n // gcd(4 * n, r) if r else 1
                for cid in zetas:
                    char_sum = symclass._subgroup_char_sum(n, cid, stab)
                    expected_nonzero = (r * cid.param) % (4 * n) == 0
                    if expected_nonzero:
                        if not (char_sum - 2 * l).is_zero:
                            zeta_ok = False
                    elif not char_sum.is_zero:
                        zeta_ok = False
            checks.append(
                (
                    "stabilizer_sum_structure",
                    zeta_ok,
                    "zeta character sums are 2l exactly when r*h = 0 mod 4n, else 0",
                )
            )

            if m >= 2:
                agree_ok = True
                disagreements = []
                for cid in ids:
                    if cid.degree != 2:
                        continue
                    decision = symclass.decide_orthogonal_basis(
                        n, m, cid, budget, orbit_list=orbit_list
                    )
                    predicted = symclass.predicted_basis(n, cid)
                    if decision.exists != predicted:
                        agree_ok = False
                        disagreements.append(
                            f"{cid.label()} exhaustive={decision.exists} predicted={predicted}"
                        )
                checks.append(
                    (
                        "criterion_equivalence",
                        agree_ok,
                        "; ".join(disagreements) if disagreements else "exhaustive search matches the prediction table",
                    )
                )

    return checks
