"""The invariant suite behind the `verify` subcommand.

Each check returns (name, ok, detail).  Checks that need the alphabet size
are skipped when m is not supplied; with m, the orbits are enumerated first,
so an alphabet over the budget is refused before any check runs.  Everything
asserted here is an exact identity, no tolerances anywhere.

Two group-level checks read tables on element positions, the indexing of
group.elements that symclass reads too: `class_function` reads each
character's value table, and `embedding_homomorphism` compares the image
tuples of T against `group.product_table`, the table behind the coset and
Gram kernels.  `row_orthonormality` stays an element-wise sum and
`group.conjugacy_classes` stays on `group.multiply`, as independent routes.
"""

from __future__ import annotations

import operator
from collections import Counter
from math import gcd

from . import chartab, dims, group, perm, symclass
from .cyclo import CycloInt, root_power


def run_checks(n: int, m: int | None, budget: int | None):
    orbit_list = None if m is None else symclass.orbits(n, m, budget)
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
        len({values[g] for g in members}) == 1
        for values in (chartab.value_table(n, cid) for cid in ids)
        for _, members in classes.classes
    )
    checks.append(("class_function", class_fun_ok, "values constant on conjugacy classes"))

    elements = group.elements(n)
    embedded = [perm.embed(n, g) for g in elements]
    cycle_ok = all(
        perm.cycle_count_formula(n, g) == perm.cycle_decomposition(p).count
        for g, p in zip(elements, embedded)
    )
    checks.append(("cycle_count_formula", cycle_ok, "closed form matches direct factorization"))

    # T(g_i g_j) == T(g_i) o T(g_j), composed right factor first as
    # perm.compose does: after[j] maps the images of p to those of p o T(g_j).
    images = [p.images for p in embedded]
    after = [operator.itemgetter(*(t - 1 for t in q)) for q in images]
    hom_ok = all(
        images[k] == after[j](images[i])
        for i, row in enumerate(group.product_table(n))
        for j, k in enumerate(row)
    )
    checks.append(("embedding_homomorphism", hom_ok, "checked on all pairs"))

    vanish_ok = all(
        symclass.cosine_vanishing_exists(n, h) == (symclass.nu2(h, 2 * n) < 0)
        for h in range(1, 2 * n)
    )
    checks.append(
        ("valuation_criterion", vanish_ok, "cosine vanishing matches nu2(h/2n) < 0 for all h")
    )

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
        stabilizer_counts = Counter(o.stabilizer for o in orbit_list)
        direct_ok = True
        for cid in ids:
            dim_sum = 0
            for stab, count in stabilizer_counts.items():
                char_sum = symclass._subgroup_char_sum(n, cid, stab)
                if char_sum.is_zero:
                    continue
                dim_sum += count * symclass._orbital_dim(cid, char_sum, len(stab))
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
                expected = 2 * l if (r * cid.param) % (4 * n) == 0 else 0
                zeta_ok &= (char_sum - expected).is_zero
        checks.append(
            (
                "stabilizer_sum_structure",
                zeta_ok,
                "zeta character sums are 2l exactly when r*h = 0 mod 4n, else 0",
            )
        )

        if m >= 2:
            # A decision depends on the stabilizer alone, so each character
            # is decided once per distinct stabilizer in Omega, not per orbit.
            disagreements = []
            for cid in ids:
                if cid.degree != 2:
                    continue
                exists = all(
                    symclass._stabilizer_decision(n, cid, stab)[1]
                    for stab in stabilizer_counts
                    if not symclass._subgroup_char_sum(n, cid, stab).is_zero
                )
                predicted = symclass.predicted_basis(n, cid)
                if exists != predicted:
                    disagreements.append(f"{cid.label()} exhaustive={exists} predicted={predicted}")
            checks.append(
                (
                    "criterion_equivalence",
                    not disagreements,
                    "; ".join(disagreements) if disagreements else "exhaustive search matches the prediction table",
                )
            )

    return checks
