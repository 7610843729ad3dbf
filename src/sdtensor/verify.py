"""The invariant suite behind the `verify` subcommand.

Each check returns (name, ok, detail).  Checks that need the alphabet size
are skipped when m is not supplied; with m, the orbits are enumerated first,
so an alphabet over the budget is refused before any check runs.  Everything
asserted here is an exact identity, no tolerances anywhere.

Three group-level checks read `group.product_table`, the table on element
positions behind the coset and Gram kernels: `class_count` and
`class_equation` find the classes again on it, as the orbits of x -> g x g^(-1),
and compare them with `group.conjugacy_classes`, which stays on
`group.multiply`; `embedding_homomorphism` compares the image tuples of T
against it.  Character sums are exponent vectors reduced once, as in
`chartab`: `column_relation` reduces one per class, `row_orthonormality`
stays an element-wise sum, and `class_function` reads `character_value` at
every class member.  With m, `dims_cross_check` holds every report
dimension to the element-by-element `dims.dim_trace` as well as to the
closed-form catalog, whose psi and odd-n chi:3 entries are known defects.
"""

from __future__ import annotations

import operator
from collections import Counter

from . import chartab, dims, group, perm, symclass
from .cyclo import from_exponents


def run_checks(n: int, m: int | None, budget: int | None):
    orbit_list = None if m is None else symclass.orbits(n, m, budget)
    checks = []

    classes = group.conjugacy_classes(n)
    sizes = [len(ms) for _, ms in classes.classes]
    # the same classes on table positions: x ~ g x g^(-1), where g^(-1) is
    # the column in which row g holds the identity, position 0
    table = group.product_table(n)
    inverses = [row.index(0) for row in table]
    table_classes = {
        frozenset(table[row[x]][inv] for row, inv in zip(table, inverses)) for x in range(8 * n)
    }
    table_sizes = [len(c) for c in sorted(table_classes, key=min)]
    expected = 2 * n + 3 if n % 2 == 0 else 2 * n + 6
    checks.append(
        (
            "class_count",
            len(table_classes) == expected == classes.count,
            f"{classes.count} classes (expected {expected})",
        )
    )
    checks.append(
        (
            "class_equation",
            sum(table_sizes) == 8 * n
            and all(8 * n % size == 0 for size in table_sizes)
            and table_sizes == sizes,
            f"class sizes sum to {sum(sizes)}",
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
        vec = [0] * (4 * n)
        position = group.element_index(n, rep)
        for cid in ids:
            for e, c in chartab.value_terms(n, cid)[position]:
                vec[e] += cid.degree * c
        if rep == group.identity():
            vec[0] -= 8 * n
        column_ok &= from_exponents(4 * n, vec).is_zero
    checks.append(
        ("column_relation", column_ok, "degree-weighted column sums vanish off the identity")
    )

    class_fun_ok = all(
        len({chartab.character_value(n, cid, g) for g in members}) == 1
        for cid in ids
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
        clean_ok = all(e.agree or dims.known_defect(n, e.character) for e in report.entries)
        general = {e.character: e.general for e in report.entries}
        trace_ok = all(dims.dim_trace(n, m, cid) == value for cid, value in general.items())
        checks.append(
            (
                "dims_cross_check",
                clean_ok and trace_ok,
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
                len(orbit_list) == general[chi0],
                f"{len(orbit_list)} orbits vs dim for {chi0.label()}",
            )
        )
        # each stabilizer fixes its representative, and the first orbit of
        # each stabilizer H has 8n/|H| images under the whole group
        moves = symclass._action_maps(n)
        firsts = {o.stabilizer: o.representative for o in reversed(orbit_list)}
        checks.append(
            (
                "orbit_stabilizer",
                all(moves[x](o.representative) == o.representative for o in orbit_list for x in o.stabilizer)
                and all(len({move(rep) for move in moves}) * len(stab) == 8 * n for stab, rep in firsts.items())
                and sum(o.size for o in orbit_list) == m ** (4 * n),
                "orbit size times stabilizer order equals 8n",
            )
        )

        # orbits sharing a stabilizer share its character sums; outside
        # Omega, F(H) = 0 and so is the orbital dimension
        stabilizer_counts = Counter(o.stabilizer for o in orbit_list)
        direct_ok = True
        for cid in ids:
            dim_sum = sum(
                count * symclass._orbital_dim(cid, symclass._coset_sums(n, cid, stab)[0], len(stab))
                for stab, count in stabilizer_counts.items()
            )
            direct_ok &= dim_sum == general[cid]
        checks.append(
            (
                "orbital_direct_sum",
                direct_ok,
                "orbital dimensions over delta-bar sum to the class dimension",
            )
        )

        zeta_ok = True
        zetas = [cid for cid in ids if cid.kind == "zeta"]
        for stab in stabilizer_counts:
            # H meets <a> in the l positions below 4n, generated by a^(4n/l),
            # whose h-th power is 1 exactly when l divides h
            l = sum(x < 4 * n for x in stab)
            for cid in zetas:
                char_sum = symclass._coset_sums(n, cid, stab)[0]
                expected = 2 * l if cid.param % l == 0 else 0
                zeta_ok &= (char_sum - expected).is_zero
        checks.append(
            (
                "stabilizer_sum_structure",
                zeta_ok,
                "zeta character sums are 2l exactly when r*h = 0 mod 4n, else 0",
            )
        )

        if m >= 2:
            disagreements = []
            for cid in ids:
                if cid.degree != 2:
                    continue
                exists = symclass.has_orthogonal_basis(n, cid, stabilizer_counts)
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
