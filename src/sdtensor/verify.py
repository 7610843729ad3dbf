"""The invariant suite behind the `verify` subcommand.

Each check returns (name, ok, detail).  Checks that need the alphabet size
are skipped when m is not supplied; with m, the orbits are enumerated first,
so an alphabet over the budget is refused before any check runs.  Everything
asserted here is an exact identity, no tolerances anywhere.

Three group-level checks read `group.product_table`, the Cayley table on
element positions: `class_count` and `class_equation` find the classes
again on it, as the orbits of x -> g x g^(-1), and compare them with
`group.conjugacy_classes`, which stays on `group.multiply`;
`embedding_homomorphism` compares the image tuples of T against it.  It
composes only with the generators, checking T(1) = id and
T(s g) = T(s) T(g) for s in {a, b} and every g: 16n compositions.  That is
T(x g) = T(x) T(g) for every pair, by induction on a word in a and b for
x.  For x = 1 it is T(1) = id.  For x = s x' with the claim true of x',
T(s x' g) = T(s) T(x' g) = T(s) T(x') T(g) = T(s x') T(g).  So its detail,
"checked on all pairs", holds.  It also proves every T(g) a bijection,
which `perm` does not check: T(g) T(g^(-1)) = T(1) = id.

Character sums are exponent terms reduced once, as in `chartab`:
`column_relation` passes each class's terms to `cyclo.from_terms`, and
`row_orthonormality` reads `chartab.char_inner_product`, one term per class
representative weighted by the class size.  `class_function` compares the
sorted exponent terms of the members of each class.  Equal terms give equal
values, and only where they differ are the values reduced by
`character_value`, so the check is still an exact equivalence.

With m, `dims_cross_check` holds every report dimension to the
element-by-element `dims.dim_trace` as well as to the closed-form catalog,
whose psi and odd-n chi:3 entries are known defects, and
`orbital_direct_sum` and `stabilizer_sum_structure` read F(H) in Z[zeta]
from `symclass._subgroup_char_sum`, a route apart from the integer
decisions that `criterion_equivalence` compares with the prediction table
and that `orbits --char` writes F(H) from.
"""

from __future__ import annotations

import operator
from collections import Counter

from . import chartab, dims, group, perm, symclass
from .cyclo import CycloInt, from_terms


def run_checks(n: int, m: int | None, budget: int | None):
    orbit_list = None if m is None else symclass.orbits(n, m, budget)
    checks = []

    classes = group.conjugacy_classes(n)
    sizes = [len(ms) for _, ms in classes]
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
            len(table_classes) == expected == len(classes),
            f"{len(classes)} classes (expected {expected})",
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
            len(ids) == len(classes),
            f"{len(ids)} irreducible characters vs {len(classes)} classes",
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
            if num != CycloInt.from_int(4 * n, den if id1 == id2 else 0):
                ortho_ok = False
    checks.append(
        ("row_orthonormality", ortho_ok, "inner products are exactly 8n * delta")
    )

    column_ok = True
    for rep, _ in classes:
        terms = [(e, cid.degree * c) for cid in ids for e, c in chartab.value_terms(n, cid)[rep]]
        if rep == 0:
            terms.append((0, -8 * n))
        column_ok &= from_terms(4 * n, terms).is_zero
    checks.append(
        ("column_relation", column_ok, "degree-weighted column sums vanish off the identity")
    )

    # equal raw terms give equal values; only members whose terms differ
    # are reduced, so the check stays an exact equivalence
    class_fun_ok = True
    for cid in ids:
        terms = chartab.value_terms(n, cid)
        for _, members in classes:
            if len({tuple(sorted(terms[x])) for x in members}) > 1:
                class_fun_ok &= len({chartab.character_value(n, cid, x) for x in members}) == 1
    checks.append(("class_function", class_fun_ok, "values constant on conjugacy classes"))

    images = [perm.embed(n, x) for x in group.elements(n)]
    cycle_ok = all(
        perm.cycle_count_formula(n, x) == len(perm.cycle_decomposition(p))
        for x, p in enumerate(images)
    )
    checks.append(("cycle_count_formula", cycle_ok, "closed form matches direct factorization"))

    # T(1) == id and T(s g) == T(s) o T(g) for the generators s = a, b (see
    # the module docstring), composed right factor first, (p o q)(t) =
    # p(q(t)): after[g] maps the images of p to those of p o T(g).
    after = [operator.itemgetter(*(t - 1 for t in q)) for q in images]
    generators = [1, 4 * n]  # a and b
    hom_ok = images[0] == tuple(range(1, 4 * n + 1)) and all(
        images[k] == after[g](images[s]) for s in generators for g, k in enumerate(table[s])
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
        # each stabilizer H has 8n/|H| images under the whole group: after[g]
        # sends alpha to alpha o T(g) = g^(-1).alpha, read off perm.embed
        firsts = {o.stabilizer: o.representative for o in reversed(orbit_list)}
        checks.append(
            (
                "orbit_stabilizer",
                all(after[x](o.representative) == o.representative for o in orbit_list for x in o.stabilizer)
                and all(len({move(rep) for move in after}) * len(stab) == 8 * n for stab, rep in firsts.items())
                and sum(8 * n // len(o.stabilizer) for o in orbit_list) == m ** (4 * n),
                "orbit size times stabilizer order equals 8n",
            )
        )

        # orbits sharing a stabilizer share its character sums; outside
        # Omega, F(H) = 0 and so is the orbital dimension
        stabilizer_counts = Counter(o.stabilizer for o in orbit_list)
        direct_ok = True
        for cid in ids:
            dim_sum = sum(
                count * symclass._orbital_dim(cid, symclass._subgroup_char_sum(n, cid, stab), len(stab))
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
                char_sum = symclass._subgroup_char_sum(n, cid, stab)
                expected = 2 * l if cid.param % l == 0 else 0
                zeta_ok &= char_sum == CycloInt.from_int(4 * n, expected)
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
