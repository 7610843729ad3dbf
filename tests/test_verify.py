"""The table-routed group checks of `verify` fail when their input is wrong."""

import pytest

from sdtensor import chartab, dims, group, perm, symclass, verify
from sdtensor.cli import main


def failing_checks(n):
    return {name for name, ok, _ in verify.run_checks(n, None, None) if not ok}


def test_embedding_homomorphism_catches_a_wrong_image(monkeypatch):
    embed = perm.embed

    def swapped(n, x):
        p = embed(n, x)
        if x != 4 * n:  # b
            return p
        return (p[1], p[0], *p[2:])

    monkeypatch.setattr(verify.perm, "embed", swapped)
    assert "embedding_homomorphism" in failing_checks(3)
    assert main(["verify", "--n", "3"]) == 1


@pytest.mark.parametrize(
    "g, first_two",
    [(15, (1, 0)), (0, (1, 0)), (15, (0, 0))],
    ids=["ba^3", "identity", "ba^3-not-a-bijection"],
)
def test_embedding_homomorphism_catches_a_wrong_image_off_the_generators(monkeypatch, g, first_two):
    # b a^3, at position 4n + 3 = 15 for n = 3, is no generator, but it is
    # the product b * a^3; the identity is held to id directly.  Images 1
    # and 2 swap places, or both become image 1, which leaves T(g) no
    # bijection: perm does not check that, so this check must catch it
    embed = perm.embed
    i, j = first_two

    def altered(n, x):
        p = embed(n, x)
        if x != g:
            return p
        return (p[i], p[j], *p[2:])

    monkeypatch.setattr(verify.perm, "embed", altered)
    assert "embedding_homomorphism" in failing_checks(3)


def test_embedding_homomorphism_composes_with_b(monkeypatch):
    # T'(b^s a^r) = T(a^(k^s r)) passes T'(a g) = T'(a) T'(g) for every g, but
    # sends b to the identity: T'(b a) = T(a^k) is not T'(b) T'(a) = T(a)
    embed = perm.embed

    def collapsed(n, x):
        s, r = divmod(x, 4 * n)
        return embed(n, group.twist(n) ** s * r % (4 * n))

    monkeypatch.setattr(verify.perm, "embed", collapsed)
    assert "embedding_homomorphism" in failing_checks(3)


def test_class_checks_catch_a_wrong_product_table(monkeypatch):
    # the Cayley table of the cyclic group of order 8n: every class a point
    n = 3
    order = 8 * n
    cyclic = tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
    monkeypatch.setattr(verify.group, "product_table", lambda n_: cyclic)
    assert failing_checks(n) == {"class_count", "class_equation", "embedding_homomorphism"}


def alter_member_terms(monkeypatch, n, cid, rewrite):
    """Patch value_terms so that rewrite(terms) replaces the terms of cid at a
    class member that is not its class representative."""
    rep, members = next(c for c in group.conjugacy_classes(n) if len(c[1]) > 1)
    position = next(x for x in members if x != rep)
    value_terms = chartab.value_terms

    def altered(n_, cid_):
        terms = value_terms(n_, cid_)
        if (n_, cid_) != (n, cid):
            return terms
        return terms[:position] + (rewrite(terms[position]),) + terms[position + 1 :]

    monkeypatch.setattr(chartab, "value_terms", altered)


def count_reductions(monkeypatch):
    calls = []
    character_value = chartab.character_value

    def counted(*args):
        calls.append(args)
        return character_value(*args)

    monkeypatch.setattr(chartab, "character_value", counted)
    return calls


def test_class_function_catches_a_wrong_member_value(monkeypatch):
    # one more term, zeta^0, adds 1 to the value at that member alone
    alter_member_terms(monkeypatch, 3, chartab.zeta(2), lambda terms: terms + ((0, 1),))
    assert failing_checks(3) == {"class_function"}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 20, 21])
def test_class_function_reduces_only_where_member_terms_differ(monkeypatch, n):
    # every member of a class carries the same raw terms, so no value is reduced
    calls = count_reductions(monkeypatch)
    assert failing_checks(n) == set()
    assert calls == []


def test_class_function_reduces_terms_that_differ_but_are_equal(monkeypatch):
    # zeta^e written as -zeta^(e+2n), since zeta^(2n) = -1: other terms, same value
    n = 3
    calls = count_reductions(monkeypatch)
    alter_member_terms(
        monkeypatch, n, chartab.zeta(2), lambda terms: tuple(((e + 2 * n) % (4 * n), -c) for e, c in terms)
    )
    assert failing_checks(n) == set()
    assert calls and {cid for _, cid, _ in calls} == {chartab.zeta(2)}


def test_group_checks_embed_each_element_once_and_compose_nothing(monkeypatch):
    # the homomorphism check composes the image tuples of the 8n embeddings
    # by itemgetters, so it builds no other permutation
    calls = []
    embed = perm.embed

    def counted(n, g):
        calls.append(g)
        return embed(n, g)

    monkeypatch.setattr(verify.perm, "embed", counted)
    assert failing_checks(5) == set()
    assert sorted(calls) == list(group.elements(5))


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_criterion_equivalence_matches_the_public_decision(n, m):
    # verify decides once per stabilizer; its verdict must be the one the
    # per-orbit outcomes of orbital_outcomes give
    orbit_list = symclass.orbits(n, m)
    disagreements = []
    for cid in chartab.character_ids(n):
        if cid.degree != 2:
            continue
        exists = all(o.found for o in symclass.orbital_outcomes(n, cid, orbit_list))
        predicted = symclass.predicted_basis(n, cid)
        if exists != predicted:
            disagreements.append(f"{cid.label()} exhaustive={exists} predicted={predicted}")
    detail = "; ".join(disagreements) or "exhaustive search matches the prediction table"
    checks = {name: (ok, text) for name, ok, text in verify.run_checks(n, m, None)}
    assert checks["criterion_equivalence"] == (not disagreements, detail)


def test_orbit_stabilizer_catches_a_wrong_stabilizer(monkeypatch):
    # <a^4> is a real subgroup of order 2, so size * |H| is still 8n for the
    # altered orbit; only the orbit sizes, no longer summing to m^(4n), tell
    orbit_list = symclass.orbits(2, 2)
    k = next(k for k, o in enumerate(orbit_list) if len(o.stabilizer) == 1)
    altered = list(orbit_list)
    altered[k] = altered[k]._replace(stabilizer=(0, 4))
    monkeypatch.setattr(symclass, "orbits", lambda n, m, budget: altered)
    checks = {name: ok for name, ok, _ in verify.run_checks(2, 2, None)}
    assert checks["orbit_stabilizer"] is False


def test_orbit_stabilizer_catches_a_stabilizer_of_the_right_order(monkeypatch):
    # {1, a^4} in place of {1, ba^2}: the size and the orbit-size sum are
    # unchanged, but a^4 moves the representative
    orbit_list = symclass.orbits(2, 2)
    k = next(k for k, o in enumerate(orbit_list) if o.representative == (1, 2, 2, 2, 2, 2, 2, 2))
    assert orbit_list[k].stabilizer == (0, 10)
    altered = list(orbit_list)
    altered[k] = altered[k]._replace(stabilizer=(0, 4))
    monkeypatch.setattr(symclass, "orbits", lambda n, m, budget: altered)
    checks = {name: ok for name, ok, _ in verify.run_checks(2, 2, None)}
    assert checks["orbit_stabilizer"] is False


def test_dims_cross_check_holds_the_divisor_route_to_the_trace(monkeypatch):
    # psi's closed form is a known defect, so only the trace can catch a
    # wrong psi:1; moving one unit to psi:7 keeps the total at m^(4n)
    general = dims.dim_general

    def shifted(n, m, cid):
        return general(n, m, cid) + (cid == chartab.psi(1)) - (cid == chartab.psi(7))

    monkeypatch.setattr(dims, "dim_general", shifted)
    checks = {name: ok for name, ok, _ in verify.run_checks(3, 3, None)}
    assert checks["dims_cross_check"] is False
    assert checks["dims_total_identity"] is True
    assert main(["verify", "--n", "3", "--m", "3"]) == 1
