"""The table-routed group checks of `verify` fail when their input is wrong."""

import dataclasses

import pytest

from sdtensor import chartab, dims, group, perm, symclass, verify
from sdtensor.cli import main
from sdtensor.group import SDElement


def failing_checks(n):
    return {name for name, ok, _ in verify.run_checks(n, None, None) if not ok}


def test_embedding_homomorphism_catches_a_wrong_image(monkeypatch):
    embed = perm.embed

    def swapped(n, g):
        p = embed(n, g)
        if g != SDElement(1, 0):
            return p
        images = list(p.images)
        images[0], images[1] = images[1], images[0]
        return perm.Permutation(tuple(images))

    monkeypatch.setattr(verify.perm, "embed", swapped)
    assert "embedding_homomorphism" in failing_checks(3)
    assert main(["verify", "--n", "3"]) == 1


def test_class_checks_catch_a_wrong_product_table(monkeypatch):
    # the Cayley table of the cyclic group of order 8n: every class a point
    n = 3
    order = 8 * n
    cyclic = tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
    monkeypatch.setattr(verify.group, "product_table", lambda n_: cyclic)
    assert failing_checks(n) == {"class_count", "class_equation", "embedding_homomorphism"}


def test_class_function_catches_a_wrong_member_value(monkeypatch):
    n = 3
    cid = chartab.zeta(2)
    rep, members = next(c for c in group.conjugacy_classes(n).classes if len(c[1]) > 1)
    member = next(g for g in members if g != rep)
    character_value = chartab.character_value

    def altered(n_, cid_, g):
        value = character_value(n_, cid_, g)
        return value + 1 if (n_, cid_, g) == (n, cid, member) else value

    monkeypatch.setattr(chartab, "character_value", altered)
    assert failing_checks(n) == {"class_function"}


def test_group_checks_embed_each_element_once_and_compose_nothing(monkeypatch):
    calls = []
    embed = perm.embed

    def counted(n, g):
        calls.append(g)
        return embed(n, g)

    def fail(*args):
        raise AssertionError("verify composed Permutation objects")

    monkeypatch.setattr(verify.perm, "embed", counted)
    monkeypatch.setattr(verify.perm, "compose", fail)
    assert failing_checks(5) == set()
    assert sorted(calls) == list(group.elements(5))


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_criterion_equivalence_matches_the_public_decision(n, m):
    # verify decides once per stabilizer; its verdict must be the one the
    # per-orbit decide_orthogonal_basis gives
    orbit_list = symclass.orbits(n, m)
    disagreements = []
    for cid in chartab.character_ids(n):
        if cid.degree != 2:
            continue
        exists = symclass.decide_orthogonal_basis(cid, orbit_list).exists
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
    k = next(k for k, o in enumerate(orbit_list) if o.stabilizer_order == 1)
    altered = list(orbit_list)
    altered[k] = dataclasses.replace(altered[k], stabilizer=(0, 4))
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
    altered[k] = dataclasses.replace(altered[k], stabilizer=(0, 4))
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
