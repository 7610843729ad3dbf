import itertools
from math import gcd

import pytest

from sdtensor import chartab, dims, group, perm
from sdtensor.chartab import chi, psi, zeta
from sdtensor.cyclo import CycloInt, ExactDivisionError, exact_div, root_power
from sdtensor.cli import main
from sdtensor.dims import dim_closed_form, dim_general, dim_report, dim_trace


def _embedded_action(n, g):
    """Position maps for the orbit-counting oracle, built straight from the
    embedding (independent of the symclass module)."""
    inv = perm.inverse(perm.embed(n, g))
    return tuple(p - 1 for p in inv.images)


def count_orbits_direct(n, m):
    """Flood-fill orbit count over all m^4n sequences."""
    maps = [_embedded_action(n, g) for g in group.elements(n)]
    seen = set()
    count = 0
    for alpha in itertools.product(range(1, m + 1), repeat=4 * n):
        if alpha in seen:
            continue
        count += 1
        stack = [alpha]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(tuple(cur[i] for i in pos) for pos in maps)
    return count


def count_fixed_direct(n, m, g):
    pos = _embedded_action(n, g)
    return sum(
        1
        for alpha in itertools.product(range(1, m + 1), repeat=4 * n)
        if tuple(alpha[i] for i in pos) == alpha
    )


def test_one_letter_alphabet():
    # a single symmetrized tensor, living in the trivial class
    for n in (2, 3):
        for cid in chartab.character_ids(n):
            expected = 1 if cid == chi(0) else 0
            assert dim_general(n, 1, cid) == expected
            if cid.kind != "psi" and not (cid == chi(3) and n % 2):
                assert dim_closed_form(n, 1, cid) == expected


def test_burnside_oracle():
    for m in (2, 3):
        assert dim_general(2, m, chi(0)) == count_orbits_direct(2, m)


def test_fixed_point_oracle():
    # m^c(g) equals the directly counted fixed sequences, validating the use
    # of cycle counts independently of the closed-form count
    for m in (2, 3):
        for g in group.elements(2):
            assert m ** perm.cycle_count_formula(2, g) == count_fixed_direct(2, m, g)


# Frozen from the trace formula and confirmed by the orbit/fixed-point
# oracles above; the total is the dimension 2^8 of the full tensor power.
N2_M2_DIMS = {
    "chi:0": 27,
    "chi:1": 9,
    "chi:2": 24,
    "chi:3": 10,
    "zeta:2": 66,
    "psi:1": 60,
    "psi:5": 60,
}


def test_frozen_n2_m2_dimensions():
    report = dim_report(2, 2)
    assert {e.character.label(): e.general for e in report.entries} == N2_M2_DIMS
    assert report.total == 256
    assert report.total_identity_holds


def test_total_identity():
    # the symmetrizers are orthogonal idempotents summing to the identity,
    # so the class dimensions add up to m^4n
    for n in (2, 3, 4, 5):
        for m in (1, 2, 3, 4):
            report = dim_report(n, m)
            assert report.total == m ** (4 * n)
            assert report.total_identity_holds


def test_closed_forms_validate_except_known_defects():
    for n in (2, 3, 4, 5):
        for m in (1, 2, 3, 4):
            report = dim_report(n, m)
            for e in report.entries:
                defective = e.character.kind == "psi" or (
                    e.character == chi(3) and n % 2 == 1
                )
                if not defective:
                    assert e.agree, (n, m, e)
                    assert e.closed_form == e.general


def test_psi_closed_form_defect_is_exactly_half_the_leading_terms():
    # where the defective psi form is integral at all, it misses the trace
    # value by exactly (m^4n - m^2n)/4n
    for n in (2, 3, 4, 5):
        for m in (1, 2, 3, 4):
            report = dim_report(n, m)
            for e in report.entries:
                if e.character.kind != "psi":
                    continue
                delta, rem = divmod(m ** (4 * n) - m ** (2 * n), 4 * n)
                if rem == 0:
                    assert e.closed_form == e.general - delta, (n, m, e)
                    assert e.agree == (delta == 0)
                else:
                    assert e.closed_form is None


def test_psi_closed_form_non_integral_case_exists():
    # at n=5, m=2 the defective psi form is not even an integer
    report = dim_report(5, 2)
    psis = [e for e in report.entries if e.character.kind == "psi"]
    assert psis and all(e.closed_form is None for e in psis)


def test_chi3_odd_run_on_term_never_validates():
    for n in (3, 5):
        for m in (2, 3):
            entry = next(
                e for e in dim_report(n, m).entries if e.character == chi(3)
            )
            assert not entry.agree
            assert entry.general == dim_general(n, m, chi(3))
    # at (3, 6) the defective form is an integer, and wrong: the chi:3 note
    entry = next(e for e in dim_report(3, 6).entries if e.character == chi(3))
    assert (entry.closed_form, entry.general) == (90484221, 90485570)
    assert entry.note == dims._CHI3_NOTE


def test_monotone_in_m():
    for n in (2, 3):
        for cid in chartab.character_ids(n):
            values = [dim_general(n, m, cid) for m in (1, 2, 3, 4)]
            assert values == sorted(values)


def test_imaginary_parts_cancel():
    # the sine contributions over the odd-exponent classes sum to zero,
    # which is why the psi dimension only involves cosine terms
    for n in (2, 3, 4):
        order = 4 * n
        psis = [c.param for c in chartab.character_ids(n) if c.kind == "psi"]
        odd_block = set(psis) | {(2 * n - 1) * k % order for k in psis}
        for h in psis:
            for m in (2, 3):
                acc = CycloInt.zero(order)
                for k in odd_block:
                    weight = m ** gcd(order, k)
                    acc = acc + weight * (root_power(order, h * k) - root_power(order, -h * k))
                if n % 2 == 0:
                    assert acc.is_zero
                # over all odd residues the sum vanishes for every n
                acc_all = CycloInt.zero(order)
                for k in range(1, order, 2):
                    weight = m ** gcd(order, k)
                    acc_all = acc_all + weight * (
                        root_power(order, h * k) - root_power(order, -h * k)
                    )
                assert acc_all.is_zero


def test_divisor_route_matches_the_trace():
    for n in range(2, 41):
        for m in (1, 2, 3, 5):
            for cid in chartab.character_ids(n):
                assert dim_general(n, m, cid) == dim_trace(n, m, cid), (n, m, cid)


def test_psi1_at_n4_is_one_polynomial():
    # c_q(1) = mu(q), and mu(16/d) vanishes for d | 16 except at d = 16 and 8
    for m in range(1, 7):
        assert dim_general(4, m, psi(1)) == exact_div(m**16 - m**8, 8)


def test_divisor_route_total_at_n512():
    # 1027 characters; the trace route would walk 4096 elements for each
    n = 512
    assert sum(dim_general(n, 3, cid) for cid in chartab.character_ids(n)) == 3 ** (4 * n)


def test_reflection_sum_with_an_imaginary_part_is_an_internal_error(monkeypatch):
    # chi:4 at odd n sends a to zeta^n = i; b a and b a^3 have n cycles each,
    # so their i and -i cancel only while the two counts agree
    count = perm.cycle_count_formula

    def skewed(n, g):
        return count(n, g) + (g == group.SDElement(1, 3))

    monkeypatch.setattr(perm, "cycle_count_formula", skewed)
    with pytest.raises(RuntimeError, match="imaginary part"):
        dim_general(3, 2, chi(4))


def test_non_divisible_numerator_exits_5(capsys, monkeypatch):
    rotation_sum = dims._rotation_sum
    monkeypatch.setattr(dims, "_rotation_sum", lambda order, m, h: rotation_sum(order, m, h) + 1)
    with pytest.raises(ExactDivisionError):
        dim_general(2, 3, chi(0))
    assert main(["dims", "--n", "2", "--m", "3"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dim_general(2, 0, chi(0))
    with pytest.raises(ValueError):
        dim_trace(2, 0, chi(0))
    with pytest.raises(ValueError):
        dim_closed_form(2, 0, chi(0))
    with pytest.raises(ValueError):
        dim_general(2, 2, zeta(1))
    with pytest.raises(ValueError):
        dim_trace(2, 2, zeta(1))
