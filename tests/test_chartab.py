import pytest

from sdtensor import chartab, group
from sdtensor.chartab import (
    char_inner_product,
    character_ids,
    character_table,
    character_value,
    chi,
    index_sets,
    parse_character_spec,
    psi,
    zeta,
)
from sdtensor.cyclo import CycloInt, root_power
from sdtensor.group import SDElement


def test_index_sets_n2():
    sets = index_sets(2)
    assert sets.C1 == (0, 2, 4)
    assert sets.Cdag_even == (2,)
    assert sets.C2_even == (1,)
    assert sets.C3_even == (5,)
    assert sets.Cdag_odd == (1, 5)
    assert sets.Cstar_even == (1, 2, 5)


def test_index_sets_n3():
    sets = index_sets(3)
    assert sets.C_odd_23 == (1, 3, 7, 9)
    assert tuple(h for h in sets.C_odd_23 if h not in (3, 9)) == (1, 7)
    assert sets.Cstar_odd == (1, 2, 4, 7)


def test_cdag_even_count():
    for n in range(2, 10):
        assert len(index_sets(n).Cdag_even) == n - 1


def test_character_counts_match_class_counts():
    for n in range(2, 8):
        assert len(character_ids(n)) == group.conjugacy_classes(n).count


def test_degrees():
    ids = character_ids(2)
    assert [cid.degree for cid in ids] == [1, 1, 1, 1, 2, 2, 2]
    ids3 = character_ids(3)
    assert [cid.degree for cid in ids3] == [1] * 8 + [2] * 4
    for n in (2, 3, 4, 5):
        assert sum(cid.degree**2 for cid in character_ids(n)) == 8 * n


def test_trivial_character():
    for n in (2, 3):
        for g in group.elements(n):
            assert character_value(n, chi(0), g).to_int() == 1


def test_table_i_examples():
    # zeta_2 at a^1 for n=2: 2cos(2*pi/4) = 0
    assert character_value(2, zeta(2), SDElement(0, 1)).is_zero
    # psi_1 vanishes on reflections
    assert character_value(2, psi(1), SDElement(1, 0)).is_zero
    # chi_4(a) = i = zeta^3 at n=3
    assert character_value(3, chi(4), SDElement(0, 1)) == root_power(12, 3)
    assert character_value(3, chi(6), SDElement(0, 1)) == root_power(12, 9)


def test_linear_characters_respect_presentation():
    # chi(a) = chi(a)^(2n-1) * chi(b)^2 forces chi(a)^(2n-2) = 1
    for n in (2, 3, 4, 5):
        for i in chartab.linear_range(n):
            value = character_value(n, chi(i), SDElement(0, 1))
            power = CycloInt.one(4 * n)
            for _ in range(2 * n - 2):
                power = power * value
            assert power.to_int() == 1


def test_linear_characters_multiplicative():
    for n in (2, 3):
        for i in chartab.linear_range(n):
            cid = chi(i)
            for g in group.elements(n):
                for h in group.elements(n):
                    product = group.multiply(n, g, h)
                    lhs = character_value(n, cid, product)
                    rhs = character_value(n, cid, g) * character_value(n, cid, h)
                    assert lhs == rhs


def test_invalid_ids_rejected():
    with pytest.raises(ValueError):
        character_value(2, chi(4), SDElement(0, 0))  # chi_4 needs odd n
    with pytest.raises(ValueError):
        character_value(2, zeta(1), SDElement(0, 0))  # zeta parameter must be even
    with pytest.raises(ValueError):
        character_value(3, psi(3), SDElement(0, 0))  # n and 3n are excluded
    with pytest.raises(ValueError):
        character_value(2, zeta(0), SDElement(0, 0))
    with pytest.raises(ValueError):
        chartab.value_table(2, zeta(1))


def test_class_function_property():
    for n in (2, 3, 4, 5):
        classes = group.conjugacy_classes(n)
        for cid in character_ids(n):
            for rep, members in classes.classes:
                want = character_value(n, cid, rep)
                for g in members:
                    assert character_value(n, cid, g) == want


def test_conjugate_at_inverse():
    for n in (2, 3):
        for cid in character_ids(n):
            for g in group.elements(n):
                lhs = character_value(n, cid, group.inverse(n, g))
                assert lhs == character_value(n, cid, g).conjugate()


def test_row_orthonormality():
    for n in (2, 3, 4, 5):
        ids = character_ids(n)
        for i, id1 in enumerate(ids):
            for id2 in ids[i:]:
                num, den = char_inner_product(n, id1, id2)
                assert den == 8 * n
                expected = 8 * n if id1 == id2 else 0
                assert (num - expected).is_zero, (n, id1, id2)


def test_inner_product_examples():
    num, den = char_inner_product(2, chi(0), chi(0))
    assert num.to_int() == 16 and den == 16
    num, _ = char_inner_product(2, zeta(2), psi(1))
    assert num.is_zero
    num, _ = char_inner_product(2, psi(1), psi(1))
    assert num.to_int() == 16


def test_column_relation():
    for n in (2, 3, 4, 5):
        ids = character_ids(n)
        for rep, _ in group.conjugacy_classes(n).classes:
            acc = CycloInt.zero(4 * n)
            for cid in ids:
                acc = acc + cid.degree * character_value(n, cid, rep)
            expected = 8 * n if rep == group.identity() else 0
            assert (acc - expected).is_zero


def test_table_shape():
    for n in (2, 3):
        table = character_table(n)
        assert len(table.ids) == len(table.class_reps)
        assert len(table.entries) == len(table.ids)
        assert all(len(row) == len(table.class_reps) for row in table.entries)
        assert table.value(chi(0), group.identity()).to_int() == 1


def test_degree_two_values_are_trig_forms():
    # even rotation exponents give 2cos(hr*pi/2n) = zeta^(hr) + zeta^(-hr);
    # odd exponents for odd-h characters give 2i*sin = zeta^(hr) - zeta^(-hr)
    for n in (2, 3, 4):
        order = 4 * n
        sets = index_sets(n)
        deg2 = [zeta(h) for h in sets.Cdag_even] + [psi(h) for h in chartab.psi_range(n)]
        for cid in deg2:
            h = cid.param
            for r in range(0, order, 2):
                want = root_power(order, h * r) + root_power(order, -h * r)
                assert character_value(n, cid, SDElement(0, r)) == want
        for cid in (psi(h) for h in chartab.psi_range(n)):
            h = cid.param
            for r in range(1, order, 2):
                want = root_power(order, h * r) - root_power(order, -h * r)
                assert character_value(n, cid, SDElement(0, r)) == want


def test_zeta_equals_even_h_cosine_on_all_rotations():
    # even h makes (2n-1)h = -h mod 4n, so the trace is a cosine everywhere
    for n in (2, 3, 4):
        for h in index_sets(n).Cdag_even:
            for r in range(4 * n):
                value = character_value(n, zeta(h), SDElement(0, r))
                want = root_power(4 * n, h * r) + root_power(4 * n, -h * r)
                assert value == want


def test_parse_character_spec():
    assert parse_character_spec(2, "chi:0") == [chi(0)]
    assert parse_character_spec(2, "zeta:2") == [zeta(2)]
    assert parse_character_spec(2, "psi:5") == [psi(5)]
    assert parse_character_spec(2, "all") == list(character_ids(2))
    with pytest.raises(ValueError):
        parse_character_spec(2, "zeta:3")
    with pytest.raises(ValueError):
        parse_character_spec(2, "sigma:2")
    with pytest.raises(ValueError):
        parse_character_spec(2, "chi:x")
