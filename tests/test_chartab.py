import argparse

import pytest
from oracles import add, conjugate, mul, root_power, sub

from sdtensor import chartab, cli, group
from sdtensor.chartab import (
    char_inner_product,
    character_ids,
    character_value,
    chi,
    parse_character_spec,
    psi,
    zeta,
)
from sdtensor.cyclo import CycloInt


def paper_index_sets(n):
    """The paper's C1, C2 and C3 for the parity of n, written out literally."""
    c1 = set(range(0, 2 * n + 1, 2))
    if n % 2 == 0:
        c2, c3 = set(range(1, n, 2)), set(range(2 * n + 1, 3 * n, 2))
    else:
        c2, c3 = set(range(1, n + 1, 2)), set(range(2 * n + 1, 3 * n + 1, 2))
    return c1, c2, c3


def degree_two_params(n):
    ids = character_ids(n)
    return (
        tuple(c.param for c in ids if c.kind == "zeta"),
        tuple(c.param for c in ids if c.kind == "psi"),
    )


def test_index_sets_n2():
    c1, c2, c3 = paper_index_sets(2)
    assert (sorted(c1), sorted(c2), sorted(c3)) == ([0, 2, 4], [1], [5])
    zetas, psis = degree_two_params(2)
    assert zetas == (2,)
    assert psis == (1, 5)
    assert tuple(sorted(zetas + psis)) == (1, 2, 5)


def test_index_sets_n3():
    c1, c2, c3 = paper_index_sets(3)
    assert tuple(sorted(c2 | c3)) == (1, 3, 7, 9)
    zetas, psis = degree_two_params(3)
    assert zetas == (2, 4)
    assert psis == (1, 7)
    assert tuple(sorted(zetas + psis)) == (1, 2, 4, 7)


def test_cdag_even_count():
    # zeta:h for h in C1 - {0, 2n}, psi:h for h in (C2 u C3) - {n, 3n}
    for n in range(2, 65):
        c1, c2, c3 = paper_index_sets(n)
        zetas, psis = degree_two_params(n)
        assert zetas == tuple(sorted(c1 - {0, 2 * n})), n
        assert psis == tuple(sorted((c2 | c3) - {n, 3 * n})), n
        assert len(zetas) == n - 1


def test_character_counts_match_class_counts():
    for n in range(2, 8):
        assert len(character_ids(n)) == len(group.conjugacy_classes(n))


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
    assert character_value(2, zeta(2), 1).is_zero
    # psi_1 vanishes on reflections
    assert character_value(2, psi(1), 8).is_zero  # b
    # chi_4(a) = i = zeta^3 at n=3
    assert character_value(3, chi(4), 1) == root_power(12, 3)
    assert character_value(3, chi(6), 1) == root_power(12, 9)


def test_linear_characters_respect_presentation():
    # chi(a) = chi(a)^(2n-1) * chi(b)^2 forces chi(a)^(2n-2) = 1
    for n in (2, 3, 4, 5):
        for i in chartab.linear_range(n):
            value = character_value(n, chi(i), 1)
            power = CycloInt.from_int(4 * n, 1)
            for _ in range(2 * n - 2):
                power = mul(power, value)
            assert power.to_int() == 1


def test_linear_characters_multiplicative():
    for n in (2, 3):
        for i in chartab.linear_range(n):
            cid = chi(i)
            for g in group.elements(n):
                for h in group.elements(n):
                    product = group.multiply(n, g, h)
                    lhs = character_value(n, cid, product)
                    rhs = mul(character_value(n, cid, g), character_value(n, cid, h))
                    assert lhs == rhs


def test_invalid_ids_rejected():
    with pytest.raises(ValueError):
        character_value(2, chi(4), 0)  # chi_4 needs odd n
    with pytest.raises(ValueError):
        character_value(2, zeta(1), 0)  # zeta parameter must be even
    with pytest.raises(ValueError):
        character_value(3, psi(3), 0)  # n and 3n are excluded
    with pytest.raises(ValueError):
        character_value(2, zeta(0), 0)
    with pytest.raises(ValueError):
        chartab.validate_id(2, zeta(1))
    with pytest.raises(ValueError):
        chartab.validate_id(2, chartab.CharacterId("bogus", 1))  # no such kind
    with pytest.raises(ValueError):
        chartab.validate_id(2.0, chi(0))  # equal to the cached n=2, but not an int
    with pytest.raises(ValueError):
        chartab.value_terms(2, psi(2))  # psi parameter must be odd
    with pytest.raises(ValueError):
        char_inner_product(2, chi(0), chi(4))


def test_class_function_property():
    for n in (2, 3, 4, 5):
        classes = group.conjugacy_classes(n)
        for cid in character_ids(n):
            for rep, members in classes:
                want = character_value(n, cid, rep)
                for g in members:
                    assert character_value(n, cid, g) == want


def test_conjugate_at_inverse():
    for n in (2, 3):
        for cid in character_ids(n):
            for g in group.elements(n):
                lhs = character_value(n, cid, group.inverse(n, g))
                assert lhs == conjugate(character_value(n, cid, g))


def test_row_orthonormality():
    for n in (2, 3, 4, 5):
        ids = character_ids(n)
        for i, id1 in enumerate(ids):
            for id2 in ids[i:]:
                num, den = char_inner_product(n, id1, id2)
                assert den == 8 * n
                expected = 8 * n if id1 == id2 else 0
                assert sub(num, expected).is_zero, (n, id1, id2)


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
        for rep, _ in group.conjugacy_classes(n):
            acc = CycloInt.from_int(4 * n, 0)
            for cid in ids:
                acc = add(acc, mul(cid.degree, character_value(n, cid, rep)))
            expected = 8 * n if rep == 0 else 0
            assert sub(acc, expected).is_zero


def test_table_shape():
    for n in (2, 3):
        table = cli._table_payload(argparse.Namespace(n=n))
        rows = list(table["rows"])  # a generator: the writer streams the rows
        assert len(rows) == len(table["class_labels"]) == len(table["class_sizes"])
        assert all(len(row["values"]) == len(table["class_labels"]) for row in rows)
        assert rows[0]["character"] == "chi:0"
        assert table["class_labels"][0] == group.element_name(n, 0)
        one = character_value(n, chi(0), 0)
        assert rows[0]["values"][0]["exact"] == cli._cyclo_json(one)
        assert one.to_int() == 1


def test_degree_two_values_are_trig_forms():
    # even rotation exponents give 2cos(hr*pi/2n) = zeta^(hr) + zeta^(-hr);
    # odd exponents for odd-h characters give 2i*sin = zeta^(hr) - zeta^(-hr)
    for n in (2, 3, 4):
        order = 4 * n
        deg2 = [c for c in character_ids(n) if c.degree == 2]
        for cid in deg2:
            h = cid.param
            for r in range(0, order, 2):
                want = add(root_power(order, h * r), root_power(order, -h * r))
                assert character_value(n, cid, r) == want
        for cid in (c for c in deg2 if c.kind == "psi"):
            h = cid.param
            for r in range(1, order, 2):
                want = sub(root_power(order, h * r), root_power(order, -h * r))
                assert character_value(n, cid, r) == want


def test_zeta_equals_even_h_cosine_on_all_rotations():
    # even h makes (2n-1)h = -h mod 4n, so the trace is a cosine everywhere
    for n in (2, 3, 4):
        for cid in (c for c in character_ids(n) if c.kind == "zeta"):
            h = cid.param
            for r in range(4 * n):
                value = character_value(n, cid, r)
                want = add(root_power(4 * n, h * r), root_power(4 * n, -h * r))
                assert value == want


def clifford_characters(n):
    """The irreducible characters of Z_4n x|_k C_2, k = 2n-1, by Clifford theory.

    Each is the tuple of its per-element exponent terms over b^s a^r in
    (s, r) order: an h fixed by h -> kh extends in two ways, b -> +-1; a
    2-orbit {h, kh} induces one degree-2 character, zeta^(hr) + zeta^(khr)
    at a^r and 0 off <a>.  Written from the literal k, apart from the group
    module.
    """
    order = 4 * n
    k = 2 * n - 1
    chars = []
    for h in range(order):
        kh = k * h % order
        if kh == h:
            for sign in (1, -1):
                chars.append(tuple(
                    ((h * r % order, sign**s),) for s in (0, 1) for r in range(order)
                ))
        elif h < kh:
            rotations = tuple(((h * r % order, 1), (kh * r % order, 1)) for r in range(order))
            chars.append(rotations + ((),) * order)
    return chars


@pytest.mark.parametrize("n", range(2, 17))
def test_characters_are_those_of_the_twisted_product(n):
    # the same characters as a multiset, whatever their labels and order
    table = [chartab.value_terms(n, cid) for cid in character_ids(n)]
    assert sorted(table) == sorted(clifford_characters(n))


@pytest.mark.parametrize("n", range(2, 17))
def test_degree_two_zeros_follow_the_congruence(n):
    # zeta^(hu) + zeta^(khu) = 0 exactly when zeta^((k-1)hu) = -1
    order, k = 4 * n, 2 * n - 1
    for cid in character_ids(n)[len(chartab.linear_range(n)):]:
        zeros = [u for u in range(order) if character_value(n, cid, u).is_zero]
        assert zeros == [u for u in range(order) if (k - 1) * cid.param * u % order == 2 * n]
        if cid.kind == "psi":
            # each psi character vanishes on some rotation at even n only
            assert bool(zeros) == (n % 2 == 0)


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
    # only canonical decimals: no sign, space, underscore, leading zero or non-ASCII digit
    for spec in ("chi:+1", "chi: 1", "chi:1_0", "chi:\u0663", "chi:01"):
        with pytest.raises(ValueError, match="bad character parameter"):
            parse_character_spec(2, spec)
