import functools
import itertools
import random

import pytest

from sdtensor import group, perm
from sdtensor.chartab import character_value, chi
from sdtensor.group import conjugacy_classes, inverse, multiply


def ba(n, r):
    """b a^r, at position 4n + r; a^r is at position r."""
    return 4 * n + r


def test_defining_relations():
    for n in (2, 3, 4, 5):
        m = 4 * n
        a_to_the_m = functools.reduce(lambda x, y: multiply(n, x, y), [1] * m)
        assert a_to_the_m == 0
        assert multiply(n, ba(n, 0), ba(n, 0)) == 0
        bab = multiply(n, ba(n, 0), multiply(n, 1, ba(n, 0)))
        assert bab == 2 * n - 1


def test_multiply_examples():
    assert multiply(2, 3, 0) == 3
    # (ba)(ba) = a^((2n-1)+1) = a^4 at n=2
    assert multiply(2, ba(2, 1), ba(2, 1)) == 4
    # (ba^2)(a) = ba^3, but (a)(ba^2) = b a^(k + 2) = ba^5 at n=2
    assert multiply(2, ba(2, 2), 1) == ba(2, 3)
    assert multiply(2, 1, ba(2, 2)) == ba(2, 5)


def test_inverse_examples():
    for n in (2, 3):
        for r in range(4 * n):
            assert inverse(n, r) == (4 * n - r) % (4 * n)
    assert inverse(2, 0) == 0
    # (b a^3)^(-1) = b a^((2n+1)*3 mod 8) = b a^7 at n=2
    assert inverse(2, ba(2, 3)) == ba(2, 7)


def test_inverse_contract():
    for n in (2, 3, 4):
        for g in group.elements(n):
            assert multiply(n, g, inverse(n, g)) == 0
            assert multiply(n, inverse(n, g), g) == 0


def test_associativity_exhaustive_n2():
    elems = group.elements(2)
    for g, h, k in itertools.product(elems, repeat=3):
        assert multiply(2, multiply(2, g, h), k) == multiply(2, g, multiply(2, h, k))


def test_associativity_randomized():
    rng = random.Random(5)
    for n in (3, 4, 5):
        elems = group.elements(n)
        for _ in range(300):
            g, h, k = (rng.choice(elems) for _ in range(3))
            assert multiply(n, multiply(n, g, h), k) == multiply(n, g, multiply(n, h, k))


@pytest.mark.parametrize(
    "n, count", [(2, 7), (3, 12), (4, 11), (5, 16), (6, 15), (7, 20), (8, 19)]
)
def test_class_counts(n, count):
    assert len(conjugacy_classes(n)) == count


def test_class_profile_even():
    for n in (2, 4, 6):
        sizes = sorted(len(ms) for _, ms in conjugacy_classes(n))
        assert sizes == sorted([1, 1] + [2] * (2 * n - 1) + [2 * n, 2 * n])


def test_class_profile_odd():
    for n in (3, 5, 7):
        sizes = sorted(len(ms) for _, ms in conjugacy_classes(n))
        assert sizes == sorted([1] * 4 + [2] * (2 * n - 2) + [n] * 4)


def test_class_equation():
    for n in (2, 3, 4, 5):
        assert sum(len(ms) for _, ms in conjugacy_classes(n)) == 8 * n


def test_class_of_a_at_n2():
    by_rep = dict(conjugacy_classes(2))
    assert by_rep[1] == (1, 3)


def test_classes_closed_under_conjugation():
    for n in (2, 3):
        for _, members in conjugacy_classes(n):
            member_set = set(members)
            for g in group.elements(n):
                for h in members:
                    assert multiply(n, multiply(n, g, h), inverse(n, g)) in member_set


def test_classes_partition_group():
    for n in (2, 3, 4):
        seen = [g for _, ms in conjugacy_classes(n) for g in ms]
        assert sorted(seen) == sorted(group.elements(n))


def test_element_names():
    assert group.element_name(2, 0) == "1"
    assert group.element_name(2, 1) == "a"
    assert group.element_name(2, 5) == "a^5"
    assert group.element_name(2, ba(2, 0)) == "b"
    assert group.element_name(2, ba(2, 1)) == "ba"
    assert group.element_name(2, ba(2, 2)) == "ba^2"
    assert group.element_name(3, 8) == "a^8"
    assert group.element_name(3, ba(3, 11)) == "ba^11"


def test_parameter_validation():
    with pytest.raises(ValueError):
        group.elements(1)
    # positions 8n and past it: no element b^s a^r has s >= 2
    with pytest.raises(ValueError):
        multiply(2, 16, 0)
    with pytest.raises(ValueError):
        multiply(2, 24, 0)
    # positions that are not integers, even integral floats
    with pytest.raises(ValueError):
        multiply(2, 1.5, 0)
    with pytest.raises(ValueError):
        inverse(2, float(ba(2, 2)))
    with pytest.raises(ValueError):
        character_value(2, chi(0), 1.5)


ELEMENT_ENTRY_POINTS = {
    "multiply-left": lambda n, x: multiply(n, x, 0),
    "multiply-right": lambda n, x: multiply(n, 0, x),
    "inverse": inverse,
    "embed": perm.embed,
    "cycle_count_formula": perm.cycle_count_formula,
    "character_value": lambda n, x: character_value(n, chi(0), x),
    "element_name": group.element_name,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("entry", ELEMENT_ENTRY_POINTS.values(), ids=ELEMENT_ENTRY_POINTS)
def test_element_entry_points_check_position(entry, n):
    # 8n - 1 is b a^(4n-1), the last element; 8n, -1, a float, a string
    # and a bool (an int subclass, True == 1) are none
    entry(n, 8 * n - 1)
    for bad in (8 * n, -1, 1.5, "0", True):
        with pytest.raises(ValueError):
            entry(n, bad)


@pytest.mark.parametrize("n", range(2, 13))
def test_product_table_is_the_multiplication_table(n):
    # the closed-form table against the validated multiply, on every pair
    elems = group.elements(n)
    table = group.product_table(n)
    identity_row = tuple(range(8 * n))
    assert table[0] == identity_row
    assert tuple(row[0] for row in table) == identity_row
    for g, row in zip(elems, table):
        assert [elems[k] for k in row] == [multiply(n, g, h) for h in elems]
