import functools
import itertools
import random

import pytest

from sdtensor import group
from sdtensor.chartab import character_value, chi
from sdtensor.group import SDElement, conjugacy_classes, inverse, multiply


def a(r):
    return SDElement(0, r)


def ba(r):
    return SDElement(1, r)


def test_defining_relations():
    for n in (2, 3, 4, 5):
        m = 4 * n
        a_to_the_m = functools.reduce(lambda x, y: multiply(n, x, y), [a(1)] * m)
        assert a_to_the_m == group.identity()
        assert multiply(n, ba(0), ba(0)) == group.identity()
        bab = multiply(n, ba(0), multiply(n, a(1), ba(0)))
        assert bab == a(2 * n - 1)


def test_multiply_examples():
    assert multiply(2, a(3), group.identity()) == a(3)
    # (ba)(ba) = a^((2n-1)+1) = a^4 at n=2
    assert multiply(2, ba(1), ba(1)) == a(4)


def test_inverse_examples():
    for n in (2, 3):
        for r in range(4 * n):
            assert inverse(n, a(r)) == a((4 * n - r) % (4 * n))
    assert inverse(2, group.identity()) == group.identity()
    # (b a^3)^(-1) = b a^((2n+1)*3 mod 8) = b a^7 at n=2
    assert inverse(2, ba(3)) == ba(7)


def test_inverse_contract():
    for n in (2, 3, 4):
        for g in group.elements(n):
            assert multiply(n, g, inverse(n, g)) == group.identity()
            assert multiply(n, inverse(n, g), g) == group.identity()


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
    assert conjugacy_classes(n).count == count


def test_class_profile_even():
    for n in (2, 4, 6):
        sizes = sorted(len(ms) for _, ms in conjugacy_classes(n).classes)
        assert sizes == sorted([1, 1] + [2] * (2 * n - 1) + [2 * n, 2 * n])


def test_class_profile_odd():
    for n in (3, 5, 7):
        sizes = sorted(len(ms) for _, ms in conjugacy_classes(n).classes)
        assert sizes == sorted([1] * 4 + [2] * (2 * n - 2) + [n] * 4)


def test_class_equation():
    for n in (2, 3, 4, 5):
        assert sum(len(ms) for _, ms in conjugacy_classes(n).classes) == 8 * n


def test_class_of_a_at_n2():
    report = conjugacy_classes(2)
    by_rep = {rep: members for rep, members in report.classes}
    assert by_rep[a(1)] == (a(1), a(3))


def test_classes_closed_under_conjugation():
    for n in (2, 3):
        report = conjugacy_classes(n)
        for _, members in report.classes:
            member_set = set(members)
            for g in group.elements(n):
                for h in members:
                    assert multiply(n, multiply(n, g, h), inverse(n, g)) in member_set


def test_classes_partition_group():
    for n in (2, 3, 4):
        seen = [g for _, ms in conjugacy_classes(n).classes for g in ms]
        assert sorted(seen) == sorted(group.elements(n))


def test_element_names():
    assert group.element_name(group.identity()) == "1"
    assert group.element_name(a(1)) == "a"
    assert group.element_name(a(5)) == "a^5"
    assert group.element_name(ba(0)) == "b"
    assert group.element_name(ba(1)) == "ba"
    assert group.element_name(ba(2)) == "ba^2"


def test_parameter_validation():
    with pytest.raises(ValueError):
        group.elements(1)
    with pytest.raises(ValueError):
        multiply(2, a(8), a(0))
    with pytest.raises(ValueError):
        multiply(2, SDElement(2, 0), a(0))
    # exponents that are not integers, even integral floats
    with pytest.raises(ValueError):
        multiply(2, SDElement(0, 1.5), SDElement(0, 0))
    with pytest.raises(ValueError):
        inverse(2, SDElement(1, 2.0))
    with pytest.raises(ValueError):
        character_value(2, chi(0), SDElement(0, 1.5))


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
