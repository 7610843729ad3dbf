import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtensor import group, perm
from sdtensor.group import SDElement
from sdtensor.perm import (
    Permutation,
    compose,
    cycle_count_formula,
    cycle_decomposition,
    embed,
    inverse,
)


def identity(degree):
    return Permutation(tuple(range(1, degree + 1)))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_compose_identity_and_inverse():
    p = embed(2, SDElement(1, 3))
    assert compose(p, identity(8)) == p
    assert compose(identity(8), p) == p
    assert compose(p, inverse(p)) == identity(8)
    assert compose(inverse(p), p) == identity(8)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(8), identity(12))


def test_compose_applies_right_factor_first():
    # T(a) twice agrees with T(a^2) on every point
    ta = embed(2, SDElement(0, 1))
    ta2 = embed(2, SDElement(0, 2))
    composed = compose(ta, ta)
    for t in range(1, 9):
        assert composed.apply(t) == ta2.apply(t)


def test_cycle_decomposition_identity():
    dec = cycle_decomposition(identity(8))
    assert dec.cycles == tuple((t,) for t in range(1, 9))
    assert dec.count == 8


def test_cycle_decomposition_canonical_form():
    dec = cycle_decomposition(Permutation((2, 3, 1, 4, 6, 5)))
    assert dec.cycles == ((1, 2, 3), (4,), (5, 6))


def test_embed_generator_a():
    # the 8-cycle t -> t+1 at n=2
    ta = embed(2, SDElement(0, 1))
    assert cycle_decomposition(ta).cycles == ((1, 2, 3, 4, 5, 6, 7, 8),)


def test_embed_generator_b():
    # t -> 3t mod 8: transpositions (1 3)(2 6)(5 7), fixed points 4 and 8
    tb = embed(2, SDElement(1, 0))
    assert cycle_decomposition(tb).cycles == ((1, 3), (2, 6), (4,), (5, 7), (8,))
    assert cycle_decomposition(tb).count == 5


def test_embed_identity():
    for n in (2, 3, 5):
        assert embed(n, group.identity()) == identity(4 * n)


def test_embed_respects_bab_relation():
    for n in (2, 3, 4):
        ta = embed(n, SDElement(0, 1))
        tb = embed(n, SDElement(1, 0))
        lhs = compose(tb, compose(ta, tb))
        assert lhs == embed(n, SDElement(0, 2 * n - 1))


def test_embed_relations():
    for n in (2, 3, 4, 5):
        ta = embed(n, SDElement(0, 1))
        tb = embed(n, SDElement(1, 0))
        p = identity(4 * n)
        for _ in range(4 * n):
            p = compose(p, ta)
        assert p == identity(4 * n)
        assert compose(tb, tb) == identity(4 * n)


def test_embed_is_homomorphism():
    for n in (2, 3, 4):
        elems = group.elements(n)
        images = {g: embed(n, g) for g in elems}
        for g, h in itertools.product(elems, repeat=2):
            assert images[group.multiply(n, g, h)] == compose(images[g], images[h])


@st.composite
def element_pairs(draw):
    """A group parameter n in 2..30 and two elements of SD_{8n}."""
    n = draw(st.integers(2, 30))
    elems = group.elements(n)
    return n, draw(st.sampled_from(elems)), draw(st.sampled_from(elems))


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_embed_is_homomorphism_at_random_n(case):
    n, g, h = case
    assert embed(n, group.multiply(n, g, h)) == compose(embed(n, g), embed(n, h))


def test_embed_is_injective():
    for n in (2, 3, 4, 5):
        images = {embed(n, g) for g in group.elements(n)}
        assert len(images) == 8 * n


def test_cycle_count_examples():
    assert cycle_count_formula(2, SDElement(0, 2)) == 2  # gcd(8, 2)
    assert cycle_count_formula(2, SDElement(1, 0)) == 5  # 2n + 1
    assert cycle_count_formula(3, SDElement(1, 2)) == 6  # 2n, exponent 2 mod 4
    assert cycle_count_formula(3, SDElement(1, 4)) == 8  # 2n + 2, exponent 0 mod 4
    assert cycle_count_formula(2, group.identity()) == 8  # 4n


def test_cycle_count_formula_matches_decomposition():
    for n in range(2, 7):
        for g in group.elements(n):
            direct = cycle_decomposition(embed(n, g)).count
            assert cycle_count_formula(n, g) == direct, (n, g)


def test_cycle_decomposition_partitions_points():
    for n in (2, 3, 4):
        for g in group.elements(n):
            cycles = cycle_decomposition(embed(n, g)).cycles
            points = sorted(p for c in cycles for p in c)
            assert points == list(range(1, 4 * n + 1))
