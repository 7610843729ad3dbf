import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import compose

from sdtensor import group
from sdtensor.perm import cycle_count_formula, cycle_decomposition, embed, inverse


def identity(degree):
    return tuple(range(1, degree + 1))


def test_compose_identity_and_inverse():
    p = embed(2, 11)  # b a^3
    assert compose(p, identity(8)) == p
    assert compose(identity(8), p) == p
    assert compose(p, inverse(p)) == identity(8)
    assert compose(inverse(p), p) == identity(8)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(8), identity(12))


def test_compose_applies_right_factor_first():
    # T(a) twice is T(a^2); T(a) o T(b) sends t to T(a)(T(b)(t))
    ta = embed(2, 1)
    tb = embed(2, 8)
    assert compose(ta, ta) == embed(2, 2)
    composed = compose(ta, tb)
    for t in range(1, 9):
        assert composed[t - 1] == ta[tb[t - 1] - 1]


def test_cycle_decomposition_identity():
    cycles = cycle_decomposition(identity(8))
    assert cycles == tuple((t,) for t in range(1, 9))
    assert len(cycles) == 8


def test_cycle_decomposition_canonical_form():
    cycles = cycle_decomposition((2, 3, 1, 4, 6, 5))
    assert cycles == ((1, 2, 3), (4,), (5, 6))


def test_embed_generator_a():
    # the 8-cycle t -> t+1 at n=2
    ta = embed(2, 1)
    assert cycle_decomposition(ta) == ((1, 2, 3, 4, 5, 6, 7, 8),)


def test_embed_generator_b():
    # t -> 3t mod 8: transpositions (1 3)(2 6)(5 7), fixed points 4 and 8
    tb = embed(2, 8)
    assert cycle_decomposition(tb) == ((1, 3), (2, 6), (4,), (5, 7), (8,))
    assert len(cycle_decomposition(tb)) == 5


def test_embed_identity():
    for n in (2, 3, 5):
        assert embed(n, 0) == identity(4 * n)


def test_embed_respects_bab_relation():
    for n in (2, 3, 4):
        ta = embed(n, 1)
        tb = embed(n, 4 * n)
        lhs = compose(tb, compose(ta, tb))
        assert lhs == embed(n, 2 * n - 1)


def test_embed_relations():
    for n in (2, 3, 4, 5):
        ta = embed(n, 1)
        tb = embed(n, 4 * n)
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
    assert cycle_count_formula(2, 2) == 2  # a^2: gcd(8, 2)
    assert cycle_count_formula(2, 8) == 5  # b: 2n + 1
    assert cycle_count_formula(3, 14) == 6  # b a^2: 2n, exponent 2 mod 4
    assert cycle_count_formula(3, 16) == 8  # b a^4: 2n + 2, exponent 0 mod 4
    assert cycle_count_formula(2, 0) == 8  # 4n


def test_cycle_count_formula_matches_decomposition():
    for n in range(2, 7):
        for g in group.elements(n):
            direct = len(cycle_decomposition(embed(n, g)))
            assert cycle_count_formula(n, g) == direct, (n, g)


def test_cycle_decomposition_partitions_points():
    for n in (2, 3, 4):
        for g in group.elements(n):
            cycles = cycle_decomposition(embed(n, g))
            points = sorted(p for c in cycles for p in c)
            assert points == list(range(1, 4 * n + 1))
