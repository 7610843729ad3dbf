import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import add, conjugate, mul, root_power, sub

from sdtensor.cyclo import (
    CycloInt,
    ExactDivisionError,
    cyclotomic_polynomial,
    euler_phi,
    exact_div,
    from_exponents,
)

# First handful of cyclotomic polynomials, from the standard table.
KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    20: (1, 0, -1, 0, 1, 0, -1, 0, 1),
}


def poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_cyclotomic_known_values():
    for k, coeffs in KNOWN_CYCLOTOMIC.items():
        assert cyclotomic_polynomial(k) == coeffs


def test_cyclotomic_product_identity():
    # x^k - 1 factors as the product of Phi_d over all divisors d of k.
    for k in (6, 8, 12, 16, 24, 32):
        product = (1,)
        for d in range(1, k + 1):
            if k % d == 0:
                product = poly_mul(product, cyclotomic_polynomial(d))
        assert product == tuple([-1] + [0] * (k - 1) + [1])


def test_cyclotomic_degree_is_phi():
    for k in range(1, 40):
        assert len(cyclotomic_polynomial(k)) - 1 == euler_phi(k)


def test_constructors_give_phi_coordinates_at_orders_up_to_80():
    # a CycloInt checks no length; its two constructors give phi(order)
    for order in range(1, 81):
        phi = euler_phi(order)
        assert len(CycloInt.from_int(order, 7).coeffs) == phi
        for e in range(order):
            assert len(from_exponents(order, [0] * e + [1] + [0] * (order - e - 1)).coeffs) == phi


def test_cyclotomic_matches_sympy():
    # 840 and 2310 have four and five distinct primes: Phi_k takes 8 and 16
    # exact divisions by binomials
    x = sympy.Symbol("x")
    for k in (*range(1, 201), 840, 2310):
        want = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()
        assert cyclotomic_polynomial(k) == tuple(int(c) for c in reversed(want)), k


def test_root_power_reduction():
    assert root_power(8, 0) == CycloInt.from_int(8, 1)
    assert root_power(8, 4) == CycloInt.from_int(8, -1)  # zeta^(2n) = -1
    assert root_power(8, 5).coeffs == (0, -1, 0, 0)  # zeta^5 = -zeta
    assert root_power(8, 8) == CycloInt.from_int(8, 1)
    assert root_power(8, -1) == root_power(8, 7)


def test_root_power_inverse_pairs():
    for order in (8, 12, 16, 20):
        for e in range(order):
            assert mul(root_power(order, e), root_power(order, order - e)).to_int() == 1


def test_product_at_an_odd_order():
    # 3 + 3 = 6 exceeds the order 5, so the exponent must wrap around.
    assert mul(root_power(5, 3), root_power(5, 3)) == root_power(5, 1)
    for order in (3, 5, 7, 9, 15):
        for i in range(order):
            for j in range(order):
                assert mul(root_power(order, i), root_power(order, j)) == root_power(order, i + j)


def test_half_turn_is_minus_one():
    for n in (2, 3, 4, 5):
        order = 4 * n
        assert root_power(order, 2 * n) == CycloInt.from_int(order, -1)
        assert root_power(order, order) == CycloInt.from_int(order, 1)


def test_sum_of_opposite_quarter_turns_vanishes():
    # zeta^2 + zeta^6 = i + (-i) = 0 at order 8
    assert add(root_power(8, 2), root_power(8, 6)).is_zero


def _random_value(rng, order):
    phi = euler_phi(order)
    return CycloInt(order, tuple(rng.randint(-9, 9) for _ in range(phi)))


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for order in (8, 12, 20):
        for _ in range(60):
            x, y, z = (_random_value(rng, order) for _ in range(3))
            assert add(x, y) == add(y, x)
            assert mul(x, y) == mul(y, x)
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert sub(x, x).is_zero


def test_conjugate_is_involutive_automorphism():
    rng = random.Random(11)
    for order in (8, 12):
        for _ in range(40):
            x, y = _random_value(rng, order), _random_value(rng, order)
            assert conjugate(conjugate(x)) == x
            assert conjugate(add(x, y)) == add(conjugate(x), conjugate(y))
            assert conjugate(mul(x, y)) == mul(conjugate(x), conjugate(y))
    assert conjugate(root_power(8, 1)) == root_power(8, 7)
    assert conjugate(CycloInt.from_int(8, 1)) == CycloInt.from_int(8, 1)


@st.composite
def cyclo_values(draw, count):
    """An order in 1..80, odd orders included, and count values of it."""
    order = draw(st.integers(1, 80))
    coords = st.tuples(*[st.integers(-9, 9)] * euler_phi(order))
    return [CycloInt(order, draw(coords)) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(cyclo_values(3))
def test_ring_laws_at_orders_up_to_80(values):
    x, y, z = values
    order = x.order
    one, zero = CycloInt.from_int(order, 1), CycloInt.from_int(order, 0)
    assert add(x, y) == add(y, x)
    assert mul(x, y) == mul(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
    assert mul(x, one) == x and mul(one, x) == x
    assert add(x, zero) == x and sub(x, x).is_zero


@settings(max_examples=80, deadline=None)
@given(cyclo_values(2))
def test_conjugate_is_a_ring_automorphism_at_orders_up_to_80(values):
    x, y = values
    one = CycloInt.from_int(x.order, 1)
    assert conjugate(conjugate(x)) == x
    assert conjugate(add(x, y)) == add(conjugate(x), conjugate(y))
    assert conjugate(mul(x, y)) == mul(conjugate(x), conjugate(y))
    assert conjugate(one) == one


@settings(max_examples=60, deadline=None)
@given(cyclo_values(2))
def test_product_matches_sympy_remainder(values):
    x, y = values
    order = x.order
    t = sympy.Symbol("t")

    def poly(v):
        return sympy.Poly(list(reversed(v.coeffs)), t)

    rem = sympy.rem(poly(x) * poly(y), sympy.Poly(sympy.cyclotomic_poly(order, t), t))
    want = list(reversed(rem.all_coeffs())) if not rem.is_zero else []
    want += [0] * (euler_phi(order) - len(want))
    assert mul(x, y).coeffs == tuple(want)


def test_to_complex_reference_points():
    assert CycloInt.from_int(8, 1).to_complex() == pytest.approx(1 + 0j)
    z = root_power(8, 2).to_complex()
    assert z == pytest.approx(1j, abs=1e-12)
    root2 = add(root_power(8, 1), root_power(8, 7)).to_complex()
    assert root2.real == pytest.approx(2**0.5, abs=1e-12)
    assert root2.imag == pytest.approx(0, abs=1e-12)


def test_zero_test_matches_numeric_evaluation():
    # Canonical-form equality is the ground truth; the float image of a
    # canonical nonzero value should stay well away from zero at these sizes.
    rng = random.Random(3)
    for _ in range(10_000):
        order = rng.choice((8, 12, 16, 20))
        x = _random_value(rng, order)
        if x.is_zero:
            assert abs(x.to_complex()) < 1e-9
        else:
            assert abs(x.to_complex()) > 1e-6


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        add(root_power(8, 1), root_power(12, 1))
    with pytest.raises(ValueError):
        mul(root_power(8, 1), root_power(12, 1))


def test_rational_integer_detection():
    assert CycloInt.from_int(8, 42).to_int() == 42
    with pytest.raises(ExactDivisionError):
        root_power(8, 1).to_int()


def test_exact_div():
    assert exact_div(12, 4) == 3
    with pytest.raises(ExactDivisionError):
        exact_div(7, 2)
