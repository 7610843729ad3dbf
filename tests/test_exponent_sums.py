"""Oracles for sums of character values taken over exponents of zeta.

`cyclo.from_exponents` reduces an integer list indexed by exponent, an
element of Z[C_k] = Z[x]/(x^k - 1), to Z[zeta_k].  Here it is checked as a
ring map with hypothesis, and against sympy's remainder modulo the
cyclotomic polynomial.  The sums built on it (`char_inner_product`,
`dim_general`) are compared with plain CycloInt loops kept in this file,
over character values written out from the definitions.  `dim_closed_form`
is held to the catalog summed term by term over k < 4n, as the paper
writes it; its cosine sums are checked against `root_power` loops.
"""

from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtensor import chartab, dims, group, perm
from sdtensor.cyclo import (
    CycloInt,
    ExactDivisionError,
    cyclotomic_polynomial,
    exact_div,
    from_exponents,
    root_power,
)

# chi_i(a) as a power of i = zeta^n, and chi_i(b), for i = 0..7.
CHI_A_POWER_OF_I = (0, 0, 2, 2, 1, 1, 3, 3)
CHI_B = (1, -1, 1, -1, 1, -1, 1, -1)


def formula_value(n: int, cid, g) -> CycloInt:
    order = 4 * n
    if cid.kind == "chi":
        value = root_power(order, CHI_A_POWER_OF_I[cid.param] * n * g.r)
        return -value if g.s and CHI_B[cid.param] < 0 else value
    if g.s:
        return CycloInt.zero(order)
    h = cid.param
    return root_power(order, h * g.r) + root_power(order, (2 * n - 1) * h * g.r)


def formula_table(n: int, cid) -> list[CycloInt]:
    return [formula_value(n, cid, g) for g in group.elements(n)]


def reference_inner_product(left: list[CycloInt], conj_right: list[CycloInt], order: int) -> CycloInt:
    """Sum of left[i] * conj_right[i], the right factor already conjugated."""
    acc = CycloInt.zero(order)
    for x, y in zip(left, conj_right):
        acc = acc + x * y
    return acc


def cyclic_product(a: list[int], b: list[int]) -> list[int]:
    order = len(a)
    out = [0] * order
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % order] += x * y
    return out


@st.composite
def exponent_vectors(draw, count):
    """An order, odd or even, and count integer lists of that length."""
    order = draw(st.integers(1, 80))
    vector = st.lists(st.integers(-50, 50), min_size=order, max_size=order)
    return order, [draw(vector) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(exponent_vectors(2))
def test_from_exponents_is_a_ring_homomorphism(case):
    order, (a, b) = case
    fa, fb = from_exponents(order, a), from_exponents(order, b)
    assert from_exponents(order, [x + y for x, y in zip(a, b)]) == fa + fb
    assert from_exponents(order, cyclic_product(a, b)) == fa * fb
    assert from_exponents(order, [1] + [0] * (order - 1)) == CycloInt.one(order)


@settings(max_examples=60, deadline=None)
@given(exponent_vectors(1))
def test_from_exponents_turns_exponent_negation_into_conjugation(case):
    order, (a,) = case
    negated = [a[-e % order] for e in range(order)]
    assert from_exponents(order, negated) == from_exponents(order, a).conjugate()


@settings(max_examples=60, deadline=None)
@given(exponent_vectors(1))
def test_from_exponents_is_the_remainder_modulo_the_cyclotomic_polynomial(case):
    order, (a,) = case
    x = sympy.Symbol("x")
    remainder = sympy.rem(sympy.Poly(list(reversed(a)), x), sympy.Poly(sympy.cyclotomic_poly(order, x), x))
    coeffs = [int(c) for c in reversed(remainder.all_coeffs())]
    phi = sympy.totient(order)
    assert from_exponents(order, a).coeffs == tuple(coeffs + [0] * (phi - len(coeffs)))


def unfolded_remainder(order: int, vec: list[int]) -> tuple[int, ...]:
    """vec modulo Phi_order with no half-turn fold: every coefficient from
    the top down cancelled against the full cyclotomic polynomial."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = list(vec)
    for e in range(order - 1, deg - 1, -1):
        for i, c in enumerate(phi[:deg]):
            rem[e - deg + i] -= rem[e] * c
    return tuple(rem[:deg])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_from_exponents_matches_the_unfolded_reduction(data):
    order = data.draw(st.integers(1, 130) | st.sampled_from([192, 420, 840]))
    coeff = st.integers(-50, 50) | st.integers(-(2**80), 2**80)
    vec = data.draw(st.lists(coeff, min_size=order, max_size=order))
    assert from_exponents(order, vec).coeffs == unfolded_remainder(order, vec)


def test_from_exponents_rejects_a_wrong_length():
    with pytest.raises(ValueError):
        from_exponents(8, [1, 2, 3])


@pytest.mark.parametrize("n", range(2, 13))
def test_character_values_equal_the_formula(n):
    for cid in chartab.character_ids(n):
        values = [chartab.character_value(n, cid, g) for g in group.elements(n)]
        assert values == formula_table(n, cid)


@pytest.mark.parametrize("n", range(2, 13))
def test_inner_products_match_the_reference_loop(n):
    ids = chartab.character_ids(n)
    tables = {cid: formula_table(n, cid) for cid in ids}
    conjugates = {cid: [v.conjugate() for v in table] for cid, table in tables.items()}
    for i, id1 in enumerate(ids):
        for id2 in ids[i:]:
            num, den = chartab.char_inner_product(n, id1, id2)
            assert den == 8 * n
            assert num == reference_inner_product(tables[id1], conjugates[id2], 4 * n)
            assert num == CycloInt.from_int(4 * n, 8 * n if id1 == id2 else 0)


def test_all_inner_products_at_n20_match_class_weighted_sums():
    n = 20
    classes = group.conjugacy_classes(n).classes
    ids = chartab.character_ids(n)
    # a character is a class function: weight each representative by its class size
    columns = {
        cid: [len(members) * formula_value(n, cid, rep) for rep, members in classes] for cid in ids
    }
    conjugates = {cid: [formula_value(n, cid, rep).conjugate() for rep, _ in classes] for cid in ids}
    for i, id1 in enumerate(ids):
        for id2 in ids[i:]:
            num, _ = chartab.char_inner_product(n, id1, id2)
            assert num == reference_inner_product(columns[id1], conjugates[id2], 4 * n)
            assert num == CycloInt.from_int(4 * n, 8 * n if id1 == id2 else 0)


@pytest.mark.parametrize("n", range(2, 13))
def test_dim_general_matches_the_reference_loop(n):
    for cid in chartab.character_ids(n):
        values = formula_table(n, cid)
        for m in (1, 2, 3):
            acc = CycloInt.zero(4 * n)
            for g, value in zip(group.elements(n), values):
                acc = acc + value * m ** perm.cycle_count_formula(n, g)
            want = exact_div(acc.to_int(), 8 * n // cid.degree)
            assert dims.dim_general(n, m, cid) == want


def cos_sum_doubled(n: int, m: int, h: int, ks) -> CycloInt:
    """Sum over ks of m^gcd(4n,k) * (zeta^(hk) + zeta^(-hk)), i.e. 2*cos terms."""
    order = 4 * n
    vec = [0] * order
    for k in ks:
        weight = m ** gcd(order, k)
        vec[h * k % order] += weight
        vec[-h * k % order] += weight
    return from_exponents(order, vec)


def literal_closed_form(n: int, m: int, cid) -> int:
    """The per-character catalog term by term over k < 4n, as the paper
    writes it, with its two known defects (psi, and chi:3 at odd n)."""
    order, k = 4 * n, 2 * n - 1
    zetas = [h for h in range(0, order, 2) if h < k * h % order]
    psis = [h for h in range(1, order, 2) if h < k * h % order]
    odd_block = set(psis) | {k * h % order for h in psis}
    even_block = zetas + [k * h % order for h in zetas]

    def gcd_power_sum(ks):
        return sum(m ** gcd(order, x) for x in ks)

    h = cid.param
    if cid.kind == "zeta":
        return exact_div(cos_sum_doubled(n, m, h, range(order)).to_int(), order)
    if cid.kind == "psi":
        total = (cos_sum_doubled(n, m, h, zetas) * 2 + (m**order - m ** (2 * n))).to_int()
        return exact_div(total, order)
    full = gcd_power_sum(range(order))
    rot = m**order + m ** (2 * n) + 2 * gcd_power_sum(zetas)
    if n % 2 == 0:
        refl = 2 * n * m**n + 2 * n * m ** (2 * n + 1)
        if h in (0, 1):
            return exact_div((refl if h == 0 else -refl) + full, 8 * n)
        sign = 1 if h == 2 else -1
        rot -= gcd_power_sum(odd_block)
        return exact_div(rot + sign * (2 * n * m ** (2 * n + 1) - 2 * n * m**n), 8 * n)
    refl = 2 * n * m**n + n * m ** (2 * n) + n * m ** (2 * n + 2)
    if h in (0, 1):
        return exact_div((refl if h == 0 else -refl) + full, 8 * n)
    rot -= 2 * m**n
    if h == 2:
        rot -= gcd_power_sum(odd_block)
        return exact_div(rot - 2 * n * m**n + n * m ** (2 * n) + n * m ** (2 * n + 2), 8 * n)
    if h == 3:
        run_on = sum(m ** gcd(order, x) * 2 * n * m**n for x in odd_block)
        return exact_div(rot - run_on - n * m ** (2 * n) - n * m ** (2 * n + 2), 8 * n)
    alt = sum((-1) ** (x // 2 % 2) * m ** gcd(order, x) for x in even_block)
    sign = 1 if h in (4, 6) else -1
    base = m**order - m ** (2 * n) + alt
    return exact_div(base + sign * (n * m ** (2 * n + 2) - n * m ** (2 * n)), 8 * n)


@pytest.mark.parametrize("n", range(2, 13))
def test_cos_sum_doubled_matches_the_reference_loop(n):
    order = 4 * n
    zetas = [c.param for c in chartab.character_ids(n) if c.kind == "zeta"]
    for h in range(1, 2 * n):
        for ks in (range(order), zetas):
            for m in (2, 3):
                acc = CycloInt.zero(order)
                for k in ks:
                    weight = m ** (gcd(order, k) if k else order)
                    acc = acc + weight * (root_power(order, h * k) + root_power(order, -h * k))
                assert cos_sum_doubled(n, m, h, ks) == acc


def _outcome(closed_form, n, m, cid):
    try:
        return closed_form(n, m, cid)
    except ExactDivisionError:
        return None


@pytest.mark.parametrize("n", range(2, 41))
def test_closed_form_matches_the_literal_catalog(n):
    # the divisor-grouped catalog is the literal one summed in another order,
    # non-integral at exactly the same (n, m)
    for cid in chartab.character_ids(n):
        for m in (1, 2, 3, 5):
            want = _outcome(literal_closed_form, n, m, cid)
            assert _outcome(dims.dim_closed_form, n, m, cid) == want, (n, m, cid)
