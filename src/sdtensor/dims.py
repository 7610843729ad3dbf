"""Dimensions of the symmetry classes V_chi(SD_{8n}) on an m-dimensional space.

The dimension is the trace of the symmetrizer,
(chi(1)/8n) * sum over g of chi(g) * m^c(g), where c(g) is the cycle count
of the embedded permutation.  Three routes compute it:

* `dim_general` sums the trace by divisor, in plain integers; this is the
  report value.  The rotations a^r with gcd(4n, r) = d all have d cycles,
  and each term zeta^(hr) of chi summed over them is a Ramanujan sum
  c_(4n/d)(h), so the rotation part has one term per divisor d of 4n.
  A reflection's cycle count depends on r mod 4 only, and a linear
  character's value on b a^r does too, so the reflection part has four
  terms, summed in Z[i].  The total must be an integer divisible by
  8n/chi(1); anything else is a bug, never valid input.

* `dim_trace` sums the trace element by element, over the exponents of
  zeta (chartab.value_terms), reduced once into Z[zeta].  It is the oracle
  that `verify --m` and the tests hold `dim_general` to.

* `dim_closed_form` evaluates the catalog: explicit per-character
  polynomial formulas, split by the parity of n.  Its sums over k < 4n of
  m^gcd(4n,k), plain or weighted by cosines, are grouped by gcd(4n, k) and
  evaluated by divisor on the same Ramanujan kernel: the same sums in
  another order, so the catalog's terms stay as written.  The catalog carries two
  known defects, kept deliberately so the disagreement is visible rather
  than silently repaired: the psi formula understates the m^(4n) and
  m^(2n) terms by half, and the chi:3 formula for odd n contains a run-on
  product term.  `dim_report` flags every character whose closed form
  disagrees with (or is not even an integer next to) the report value.

Everything here is arbitrary-precision integer arithmetic; no floating
point is used anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import chartab, group, perm
from .chartab import CharacterId
from .cyclo import ExactDivisionError, exact_div, from_exponents, prime_factors


@functools.lru_cache(maxsize=None)
def _ramanujan_terms(order: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For each divisor d of order, d and the signed terms (mu(s), q/s) of the
    Ramanujan sum c_q, q = order/d, over the squarefree s dividing q."""
    primes = prime_factors(order)
    divisors = [1]
    for p in primes:
        power, more = p, []
        while order % power == 0:
            more += [d * power for d in divisors]
            power *= p
        divisors += more
    table = []
    for q in divisors:
        signed = [(1, q)]
        for p in primes:
            if q % p == 0:
                signed += [(-mu, exact_div(t, p)) for mu, t in signed]
        table.append((exact_div(order, q), tuple(signed)))
    return tuple(table)


def _rotation_sum(order: int, m: int, h: int) -> int:
    """Sum over r < order of zeta^(hr) * m^gcd(order, r), zeta a primitive
    order-th root of unity.

    The r with gcd(order, r) = d contribute the Ramanujan sum c_q(h),
    q = order/d: the sum of mu(s) * q/s over the squarefree s dividing q
    with q/s dividing h.
    """
    return sum(
        sum(mu * t for mu, t in signed if h % t == 0) * m**d
        for d, signed in _ramanujan_terms(order)
    )


def _check(n: int, m: int, cid: CharacterId) -> None:
    chartab.validate_id(n, cid)
    if m < 1:
        raise ValueError(f"alphabet size m must be >= 1, got {m}")


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^j as (re, im)


def dim_general(n: int, m: int, cid: CharacterId) -> int:
    """Dimension of V_chi by divisor sums of the symmetrizer trace."""
    _check(n, m, cid)
    order = 4 * n
    if cid.degree == 2:
        # zeta^(hr) + zeta^(khr) on a^r; k is a unit mod 4n, so kh has the
        # same Ramanujan sums as h, and chi vanishes on the reflections
        return exact_div(_rotation_sum(order, m, cid.param), 2 * n)
    exp_a, sign_b = chartab.linear_generators(n, cid.param)
    # zeta^n = i; chi(b a^r) = sign_b chi(a)^r and the cycle count of b a^r
    # depend on r mod 4 only, so each r0 < 4 stands for n reflections
    j_a = exact_div(exp_a, n)
    re = im = 0
    for r0 in range(4):
        x, y = _I_POWERS[j_a * r0 % 4]
        weight = sign_b * m ** perm.cycle_count_formula(n, group.SDElement(1, r0))
        re += x * weight
        im += y * weight
    if im:
        raise RuntimeError(f"reflection sum of {cid.label()} has imaginary part {im}")
    return exact_div(_rotation_sum(order, m, exp_a) + n * re, 8 * n)


def dim_trace(n: int, m: int, cid: CharacterId) -> int:
    """Dimension of V_chi by the symmetrizer trace, element by element."""
    _check(n, m, cid)
    order = 4 * n
    vec = [0] * order
    for g, terms in zip(group.elements(n), chartab.value_terms(n, cid)):
        weight = m ** perm.cycle_count_formula(n, g)
        for e, c in terms:
            vec[e] += c * weight
    total = from_exponents(order, vec).to_int()  # must be rational: dimensions are integers
    return exact_div(total, 8 * n // cid.degree)


def dim_closed_form(n: int, m: int, cid: CharacterId) -> int:
    """Dimension by the per-character closed-form catalog.

    Raises ExactDivisionError when the formula does not even produce an
    integer, which happens for the known-defective entries at some (n, m).
    """
    _check(n, m, cid)
    # The catalog sums over k < 4n, here grouped by gcd(4n, k) through
    # _rotation_sum: `full` is the sum of m^gcd(4n,k) over all k, `even` the
    # sum over the even k = 2r, as gcd(4n, 2r) = 2 gcd(2n, r).  The twist
    # 2n-1 sends an even k to -k mod 4n, so the zeta parameters are the even
    # k in (0, 2n), and a sum over them is half the sum over the even k other
    # than 0 and 2n.  The odd block, the psi parameters and their images, is
    # every odd k except the fixed points n and 3n, which exist at odd n only.
    order = 4 * n
    if cid.kind == "zeta":
        # (1/2n) * sum over all k of m^gcd * cos(hk*pi/2n)
        return exact_div(2 * _rotation_sum(order, m, cid.param), order)
    if cid.kind == "psi":
        # (1/4n) [ m^4n - m^2n + 4 * sum over the zeta parameters k of
        # m^gcd(4n,k) cos(hk pi/2n) ] as written; the leading two terms are
        # known to be half the value the trace formula produces.
        total = 2 * _rotation_sum(2 * n, m * m, cid.param) - m**order + m ** (2 * n)
        return exact_div(total, order)
    i = cid.param
    if i >= 4:
        # chi:4 .. chi:7, odd n only: m^4n - m^2n plus the sum of
        # (-1)^(k/2) m^gcd(4n,k) over the even block
        sign = 1 if i in (4, 6) else -1
        return exact_div(
            _rotation_sum(2 * n, m * m, n) + sign * (n * m ** (2 * n + 2) - n * m ** (2 * n)), 8 * n
        )

    full = _rotation_sum(order, m, 0)
    even = _rotation_sum(2 * n, m * m, 0)
    if n % 2 == 0:
        refl = 2 * n * m**n + 2 * n * m ** (2 * n + 1)
        if i in (0, 1):
            return exact_div(full + (refl if i == 0 else -refl), 8 * n)
        # chi:2 and chi:3 share their rotation part.
        sign = 1 if i == 2 else -1
        return exact_div(2 * even - full + sign * (2 * n * m ** (2 * n + 1) - 2 * n * m**n), 8 * n)

    # odd n
    refl = 2 * n * m**n + n * m ** (2 * n) + n * m ** (2 * n + 2)
    if i in (0, 1):
        return exact_div(full + (refl if i == 0 else -refl), 8 * n)
    if i == 2:
        return exact_div(
            2 * even - full - 2 * n * m**n + n * m ** (2 * n) + n * m ** (2 * n + 2), 8 * n
        )
    # chi:3 as catalogued: the subtracted sum over the odd block runs over
    # terms m^gcd(4n,k) * 2n * m^n (run-on product), then -n m^2n - n m^(2n+2).
    odd_block_sum = full - even - 2 * m**n
    return exact_div(
        even - 2 * m**n - 2 * n * m**n * odd_block_sum - n * m ** (2 * n) - n * m ** (2 * n + 2),
        8 * n,
    )


@dataclass(frozen=True)
class DimEntry:
    character: CharacterId
    general: int
    closed_form: int | None
    agree: bool
    note: str = ""


@dataclass(frozen=True)
class DimReport:
    n: int
    m: int
    entries: tuple[DimEntry, ...]
    total: int
    total_identity_holds: bool


_PSI_NOTE = (
    "closed-form variant disagrees with the trace formula by "
    "(m^(4n) - m^(2n)) / 4n; trace value is authoritative"
)
_CHI3_NOTE = (
    "closed-form variant for chi:3 (odd n) is defective (run-on product term); "
    "trace value is authoritative"
)
_NON_INTEGRAL_NOTE = (
    "closed-form variant is non-integral here; trace value is authoritative"
)


def known_defect(n: int, cid: CharacterId) -> bool:
    """Whether cid's closed form is a catalogued defect: psi, and chi:3 at odd n."""
    return cid.kind == "psi" or (cid == chartab.chi(3) and n % 2 == 1)


def dim_report(n: int, m: int) -> DimReport:
    """dim_general and the closed form for every character, with agreement flags.

    The report also checks the decomposition of the full tensor power: the
    symmetrizers over all irreducible characters are orthogonal idempotents
    summing to the identity, so the dimensions must add up to m^(4n).
    """
    entries = []
    total = 0
    for cid in chartab.character_ids(n):
        general = dim_general(n, m, cid)
        total += general
        try:
            closed = dim_closed_form(n, m, cid)
        except ExactDivisionError:
            closed = None
        agree = closed == general
        note = ""
        if not agree:
            if closed is None:
                note = _NON_INTEGRAL_NOTE
            elif known_defect(n, cid):
                note = _PSI_NOTE if cid.kind == "psi" else _CHI3_NOTE
            else:
                note = "closed-form variant disagrees; trace value is authoritative"
        entries.append(DimEntry(cid, general, closed, agree, note))
    return DimReport(
        n=n,
        m=m,
        entries=tuple(entries),
        total=total,
        total_identity_holds=(total == m ** (4 * n)),
    )
