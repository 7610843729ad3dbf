"""Exact arithmetic in rings of cyclotomic integers Z[zeta_k].

A value is stored as its coordinate vector with respect to the power basis
1, zeta, ..., zeta^(phi(k)-1), where zeta = e^(2*pi*i/k) is a primitive k-th
root of unity: a polynomial in zeta reduced modulo the k-th cyclotomic
polynomial.  The cyclotomic polynomial is the minimal polynomial of zeta, so
two values denote the same complex number exactly when their coordinate
vectors coincide.  Equality and zero tests are therefore exact decisions,
which is what every orthogonality test in this package rests on.  Reducing
modulo x^k - 1 instead would not give this: x^k - 1 is reducible, and
distinct residues could denote the same complex number.

The module has one reduction, `from_exponents`.  Every value the package
computes is built one step earlier, in the group ring Z[C_k] = Z[x]/(x^k - 1):
there a value is an integer list of length k indexed by exponent, a product
of powers of zeta adds exponents and conjugation negates them, with no
reduction.  `from_exponents` is the ring map Z[C_k] -> Z[zeta_k], x -> zeta;
it reduces such a list once, giving the canonical coordinates that equality
and zero tests need.  `CycloInt` is that value: its coordinates, sums and
differences, and exact conversions to int and (for display) to complex.

Integer polynomials appear in this module as plain tuples of arbitrary
precision coefficients in ascending degree, trimmed of trailing zeros.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass


class ExactDivisionError(ArithmeticError):
    """An exact integer division failed, or a value was not a rational integer."""


def prime_factors(x: int) -> tuple[int, ...]:
    """The distinct primes dividing x >= 1, by trial division.

    >>> prime_factors(840)
    (2, 3, 5, 7)
    """
    primes = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            primes.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        primes.append(x)
    return tuple(primes)


@functools.lru_cache(maxsize=None)
def euler_phi(k: int) -> int:
    """Euler's totient function, k * prod(1 - 1/p) over the primes p dividing k.

    >>> [euler_phi(k) for k in (1, 2, 8, 12, 20)]
    [1, 1, 4, 4, 8]
    """
    if k < 1:
        raise ValueError(f"euler_phi requires k >= 1, got {k}")
    result = k
    for p in prime_factors(k):
        result -= result // p
    return result


def poly_trim(coeffs) -> tuple[int, ...]:
    """Canonical form: drop trailing zero coefficients."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_divmod(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of p by a monic q; stays in Z[x]."""
    if not q or q[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    while len(poly_trim(rem)) >= len(q):
        rem = list(poly_trim(rem))
        shift = len(rem) - len(q)
        lead = rem[-1]
        quo[shift] += lead
        for i, c in enumerate(q):
            rem[shift + i] -= lead * c
    return poly_trim(quo), poly_trim(rem)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """The k-th cyclotomic polynomial, monic of degree phi(k).

    Computed by exact division of x^k - 1 by the product of the cyclotomic
    polynomials of the proper divisors of k.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(8)
    (1, 0, 0, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if k < 1:
        raise ValueError(f"cyclotomic_polynomial requires k >= 1, got {k}")
    poly = tuple([-1] + [0] * (k - 1) + [1])  # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            poly, rem = poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError(f"non-exact division while building Phi_{k}")
    if len(poly) - 1 != euler_phi(k):
        raise ArithmeticError(f"Phi_{k} has wrong degree")
    return poly


@dataclass(frozen=True)
class CycloInt:
    """An element of Z[zeta_order] in canonical (reduced) coordinates."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"coordinate vector must have length phi({self.order}) = "
                f"{euler_phi(self.order)}, got {len(self.coeffs)}"
            )

    @staticmethod
    def from_int(order: int, value: int) -> "CycloInt":
        coeffs = [0] * euler_phi(order)
        coeffs[0] = value
        return CycloInt(order, tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_int(self) -> int:
        if any(self.coeffs[1:]):
            raise ExactDivisionError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def _coerce(self, other) -> "CycloInt":
        if isinstance(other, int):
            return CycloInt.from_int(self.order, other)
        if isinstance(other, CycloInt):
            if other.order != self.order:
                raise ValueError(f"order mismatch: {self.order} vs {other.order}")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloInt(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def to_complex(self) -> complex:
        """Floating approximation; for display only, never for equality."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(c * z**k for k, c in enumerate(self.coeffs) if c != 0) + 0j

    def __repr__(self):
        return f"CycloInt({self.order}, {self.coeffs})"


@functools.lru_cache(maxsize=None)
def _reduction(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree of Phi_order and its nonzero terms (i, c) below the leading one."""
    phi_poly = cyclotomic_polynomial(order)
    return len(phi_poly) - 1, tuple((i, c) for i, c in enumerate(phi_poly[:-1]) if c)


def from_exponents(order: int, vec) -> CycloInt:
    """The image of sum over e of vec[e] * x^e under x -> zeta_order.

    vec has one integer per exponent 0..order-1.  The result is the
    remainder of that polynomial modulo the cyclotomic polynomial.  For even
    order the top half folds onto the bottom first, since zeta^(order/2) = -1;
    then the top coefficients cancel one at a time, cheaply, because
    Phi_order is monic and has few nonzero terms.

    >>> from_exponents(8, [1, 0, 0, 0, 1, 0, 0, 0]).is_zero   # 1 + zeta^4 = 0
    True
    >>> from_exponents(8, [0, 2, 0, 0, 0, 0, 0, 3]).coeffs    # 2 zeta + 3 zeta^7
    (0, 2, 0, -3)
    """
    if len(vec) != order:
        raise ValueError(f"exponent vector must have length {order}, got {len(vec)}")
    deg, low = _reduction(order)
    top = order // 2 if order % 2 == 0 else order
    rem = list(map(operator.sub, vec[:top], vec[top:])) if top < order else list(vec)
    for e in range(top - 1, deg - 1, -1):
        lead = rem[e]
        if lead:
            # modulo Phi, x^e = -x^(e-deg) * (Phi minus its leading term)
            for i, c in low:
                rem[e - deg + i] -= lead * c
    return CycloInt(order, tuple(rem[:deg]))


def exact_div(value: int, divisor: int) -> int:
    """Divide an integer exactly by a nonzero integer; raises on a remainder."""
    if divisor == 0:
        raise ZeroDivisionError("exact_div by zero")
    q, r = divmod(value, divisor)
    if r:
        raise ExactDivisionError(f"{value} is not divisible by {divisor}")
    return q
