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

Sums of many values are cheaper one step earlier, in the group ring
Z[C_k] = Z[x]/(x^k - 1): there a value is an integer list of length k indexed
by exponent, a product of powers of zeta adds exponents and conjugation
negates them, with no reduction.  `from_exponents` is the ring map
Z[C_k] -> Z[zeta_k], x -> zeta; it reduces such a list once, giving the
canonical coordinates that equality and zero tests need.

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


@functools.lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of x^e mod Phi_order for every e in [0, order).

    Exponents from order on are reduced modulo order first, since
    zeta^order = 1: a product of two reduced values reaches 2*phi(order) - 2,
    which is order or more when order is an odd prime, for example.
    """
    phi_poly = cyclotomic_polynomial(order)
    deg = len(phi_poly) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(order):
        rows.append(tuple(cur))
        carry = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if carry:
            # x^deg = -(low-order part of Phi), since Phi is monic
            for i in range(deg):
                cur[i] -= carry * phi_poly[i]
    return tuple(rows)


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
    def zero(order: int) -> "CycloInt":
        return CycloInt(order, (0,) * euler_phi(order))

    @staticmethod
    def one(order: int) -> "CycloInt":
        return CycloInt.from_int(order, 1)

    @staticmethod
    def from_int(order: int, value: int) -> "CycloInt":
        coeffs = [0] * euler_phi(order)
        coeffs[0] = value
        return CycloInt(order, tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_int(self) -> int:
        if not self.is_rational_integer:
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

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.order, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        table = _power_table(self.order)
        phi = len(self.coeffs)
        acc = [0] * phi
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                row = table[(i + j) % self.order]
                ab = a * b
                for t in range(phi):
                    acc[t] += ab * row[t]
        return CycloInt(self.order, tuple(acc))

    __rmul__ = __mul__

    def conjugate(self) -> "CycloInt":
        """Complex conjugation, the ring automorphism zeta -> zeta^(-1)."""
        table = _power_table(self.order)
        phi = len(self.coeffs)
        acc = [0] * phi
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = table[(self.order - k) % self.order]
            for t in range(phi):
                acc[t] += c * row[t]
        return CycloInt(self.order, tuple(acc))

    def to_complex(self) -> complex:
        """Floating approximation; for display only, never for equality."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(c * z**k for k, c in enumerate(self.coeffs) if c != 0) + 0j

    def __repr__(self):
        return f"CycloInt({self.order}, {self.coeffs})"


def root_power(order: int, e: int) -> CycloInt:
    """zeta^e in Z[zeta_order], reduced to canonical coordinates.

    >>> root_power(8, 0).coeffs
    (1, 0, 0, 0)
    >>> root_power(8, 4).coeffs   # zeta^4 = -1 for order 8
    (-1, 0, 0, 0)
    >>> root_power(8, 5).coeffs   # zeta^5 = -zeta
    (0, -1, 0, 0)
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return CycloInt(order, _power_table(order)[e % order])


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


def exact_div(value, divisor: int):
    """Divide exactly by a nonzero integer; raises if any coefficient resists.

    Accepts either an int or a CycloInt and returns the same kind.
    """
    if divisor == 0:
        raise ZeroDivisionError("exact_div by zero")
    if isinstance(value, int):
        q, r = divmod(value, divisor)
        if r:
            raise ExactDivisionError(f"{value} is not divisible by {divisor}")
        return q
    out = []
    for c in value.coeffs:
        q, r = divmod(c, divisor)
        if r:
            raise ExactDivisionError(f"coefficient {c} is not divisible by {divisor}")
        out.append(q)
    return CycloInt(value.order, tuple(out))
