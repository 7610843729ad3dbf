"""Exact values in rings of cyclotomic integers Z[zeta_k].

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
and zero tests need.  A character sum reaches it through `from_terms`, which
folds signed exponent terms (e, c) into that list.  `CycloInt` is that value:
its coordinates, compared and converted exactly to int and (for display) to
complex.  The package adds and multiplies exponent lists only, never values.

The one polynomial here is Phi_k, a tuple of integer coefficients in
ascending degree, built as a Moebius product of binomials x^d - 1.
"""

from __future__ import annotations

import cmath
import functools
import operator
from typing import NamedTuple


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


def mobius_quotients(k: int) -> tuple[tuple[int, int], ...]:
    """The pairs (mu(s), k/s) over the squarefree s dividing k, from s = 1,
    each prime p of k doubling the list by the pairs (-mu, t/p).

    >>> mobius_quotients(12)
    ((1, 12), (-1, 6), (-1, 4), (1, 2))
    """
    pairs = [(1, k)]
    for p in prime_factors(k):
        pairs += [(-mu, t // p) for mu, t in pairs]
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """The k-th cyclotomic polynomial, monic of degree phi(k).

    Phi_k is the product of (x^d - 1)^mu over the pairs (mu, d) of
    mobius_quotients(k), by Moebius inversion of x^k - 1 = prod_(d | k) Phi_d:
    the binomials with mu = +1 multiplied out, then those with mu = -1
    divided out exactly.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(8)
    (1, 0, 0, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if k < 1:
        raise ValueError(f"cyclotomic_polynomial requires k >= 1, got {k}")
    pairs = mobius_quotients(k)
    poly = [1]
    for d in [d for mu, d in pairs if mu > 0]:
        # p (x^d - 1): p shifted up by d, minus p
        poly = list(map(operator.sub, [0] * d + poly, poly + [0] * d))
    for d in [d for mu, d in pairs if mu < 0]:
        # p = q (x^d - 1) gives q[i] = q[i-d] - p[i], in place from the
        # bottom; the division is exact iff the top d entries of q vanish
        for i in range(len(poly)):
            poly[i] = (poly[i - d] if i >= d else 0) - poly[i]
        if any(poly[-d:]):
            raise ArithmeticError(f"non-exact division while building Phi_{k}")
        del poly[-d:]
    if len(poly) - 1 != euler_phi(k):
        raise ArithmeticError(f"Phi_{k} has wrong degree")
    return tuple(poly)


class CycloInt(NamedTuple):
    """An element of Z[zeta_order] in canonical (reduced) coordinates, phi(order)
    of them, as `from_exponents` and `from_int` build it."""

    order: int
    coeffs: tuple[int, ...]

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


def from_terms(order: int, terms) -> CycloInt:
    """The sum of c * zeta_order^e over the pairs (e, c): each c is added at
    e mod order (e may be negative) in one list that `from_exponents` reduces.

    >>> from_terms(8, [(1, 2), (-1, 3)]).coeffs    # 2 zeta + 3 zeta^(-1)
    (0, 2, 0, -3)
    """
    vec = [0] * order
    for e, c in terms:
        vec[e % order] += c
    return from_exponents(order, vec)


def exact_div(value: int, divisor: int) -> int:
    """Divide an integer exactly by a nonzero integer; raises on a remainder."""
    if divisor == 0:
        raise ZeroDivisionError("exact_div by zero")
    q, r = divmod(value, divisor)
    if r:
        raise ExactDivisionError(f"{value} is not divisible by {divisor}")
    return q
