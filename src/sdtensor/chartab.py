"""Irreducible characters of SD_{8n} as exact cyclotomic-integer functions.

All character values live in Z[zeta] with zeta = e^(i*pi/2n), the primitive
4n-th root of unity.  With k = group.twist(n), a linear character sends b to
+-1 and a to a solution of chi(a)^(k-1) = 1 (1, -1, and for odd n i, -i);
the degree-2 characters are traces of the representations
a^r -> diag(zeta^(hr), zeta^(khr)), which vanish on every reflection; the
familiar 2cos / 2isin expressions for their rotation values are
consequences checked by the test suite, not the definition used here.

So every value is 0, +-zeta^e, or zeta^(hr) + zeta^(khr), and
`value_terms` stores it as that list of signed exponent terms (e, c) with
0 <= e < 4n, indexed by the element itself: as in `group`, b^s a^r is the
int x = 4n s + r.  A sum of values and of their products is written as its
signed exponent terms, where a product adds exponents and a conjugate
negates them, and reduced modulo the cyclotomic polynomial once by
`cyclo.from_terms`; `char_inner_product` alone fills its exponent list in a
loop of its own, for speed.  A single value is reduced the same way, from
its own terms, when `character_value` is asked for it.

`character_ids` is the one list of characters; `validate_id` tests
membership in it.

Character families, all read from k (Clifford theory on Z_4n x|_k C_2):
  chi:i   linear, a -> zeta^e for each e fixed by x -> kx, in the order
          0, 2n, n, 3n, then b -> +-1; i in 0..3 for even n, 0..7 for odd n
  zeta:h  degree 2, one per 2-orbit {h, kh} of x -> kx on Z_4n, named
  psi:h   by its least member h: zeta when h is even, psi when h is odd
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import group
from .cyclo import CycloInt, from_exponents, from_terms
from .group import check_n


class CharacterId(NamedTuple):
    """Tagged name of an irreducible character: kind chi/zeta/psi plus
    parameter.  Any pair can be built; `validate_id` tests it against
    `character_ids`."""

    kind: str
    param: int

    @property
    def degree(self) -> int:
        return 1 if self.kind == "chi" else 2

    def label(self) -> str:
        return f"{self.kind}:{self.param}"

    def __repr__(self):
        return f"CharacterId({self.kind!r}, {self.param})"


def chi(i: int) -> CharacterId:
    return CharacterId("chi", i)


def zeta(h: int) -> CharacterId:
    return CharacterId("zeta", h)


def psi(h: int) -> CharacterId:
    return CharacterId("psi", h)


def _linear_a_exponents(n: int) -> tuple[int, ...]:
    """The e with chi(a) = zeta^e: those in (0, 2n, n, 3n) with (k-1)e = 0 mod 4n."""
    k1 = group.twist(n) - 1
    return tuple(e for e in (0, 2 * n, n, 3 * n) if k1 * e % (4 * n) == 0)


def linear_generators(n: int, i: int) -> tuple[int, int]:
    """chi:i on the generators: (e, sign) with chi(a) = zeta^e and chi(b) = sign."""
    return _linear_a_exponents(n)[i // 2], (-1) ** i


def linear_range(n: int) -> range:
    return range(2 * len(_linear_a_exponents(n)))


@functools.lru_cache(maxsize=None)
def character_ids(n: int) -> tuple[CharacterId, ...]:
    """All irreducible characters, in table order: linears, zetas, psis.

    A degree-2 character is a 2-orbit {h, kh} of x -> kx on Z_4n, named by
    its least member h.
    """
    check_n(n)
    order, k = 4 * n, group.twist(n)
    least = [h for h in range(order) if h < k * h % order]
    ids = [chi(i) for i in linear_range(n)]
    ids += [zeta(h) for h in least if h % 2 == 0]
    ids += [psi(h) for h in least if h % 2]
    return tuple(ids)


@functools.lru_cache(maxsize=None)
def _id_set(n: int) -> frozenset[CharacterId]:
    return frozenset(character_ids(n))


def validate_id(n: int, cid: CharacterId) -> None:
    if cid not in _id_set(n):
        raise ValueError(f"{cid.label()} is not a character of SD_{8 * n}")


def character_value(n: int, cid: CharacterId, x: int) -> CycloInt:
    """Exact value of the character at the group element x."""
    group.check_element(n, x)
    return from_terms(4 * n, value_terms(n, cid)[x])


@functools.lru_cache(maxsize=None)
def value_terms(n: int, cid: CharacterId) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every character value as signed exponent terms; the one producer of
    character values.

    Entry x belongs to the element x = 4n s + r, b^s a^r; the value there
    is the sum of c * zeta^e over its pairs (e, c), with 0 <= e < 4n.  A
    linear character chi:i has one term, chi(a)^r (-1)^(is) at b^s a^r.  A
    degree-2 character has the two terms zeta^(hr) and zeta^(khr) at a^r,
    none on reflections.
    """
    validate_id(n, cid)
    order = 4 * n
    if cid.kind == "chi":
        exp_a, sign_b = linear_generators(n, cid.param)
        return tuple(
            ((exp_a * r % order, sign_b if s else 1),) for s in (0, 1) for r in range(order)
        )
    h, kh = cid.param, group.twist(n) * cid.param
    rotations = tuple(((h * r % order, 1), (kh * r % order, 1)) for r in range(order))
    return rotations + ((),) * order


@functools.lru_cache(maxsize=None)
def _class_weights(n: int) -> tuple[tuple[int, int], ...]:
    """Per conjugacy class, its representative and its size, read once per n."""
    return tuple((rep, len(members)) for rep, members in group.conjugacy_classes(n))


def char_inner_product(n: int, id1: CharacterId, id2: CharacterId) -> tuple[CycloInt, int]:
    """Unreduced inner product: (sum over G of chi1(g) * conj(chi2(g)), 8n).

    Row orthonormality of the character table is the statement that the
    numerator equals 8n when id1 == id2 and 0 otherwise; callers assert this
    exactly, with no division performed here.  Characters are class
    functions, so the sum over G is the class-weighted sum
    sum over classes C of |C| * chi1(g_C) * conj(chi2(g_C)), one term per
    class representative g_C, with representatives and sizes read once per n:
    2n+3 or 2n+6 terms instead of 8n.  It is taken over exponents in
    Z[C_4n] and reduced once.  The element-wise sum stays in the tests as
    the oracle.
    """
    order = 4 * n
    terms1, terms2 = value_terms(n, id1), value_terms(n, id2)
    # filled here, not by from_terms: a generator of terms slows this hot loop 1.1-1.5x
    vec = [0] * order  # conj(zeta^e2) = zeta^(-e2), so a term product adds e1 - e2
    for rep, size in _class_weights(n):
        for e1, c1 in terms1[rep]:
            for e2, c2 in terms2[rep]:
                vec[(e1 - e2) % order] += size * c1 * c2
    return from_exponents(order, vec), 8 * n


def parse_character_spec(n: int, spec: str) -> list[CharacterId]:
    """Parse the CLI grammar chi:<i> | zeta:<h> | psi:<h> | all."""
    if spec == "all":
        return list(character_ids(n))
    parts = spec.split(":")
    if len(parts) != 2 or parts[0] not in ("chi", "zeta", "psi"):
        raise ValueError(f"bad character spec {spec!r}; expected chi:<i>, zeta:<h>, psi:<h> or all")
    try:
        param = int(parts[1])
        if str(param) != parts[1]:  # int() also reads signs, spaces, "_" and non-ASCII digits
            raise ValueError
    except ValueError:
        raise ValueError(f"bad character parameter in {spec!r}") from None
    cid = CharacterId(parts[0], param)
    validate_id(n, cid)
    return [cid]
