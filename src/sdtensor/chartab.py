"""Irreducible characters of SD_{8n} as exact cyclotomic-integer functions.

All character values live in Z[zeta] with zeta = e^(i*pi/2n), the primitive
4n-th root of unity.  Linear characters send a to one of 1, -1, i, -i
(powers of zeta^n) and b to +-1.  The degree-2 characters are traces of the
two-dimensional representations a^r -> diag(zeta^(hr), zeta^((2n-1)hr)),
which vanish on every reflection; the familiar 2cos / 2isin expressions for
their rotation values are consequences checked by the test suite, not the
definition used here.

Character families and their parameter ranges:
  chi:i   linear; i in 0..3 for even n, 0..7 for odd n
  zeta:h  degree 2, h even, h in C1 minus {0, 2n}
  psi:h   degree 2, h odd; for even n h in C2_even union C3_even,
          for odd n h in (C2_odd union C3_odd) minus {n, 3n}
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import group
from .cyclo import CycloInt, root_power
from .group import SDElement, check_n


@dataclass(frozen=True)
class IndexSets:
    """The exponent sets that index conjugacy classes and characters."""

    n: int
    C1: tuple[int, ...]
    C2_even: tuple[int, ...]
    C3_even: tuple[int, ...]
    C2_odd: tuple[int, ...]
    C3_odd: tuple[int, ...]
    Cdag_even: tuple[int, ...]
    Cdag_odd: tuple[int, ...]
    C_odd_23: tuple[int, ...]
    Cstar_even: tuple[int, ...]
    Cstar_odd: tuple[int, ...]


def index_sets(n: int) -> IndexSets:
    check_n(n)
    c1 = tuple(range(0, 2 * n + 1, 2))
    c2_even = tuple(range(1, n, 2))
    c3_even = tuple(range(2 * n + 1, 3 * n, 2))
    c2_odd = tuple(range(1, n + 1, 2))
    c3_odd = tuple(range(2 * n + 1, 3 * n + 1, 2))
    c_even = sorted(set(c1) | set(c2_even) | set(c3_even))
    c_odd = sorted(set(c1) | set(c2_odd) | set(c3_odd))
    return IndexSets(
        n=n,
        C1=c1,
        C2_even=c2_even,
        C3_even=c3_even,
        C2_odd=c2_odd,
        C3_odd=c3_odd,
        Cdag_even=tuple(k for k in c1 if k not in (0, 2 * n)),
        Cdag_odd=tuple(sorted(set(c2_even) | set(c3_even))),
        C_odd_23=tuple(sorted(set(c2_odd) | set(c3_odd))),
        Cstar_even=tuple(k for k in c_even if k not in (0, 2 * n)),
        Cstar_odd=tuple(k for k in c_odd if k not in (0, n, 2 * n, 3 * n)),
    )


@dataclass(frozen=True, order=True)
class CharacterId:
    """Tagged name of an irreducible character: kind chi/zeta/psi plus parameter."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in ("chi", "zeta", "psi"):
            raise ValueError(f"unknown character kind {self.kind!r}")

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


def linear_range(n: int) -> range:
    return range(4) if n % 2 == 0 else range(8)


def psi_range(n: int) -> tuple[int, ...]:
    sets = index_sets(n)
    if n % 2 == 0:
        return sets.Cdag_odd
    return tuple(h for h in sets.C_odd_23 if h not in (n, 3 * n))


def character_ids(n: int) -> tuple[CharacterId, ...]:
    """All irreducible characters, in table order: linears, zetas, psis."""
    check_n(n)
    ids = [chi(i) for i in linear_range(n)]
    ids += [zeta(h) for h in index_sets(n).Cdag_even]
    ids += [psi(h) for h in psi_range(n)]
    return tuple(ids)


def validate_id(n: int, cid: CharacterId) -> None:
    check_n(n)
    if cid.kind == "chi":
        if cid.param not in linear_range(n):
            raise ValueError(f"{cid.label()} is not a character of SD_{8 * n}")
    elif cid.kind == "zeta":
        if cid.param not in index_sets(n).Cdag_even:
            raise ValueError(f"{cid.label()} is not a character of SD_{8 * n}")
    else:
        if cid.param not in psi_range(n):
            raise ValueError(f"{cid.label()} is not a character of SD_{8 * n}")


# chi_i is determined by (chi(a), chi(b)); chi(a) is recorded as a multiple
# of n in the exponent of zeta: zeta^0 = 1, zeta^n = i, zeta^2n = -1,
# zeta^3n = -i.  Entries 4..7 exist only for odd n, where chi(a)^(2n-2) = 1
# admits chi(a) = +-i.
_CHI_A_EXPONENT = {0: 0, 1: 0, 2: 2, 3: 2, 4: 1, 5: 1, 6: 3, 7: 3}
_CHI_B_SIGN = {0: 1, 1: -1, 2: 1, 3: -1, 4: 1, 5: -1, 6: 1, 7: -1}


def character_value(n: int, cid: CharacterId, g: SDElement) -> CycloInt:
    """Exact value of the character at a group element."""
    group.check_element(n, g)
    return value_table(n, cid)[g]


def _formula_value(n: int, cid: CharacterId, g: SDElement) -> CycloInt:
    m = 4 * n
    if cid.kind == "chi":
        exp_a = _CHI_A_EXPONENT[cid.param] * n  # chi(a) = zeta^(exp_a)
        value = root_power(m, exp_a * g.r)
        if g.s and _CHI_B_SIGN[cid.param] < 0:
            value = -value
        return value
    if g.s:
        return CycloInt.zero(m)
    h = cid.param
    return root_power(m, h * g.r) + root_power(m, (2 * n - 1) * h * g.r)


@functools.lru_cache(maxsize=None)
def value_table(n: int, cid: CharacterId) -> dict[SDElement, CycloInt]:
    """Character values at every group element, computed once; the one
    producer of character values."""
    validate_id(n, cid)
    return {g: _formula_value(n, cid, g) for g in group.elements(n)}


@dataclass(frozen=True)
class CharacterTable:
    """Square table of exact character values on conjugacy class representatives."""

    n: int
    ids: tuple[CharacterId, ...]
    class_reps: tuple[SDElement, ...]
    classes: group.ConjClassReport
    entries: tuple[tuple[CycloInt, ...], ...]  # entries[row][col]

    def value(self, cid: CharacterId, rep: SDElement) -> CycloInt:
        return self.entries[self.ids.index(cid)][self.class_reps.index(rep)]


def character_table(n: int) -> CharacterTable:
    check_n(n)
    ids = character_ids(n)
    classes = group.conjugacy_classes(n)
    reps = classes.representatives
    if len(ids) != len(reps):
        raise RuntimeError("character count does not match class count")
    entries = tuple(
        tuple(character_value(n, cid, rep) for rep in reps) for cid in ids
    )
    return CharacterTable(n=n, ids=ids, class_reps=reps, classes=classes, entries=entries)


def char_inner_product(n: int, id1: CharacterId, id2: CharacterId) -> tuple[CycloInt, int]:
    """Unreduced inner product: (sum over G of chi1(g) * conj(chi2(g)), 8n).

    Row orthonormality of the character table is the statement that the
    numerator equals 8n when id1 == id2 and 0 otherwise; callers assert this
    exactly, with no division performed here.
    """
    t1 = value_table(n, id1)
    t2 = value_table(n, id2)
    acc = CycloInt.zero(4 * n)
    for g in group.elements(n):
        acc = acc + t1[g] * t2[g].conjugate()
    return acc, 8 * n


def parse_character_spec(n: int, spec: str) -> list[CharacterId]:
    """Parse the CLI grammar chi:<i> | zeta:<h> | psi:<h> | all."""
    if spec == "all":
        return list(character_ids(n))
    parts = spec.split(":")
    if len(parts) != 2 or parts[0] not in ("chi", "zeta", "psi"):
        raise ValueError(f"bad character spec {spec!r}; expected chi:<i>, zeta:<h>, psi:<h> or all")
    try:
        param = int(parts[1])
    except ValueError:
        raise ValueError(f"bad character parameter in {spec!r}") from None
    cid = CharacterId(parts[0], param)
    validate_id(n, cid)
    return [cid]
