"""Permutations of {1, ..., N} and the embedding of SD_{8n} into S_{4n}.

Points are 1-based: the residue class of 0 modulo 4n is represented by the
point 4n, so the rotation generator acts literally as t -> t+1 and the
reflection generator as t -> kt modulo 4n, with k = group.twist(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .group import SDElement, check_element, check_n, twist


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., N}; images[t-1] is the image of point t."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("images do not form a bijection of {1, ..., N}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, t: int) -> int:
        if not 1 <= t <= len(self.images):
            raise ValueError(f"point {t} out of range 1..{len(self.images)}")
        return self.images[t - 1]


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles partitioning the point set, fixed points included."""

    cycles: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.cycles)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product applying q first: (p o q)(t) = p(q(t))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(tuple(p.images[q.images[t] - 1] for t in range(p.degree)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for t, image in enumerate(p.images, start=1):
        inv[image - 1] = t
    return Permutation(tuple(inv))


def cycle_decomposition(p: Permutation) -> CycleDecomposition:
    """Canonical disjoint cycles: each starts at its least point, sorted by it.

    >>> cycle_decomposition(Permutation((2, 1, 3))).cycles
    ((1, 2), (3,))
    """
    seen = [False] * p.degree
    cycles = []
    for start in range(1, p.degree + 1):
        if seen[start - 1]:
            continue
        cycle = []
        t = start
        while not seen[t - 1]:
            seen[t - 1] = True
            cycle.append(t)
            t = p.images[t - 1]
        cycles.append(tuple(cycle))
    return CycleDecomposition(tuple(cycles))


def embed(n: int, g: SDElement) -> Permutation:
    """The permutation of {1, ..., 4n} representing b^s a^r.

    The generators act by t -> t+1 and t -> kt; the word b^s a^r applies
    the rotation part first, so t -> k^s (t + r) modulo 4n, with residue
    0 written as 4n.  This makes the map a homomorphism for `compose`, which
    also applies its right factor first.
    """
    check_n(n)
    check_element(n, g)
    m = 4 * n
    factor = twist(n) ** g.s
    images = []
    for t in range(1, m + 1):
        v = factor * (t + g.r) % m
        images.append(v if v else m)
    return Permutation(tuple(images))


def cycle_count_formula(n: int, g: SDElement) -> int:
    """Number of disjoint cycles of the embedded permutation, closed form.

    Rotations a^r have gcd(4n, r) cycles (4n for the identity).  For
    reflections the count depends only on r mod 4: odd r gives n; even r
    gives 2n+1 when n is even, and for odd n gives 2n+2 or 2n depending on
    whether r is 0 or 2 mod 4.  Conjugating b a^r to rotation-last form
    preserves r mod 4, so the case split reads off the normal form directly.
    """
    check_n(n)
    check_element(n, g)
    m = 4 * n
    if g.s == 0:
        return gcd(m, g.r)
    if g.r % 2 == 1:
        return n
    if n % 2 == 0:
        return 2 * n + 1
    return 2 * n + 2 if g.r % 4 == 0 else 2 * n
