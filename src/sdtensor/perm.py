"""The embedding of SD_{8n} into S_{4n}, with permutations of {1, ..., N}
held as image tuples.

A permutation p is the tuple of its images: p[t-1] is the image of point t.
Points are 1-based: the residue class of 0 modulo 4n is represented by the
point 4n, so the rotation generator acts literally as t -> t+1 and the
reflection generator as t -> kt modulo 4n, with k = group.twist(n).
Nothing here checks that a tuple is a bijection; `verify`'s
embedding_homomorphism check proves it of every embedded element.
"""

from __future__ import annotations

from math import gcd

from .group import check_element, check_n, twist


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for t, image in enumerate(p, start=1):
        inv[image - 1] = t
    return tuple(inv)


def cycle_decomposition(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical disjoint cycles partitioning the point set, fixed points
    included: each starts at its least point, sorted by it.

    >>> cycle_decomposition((2, 1, 3))
    ((1, 2), (3,))
    """
    seen = [False] * len(p)
    cycles = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cycle = []
        t = start
        while not seen[t - 1]:
            seen[t - 1] = True
            cycle.append(t)
            t = p[t - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def embed(n: int, x: int) -> tuple[int, ...]:
    """The images of 1, ..., 4n under the permutation representing b^s a^r,
    the element at position x = 4n s + r.

    The generators act by t -> t+1 and t -> kt; the word b^s a^r applies
    the rotation part first, so t -> k^s (t + r) modulo 4n, with residue
    0 written as 4n.  This makes the map a homomorphism when permutations
    compose right factor first: embed(gh) = embed(g) o embed(h).
    """
    check_n(n)
    check_element(n, x)
    m = 4 * n
    s, r = divmod(x, m)
    factor = twist(n) ** s
    return tuple(factor * (t + r) % m or m for t in range(1, m + 1))


def cycle_count_formula(n: int, x: int) -> int:
    """Number of disjoint cycles of the embedded permutation, closed form.

    Rotations a^r have gcd(4n, r) cycles (4n for the identity).  For
    reflections the count depends only on r mod 4: odd r gives n; even r
    gives 2n+1 when n is even, and for odd n gives 2n+2 or 2n depending on
    whether r is 0 or 2 mod 4.  Conjugating b a^r to rotation-last form
    preserves r mod 4, so the case split reads off the normal form directly.
    """
    check_n(n)
    check_element(n, x)
    m = 4 * n
    s, r = divmod(x, m)
    if s == 0:
        return gcd(m, r)
    if r % 2 == 1:
        return n
    if n % 2 == 0:
        return 2 * n + 1
    return 2 * n + 2 if r % 4 == 0 else 2 * n
