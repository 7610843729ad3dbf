"""The semi-dihedral group SD_{8n} = <a, b | a^(4n) = b^2 = 1, bab = a^k>,
with k = 2n-1 written only in `twist`, which every table derived from the group
reads.  Elements are kept in the unique normal form b^s a^r, s in {0, 1} and
0 <= r < 4n.  All operations are pure functions taking the group parameter n
explicitly; values are immutable and hashable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SDElement:
    """Group element b^s a^r.  Ordering is lexicographic on (s, r)."""

    s: int
    r: int

    def __repr__(self):
        return f"SDElement({self.s}, {self.r})"


def check_n(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"group parameter n must be an integer >= 2, got {n}")


def twist(n: int) -> int:
    """The multiplier k = 2n-1 of the relation b a b = a^k."""
    return 2 * n - 1


def check_element(n: int, g: SDElement) -> None:
    if not (isinstance(g.s, int) and isinstance(g.r, int) and g.s in (0, 1) and 0 <= g.r < 4 * n):
        raise ValueError(f"{g} is not a valid element of SD_{8 * n}")


def identity() -> SDElement:
    return SDElement(0, 0)


def elements(n: int) -> tuple[SDElement, ...]:
    """All 8n elements, rotations first, in (s, r) order."""
    check_n(n)
    return tuple(SDElement(s, r) for s in (0, 1) for r in range(4 * n))


def element_index(n: int, g: SDElement) -> int:
    """Position of g in elements(n); g is not validated."""
    return g.s * 4 * n + g.r


@functools.lru_cache(maxsize=None)
def product_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Cayley table on positions in elements(n): row i, column j is the
    position of elements(n)[i] * elements(n)[j].  For inner loops over
    elements already known to be valid; multiply checks its arguments.

    Built from the normal-form closed form
    (b^s1 a^r1)(b^s2 a^r2) = b^(s1 xor s2) a^(k^s2 * r1 + r2 mod 4n),
    so the row of b^s a^r holds b^s a^(r + r2) for r2 = 0..4n-1, then
    b^(1-s) a^(kr + r2).  It is written independently of multiply,
    which the test suite checks it against.
    """
    check_n(n)
    m = 4 * n
    k = twist(n)

    def block(s: int, shift: int) -> tuple[int, ...]:
        return tuple(s * m + (shift + r2) % m for r2 in range(m))

    return tuple(block(s, r) + block(1 - s, k * r) for s in (0, 1) for r in range(m))


def multiply(n: int, g: SDElement, h: SDElement) -> SDElement:
    """Normal-form product.

    Pushing a^r past b uses a^r b = b a^(kr), so
    (b^s1 a^r1)(b^s2 a^r2) = b^(s1 xor s2) a^(k^s2 * r1 + r2).
    """
    check_n(n)
    check_element(n, g)
    check_element(n, h)
    r1 = twist(n) * g.r if h.s else g.r
    return SDElement(g.s ^ h.s, (r1 + h.r) % (4 * n))


def inverse(n: int, g: SDElement) -> SDElement:
    """(b^s a^r)^(-1) = a^(-r) b^s = b^s a^(-k^s r)."""
    check_n(n)
    check_element(n, g)
    return SDElement(g.s, -(twist(n) ** g.s) * g.r % (4 * n))


def element_name(g: SDElement) -> str:
    """Conventional name: 1, a, a^2, ..., b, ba, ba^2, ..."""
    if g.s == 0:
        if g.r == 0:
            return "1"
        return "a" if g.r == 1 else f"a^{g.r}"
    if g.r == 0:
        return "b"
    return "ba" if g.r == 1 else f"ba^{g.r}"


def _class_size_profile(n: int) -> list[int]:
    if n % 2 == 0:
        return sorted([1, 1] + [2] * (2 * n - 1) + [2 * n, 2 * n])
    return sorted([1, 1, 1, 1] + [2] * (2 * n - 2) + [n, n, n, n])


@functools.lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> tuple[tuple[SDElement, tuple[SDElement, ...]], ...]:
    """All conjugacy classes as (representative, sorted members) pairs, each
    class the closure of a member under conjugation by the generators a and b.

    Representatives are the lexicographically least members under (s, r)
    order; classes are sorted by representative.  The class count is 2n+3
    for even n and 2n+6 for odd n, verified before returning.  Built once
    per n and shared by the table, the inner products and `verify`.
    """
    check_n(n)
    all_elements = elements(n)
    generators = [(g, inverse(n, g)) for g in (SDElement(0, 1), SDElement(1, 0))]
    seen: set[SDElement] = set()
    classes = []
    for h in all_elements:
        if h in seen:
            continue
        members, frontier = {h}, [h]
        while frontier:
            x = frontier.pop()
            for g, g_inv in generators:
                y = multiply(n, multiply(n, g, x), g_inv)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        seen |= members
        members = tuple(sorted(members))
        classes.append((members[0], members))
    classes.sort(key=lambda pair: pair[0])

    expected_count = 2 * n + 3 if n % 2 == 0 else 2 * n + 6
    sizes = sorted(len(members) for _, members in classes)
    if len(classes) != expected_count or sizes != _class_size_profile(n):
        raise RuntimeError(f"conjugacy class structure of SD_{8 * n} is inconsistent")
    return tuple(classes)
