"""The semi-dihedral group SD_{8n} = <a, b | a^(4n) = b^2 = 1, bab = a^k>,
with k = 2n-1 written only in `twist`, which every table derived from the group
reads.  Each element has the unique normal form b^s a^r, s in {0, 1} and
0 <= r < 4n, and is held as one int, its position x = 4n s + r in
elements(n): divmod(x, 4n) gives (s, r) back, and order on positions is
order on (s, r).  All operations are pure functions taking the group
parameter n explicitly.
"""

from __future__ import annotations

import functools


def check_n(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"group parameter n must be an integer >= 2, got {n}")


def twist(n: int) -> int:
    """The multiplier k = 2n-1 of the relation b a b = a^k."""
    return 2 * n - 1


def check_element(n: int, x: int) -> None:
    if not (type(x) is int and 0 <= x < 8 * n):  # bool is an int subclass
        raise ValueError(f"{x!r} is not a valid element of SD_{8 * n}")


def elements(n: int) -> range:
    """All 8n elements as positions, rotations a^r at r, then reflections
    b a^r at 4n + r."""
    check_n(n)
    return range(8 * n)


@functools.lru_cache(maxsize=None)
def product_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Cayley table on positions: row x, column y is the position of x * y.
    For inner loops over elements already known to be valid; multiply
    checks its arguments.

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


def multiply(n: int, x: int, y: int) -> int:
    """Normal-form product.

    Pushing a^r past b uses a^r b = b a^(kr), so
    (b^s1 a^r1)(b^s2 a^r2) = b^(s1 xor s2) a^(k^s2 * r1 + r2).
    """
    check_n(n)
    check_element(n, x)
    check_element(n, y)
    m = 4 * n
    s1, r1 = divmod(x, m)
    s2, r2 = divmod(y, m)
    return (s1 ^ s2) * m + (twist(n) ** s2 * r1 + r2) % m


def inverse(n: int, x: int) -> int:
    """(b^s a^r)^(-1) = a^(-r) b^s = b^s a^(-k^s r)."""
    check_n(n)
    check_element(n, x)
    m = 4 * n
    s, r = divmod(x, m)
    return s * m + -(twist(n) ** s) * r % m


def element_name(n: int, x: int) -> str:
    """Conventional name: 1, a, a^2, ..., b, ba, ba^2, ..."""
    check_element(n, x)
    s, r = divmod(x, 4 * n)
    if s == 0:
        if r == 0:
            return "1"
        return "a" if r == 1 else f"a^{r}"
    if r == 0:
        return "b"
    return "ba" if r == 1 else f"ba^{r}"


def _class_size_profile(n: int) -> list[int]:
    if n % 2 == 0:
        return sorted([1, 1] + [2] * (2 * n - 1) + [2 * n, 2 * n])
    return sorted([1, 1, 1, 1] + [2] * (2 * n - 2) + [n, n, n, n])


@functools.lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All conjugacy classes as (representative, sorted members) pairs of
    positions, each class the closure of a member under conjugation by the
    generators a and b.

    Representatives are the least members; classes are sorted by
    representative.  The class count is 2n+3 for even n and 2n+6 for odd
    n, verified before returning.  Built once per n and shared by the
    table, the inner products and `verify`.
    """
    check_n(n)
    generators = [(g, inverse(n, g)) for g in (1, 4 * n)]
    seen: set[int] = set()
    classes = []
    for h in elements(n):
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
