"""Independent routes the tests hold the package to.

pytest does not collect this module and no package module imports it.
Each name here is an oracle for something `sdtensor.symclass` computes
another way:

- `action_maps`, the 8n maps alpha -> g.alpha built from `perm.embed`
  alone, apart from the affine rule `symclass` reads the action by;
  `stabilizer_of`, the elements fixing a sequence, by a scan of all 8n.
- `act`, with its length check: the left action on one sequence, checked;
  `members` and `coset_reps` of an orbit, derived from the coset table.
- `_cosets`, the left cosets xH of a subgroup and their quotient table, and
  `_coset_sums`, F(xH) for every coset: entry 0 is
  `symclass._subgroup_char_sum`.
- `stabilizer_char_sum` and `delta_bar`, read off the stabilizer.
- `GramData` and `gram`, the exact Gram matrix of an orbital subspace,
  which the tests tie to explicit tensors.
- `_find_clique` and `search_decision`: the exhaustive branch-and-bound
  search over the zero pattern of the Gram matrix, against which
  `symclass._stabilizer_decision`'s closed form is checked on every
  subgroup.
- `psi_vanishing_exists`, the zeros of psi on rotations.

Two more are oracles for `sdtensor.cyclo` and `sdtensor.perm`:

- `root_power`, `add`, `sub`, `mul` and `conjugate`: a second ring
  Z[zeta_k].  Sums and differences are taken coordinate by coordinate;
  products and conjugates are built on `_power_table`, the coordinates of
  every power of zeta found by shifting one power at a time.  None of them
  calls `cyclo.from_exponents`, the one reduction of the package, so the
  tests hold the two to each other.
- `compose`, the product of permutations, right factor first, for which
  `perm.embed` is a homomorphism.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from sdtensor import chartab, group, perm, symclass
from sdtensor.chartab import CharacterId
from sdtensor.cyclo import CycloInt, cyclotomic_polynomial, from_exponents
from sdtensor.symclass import OrbitData, Sequence


def _check_length(n: int, alpha: Sequence) -> None:
    if len(alpha) != 4 * n:
        raise ValueError(f"sequence length {len(alpha)} does not match 4n = {4 * n}")


@functools.lru_cache(maxsize=None)
def action_maps(n: int) -> tuple[operator.itemgetter, ...]:
    """At each element x, an itemgetter sending alpha to x.alpha,
    unchecked: (x.alpha)[t] = alpha[T(x)^(-1)(t)], 0-based."""
    return tuple(
        operator.itemgetter(*(p - 1 for p in perm.inverse(perm.embed(n, x))))
        for x in group.elements(n)
    )


def stabilizer_of(n: int, alpha: Sequence) -> tuple[int, ...]:
    """The ascending elements fixing alpha, each of the 8n tested."""
    return tuple(x for x, move in enumerate(action_maps(n)) if move(alpha) == alpha)


def act(n: int, x: int, alpha: Sequence) -> Sequence:
    """Left action on sequences: act(xy, alpha) == act(x, act(y, alpha))."""
    _check_length(n, alpha)
    group.check_element(n, x)
    return action_maps(n)[x](alpha)


@functools.lru_cache(maxsize=None)
def _cosets(
    n: int, subgroup: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The left cosets xH of a subgroup of element positions, numbered in
    order of their first elements x_i: those first positions, the coset
    number of every position, and the quotient table, whose entry (i, j)
    numbers x_i^(-1) x_j H.  Coset 0 is H."""
    table = group.product_table(n)
    firsts: list[int] = []
    number = [-1] * (8 * n)
    for x, row in enumerate(table):
        if number[x] < 0:
            for h in subgroup:
                number[row[h]] = len(firsts)
            firsts.append(x)
    # the row of x^(-1) is named by the column where the row of x holds the identity
    quotient = tuple(
        tuple(number[row[y]] for y in firsts) for row in (table[table[x].index(0)] for x in firsts)
    )
    return tuple(firsts), tuple(number), quotient


@functools.lru_cache(maxsize=None)
def _coset_sums(n: int, cid: CharacterId, subgroup: tuple[int, ...]) -> tuple[CycloInt, ...]:
    """F(xH), the character sum over each left coset numbered by _cosets:
    one exponent vector per coset, reduced once.  Entry 0 is F(H)."""
    order = 4 * n
    terms = chartab.value_terms(n, cid)
    firsts, number, _ = _cosets(n, subgroup)
    vecs = [[0] * order for _ in firsts]
    for x, k in enumerate(number):
        for e, c in terms[x]:
            vecs[k][e] += c
    return tuple(from_exponents(order, vec) for vec in vecs)


def coset_reps(n: int, orbit: OrbitData) -> tuple[int, ...]:
    """Per member, in order, the position of the first element mapping the
    representative to it."""
    moves, firsts = action_maps(n), _cosets(n, orbit.stabilizer)[0]
    return tuple(sorted(firsts, key=lambda x: moves[x](orbit.representative)))


def members(n: int, orbit: OrbitData) -> tuple[Sequence, ...]:
    moves, firsts = action_maps(n), _cosets(n, orbit.stabilizer)[0]
    return tuple(sorted(moves[x](orbit.representative) for x in firsts))


def stabilizer_char_sum(n: int, cid: CharacterId, alpha: Sequence) -> CycloInt:
    """Sum of character values over the stabilizer of alpha.

    alpha lies in Omega (its decomposable symmetrized tensor is nonzero)
    exactly when this sum is nonzero.
    """
    chartab.validate_id(n, cid)
    _check_length(n, alpha)
    return _coset_sums(n, cid, stabilizer_of(n, alpha))[0]


def delta_bar(n: int, cid: CharacterId, orbit_list: list[OrbitData]) -> list[Sequence]:
    """Representatives of the orbits whose stabilizer character sum is nonzero."""
    chartab.validate_id(n, cid)
    return [o.representative for o in orbit_list if not _coset_sums(n, cid, o.stabilizer)[0].is_zero]


@dataclass(frozen=True)
class GramData:
    """Scaled Gram matrix of one orbital subspace.

    entries[i][j] is the character sum over sigma_j * stabilizer * sigma_i^(-1),
    the inner product of the i-th and j-th member tensors up to the global
    positive factor chi(1)/8n, which never affects zero tests.
    """

    entries: tuple[tuple[CycloInt, ...], ...]
    orbital_dim: int


def gram(n: int, cid: CharacterId, orbit: OrbitData) -> GramData:
    """Exact Gram data for the orbital subspace of an orbit in Omega.

    A character is a class function, so entry (i, j), the sum over
    sigma_j * H * sigma_i^(-1), equals F(sigma_i^(-1) sigma_j H), which the
    quotient table names for the cosets of sigma_i and sigma_j.
    """
    stab = orbit.stabilizer
    chartab.validate_id(n, cid)
    sums = _coset_sums(n, cid, stab)
    if sums[0].is_zero:
        raise ValueError("representative is not in Omega; the orbital subspace is zero")
    _, number, quotient = _cosets(n, stab)
    cosets = [number[x] for x in coset_reps(n, orbit)]
    return GramData(
        entries=tuple(tuple(sums[quotient[i][j]] for j in cosets) for i in cosets),
        orbital_dim=symclass._orbital_dim(cid, sums[0], len(stab)),
    )


def _find_clique(neighbors: list[set[int]], k: int) -> list[int] | None:
    """First clique of size k in deterministic order, or None.

    Exhaustive branch-and-bound: vertices are tried in order of decreasing
    degree (ties by index); a branch is cut only when clique size plus
    remaining candidates cannot reach k, so a None result is a proof of
    absence.
    """
    if k <= 0:
        return []
    order = sorted(range(len(neighbors)), key=lambda v: (-len(neighbors[v]), v))

    def extend(clique: list[int], candidates: list[int]) -> list[int] | None:
        if len(clique) == k:
            return clique
        if len(clique) + len(candidates) < k:
            return None
        for idx, v in enumerate(candidates):
            rest = [u for u in candidates[idx + 1 :] if u in neighbors[v]]
            found = extend(clique + [v], rest)
            if found is not None:
                return found
        return None

    return extend([], order)


def search_decision(
    n: int, cid: CharacterId, stabilizer: tuple[int, ...]
) -> tuple[int, bool, tuple[int, ...] | None]:
    """`symclass._stabilizer_decision` by exhaustive search, with its return
    shape.

    Vertices are the cosets x_i H of _cosets; x_i and x_j are joined when
    the scaled Gram entry F(x_i^(-1) x_j H), named by the quotient table,
    is exactly zero, one zero test per coset.  A clique of size orbital_dim
    is a set of nonzero, pairwise-orthogonal tensors inside the orbital
    subspace, hence a basis of it; the witness is its coset firsts, in
    order.  The search is exhaustive, so a negative answer is a proof of
    nonexistence.
    """
    sums = _coset_sums(n, cid, stabilizer)
    dim = symclass._orbital_dim(cid, sums[0], len(stabilizer))
    firsts, _, quotient = _cosets(n, stabilizer)
    zero = [s.is_zero for s in sums]
    neighbors = [
        {j for j, k in enumerate(row) if j != i and zero[k]} for i, row in enumerate(quotient)
    ]
    clique = _find_clique(neighbors, dim)
    if clique is None:
        return dim, False, None
    return dim, True, tuple(firsts[v] for v in sorted(clique))


def psi_vanishing_exists(n: int, h: int) -> bool:
    """Whether psi:h(a^u) = zeta^(hu) + zeta^(khu) = 0 at some rotation a^u,
    decided exactly from the character table at every u.

    This is the brute-force side of the psi criterion: the test suite checks
    that the answer is "n is even".
    """
    cid = chartab.psi(h)
    return any(chartab.character_value(n, cid, u).is_zero for u in range(4 * n))


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


def root_power(order: int, e: int) -> CycloInt:
    """zeta^e in Z[zeta_order], read off the power table."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return CycloInt(order, _power_table(order)[e % order])


def _coordinatewise(op, x: CycloInt | int, y: CycloInt | int) -> CycloInt:
    """op on the coordinates of x and y; an int stands for a rational integer."""
    order = y.order if isinstance(x, int) else x.order
    x, y = (CycloInt.from_int(order, v) if isinstance(v, int) else v for v in (x, y))
    if x.order != y.order:
        raise ValueError(f"order mismatch: {x.order} vs {y.order}")
    return CycloInt(order, tuple(map(op, x.coeffs, y.coeffs)))


def add(x: CycloInt | int, y: CycloInt | int) -> CycloInt:
    """The sum x + y; either term may be an int."""
    return _coordinatewise(operator.add, x, y)


def sub(x: CycloInt | int, y: CycloInt | int) -> CycloInt:
    """The difference x - y; either term may be an int."""
    return _coordinatewise(operator.sub, x, y)


def mul(x: CycloInt | int, y: CycloInt | int) -> CycloInt:
    """The product x * y; either factor may be an int scalar."""
    if isinstance(x, int):
        x, y = y, x
    if isinstance(y, int):
        return CycloInt(x.order, tuple(a * y for a in x.coeffs))
    if x.order != y.order:
        raise ValueError(f"order mismatch: {x.order} vs {y.order}")
    table = _power_table(x.order)
    phi = len(x.coeffs)
    acc = [0] * phi
    for i, a in enumerate(x.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(y.coeffs):
            if b == 0:
                continue
            row = table[(i + j) % x.order]
            ab = a * b
            for t in range(phi):
                acc[t] += ab * row[t]
    return CycloInt(x.order, tuple(acc))


def conjugate(x: CycloInt) -> CycloInt:
    """Complex conjugation, the ring automorphism zeta -> zeta^(-1)."""
    table = _power_table(x.order)
    phi = len(x.coeffs)
    acc = [0] * phi
    for k, c in enumerate(x.coeffs):
        if c == 0:
            continue
        row = table[(x.order - k) % x.order]
        for t in range(phi):
            acc[t] += c * row[t]
    return CycloInt(x.order, tuple(acc))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two image tuples applying q first: (p o q)(t) = p(q(t))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[image - 1] for image in q)
