"""Orbits, stabilizers, exact Gram matrices, and orthogonal-basis decisions.

The group SD_{8n} acts on length-4n sequences over the alphabet {1, ..., m}
by permuting positions through its embedding T into S_{4n}; orbits() lists
the orbit representatives as necklaces, with no table over the sequences.
An orbit is its lex-least representative and its stabilizer H, an
ascending tuple of positions in group.elements(n); the left cosets xH,
numbered once per H, index its members.  Each orbit whose
stabilizer character sum F(H) is nonzero carries an orbital subspace of
the symmetry class, spanned by the decomposable symmetrized tensors of its
members; where F(H) is zero the orbital dimension is 0.  Inner products
between those tensors are, up to one global positive factor, character
sums F(x_i^(-1) x_j H): one coset table per H names that coset for every
pair, and one cached kernel sums F(xH) once per coset.  The sums live in
Z[zeta] and are compared to zero exactly.

The orthogonal-basis question for a symmetry class reduces to: does every
orbital subspace contain as many pairwise-orthogonal member tensors as its
dimension?  That is a clique problem on at most 8n vertices per orbit and
is decided here by exhaustive branch-and-bound, with no heuristic shortcut
on the negative side.  Because the Gram matrix of an orbit depends only on
its stabilizer subgroup, decisions are cached per (character, stabilizer)
and reused across orbits.  orbital_outcomes yields one character's
outcomes orbit by orbit, as they are asked for, and has_orthogonal_basis
reads the verdict off the distinct stabilizers alone.

A separate, much cheaper prediction is also provided: linear characters
always admit a basis; zeta characters admit one exactly when the 2-adic
valuation of h/2n is negative; psi characters are predicted to admit none.
The exhaustive search is the ground truth and the two are compared, not
assumed equal.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

from . import chartab, group, perm
from .chartab import CharacterId
from .cyclo import CycloInt, exact_div, from_exponents, root_power
from .group import SDElement

Sequence = tuple[int, ...]

DEFAULT_BUDGET = 10**7
BUDGET_ENV_VAR = "SDTENSOR_BUDGET"


class BudgetExceededError(RuntimeError):
    """Raised instead of attempting an enumeration beyond the sequence budget."""

    def __init__(self, n: int, m: int, total: int, budget: int):
        self.n = n
        self.m = m
        self.total = total
        self.budget = budget
        super().__init__(
            f"enumerating m^4n = {m}^{4 * n} = {total} sequences exceeds the "
            f"budget of {budget}; raise it explicitly to proceed"
        )


def resolve_budget(budget: int | None) -> int:
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if budget < 0:
        raise ValueError(f"the sequence budget must be >= 0, got {budget}")
    return budget


@functools.lru_cache(maxsize=None)
def _inverse_images(n: int) -> tuple[tuple[int, ...], ...]:
    """The one action table: at the position of g in group.elements, the
    0-based inverse images of T(g), since (g.alpha)[t] = alpha[T(g)^(-1)(t)]."""
    return tuple(
        tuple(p - 1 for p in perm.inverse(perm.embed(n, g)).images) for g in group.elements(n)
    )


@functools.lru_cache(maxsize=None)
def _action_maps(n: int) -> tuple[operator.itemgetter, ...]:
    """At the position of g in group.elements, an itemgetter sending alpha
    to g.alpha, unchecked."""
    return tuple(operator.itemgetter(*images) for images in _inverse_images(n))


def _check_length(n: int, alpha: Sequence) -> None:
    if len(alpha) != 4 * n:
        raise ValueError(f"sequence length {len(alpha)} does not match 4n = {4 * n}")


def act(n: int, g: SDElement, alpha: Sequence) -> Sequence:
    """Left action on sequences: act(gh, alpha) == act(g, act(h, alpha))."""
    _check_length(n, alpha)
    group.check_element(n, g)
    return _action_maps(n)[group.element_index(n, g)](alpha)


@dataclass(frozen=True, slots=True)
class OrbitData:
    """One orbit: its lex-least representative and its stabilizer, the
    ascending positions in group.elements(n) of the elements fixing it, one
    tuple shared by the orbits of one orbits() call."""

    n: int
    representative: Sequence
    stabilizer: tuple[int, ...]

    @property
    def coset_reps(self) -> tuple[int, ...]:
        """Per member, in order, the position of the first element mapping
        the representative to it."""
        moves, firsts = _action_maps(self.n), _cosets(self.n, self.stabilizer)[0]
        return tuple(sorted(firsts, key=lambda x: moves[x](self.representative)))

    @property
    def members(self) -> tuple[Sequence, ...]:
        moves, firsts = _action_maps(self.n), _cosets(self.n, self.stabilizer)[0]
        return tuple(sorted(moves[x](self.representative) for x in firsts))

    @property
    def size(self) -> int:
        return 8 * self.n // len(self.stabilizer)


def orbits(n: int, m: int, budget: int | None = None) -> list[OrbitData]:
    """Partition all m^4n sequences into orbits, sorted by representative.

    <a> acts by cyclic shift and b a^r = a^(kr) b, so the orbit of alpha is
    the rotations of alpha and of b.alpha, and its lex-least member is a
    necklace (least among its rotations) at most every rotation of b.alpha.
    The Fredricksen-Kessler-Maiorana successor lists the prenecklaces in lex
    order as byte words, one letter per byte (so m <= 255): strip the
    trailing m's, raise the last letter left and repeat that prefix, whose
    length p is the period; the word is a necklace exactly when p divides
    4n.  b moves position t to k t + c (mod 4n), read off the action table,
    so b.alpha is a decimation of alpha: taking every k-th letter of alpha
    written 2k times gives a rotation of b.alpha written twice, in which
    every rotation of b.alpha is a window.  A necklace opens with the
    longest run of its least letter, so only the windows that open with
    that run can be at most alpha: if there is none, alpha is least; if
    b.alpha holds a longer run, it is not; otherwise the least of those few
    windows decides.  A reflection b a^r fixes alpha only if b.alpha is a
    rotation of alpha, so an aperiodic representative whose b-image rotates
    to a larger least word has the trivial stabilizer; every other
    stabilizer is tested on all 8n action maps.  Orbits store no members,
    orbits with equal stabilizers share one tuple, and the orbit sizes must
    sum to m^4n.

    >>> result = orbits(2, 2)
    >>> len(result), result[0].representative
    (27, (1, 1, 1, 1, 1, 1, 1, 1))
    """
    group.check_n(n)
    if m < 1:
        raise ValueError(f"alphabet size m must be >= 1, got {m}")
    total = m ** (4 * n)
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceededError(n, m, total, limit)

    if m > 255:
        raise ValueError(f"alphabet size m must be <= 255, one byte per letter, got {m}")

    length = 4 * n
    moves = _action_maps(n)
    row = _inverse_images(n)[length]  # b follows the 4n rotations
    k, c = (row[1] - row[0]) % length, row[0]
    if any(t != (k * s + c) % length for s, t in enumerate(row)):
        raise RuntimeError(f"b does not move the 4n positions as t -> {k}t + {c}")
    top = bytes([m])
    raised = [bytes([x + 1]) for x in range(m)]
    repeats = [0] + [-(-length // p) for p in range(1, length + 1)]
    trivial = (0,)
    interned = {trivial: trivial}
    result = []
    covered = 0
    word, period = bytes([1]) * length, 1
    while True:
        if length % period == 0:
            # position j of image is alpha[j*k mod 4n]: b.alpha rotated, written twice
            image = (word * 2 * k)[::k]
            lead = word[: length - len(word.lstrip(word[:1]))]
            at = image.find(lead)
            least = None
            if at < 0 or len(lead) == length or lead + word[:1] not in image:
                while 0 <= at < length:
                    window = image[at : at + length]
                    if least is None or window < least:
                        least = window
                    at = image.find(lead, at + len(lead))
                if least is None or word <= least:
                    alpha = tuple(word)
                    if period == length and least != word:
                        stabilizer = trivial
                    else:
                        fixes = (move(alpha) == alpha for move in moves)
                        stabilizer = tuple(itertools.compress(range(8 * n), fixes))
                        stabilizer = interned.setdefault(stabilizer, stabilizer)
                    covered += 8 * n // len(stabilizer)
                    result.append(OrbitData(n, alpha, stabilizer))
        head = word.rstrip(top)
        if not head:
            break
        period = len(head)
        word = ((head[:-1] + raised[head[-1]]) * repeats[period])[:length]
    if covered != total:
        raise RuntimeError(f"orbit sizes sum to {covered}, not m^4n = {total}")
    return result


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


def stabilizer_char_sum(n: int, cid: CharacterId, alpha: Sequence) -> CycloInt:
    """Sum of character values over the stabilizer of alpha.

    alpha lies in Omega (its decomposable symmetrized tensor is nonzero)
    exactly when this sum is nonzero.
    """
    chartab.validate_id(n, cid)
    _check_length(n, alpha)
    fixes = (move(alpha) == alpha for move in _action_maps(n))
    return _coset_sums(n, cid, tuple(itertools.compress(range(8 * n), fixes)))[0]


def delta_bar(cid: CharacterId, orbit_list: list[OrbitData]) -> list[Sequence]:
    """Representatives of the orbits whose stabilizer character sum is nonzero."""
    n = orbit_list[0].n
    chartab.validate_id(n, cid)
    return [
        o.representative
        for o in orbit_list
        if not _coset_sums(n, cid, o.stabilizer)[0].is_zero
    ]


@dataclass(frozen=True)
class GramData:
    """Scaled Gram matrix of one orbital subspace.

    entries[i][j] is the character sum over sigma_j * stabilizer * sigma_i^(-1),
    the inner product of the i-th and j-th member tensors up to the global
    positive factor chi(1)/8n, which never affects zero tests.
    """

    entries: tuple[tuple[CycloInt, ...], ...]
    orbital_dim: int


def _orbital_dim(cid: CharacterId, char_sum: CycloInt, stab_order: int) -> int:
    return exact_div(cid.degree * char_sum.to_int(), stab_order)


def gram(cid: CharacterId, orbit: OrbitData) -> GramData:
    """Exact Gram data for the orbital subspace of an orbit in Omega.

    A character is a class function, so entry (i, j), the sum over
    sigma_j * H * sigma_i^(-1), equals F(sigma_i^(-1) sigma_j H), which the
    quotient table names for the cosets of sigma_i and sigma_j.
    """
    n, stab = orbit.n, orbit.stabilizer
    chartab.validate_id(n, cid)
    sums = _coset_sums(n, cid, stab)
    if sums[0].is_zero:
        raise ValueError("representative is not in Omega; the orbital subspace is zero")
    _, number, quotient = _cosets(n, stab)
    cosets = [number[x] for x in orbit.coset_reps]
    return GramData(
        entries=tuple(tuple(sums[quotient[i][j]] for j in cosets) for i in cosets),
        orbital_dim=_orbital_dim(cid, sums[0], len(stab)),
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


@functools.lru_cache(maxsize=None)
def _stabilizer_decision(
    n: int, cid: CharacterId, stabilizer: tuple[int, ...]
) -> tuple[int, bool, tuple[int, ...] | None]:
    """Decide the clique question for every orbit sharing this stabilizer.

    The scaled Gram entries depend only on the stabilizer subgroup and the
    coset pair, never on the particular orbit, so one decision serves all
    orbits with the same stabilizer.  Returns (orbital_dim, found, witness
    coset representatives as element positions, or None); acting with them
    on an orbit's representative gives its witness members.  Outside Omega
    F(H) = 0, so the dimension is 0 and the empty clique is found.

    Vertices are the cosets x_i H of _cosets; x_i and x_j are joined when
    the scaled Gram entry F(x_i^(-1) x_j H), named by the quotient table,
    is exactly zero, one zero test per coset.  A clique of size orbital_dim
    is a set of nonzero, pairwise-orthogonal tensors inside the orbital
    subspace, hence a basis of it.  The search is exhaustive, so a negative
    answer is a proof of nonexistence.
    """
    sums = _coset_sums(n, cid, stabilizer)
    dim = _orbital_dim(cid, sums[0], len(stabilizer))
    firsts, _, quotient = _cosets(n, stabilizer)
    zero = [s.is_zero for s in sums]
    neighbors = [
        {j for j, k in enumerate(row) if j != i and zero[k]} for i, row in enumerate(quotient)
    ]
    clique = _find_clique(neighbors, dim)
    if clique is None:
        return dim, False, None
    return dim, True, tuple(firsts[v] for v in sorted(clique))


class OrbitalOutcome(NamedTuple):
    """One orbit's decision; a tuple, built per orbit as reports stream.

    letters holds the representative's letters, then, if found, those of
    each witness member in turn: the same letters, permuted."""

    representative: Sequence
    orbit_size: int
    stabilizer_order: int
    orbital_dim: int
    found: bool
    letters: Sequence

    @property
    def witness(self) -> tuple[Sequence, ...] | None:
        """The witness members, or None if no orthogonal basis was found."""
        if not self.found:
            return None
        k, letters = len(self.representative), self.letters
        return tuple(letters[i : i + k] for i in range(k, len(letters), k))


def orbital_outcomes(cid: CharacterId, orbit_list: list[OrbitData]):
    """The outcome on each orbit of nonzero orbital dimension, in orbit
    order, one at a time.

    Each distinct stabilizer is looked up once per call, in the cached
    _stabilizer_decision, and kept in a dict for the call: its orbit size,
    order, dimension and verdict, and, where a witness sigma_1 .. sigma_dim
    was found, one itemgetter, read from the inverse images of the action,
    sending alpha to the letters of alpha, sigma_1.alpha, ..., sigma_dim.alpha
    in a row.
    """
    n = orbit_list[0].n
    chartab.validate_id(n, cid)
    images = _inverse_images(n)
    shapes: dict[tuple[int, ...], tuple] = {}
    for orbit in orbit_list:
        stab = orbit.stabilizer
        shape = shapes.get(stab)
        if shape is None:
            dim, found, sigmas = _stabilizer_decision(n, cid, stab)
            getter = None
            if found:
                getter = operator.itemgetter(*range(4 * n), *(t for x in sigmas for t in images[x]))
            shape = shapes[stab] = (8 * n // len(stab), len(stab), dim, found, getter)
        size, order, dim, found, getter = shape
        if dim:
            rep = orbit.representative
            yield OrbitalOutcome(rep, size, order, dim, found, getter(rep) if found else rep)


def has_orthogonal_basis(n: int, cid: CharacterId, stabilizers) -> bool:
    """Whether every orbital subspace of orbits with these stabilizers has an
    orthogonal basis: one cached decision per distinct stabilizer, where a
    zero orbital dimension finds the empty basis."""
    return all(_stabilizer_decision(n, cid, stab)[1] for stab in stabilizers)


def nu2(num: int, den: int) -> int:
    """2-adic valuation of the rational number num/den."""
    if num == 0 or den == 0:
        raise ValueError("nu2 requires nonzero numerator and denominator")
    # x & -x is the lowest set bit of x, also for negative x
    return (num & -num).bit_length() - (den & -den).bit_length()


def predicted_basis(n: int, cid: CharacterId) -> bool:
    """Number-theoretic prediction of basis existence (for alphabets m >= 2).

    Linear characters always admit one; zeta:h exactly when nu2(h/2n) < 0;
    psi characters are predicted to admit none.  `has_orthogonal_basis`
    is the ground truth against which this table is compared.
    """
    chartab.validate_id(n, cid)
    if cid.kind == "chi":
        return True
    if cid.kind == "zeta":
        return nu2(cid.param, 2 * n) < 0
    return False


def cosine_vanishing_exists(n: int, h: int) -> bool:
    """Whether zeta^(dh) + zeta^(-dh) = 0 for some offset d, decided exactly.

    This is the brute-force side of the valuation criterion: the answer
    must match nu2(h/2n) < 0, and the test suite checks the equivalence.
    """
    group.check_n(n)
    if not 1 <= h < 2 * n:
        raise ValueError(f"h must satisfy 1 <= h < 2n, got {h}")
    m = 4 * n
    return any((root_power(m, d * h) + root_power(m, -d * h)).is_zero for d in range(m))


def psi_vanishing_exists(n: int, h: int) -> bool:
    """Whether psi:h(a^u) = zeta^(hu) + zeta^(khu) = 0 at some rotation a^u,
    decided exactly from the character table at every u.

    This is the brute-force side of the psi criterion: the test suite checks
    that the answer is "n is even".
    """
    cid = chartab.psi(h)
    return any(chartab.character_value(n, cid, SDElement(0, u)).is_zero for u in range(4 * n))
