"""Orbits, stabilizers, exact Gram matrices, and orthogonal-basis decisions.

The group SD_{8n} acts on length-4n sequences over the alphabet {1, ..., m}
by permuting positions through its embedding into S_{4n}, read from one
cached action table.  An orbit is its lex-least representative and its
stabilizer H; the left cosets xH, numbered once per H, index its members.
Each orbit whose stabilizer character sum is nonzero carries an orbital
subspace of the symmetry class, spanned by the decomposable symmetrized
tensors of its members.  Inner products between those tensors are, up to
one global positive factor, character sums F(xH) over those cosets, summed
once per coset by one kernel; they live in Z[zeta] and are compared to zero
exactly.

The orthogonal-basis question for a symmetry class reduces to: does every
orbital subspace contain as many pairwise-orthogonal member tensors as its
dimension?  That is a clique problem on at most 8n vertices per orbit and
is decided here by exhaustive branch-and-bound, with no heuristic shortcut
on the negative side.  Because the Gram matrix of an orbit depends only on
its stabilizer subgroup, decisions are cached per (character, stabilizer)
and reused across orbits.

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
def _action_maps(n: int) -> dict[SDElement, operator.itemgetter]:
    """The one action table: for each g, in group.elements order, an
    itemgetter sending alpha to g.alpha, unchecked.

    (g.alpha)[t] = alpha[T(g)^(-1)(t)], so the getter reads the 0-based
    inverse images.
    """
    return {
        g: operator.itemgetter(*(p - 1 for p in perm.inverse(perm.embed(n, g)).images))
        for g in group.elements(n)
    }


def _check_length(n: int, alpha: Sequence) -> None:
    if len(alpha) != 4 * n:
        raise ValueError(f"sequence length {len(alpha)} does not match 4n = {4 * n}")


def act(n: int, g: SDElement, alpha: Sequence) -> Sequence:
    """Left action on sequences: act(gh, alpha) == act(g, act(h, alpha))."""
    _check_length(n, alpha)
    group.check_element(n, g)
    return _action_maps(n)[g](alpha)


@dataclass(frozen=True, slots=True)
class OrbitData:
    """One orbit: its lex-least representative and its stabilizer, one tuple
    in group.elements order shared by the orbits of one orbits() call."""

    n: int
    m: int
    representative: Sequence
    stabilizer: tuple[SDElement, ...]

    @property
    def coset_reps(self) -> tuple[SDElement, ...]:
        """Per member, in order, the first element mapping the representative to it."""
        elements, moves = group.elements(self.n), _action_maps(self.n)
        reps = (elements[x] for x in _cosets(self.n, self.stabilizer)[0])
        return tuple(sorted(reps, key=lambda s: moves[s](self.representative)))

    @property
    def members(self) -> tuple[Sequence, ...]:
        return tuple(act(self.n, s, self.representative) for s in self.coset_reps)

    @property
    def size(self) -> int:
        return 8 * self.n // len(self.stabilizer)

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer)


@functools.lru_cache(maxsize=None)
def _code_action(n: int, m: int) -> tuple[tuple[SDElement, ...], list[Sequence], tuple]:
    """The action on codes: the elements of _action_maps, in its order, the
    letters of every half code, and for each g two tables with
    code(g.alpha) = high[code // m^(2n)] + low[code % m^(2n)].

    Position u of alpha moves to position T(g)(u), so its digit takes the
    weight radix[T(g)(u)]; moves[g^(-1)] reads exactly those weights off
    radix.  Each table sums the weights of one half's digits, built digit
    by digit, most significant first: 16n * m^(2n) ints in all, next to
    m^(2n) letter tuples.
    """
    moves = _action_maps(n)
    elements = tuple(moves)
    radix = [m ** (4 * n - 1 - t) for t in range(4 * n)]

    def table(weights) -> list[int]:
        sums = [0]
        for w in weights:
            sums = [t + d for t in sums for d in range(0, m * w, w)]
        return sums

    halves = []
    for g in elements:
        weights = moves[group.inverse(n, g)](radix)
        halves.append((table(weights[: 2 * n]), table(weights[2 * n :])))
    letters = list(itertools.product(range(1, m + 1), repeat=2 * n))
    return elements, letters, tuple(halves)


def _orbit_from_representative(n: int, m: int, code: int, interned: dict) -> tuple[OrbitData, set]:
    """The orbit of the sequence coded by code, its stabilizer taken from
    interned, and its member codes for the caller to mark."""
    elements, letters, halves = _code_action(n, m)
    high, low = divmod(code, m ** (2 * n))
    images = [hi[high] + lo[low] for hi, lo in halves]
    members = set(images)
    stabilizer = tuple(itertools.compress(elements, map(code.__eq__, images)))
    if min(members) != code or len(members) * len(stabilizer) != 8 * n:
        raise RuntimeError("orbit construction is inconsistent")
    stabilizer = interned.setdefault(stabilizer, stabilizer)
    return OrbitData(n, m, letters[high] + letters[low], stabilizer), members


def orbits(n: int, m: int, budget: int | None = None) -> list[OrbitData]:
    """Partition all m^4n sequences into orbits, sorted by representative.

    A sequence is coded as the base-m integer of its letters minus one, so
    code order is lexicographic order.  The group acts on codes directly:
    an image code is one entry of a table over the code's high 2n digits
    plus one of a table over its low 2n digits (_code_action), and the
    tables take 16n * m^(2n) ints.  One pass over the codes marks every
    member of each orbit found; the next unmarked code is the lex-least
    member of a new orbit, because every smaller code already belongs to an
    earlier one.  The marks take one byte per sequence; orbits store no
    members, and orbits with equal stabilizers share one stabilizer tuple.

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

    covered = bytearray(total)
    interned: dict = {}
    result = []
    code = 0
    while code != -1:
        orbit, members = _orbit_from_representative(n, m, code, interned)
        for member in members:
            if covered[member]:
                raise RuntimeError("orbit partition has overlapping orbits")
            covered[member] = 1
        result.append(orbit)
        code = covered.find(0, code + 1)
    return result


@functools.lru_cache(maxsize=None)
def _cosets(n: int, subgroup: tuple[SDElement, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The left cosets xH of a subgroup, on element positions, numbered in
    order of their first elements in group.elements order: those first
    positions and the coset number of every position.  Coset 0 is H."""
    stab = [group.element_index(n, h) for h in subgroup]
    firsts: list[int] = []
    number = [-1] * (8 * n)
    for x, row in enumerate(group.product_table(n)):
        if number[x] < 0:
            for h in stab:
                number[row[h]] = len(firsts)
            firsts.append(x)
    return tuple(firsts), tuple(number)


def _coset_sums(n: int, cid: CharacterId, subgroup: tuple[SDElement, ...]) -> list[CycloInt]:
    """F(xH), the character sum over each left coset numbered by _cosets:
    one exponent vector per coset, reduced once."""
    order = 4 * n
    terms = chartab.value_terms(n, cid)
    firsts, number = _cosets(n, subgroup)
    vecs = [[0] * order for _ in firsts]
    for x, k in enumerate(number):
        for e, c in terms[x]:
            vecs[k][e] += c
    return [from_exponents(order, vec) for vec in vecs]


@functools.lru_cache(maxsize=None)
def _subgroup_char_sum(n: int, cid: CharacterId, subgroup: tuple[SDElement, ...]) -> CycloInt:
    """F(H), the character sum over the subgroup: the identity's coset."""
    return _coset_sums(n, cid, subgroup)[0]


def stabilizer_char_sum(n: int, cid: CharacterId, alpha: Sequence) -> CycloInt:
    """Sum of character values over the stabilizer of alpha.

    alpha lies in Omega (its decomposable symmetrized tensor is nonzero)
    exactly when this sum is nonzero.
    """
    chartab.validate_id(n, cid)
    _check_length(n, alpha)
    stab = tuple(g for g, move in _action_maps(n).items() if move(alpha) == alpha)
    return _subgroup_char_sum(n, cid, stab)


def delta_bar(cid: CharacterId, orbit_list: list[OrbitData]) -> list[Sequence]:
    """Representatives of the orbits whose stabilizer character sum is nonzero."""
    n = orbit_list[0].n
    chartab.validate_id(n, cid)
    return [
        o.representative
        for o in orbit_list
        if not _subgroup_char_sum(n, cid, o.stabilizer).is_zero
    ]


@dataclass(frozen=True)
class GramData:
    """Scaled Gram matrix of one orbital subspace.

    entries[i][j] is the character sum over sigma_j * stabilizer * sigma_i^(-1),
    the inner product of the i-th and j-th member tensors up to the global
    positive factor chi(1)/8n, which never affects zero tests.
    """

    orbit: OrbitData
    character: CharacterId
    entries: tuple[tuple[CycloInt, ...], ...]
    orbital_dim: int


def _orbital_dim(cid: CharacterId, char_sum: CycloInt, stab_order: int) -> int:
    return exact_div(cid.degree * char_sum.to_int(), stab_order)


def _inverse_row(table, x: int) -> tuple[int, ...]:
    """Row of x^(-1): the column where row x holds the identity, position 0."""
    return table[table[x].index(0)]


def gram(cid: CharacterId, orbit: OrbitData) -> GramData:
    """Exact Gram data for the orbital subspace of an orbit in Omega.

    A character is a class function, so entry (i, j), the sum over
    sigma_j * H * sigma_i^(-1), equals F(sigma_i^(-1) sigma_j H).
    """
    n, stab = orbit.n, orbit.stabilizer
    chartab.validate_id(n, cid)
    sums = _coset_sums(n, cid, stab)
    if sums[0].is_zero:
        raise ValueError("representative is not in Omega; the orbital subspace is zero")
    number = _cosets(n, stab)[1]
    table = group.product_table(n)
    cols = [group.element_index(n, s) for s in orbit.coset_reps]
    return GramData(
        orbit=orbit,
        character=cid,
        entries=tuple(
            tuple(sums[number[inv_row[j]]] for j in cols)
            for inv_row in (_inverse_row(table, i) for i in cols)
        ),
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
    n: int, cid: CharacterId, stabilizer: tuple[SDElement, ...]
) -> tuple[int, bool, tuple[SDElement, ...] | None]:
    """Decide the clique question for every orbit sharing this stabilizer.

    The scaled Gram entries depend only on the stabilizer subgroup and the
    coset pair, never on the particular orbit, so one decision serves all
    orbits with the same stabilizer.  Returns (orbital_dim, found, witness
    coset representatives or None); witness members of a concrete orbit are
    recovered by acting with the representatives on its representative.

    Vertices are the cosets, named by their first elements x_i in
    group.elements order; x_i and x_j are joined when the scaled Gram entry
    F(x_i^(-1) x_j H) is exactly zero, read off one zero test per coset.  A
    clique of size orbital_dim is a set of nonzero, pairwise-orthogonal
    tensors inside the orbital subspace, hence a basis of it.  The search is
    exhaustive, so a negative answer is a proof of nonexistence.
    """
    sums = _coset_sums(n, cid, stabilizer)
    dim = _orbital_dim(cid, sums[0], len(stabilizer))
    firsts, number = _cosets(n, stabilizer)
    zero = [s.is_zero for s in sums]
    table = group.product_table(n)
    neighbors = []
    for i, x in enumerate(firsts):
        inv_row = _inverse_row(table, x)
        neighbors.append({j for j, y in enumerate(firsts) if j != i and zero[number[inv_row[y]]]})
    clique = _find_clique(neighbors, dim)
    if clique is None:
        return dim, False, None
    elements = group.elements(n)
    return dim, True, tuple(elements[firsts[v]] for v in sorted(clique))


@dataclass(frozen=True)
class OrbitalOutcome:
    representative: Sequence
    orbit_size: int
    stabilizer_order: int
    orbital_dim: int
    found: bool
    witness: tuple[Sequence, ...] | None


@dataclass(frozen=True)
class BasisDecision:
    """Outcome of the exhaustive orthogonal-basis decision for one character."""

    n: int
    m: int
    character: CharacterId
    exists: bool
    orbits: tuple[OrbitalOutcome, ...]
    first_failure: OrbitalOutcome | None


def decide_orthogonal_basis(cid: CharacterId, orbit_list: list[OrbitData]) -> BasisDecision:
    """Exhaustively decide whether V_chi has an orthogonal basis of
    decomposable symmetrized tensors, with per-orbit witnesses.

    The symmetry class is the orthogonal direct sum of the orbital
    subspaces over representatives in Omega, so a basis exists exactly when
    every such orbital subspace admits one.  n and m are those of the
    orbits, so callers sweeping several characters enumerate only once.
    """
    n, m = orbit_list[0].n, orbit_list[0].m
    chartab.validate_id(n, cid)
    moves = _action_maps(n)

    def judge(orbit: OrbitData) -> OrbitalOutcome | None:
        if _subgroup_char_sum(n, cid, orbit.stabilizer).is_zero:
            return None
        dim, found, sigmas = _stabilizer_decision(n, cid, orbit.stabilizer)
        witness = None
        if found:
            witness = tuple(moves[s](orbit.representative) for s in sigmas)
        return OrbitalOutcome(
            representative=orbit.representative,
            orbit_size=orbit.size,
            stabilizer_order=orbit.stabilizer_order,
            orbital_dim=dim,
            found=found,
            witness=witness,
        )

    outcomes = tuple(o for o in map(judge, orbit_list) if o is not None)
    failures = [o for o in outcomes if not o.found]
    return BasisDecision(
        n=n,
        m=m,
        character=cid,
        exists=not failures,
        orbits=outcomes,
        first_failure=failures[0] if failures else None,
    )


def nu2(num: int, den: int) -> int:
    """2-adic valuation of the rational number num/den."""
    if num == 0 or den == 0:
        raise ValueError("nu2 requires nonzero numerator and denominator")

    def v2(x: int) -> int:
        x = abs(x)
        count = 0
        while x % 2 == 0:
            x //= 2
            count += 1
        return count

    return v2(num) - v2(den)


def predicted_basis(n: int, cid: CharacterId) -> bool:
    """Number-theoretic prediction of basis existence (for alphabets m >= 2).

    Linear characters always admit one; zeta:h exactly when nu2(h/2n) < 0;
    psi characters are predicted to admit none.  `decide_orthogonal_basis`
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
