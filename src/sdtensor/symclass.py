"""Orbits, stabilizers, exact Gram matrices, and orthogonal-basis decisions.

The group SD_{8n} acts on length-4n sequences over the alphabet {1, ..., m}
by permuting positions through its embedding into S_{4n}.  Each orbit whose
stabilizer character sum is nonzero carries an orbital subspace of the
symmetry class, spanned by the decomposable symmetrized tensors of its
members.  Inner products between those tensors are, up to one global
positive factor, sums of character values over translated stabilizer
cosets; they live in Z[zeta] and are compared to zero exactly.

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
import operator
import os
from dataclasses import dataclass

from . import chartab, group, perm
from .chartab import CharacterId
from .cyclo import CycloInt, exact_div, root_power
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
        budget = int(env) if env else DEFAULT_BUDGET
    if budget < 0:
        raise ValueError(f"the sequence budget must be >= 0, got {budget}")
    return budget


@functools.lru_cache(maxsize=None)
def _action_maps(n: int) -> dict[SDElement, tuple[int, ...]]:
    """For each g, in group.elements order, the 0-based position map
    sending alpha to g.alpha.

    (g.alpha)[t] = alpha[T(g)^(-1)(t)], so the map stores the inverse images.
    """
    return {
        g: tuple(p - 1 for p in perm.inverse(perm.embed(n, g)).images)
        for g in group.elements(n)
    }


def act(n: int, g: SDElement, alpha: Sequence) -> Sequence:
    """Left action on sequences: act(gh, alpha) == act(g, act(h, alpha))."""
    if len(alpha) != 4 * n:
        raise ValueError(f"sequence length {len(alpha)} does not match 4n = {4 * n}")
    group.check_element(n, g)
    return tuple(alpha[i] for i in _action_maps(n)[g])


@dataclass(frozen=True)
class OrbitData:
    """One orbit: lex-least representative, sorted members, stabilizer, and
    one coset representative per member mapping the representative to it."""

    n: int
    m: int
    representative: Sequence
    members: tuple[Sequence, ...]
    stabilizer: tuple[SDElement, ...]
    coset_reps: tuple[SDElement, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer)


def _orbit_from_representative(n: int, m: int, rep: Sequence) -> OrbitData:
    first_map: dict[Sequence, SDElement] = {}
    stabilizer = []
    for g, pos in _action_maps(n).items():
        seq = tuple(rep[i] for i in pos)
        if seq not in first_map:
            first_map[seq] = g
        if seq == rep:
            stabilizer.append(g)
    members = tuple(sorted(first_map))
    if members[0] != rep or len(members) * len(stabilizer) != 8 * n:
        raise RuntimeError("orbit construction is inconsistent")
    return OrbitData(
        n=n,
        m=m,
        representative=rep,
        members=members,
        stabilizer=tuple(stabilizer),
        coset_reps=tuple(first_map[seq] for seq in members),
    )


def orbits(n: int, m: int, budget: int | None = None) -> list[OrbitData]:
    """Partition all m^4n sequences into orbits, sorted by representative.

    A sequence is coded as the base-m integer of its letters minus one, so
    code order is lexicographic order.  One pass over the codes marks every
    member of each orbit found; the next unmarked code is the lex-least
    member of a new orbit, because every smaller code already belongs to an
    earlier one.  The marks take one byte per sequence.
    """
    group.check_n(n)
    if m < 1:
        raise ValueError(f"alphabet size m must be >= 1, got {m}")
    total = m ** (4 * n)
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceededError(n, m, total, limit)

    radix = [m ** (4 * n - 1 - t) for t in range(4 * n)]
    offset = sum(radix)  # letters start at 1, digits at 0
    covered = bytearray(total)
    result = []
    code = covered.find(0)
    while code != -1:
        orbit = _orbit_from_representative(n, m, tuple(code // r % m + 1 for r in radix))
        for member in orbit.members:
            member_code = sum(map(operator.mul, member, radix)) - offset
            if covered[member_code]:
                raise RuntimeError("orbit partition has overlapping orbits")
            covered[member_code] = 1
        result.append(orbit)
        code = covered.find(0, code + 1)
    return result


@functools.lru_cache(maxsize=None)
def _subgroup_char_sum(n: int, cid: CharacterId, subgroup: frozenset) -> CycloInt:
    values = chartab.value_table(n, cid)
    acc = CycloInt.zero(4 * n)
    for g in subgroup:
        acc = acc + values[g]
    return acc


def stabilizer_char_sum(n: int, cid: CharacterId, alpha: Sequence) -> CycloInt:
    """Sum of character values over the stabilizer of alpha.

    alpha lies in Omega (its decomposable symmetrized tensor is nonzero)
    exactly when this sum is nonzero.
    """
    chartab.validate_id(n, cid)
    stab = frozenset(g for g, pos in _action_maps(n).items() if tuple(alpha[i] for i in pos) == alpha)
    return _subgroup_char_sum(n, cid, stab)


def delta_bar(n: int, m: int, cid: CharacterId, budget: int | None = None) -> list[Sequence]:
    """Orbit representatives whose stabilizer character sum is nonzero."""
    chartab.validate_id(n, cid)
    return [
        o.representative
        for o in orbits(n, m, budget)
        if not _subgroup_char_sum(n, cid, frozenset(o.stabilizer)).is_zero
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


def _orbital_dim(n: int, cid: CharacterId, char_sum: CycloInt, stab_order: int) -> int:
    return exact_div(cid.degree * char_sum.to_int(), stab_order)


def _gram_entries(
    n: int, cid: CharacterId, stabilizer, reps
) -> tuple[tuple[CycloInt, ...], ...]:
    """Scaled Gram entries: entry (i, j) is the character sum over
    reps[j] * stabilizer * reps[i]^(-1).

    A character is a class function, so that sum equals F(reps[i]^(-1) *
    reps[j]) with F(x) the character sum over x * stabilizer.  F is summed
    once per element that occurs, never per entry.
    """
    values = chartab.value_table(n, cid)
    inverses = [group.inverse(n, s) for s in reps]
    coset_sums: dict[SDElement, CycloInt] = {}
    rows = []
    for inv_i in inverses:
        row = []
        for sigma_j in reps:
            x = group.multiply(n, inv_i, sigma_j)
            if x not in coset_sums:
                acc = CycloInt.zero(4 * n)
                for h in stabilizer:
                    acc = acc + values[group.multiply(n, x, h)]
                coset_sums[x] = acc
            row.append(coset_sums[x])
        rows.append(tuple(row))
    return tuple(rows)


def gram(n: int, cid: CharacterId, orbit: OrbitData) -> GramData:
    """Exact Gram data for the orbital subspace of an orbit in Omega."""
    chartab.validate_id(n, cid)
    char_sum = _subgroup_char_sum(n, cid, frozenset(orbit.stabilizer))
    if char_sum.is_zero:
        raise ValueError("representative is not in Omega; the orbital subspace is zero")
    return GramData(
        orbit=orbit,
        character=cid,
        entries=_gram_entries(n, cid, orbit.stabilizer, orbit.coset_reps),
        orbital_dim=_orbital_dim(n, cid, char_sum, orbit.stabilizer_order),
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
    n: int, cid: CharacterId, stabilizer: frozenset
) -> tuple[int, bool, tuple[SDElement, ...] | None]:
    """Decide the clique question for every orbit sharing this stabilizer.

    The scaled Gram entries depend only on the stabilizer subgroup and the
    coset pair, never on the particular orbit, so one decision serves all
    orbits with the same stabilizer.  Returns (orbital_dim, found, witness
    coset representatives or None); witness members of a concrete orbit are
    recovered by acting with the representatives on its representative.

    Vertices are coset representatives, in group.elements order; edges join
    pairs whose scaled Gram entry is exactly zero.  A clique of size
    orbital_dim is a set of nonzero, pairwise-orthogonal tensors inside the
    orbital subspace, hence a basis of it.  The search is exhaustive, so a
    negative answer is a proof of nonexistence.
    """
    members = sorted(stabilizer)
    char_sum = _subgroup_char_sum(n, cid, stabilizer)
    dim = _orbital_dim(n, cid, char_sum, len(members))

    reps: list[SDElement] = []
    seen: set[frozenset] = set()
    for g in group.elements(n):
        coset = frozenset(group.multiply(n, g, h) for h in members)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)

    entries = _gram_entries(n, cid, members, reps)
    neighbors = [
        {j for j, entry in enumerate(row) if j != i and entry.is_zero}
        for i, row in enumerate(entries)
    ]
    clique = _find_clique(neighbors, dim)
    if clique is None:
        return dim, False, None
    return dim, True, tuple(reps[v] for v in sorted(clique))


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
    method: str
    orbits: tuple[OrbitalOutcome, ...]
    first_failure: OrbitalOutcome | None


def decide_orthogonal_basis(
    n: int,
    m: int,
    cid: CharacterId,
    budget: int | None = None,
    orbit_list: list[OrbitData] | None = None,
) -> BasisDecision:
    """Exhaustively decide whether V_chi has an orthogonal basis of
    decomposable symmetrized tensors, with per-orbit witnesses.

    The symmetry class is the orthogonal direct sum of the orbital
    subspaces over representatives in Omega, so a basis exists exactly when
    every such orbital subspace admits one.  Callers sweeping several
    characters can pass a precomputed orbit_list to enumerate only once.
    """
    chartab.validate_id(n, cid)
    all_orbits = orbits(n, m, budget) if orbit_list is None else orbit_list

    def judge(orbit: OrbitData) -> OrbitalOutcome | None:
        stab = frozenset(orbit.stabilizer)
        if _subgroup_char_sum(n, cid, stab).is_zero:
            return None
        dim, found, sigmas = _stabilizer_decision(n, cid, stab)
        witness = None
        if found:
            witness = tuple(act(n, s, orbit.representative) for s in sigmas)
        return OrbitalOutcome(
            representative=orbit.representative,
            orbit_size=orbit.size,
            stabilizer_order=orbit.stabilizer_order,
            orbital_dim=dim,
            found=found,
            witness=witness,
        )

    outcomes = tuple(o for o in map(judge, all_orbits) if o is not None)
    failures = [o for o in outcomes if not o.found]
    return BasisDecision(
        n=n,
        m=m,
        character=cid,
        exists=not failures,
        method="exhaustive",
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
