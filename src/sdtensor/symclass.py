"""Orbits, stabilizers, and orthogonal-basis decisions.

The group SD_{8n} acts on length-4n sequences over the alphabet {1, ..., m}
by permuting positions through an affine embedding T into S_{4n}, read by
_affine(n); orbits() lists the orbit representatives as necklaces, reading
each stabilizer off the walk, with no table over the sequences or group.
An orbit is its lex-least representative and its stabilizer H, an
ascending tuple of positions in group.elements(n).  Each orbit whose
stabilizer character sum F(H) is nonzero carries an orbital subspace of
the symmetry class, spanned by the decomposable symmetrized tensors of its
members; where F(H) is zero the orbital dimension is 0.  F(H) lives in
Z[zeta], is summed by one cached kernel, and is compared to zero exactly.

The orthogonal-basis question for a symmetry class reduces to: does every
orbital subspace contain as many pairwise-orthogonal member tensors as its
dimension?  The inner products of member tensors are character sums over
cosets of H, and _stabilizer_decision answers the question for one
(character, stabilizer) pair in closed form, on integers alone, with the
proof in its docstring.  Decisions are cached per (character, stabilizer)
and reused across orbits.  orbital_outcomes yields one character's
outcomes orbit by orbit, as they are asked for, and has_orthogonal_basis
reads the verdict off the distinct stabilizers alone.

A separate prediction, the paper's table, is also provided: linear characters
always admit a basis; zeta characters admit one exactly when the 2-adic
valuation of h/2n is negative; psi characters are predicted to admit none.
The decision is the ground truth and the two are compared, not assumed
equal.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

from . import chartab, group, perm
from .chartab import CharacterId
from .cyclo import CycloInt, exact_div, from_terms

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
def _affine(n: int) -> tuple[int, int]:
    """(k, c) with (b.alpha)[t] = alpha[k t + c mod 4n], read once off the
    inverse of perm.embed(n, b), since (g.alpha)[t] = alpha[T(g)^(-1)(t)].
    An embedding that is no bijection leaves a 0 in the inverse, so a -1 in
    the row, which no affine map gives."""
    row = [p - 1 for p in perm.inverse(perm.embed(n, 4 * n))]
    k, c = (row[1] - row[0]) % (4 * n), row[0]
    if any(t != (k * s + c) % (4 * n) for s, t in enumerate(row)):
        raise RuntimeError(f"b does not move the 4n positions as t -> {k}t + {c}")
    return k, c


def _reads(n: int, x: int) -> tuple[int, ...]:
    """The positions x.alpha reads, for the element x = 4n s + r, b^s a^r:
    (x.alpha)[t] = alpha[k^s t + s c - r], (k, c) = _affine(n)."""
    length = 4 * n
    k, c = _affine(n)
    s, r = divmod(x, length)
    return tuple((k**s * t + s * c - r) % length for t in range(length))


class OrbitData(NamedTuple):
    """One orbit: its lex-least representative and its stabilizer, the
    ascending positions in group.elements(n) of the elements fixing it, one
    tuple shared by the orbits of one orbits() call.  Its size is
    8n / len(stabilizer)."""

    representative: Sequence
    stabilizer: tuple[int, ...]


def orbits(n: int, m: int, budget: int | None = None) -> list[OrbitData]:
    """Partition all m^4n sequences into orbits, sorted by representative.

    <a> acts by cyclic shift and b a^r = a^(kr) b, so the orbit of alpha is
    the rotations of alpha and of b.alpha, and its lex-least member is a
    necklace (least among its rotations) at most every rotation of b.alpha.
    The Fredricksen-Kessler-Maiorana successor lists the prenecklaces in lex
    order as byte words, one letter per byte (so m <= 255): strip the
    trailing m's, raise the last letter left and repeat that prefix, whose
    length p is the period; the word is a necklace exactly when p divides
    4n.  b.alpha reads alpha at k t + c (mod 4n), with (k, c) = _affine(n),
    so it is a decimation of alpha: taking every k-th letter of alpha
    written 2k times gives a rotation of b.alpha written twice, in which
    every rotation of b.alpha is a window.  alpha is its first p letters
    repeated 4n/p times, so that decimation is the block's decimation
    repeated: the walk decimates the block written 2k times, a temporary of
    2kp letters rather than 2k * 4n.  A necklace opens with the longest run
    of its least letter, so only the windows that open with that run can be
    at most alpha: if there is none, alpha is least; if b.alpha holds a
    longer run, it is not; otherwise the least of those few windows decides.

    The stabilizer H meets <a> in <a^p>.  Window o reads alpha at k t + k o
    and b a^r at k t + c - r, so b a^r fixes alpha exactly when r = c - k o
    for a window o equal to alpha: there is one only if the least window is
    alpha, and they are o + jp for the first, o < p, so r = c - k o (mod p).
    Orbits share one stabilizer tuple per (p, o), store no members, and
    their sizes must sum to m^4n.

    >>> result = orbits(2, 2)
    >>> len(result), result[0].representative
    (27, (1, 1, 1, 1, 1, 1, 1, 1))
    """
    group.check_n(n)
    if not (type(m) is int and m >= 1):  # bool is an int subclass
        raise ValueError(f"alphabet size m must be >= 1, got {m}")
    total = m ** (4 * n)
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceededError(n, m, total, limit)

    if m > 255:
        raise ValueError(f"alphabet size m must be <= 255, one byte per letter, got {m}")

    length = 4 * n
    k, c = _affine(n)
    top = bytes([m])
    raised = [bytes([x + 1]) for x in range(m)]
    repeats = [0] + [-(-length // p) for p in range(1, length + 1)]
    stabilizers: dict[tuple[int, int], tuple[int, ...]] = {}
    result = []
    covered = 0
    word, period = bytes([1]) * length, 1
    while True:
        if length % period == 0:
            # position j of image is alpha[j*k mod 4n]: b.alpha rotated, written twice;
            # alpha is its first p letters repeated, so image is their decimation repeated
            image = (word[:period] * 2 * k)[::k] * (length // period)
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
                    # o: the first window equal to alpha, below the period, or -1
                    o = image.find(word) if least == word else -1
                    stabilizer = stabilizers.get((period, o))
                    if stabilizer is None:
                        first = length + (c - k * o) % period if o >= 0 else 2 * length
                        stabilizer = tuple(range(0, length, period)) + tuple(range(first, 2 * length, period))
                        stabilizers[period, o] = stabilizer
                    covered += 8 * n // len(stabilizer)
                    result.append(OrbitData(tuple(word), stabilizer))
        head = word.rstrip(top)
        if not head:
            break
        period = len(head)
        word = ((head[:-1] + raised[head[-1]]) * repeats[period])[:length]
    if covered != total:
        raise RuntimeError(f"orbit sizes sum to {covered}, not m^4n = {total}")
    return result


@functools.lru_cache(maxsize=None)
def _subgroup_char_sum(n: int, cid: CharacterId, subgroup: tuple[int, ...]) -> CycloInt:
    """F(H), the character sum over a subgroup of element positions: the
    terms of its positions, reduced once.  An orbit lies in
    Omega, its decomposable symmetrized tensors being nonzero, exactly when
    F of its stabilizer is nonzero."""
    terms = chartab.value_terms(n, cid)
    return from_terms(4 * n, (term for x in subgroup for term in terms[x]))


def _orbital_dim(cid: CharacterId, char_sum: CycloInt, stab_order: int) -> int:
    return exact_div(cid.degree * char_sum.to_int(), stab_order)


@functools.lru_cache(maxsize=None)
def _stabilizer_decision(
    n: int, cid: CharacterId, stabilizer: tuple[int, ...]
) -> tuple[int, bool, tuple[int, ...] | None]:
    """Decide the o-basis question for every orbit sharing this stabilizer.

    Returns (orbital_dim, found, witness coset representatives as element
    positions, or None); acting with them on an orbit's representative
    gives its witness members.  The member tensors of x_i H and x_j H have
    inner product F(x_i^(-1) x_j H) up to one positive factor, and
    orbital_dim = chi(1) F(H) / |H|.  Outside Omega F(H) = 0, so the
    dimension is 0 and the empty basis is found.

    A linear chi has F(H) = |H| if chi is 1 on all of H, and 0 otherwise;
    dimension 1 needs one nonzero tensor, the representative's.

    For chi of degree 2 and parameter h, chi(a^u) = zeta^(hu) + zeta^(khu)
    with k = group.twist(n), a unit mod 4n, and chi vanishes on
    reflections.  Let H meet <a> in <a^d>, its l = 4n/d positions below 4n.
      F(xH): a coset holding no rotation sums to 0.  A coset holding a^u
        holds a^(u + jd) for j < l, and sums to
        l zeta^(hu) (1 + zeta^((k-1)hu)) if 4n | hd, and to 0 otherwise,
        whichever a^u is chosen.  So F(H) = 2l or 0, and the dimension is
        2 * 2l / |H|: 4 if H holds no reflection, 2 if it does (|H| = 2l).
        F(xH) = 0 exactly when xH holds no rotation or its a^u solves
        (k-1)hu = 2n (mod 4n).
      Witness: let s be the least solution u in [1, 4n); s < d, since
        solutions repeat with period d and u = d solves nothing.  Then
        F(a^s H) = 0, so {1, a^s} is orthogonal, and with no reflection in
        H the pairs of {1, a^s, b, b a^s} give a^(+-s) or a coset of
        reflections only.  Each x is the first position of its coset.
      No s: only cosets of reflections alone vanish.  If H holds a
        reflection, every coset holds a rotation, so no two member tensors
        are orthogonal and the largest orthogonal set has 1 < 2 members.
        If not, x_i^(-1) x_j is a rotation whenever x_i, x_j are both
        rotations or both reflections, so an orthogonal set has at most one
        of each: 2 < 4 members, and there is no o-basis.
    """
    chartab.validate_id(n, cid)
    order = 4 * n
    if cid.degree == 1:
        terms = chartab.value_terms(n, cid)
        if all(terms[x][0] in ((0, 1), (2 * n, -1)) for x in stabilizer):
            return 1, True, (0,)
        return 0, True, ()
    h, d = cid.param, order // sum(x < order for x in stabilizer)
    if h * d % order:
        return 0, True, ()
    reflected = stabilizer[-1] >= order
    dim = 2 if reflected else 4
    step = (group.twist(n) - 1) * h
    s = next((u for u in range(1, order) if step * u % order == 2 * n), None)
    if s is None:
        return dim, False, None
    return dim, True, (0, s) if reflected else (0, s, order, order + s)


class OrbitalOutcome(NamedTuple):
    """One orbit's decision; a tuple, built per orbit as reports stream.

    witness_positions holds, if found, the representative positions that
    each witness member reads, member after member, so member i is
    representative[p] for p in witness_positions[i*L : (i+1)*L], L =
    len(representative); it is () if nothing was found, and one tuple is
    shared by the outcomes of one stabilizer."""

    representative: Sequence
    orbit_size: int
    stabilizer_order: int
    orbital_dim: int
    found: bool
    witness_positions: tuple[int, ...]

    @property
    def witness(self) -> tuple[Sequence, ...] | None:
        """The witness members, or None if no orthogonal basis was found."""
        if not self.found:
            return None
        rep, positions = self.representative, self.witness_positions
        k = len(rep)
        return tuple(tuple(rep[p] for p in positions[i * k : i * k + k]) for i in range(self.orbital_dim))


def orbital_outcomes(n: int, cid: CharacterId, orbit_list: list[OrbitData]):
    """The outcome on each orbit of nonzero orbital dimension, in orbit
    order, one at a time.

    Each distinct stabilizer is looked up once per call, in the cached
    _stabilizer_decision, and kept in a dict for the call: its orbit size,
    order, dimension, verdict and, where a witness sigma_1 .. sigma_dim was
    found, one tuple of witness positions: sigma_i.alpha is alpha read at
    _reads(n, sigma_i), the affine rule, for at most 4 witnesses.  No
    letters are built; the outcomes of one stabilizer share that tuple.
    """
    chartab.validate_id(n, cid)
    new = tuple.__new__
    shapes: dict[tuple[int, ...], tuple] = {}
    for orbit in orbit_list:
        stab = orbit.stabilizer
        shape = shapes.get(stab)
        if shape is None:
            dim, found, sigmas = _stabilizer_decision(n, cid, stab)
            positions = tuple(t for x in sigmas for t in _reads(n, x)) if found else ()
            shape = shapes[stab] = (8 * n // len(stab), len(stab), dim, found, positions)
        if shape[2]:  # the orbital dimension
            # tuple.__new__ skips the generated OrbitalOutcome.__new__, a Python call
            yield new(OrbitalOutcome, (orbit.representative, *shape))


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
    order = 4 * n
    return any(from_terms(order, ((d * h, 1), (-d * h, 1))).is_zero for d in range(order))

