import itertools
import random
import tracemalloc

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    act,
    conjugate,
    coset_reps,
    delta_bar,
    gram,
    members,
    mul,
    psi_vanishing_exists,
    stabilizer_char_sum,
)

from sdtensor import chartab, dims, group, perm, symclass
from sdtensor.chartab import chi, psi, zeta
from sdtensor.cyclo import CycloInt
from sdtensor.symclass import (
    BudgetExceededError,
    cosine_vanishing_exists,
    has_orthogonal_basis,
    nu2,
    orbital_outcomes,
    orbits,
    predicted_basis,
)

ONE_TWO = (1, 2, 2, 2, 2, 2, 2, 2)


def test_act_identity_and_constants():
    assert act(2, 0, ONE_TWO) == ONE_TWO
    constant = (1,) * 8
    for g in group.elements(2):
        assert act(2, g, constant) == constant


def test_act_moves_marked_position():
    # the generator a shifts positions forward: the 1 lands in position 2
    assert act(2, 1, ONE_TWO) == (2, 1, 2, 2, 2, 2, 2, 2)


def test_act_is_left_action():
    rng = random.Random(17)
    for n in (2, 3):
        elems = group.elements(n)
        for _ in range(200):
            g, h = rng.choice(elems), rng.choice(elems)
            alpha = tuple(rng.randint(1, 3) for _ in range(4 * n))
            lhs = act(n, group.multiply(n, g, h), alpha)
            assert lhs == act(n, g, act(n, h, alpha))


def test_act_length_mismatch():
    with pytest.raises(ValueError):
        act(2, 0, (1, 2, 3))


def test_orbits_single_letter():
    result = orbits(2, 1)
    assert len(result) == 1
    assert result[0].stabilizer == tuple(range(16))


def test_orbit_of_marked_sequence():
    orbit = next(o for o in orbits(2, 2) if o.representative == ONE_TWO)
    assert len(members(2, orbit)) == 8
    # 1 and ba^2, at positions 0 and 4n + 2
    assert orbit.stabilizer == (0, 10)


def test_orbit_stabilizer_products():
    for n, m in ((2, 2), (2, 3), (3, 2)):
        for o in orbits(n, m):
            assert len(set(members(n, o))) * len(o.stabilizer) == 8 * n


def test_orbit_count_is_burnside_dimension():
    assert len(orbits(2, 2)) == dims.dim_general(2, 2, chi(0))
    assert len(orbits(2, 3)) == dims.dim_general(2, 3, chi(0))
    assert len(orbits(3, 2)) == dims.dim_general(3, 2, chi(0))


def test_orbits_partition_and_representatives_minimal():
    for n, m in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2)):
        result = orbits(n, m)
        all_members = []
        for o in result:
            orbit_members = members(n, o)
            all_members.extend(orbit_members)
            assert o.representative == min(orbit_members)
            assert sorted(orbit_members) == list(orbit_members)
        assert len(all_members) == m ** (4 * n)
        assert len(set(all_members)) == m ** (4 * n)
        representatives = [o.representative for o in result]
        assert representatives == sorted(representatives)


def test_coset_reps_map_representative_to_members():
    for n, m in ((2, 2), (2, 3), (3, 2)):
        for o in orbits(n, m):
            for sigma, member in zip(coset_reps(n, o), members(n, o)):
                assert act(n, sigma, o.representative) == member
            # each coset representative is the first element, in
            # group.elements order, reaching its member
            images = {x: act(n, x, o.representative) for x in group.elements(n)}
            first = {}
            for x, image in images.items():
                first.setdefault(image, x)
            assert coset_reps(n, o) == tuple(first[member] for member in members(n, o))
            assert o.stabilizer == tuple(x for x, image in images.items() if image == o.representative)


def test_orbits_check_that_orbit_sizes_sum_to_m_to_the_4n(monkeypatch):
    # a unit twist that is not an involution moves the positions
    # consistently but is not b, so the orbit sizes overshoot
    monkeypatch.setattr(symclass, "_affine", lambda n: (3, 6))
    with pytest.raises(RuntimeError, match="orbit sizes sum to 67296, not m\\^4n = 65536"):
        orbits(4, 2)


def test_orbits_refuse_a_reflection_that_is_not_affine(monkeypatch):
    # b read as a decimation needs t -> k t + c; a transposition is not one,
    # and a map that misses point 2 leaves a 0 in its inverse, read as the
    # position -1, which no map of 0..4n-1 to itself gives
    for images in (2, 1, 3, 4, 5, 6, 7, 8), (1, 1, 3, 4, 5, 6, 7, 8):
        monkeypatch.setattr(perm, "embed", lambda n, g: images)
        symclass._affine.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="t -> "):
                orbits(2, 2)
        finally:
            symclass._affine.cache_clear()


def test_reads_follow_the_embedding_at_every_position():
    # the affine read rule gives every element's witness positions
    for n in range(2, 41):
        for x in group.elements(n):
            expected = tuple(p - 1 for p in perm.inverse(perm.embed(n, x)))
            assert symclass._reads(n, x) == expected, (n, x)


@pytest.mark.parametrize(
    "n, m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)] + [(n, 1) for n in range(3, 13)],
)
def test_orbit_stabilizers_match_the_scan_of_all_8n_maps(n, m):
    for o in orbits(n, m):
        assert o.stabilizer == oracles.stabilizer_of(n, o.representative)


def test_orbits_at_one_letter_keep_no_action_table():
    # at n = 2000 a decimation of the whole word, written 2k times, would
    # take 2k * 4n = 64 MB; the walk decimates the one-letter period instead
    for n in (200, 2000):
        tracemalloc.start()
        try:
            result = orbits(n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == [((1,) * 4 * n, tuple(range(8 * n)))]
        assert peak < 4 * 2**20, (n, peak)


def test_orbits_refuse_an_alphabet_past_one_byte():
    # the budget admits 256^8 sequences; the letters would not fit a byte
    with pytest.raises(ValueError, match="m must be <= 255"):
        orbits(2, 256, budget=256**8)
    # nor is a float or a bool (an int subclass, True == 1) an alphabet size
    for bad in (0, 2.0, True):
        with pytest.raises(ValueError, match="m must be >= 1"):
            orbits(2, bad)


def _rotation_min_orbits(n, m):
    """The reference walk, on a list of ints: every necklace is compared
    with all 4n rotations of its b-image, as tuples."""
    length = 4 * n
    moves = oracles.action_maps(n)
    reflect = moves[length]  # b follows the 4n rotations
    windows = [slice(t, t + length) for t in range(length)]
    trivial = (0,)
    interned = {trivial: trivial}
    result = []
    word, period = [1] * length, 1
    while True:
        if length % period == 0:
            alpha = tuple(word)
            image = reflect(alpha)
            least = min(map((image + image).__getitem__, windows))
            if alpha <= least:
                if period == length and least != alpha:
                    stabilizer = trivial
                else:
                    fixes = (move(alpha) == alpha for move in moves)
                    stabilizer = tuple(itertools.compress(range(8 * n), fixes))
                    stabilizer = interned.setdefault(stabilizer, stabilizer)
                result.append((alpha, stabilizer))
        last = length - 1
        while last >= 0 and word[last] == m:
            last -= 1
        if last < 0:
            break
        word[last] += 1
        period = last + 1
        word[period:] = (word[:period] * (length // period))[: length - period]
    return result


@pytest.mark.parametrize(
    "n, m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)],
)
def test_orbits_match_the_rotation_min_walk(n, m):
    result = orbits(n, m)
    assert [(o.representative, o.stabilizer) for o in result] == _rotation_min_orbits(n, m)
    interned = {}
    for o in result:
        assert type(o.representative) is tuple
        assert interned.setdefault(o.stabilizer, o.stabilizer) is o.stabilizer


def _retained_by_orbits(n, m):
    """orbits(n, m) and the bytes still allocated after it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = orbits(n, m)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, retained


def test_orbits_keep_no_member_tuples():
    # an orbit is its representative and its stabilizer; coset
    # representatives and members are derived, and the enumeration keeps
    # nothing per sequence
    assert symclass.OrbitData._fields == ("representative", "stabilizer")
    n, m = 4, 2
    result, retained = _retained_by_orbits(n, m)
    assert len(result) == dims.dim_general(n, m, chi(0))
    assert retained < 64 * m ** (4 * n), retained / m ** (4 * n)

    # orbits with equal stabilizers share one tuple, so a record costs a
    # fixed few hundred bytes
    n, m = 3, 3
    result, retained = _retained_by_orbits(n, m)
    interned = {}
    for o in result:
        assert interned.setdefault(o.stabilizer, o.stabilizer) is o.stabilizer
    assert retained < 300 * len(result), retained / len(result)


def test_orbits_read_the_action_off_the_embedding(monkeypatch):
    def fail(*args):
        raise AssertionError("action read off another table")

    # the affine action comes from perm.embed, not from the product table
    monkeypatch.setattr(group, "product_table", fail)
    result = orbits(2, 2)
    monkeypatch.undo()
    # members are the images under the coset firsts, with no validating act
    monkeypatch.setattr(oracles, "act", fail)
    for o in result:
        orbit_members = members(2, o)
        assert len(orbit_members) == 16 // len(o.stabilizer)
        assert list(orbit_members) == sorted(set(orbit_members))


def test_consumers_of_an_orbit_list_do_not_enumerate(monkeypatch):
    orbit_list = orbits(2, 2)

    def fail(*args, **kwargs):
        raise AssertionError("orbits enumerated again")

    monkeypatch.setattr(symclass, "orbits", fail)
    assert all(o.found for o in orbital_outcomes(2, zeta(2), orbit_list))
    assert delta_bar(2, chi(0), orbit_list) == [o.representative for o in orbit_list]


def test_orbits_budget_guard():
    with pytest.raises(BudgetExceededError):
        orbits(3, 3, budget=1000)
    try:
        orbits(3, 3, budget=1000)
    except BudgetExceededError as exc:
        assert exc.total == 3**12
        assert "1000" in str(exc)


def test_stabilizer_char_sum_trivial_character():
    for alpha in (ONE_TWO, (1,) * 8, (1, 1, 2, 2, 1, 1, 2, 2)):
        stab_order = sum(1 for g in group.elements(2) if act(2, g, alpha) == alpha)
        assert stabilizer_char_sum(2, chi(0), alpha).to_int() == stab_order


def test_stabilizer_char_sum_examples():
    # constant sequence: the sum over the whole group vanishes for zeta_2
    assert stabilizer_char_sum(2, zeta(2), (1,) * 8).is_zero
    # marked sequence: stabilizer {1, ba^2} gives zeta_2(1) + 0 = 2
    assert stabilizer_char_sum(2, zeta(2), ONE_TWO).to_int() == 2


def test_stabilizer_char_sum_rejects_a_wrong_length():
    for alpha in ((1,) * 9, (1, 2, 2)):
        with pytest.raises(ValueError, match="does not match 4n"):
            stabilizer_char_sum(2, chi(0), alpha)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coset_sums_match_explicit_cosets(n):
    # For every distinct stabilizer H of orbits(n, 2) and every character,
    # the kernel's cosets are the sets {x h : h in H} built with multiply:
    # they partition G, coset 0 is H, each is named by its first element in
    # group.elements order, and its sum is a plain CycloInt sum of values.
    # The quotient table names the coset holding x_i^(-1) x_j, built with
    # inverse and multiply.  The package's F(H) kernel is entry 0, and a
    # decision has dimension 0 exactly when F(H) is zero.
    elements = group.elements(n)
    for stab in {o.stabilizer for o in orbits(n, 2)}:
        firsts, number, quotient = oracles._cosets(n, stab)
        cosets = [{group.multiply(n, x, h) for h in stab} for x in firsts]
        assert sorted(g for coset in cosets for g in coset) == list(elements)
        assert cosets[0] == set(stab)
        for k, (x, coset) in enumerate(zip(firsts, cosets)):
            assert x == min(coset)
            assert {number[p] for p in coset} == {k}
        for i, x in enumerate(firsts):
            inverse = group.inverse(n, x)
            for j, y in enumerate(firsts):
                assert group.multiply(n, inverse, y) in cosets[quotient[i][j]]
        for cid in chartab.character_ids(n):
            sums = oracles._coset_sums(n, cid, stab)
            for k, coset in enumerate(cosets):
                expected = CycloInt.from_int(4 * n, 0)
                for g in coset:
                    expected = oracles.add(expected, chartab.character_value(n, cid, g))
                assert sums[k] == expected, (n, cid, sorted(stab), k)
            assert symclass._subgroup_char_sum(n, cid, stab) == sums[0]
            assert (symclass._stabilizer_decision(n, cid, stab)[0] == 0) == sums[0].is_zero


@st.composite
def group_elements(draw, count):
    """A group parameter n in 2..40 and count elements of SD_{8n}."""
    n = draw(st.integers(2, 40))
    return n, [draw(st.sampled_from(group.elements(n))) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(group_elements(2))
def test_product_table_agrees_with_multiply(case):
    n, (g, h) = case
    assert group.product_table(n)[g][h] == group.multiply(n, g, h)


@settings(max_examples=60, deadline=None)
@given(group_elements(2), st.randoms(use_true_random=False))
def test_act_is_a_left_action_at_random_n(case, rng):
    n, (g, h) = case
    alpha = tuple(rng.randint(1, 3) for _ in range(4 * n))
    assert act(n, group.multiply(n, g, h), alpha) == act(n, g, act(n, h, alpha))


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (4, 2)])
def test_every_stabilizer_is_a_subgroup(n, m):
    table = group.product_table(n)
    for stab in {o.stabilizer for o in orbits(n, m)}:
        assert 0 in stab
        assert all(table[x][y] in stab for x in stab for y in stab)


def test_zeta_stabilizer_sums_follow_the_rotation_gcd():
    from math import gcd

    for n, m in ((2, 2), (3, 2)):
        for cid in (c for c in chartab.character_ids(n) if c.kind == "zeta"):
            h = cid.param
            for o in orbits(n, m):
                total = stabilizer_char_sum(n, cid, o.representative)
                # H meets <a> in <a^r>, r the gcd of 4n and the rotations in H
                r = gcd(4 * n, *(x for x in o.stabilizer if x < 4 * n))
                l = 4 * n // r
                if (r * h) % (4 * n) == 0:
                    assert oracles.sub(total, 2 * l).is_zero
                else:
                    assert total.is_zero


def test_delta_bar_single_letter():
    orbit_list = orbits(2, 1)
    assert delta_bar(2, chi(0), orbit_list) == [(1,) * 8]
    for cid in chartab.character_ids(2):
        if cid != chi(0):
            assert delta_bar(2, cid, orbit_list) == []


def test_delta_bar_dimension_sum():
    # orbital dimensions over delta-bar add up to the class dimension
    for n, m in ((2, 2), (2, 3), (3, 2)):
        orbit_list = orbits(n, m)
        orbit_index = {o.representative: o for o in orbit_list}
        for cid in chartab.character_ids(n):
            total = 0
            for rep in delta_bar(n, cid, orbit_list):
                total += gram(n, cid, orbit_index[rep]).orbital_dim
            assert total == dims.dim_general(n, m, cid), (n, m, cid)


def test_gram_requires_omega_membership():
    orbit = next(o for o in orbits(2, 2) if o.representative == (1,) * 8)
    with pytest.raises(ValueError):
        gram(2, zeta(2), orbit)


def test_gram_structure():
    orbit_list = orbits(2, 2)
    orbit_index = {o.representative: o for o in orbit_list}
    for cid in (zeta(2), psi(1)):
        for rep in delta_bar(2, cid, orbit_list)[:6]:
            orbit = orbit_index[rep]
            data = gram(2, cid, orbit)
            size = 16 // len(orbit.stabilizer)
            diag = data.entries[0][0]
            expected_diag = stabilizer_char_sum(2, cid, rep)
            for i in range(size):
                assert data.entries[i][i] == diag == expected_diag
                for j in range(size):
                    assert data.entries[i][j] == conjugate(data.entries[j][i])


def test_gram_rotation_coset_entries():
    # with stabilizer {1, ba^2}, the entry between members reached by a^i
    # and a^j is the character value at a^(i-j) (the reflection term dies)
    orbit = next(o for o in orbits(2, 2) if o.representative == ONE_TWO)
    data = gram(2, zeta(2), orbit)
    for i, sig_i in enumerate(coset_reps(2, orbit)):
        for j, sig_j in enumerate(coset_reps(2, orbit)):
            if sig_i >= 8 or sig_j >= 8:
                continue
            want = chartab.character_value(2, zeta(2), (sig_j - sig_i) % 8)
            assert data.entries[i][j] == want


def test_gram_reflection_cosets_vanish_for_rotation_stabilizers():
    # for a pure-rotation stabilizer, cosets joining a rotation to a
    # reflection consist of reflections only, so every such entry is zero;
    # the sequence (1,2,3,3,1,2,3,3) has stabilizer exactly <a^4>, which
    # lies in Omega for zeta_2 (sum 2 + zeta_2(a^4) = 4) but not for psi
    all_orbits = orbits(2, 3)
    cyclic_orbit = next(
        o for o in all_orbits if o.representative == (1, 2, 3, 3, 1, 2, 3, 3)
    )
    assert cyclic_orbit.stabilizer == (0, 4)
    trivial_orbit = next(o for o in all_orbits if len(o.stabilizer) == 1)
    for cid, orbit in (
        (zeta(2), cyclic_orbit),
        (zeta(2), trivial_orbit),
        (psi(1), trivial_orbit),
    ):
        data = gram(2, cid, orbit)
        for i, sig_i in enumerate(coset_reps(2, orbit)):
            for j, sig_j in enumerate(coset_reps(2, orbit)):
                if (sig_i < 8) != (sig_j < 8):
                    assert data.entries[i][j].is_zero


def _tensor_vector(n, cid, member):
    """Coefficients of sum over g of chi(g) e_{g.member}, an exact scalar
    multiple of the decomposable symmetrized tensor of `member`."""
    coeffs = {}
    for g in group.elements(n):
        key = act(n, g, member)
        coeffs[key] = oracles.add(coeffs.get(key, 0), chartab.character_value(n, cid, g))
    return coeffs


def _tensor_inner(n, u, v):
    acc = CycloInt.from_int(4 * n, 0)
    for key, c in u.items():
        if key in v:
            acc = oracles.add(acc, mul(c, conjugate(v[key])))
    return acc


@pytest.mark.parametrize("cid", [zeta(2), psi(1), psi(5), chi(1)])
def test_gram_matches_direct_tensor_inner_products(cid):
    # Independent oracle: build the symmetrized tensors as explicit vectors
    # in the 256-dimensional tensor power and take inner products there.
    # With v_x = sum_g chi(g) e_{g.x} = (8n/chi(1)) e*_x, the scaled Gram
    # entry satisfies  8n * entry(i, j) = chi(1) * <v_i, v_j>  exactly.
    n, m = 2, 2
    orbit_list = orbits(n, m)
    orbit_index = {o.representative: o for o in orbit_list}
    for rep in delta_bar(n, cid, orbit_list):
        orbit = orbit_index[rep]
        data = gram(n, cid, orbit)
        vectors = [_tensor_vector(n, cid, member) for member in members(n, orbit)]
        for i in range(len(vectors)):
            for j in range(len(vectors)):
                lhs = mul(8 * n, data.entries[i][j])
                rhs = mul(cid.degree, _tensor_inner(n, vectors[i], vectors[j]))
                assert oracles.sub(lhs, rhs).is_zero


def test_zeta_orbital_dims_case_analysis():
    # orbital dimensions for zeta characters are 1, 2, or 4, and equal 4
    # exactly when the stabilizer is the cyclic rotation part itself
    for n, m in ((2, 2), (2, 3), (3, 2)):
        orbit_list = orbits(n, m)
        orbit_index = {o.representative: o for o in orbit_list}
        for cid in (c for c in chartab.character_ids(n) if c.kind == "zeta"):
            for rep in delta_bar(n, cid, orbit_list):
                orbit = orbit_index[rep]
                data = gram(n, cid, orbit)
                assert data.orbital_dim in (1, 2, 4)
                reflections = [x for x in orbit.stabilizer if x >= 4 * n]
                assert (data.orbital_dim == 4) == (not reflections)


def _brute_force_has_clique(neighbors, k):
    vertices = range(len(neighbors))
    return any(
        all(v in neighbors[u] for u, v in itertools.combinations(combo, 2))
        for combo in itertools.combinations(vertices, k)
    )


def test_clique_search_against_brute_force_random_graphs():
    rng = random.Random(23)
    for _ in range(150):
        size = rng.randint(2, 12)
        density = rng.random()
        neighbors = [set() for _ in range(size)]
        for u, v in itertools.combinations(range(size), 2):
            if rng.random() < density:
                neighbors[u].add(v)
                neighbors[v].add(u)
        for k in (1, 2, 3, 4):
            found = oracles._find_clique(neighbors, k)
            assert (found is not None) == _brute_force_has_clique(neighbors, k)
            if found is not None:
                assert len(found) == k
                assert all(v in neighbors[u] for u, v in itertools.combinations(found, 2))


@pytest.mark.parametrize("n, m", [(2, 2), (4, 2)])
def test_decision_graph_is_the_zero_pattern_of_gram(monkeypatch, n, m):
    # The clique graph the oracle search explores joins cosets v, w exactly
    # when gram() has a zero entry at their coset representatives.  Both
    # read the quotient table of _cosets, which
    # test_coset_sums_match_explicit_cosets checks against inverse and
    # multiply.
    graphs = []
    find_clique = oracles._find_clique

    def recording(neighbors, k):
        graphs.append(neighbors)
        return find_clique(neighbors, k)

    monkeypatch.setattr(oracles, "_find_clique", recording)
    one_orbit_per_stabilizer = {o.stabilizer: o for o in orbits(n, m)}
    checked = 0
    for stab, orbit in one_orbit_per_stabilizer.items():
        for cid in chartab.character_ids(n):
            if oracles._coset_sums(n, cid, stab)[0].is_zero:
                continue
            graphs.clear()
            oracles.search_decision(n, cid, stab)
            (neighbors,) = graphs
            firsts = oracles._cosets(n, stab)[0]
            # vertex v is the coset of firsts[v]; find the coset rep inside it
            rep_of = []
            for x in firsts:
                coset = {group.multiply(n, x, h) for h in stab}
                (i,) = [i for i, s in enumerate(coset_reps(n, orbit)) if s in coset]
                rep_of.append(i)
            assert sorted(rep_of) == list(range(8 * n // len(stab)))
            entries = gram(n, cid, orbit).entries
            for v, w in itertools.permutations(range(len(firsts)), 2):
                assert (w in neighbors[v]) == entries[rep_of[v]][rep_of[w]].is_zero, (
                    n, cid, sorted(stab), v, w,
                )
            checked += 1
    assert checked


def _subgroups(n):
    """Every subgroup of SD_{8n} by structure, as ascending positions: <a^d>
    for d | 4n, and <a^d> with b a^r <a^d> for r < d and d | 2nr.  a^x sits
    at position x and b a^x at 4n + x."""
    order = 4 * n
    result = []
    for d in (d for d in range(1, order + 1) if order % d == 0):
        rotations = tuple(range(0, order, d))
        result.append(rotations)
        for r in (r for r in range(d) if 2 * n * r % d == 0):
            result.append(rotations + tuple(order + r + x for x in rotations))
    return result


def _pair_closures(n):
    """The subgroup generated by each pair of elements: the words in x and
    y, on the product table (a finite group needs no inverses).  Every
    subgroup of SD_{8n} has two generators."""
    table = group.product_table(n)
    closures = set()
    for x, y in itertools.combinations_with_replacement(range(8 * n), 2):
        found, frontier = {0}, [0]
        while frontier:
            g = frontier.pop()
            for h in (table[g][x], table[g][y]):
                if h not in found:
                    found.add(h)
                    frontier.append(h)
        closures.add(tuple(sorted(found)))
    return closures


def test_subgroups_by_structure_are_every_subgroup():
    for n in range(2, 13):
        subgroups = _subgroups(n)
        assert len(set(subgroups)) == len(subgroups)
        divisors = [d for d in range(1, 4 * n + 1) if 4 * n % d == 0]
        count = sum(1 + sum(2 * n * r % d == 0 for r in range(d)) for d in divisors)
        assert len(subgroups) == count, n
        if n <= 6:
            assert set(subgroups) == _pair_closures(n), n
    assert len(_subgroups(12)) == 102


def test_closed_form_decision_matches_the_search_on_every_subgroup():
    # The closed form in _stabilizer_decision against the exhaustive search
    # over the Gram zero pattern: dimension, verdict and witness alike, for
    # every character and every subgroup, so every stabilizer any orbit
    # can have.
    checked = positive = 0
    for n in range(2, 13):
        for stab in _subgroups(n):
            for cid in chartab.character_ids(n):
                decision = symclass._stabilizer_decision(n, cid, stab)
                assert decision == oracles.search_decision(n, cid, stab), (n, cid, stab)
                checked += 1
                positive += decision[0] > 0
    assert (checked, positive) == (12088, 5643)


def test_decision_witness_on_one_orbit():
    orbit_list = orbits(2, 2)

    def outcome(cid):
        return next(o for o in orbital_outcomes(2, cid, orbit_list) if o.representative == ONE_TWO)

    result = outcome(zeta(2))
    assert result.found and len(result.witness) == 2
    # psi_1 also finds a pair here; cross-checked against the tensor oracle
    result = outcome(psi(1))
    assert result.found and len(result.witness) == 2
    witness = result.witness
    vectors = {w: _tensor_vector(2, psi(1), w) for w in witness}
    a, b = witness
    assert _tensor_inner(2, vectors[a], vectors[b]).is_zero
    assert not _tensor_inner(2, vectors[a], vectors[a]).is_zero


def test_nu2():
    assert nu2(2, 4) == -1
    assert nu2(2, 6) == 0
    assert nu2(4, 6) == 1
    assert nu2(-8, 2) == 2
    with pytest.raises(ValueError):
        nu2(0, 3)
    with pytest.raises(ValueError):
        nu2(3, 0)


def test_predicted_basis_table():
    assert predicted_basis(2, zeta(2)) is True
    assert predicted_basis(3, zeta(2)) is False
    assert predicted_basis(3, zeta(4)) is False
    assert predicted_basis(4, psi(1)) is False
    assert predicted_basis(2, chi(0)) is True
    assert predicted_basis(6, zeta(4)) is False  # nu2(4/12) = 0
    assert predicted_basis(6, zeta(2)) is True  # nu2(2/12) = -1


def test_cosine_vanishing_examples():
    assert cosine_vanishing_exists(2, 2) is True
    assert cosine_vanishing_exists(3, 2) is False
    assert cosine_vanishing_exists(4, 4) is True
    with pytest.raises(ValueError):
        cosine_vanishing_exists(2, 4)
    with pytest.raises(ValueError):
        cosine_vanishing_exists(2, 0)


def test_cosine_vanishing_matches_valuation():
    for n in range(2, 9):
        for h in range(1, 2 * n):
            assert cosine_vanishing_exists(n, h) == (nu2(h, 2 * n) < 0), (n, h)


def test_psi_vanishing_examples():
    assert psi_vanishing_exists(2, 1) is True
    assert psi_vanishing_exists(3, 1) is False
    with pytest.raises(ValueError):
        psi_vanishing_exists(2, 2)  # zeta:2
    with pytest.raises(ValueError):
        psi_vanishing_exists(2, 3)  # 3 = 3 * 1 mod 8 names psi:1


def test_psi_vanishes_at_a_rotation_exactly_at_even_n():
    for n in range(2, 33):
        for cid in chartab.character_ids(n):
            if cid.kind == "psi":
                assert psi_vanishing_exists(n, cid.param) == (n % 2 == 0), (n, cid)


def test_linear_characters_always_admit_bases():
    for n, m in ((2, 2), (3, 2)):
        orbit_list = orbits(n, m)
        for i in chartab.linear_range(n):
            outcomes = list(orbital_outcomes(n, chi(i), orbit_list))
            assert _verdict(n, chi(i), orbit_list)
            assert all(o.orbital_dim == 1 for o in outcomes)
            assert all(o.witness and len(o.witness) == 1 for o in outcomes)


def _verdict(n, cid, orbit_list):
    """The verdict `basis` reports: one decision per distinct stabilizer."""
    return has_orthogonal_basis(n, cid, {o.stabilizer for o in orbit_list})


def _check_witnesses(n, cid, outcomes, orbit_index, one_per_stabilizer=False):
    """Check outcome witnesses against the tensor oracle: each witness lies
    in its orbit, spans the orbital subspace, and its tensors are pairwise
    orthogonal with nonzero norms.  A decision depends only on the
    (character, stabilizer) pair, so one_per_stabilizer checks the first
    orbit of each distinct stabilizer only."""
    seen = set()
    for outcome in outcomes:
        orbit = orbit_index[outcome.representative]
        stab = orbit.stabilizer
        if one_per_stabilizer and stab in seen:
            continue
        seen.add(stab)
        assert outcome.found and outcome.witness is not None
        assert len(outcome.witness) == outcome.orbital_dim
        assert set(outcome.witness) <= set(members(n, orbit))
        vectors = {w: _tensor_vector(n, cid, w) for w in outcome.witness}
        for u, v in itertools.combinations(outcome.witness, 2):
            assert _tensor_inner(n, vectors[u], vectors[v]).is_zero
        for w in outcome.witness:
            assert not _tensor_inner(n, vectors[w], vectors[w]).is_zero
    return seen


def test_decision_witnesses_are_valid():
    orbit_list = orbits(2, 2)
    orbit_index = {o.representative: o for o in orbit_list}
    for cid in (zeta(2), psi(1)):
        _check_witnesses(2, cid, orbital_outcomes(2, cid, orbit_list), orbit_index)


def test_psi_witnesses_at_n2_m3_match_tensor_oracle():
    # every orbit of psi_1 and psi_5 at n=2, m=3, the cases acceptance
    # criterion 6 pins as exhaustive=True, predicted=False
    orbit_list = orbits(2, 3)
    orbit_index = {o.representative: o for o in orbit_list}
    for cid in (psi(1), psi(5)):
        assert _verdict(2, cid, orbit_list) is True
        assert predicted_basis(2, cid) is False
        _check_witnesses(2, cid, orbital_outcomes(2, cid, orbit_list), orbit_index)


def test_psi_witnesses_at_n4_match_tensor_oracle():
    # the psi-at-even-n finding is not special to n=2: at n=4 every psi
    # character has an o-basis too; one orbit per distinct stabilizer
    orbit_list = orbits(4, 2)
    orbit_index = {o.representative: o for o in orbit_list}
    psi_ids = [cid for cid in chartab.character_ids(4) if cid.kind == "psi"]
    assert psi_ids == [psi(1), psi(3), psi(9), psi(11)]
    for cid in psi_ids:
        assert _verdict(4, cid, orbit_list) is True
        assert predicted_basis(4, cid) is False
        outcomes = orbital_outcomes(4, cid, orbit_list)
        assert len(_check_witnesses(4, cid, outcomes, orbit_index, True)) == 9


def _decision_per_orbit(n, cid, orbit_list):
    """The outcomes for one character as (representative, orbit size,
    stabilizer order, orbital dimension, found, witness), built orbit by
    orbit with act from the cached stabilizer decision, sharing nothing."""
    outcomes = []
    for orbit in orbit_list:
        dim, found, sigmas = symclass._stabilizer_decision(n, cid, orbit.stabilizer)
        if dim == 0:
            continue
        witness = None
        if found:
            witness = tuple(act(n, x, orbit.representative) for x in sigmas)
        order = len(orbit.stabilizer)
        outcomes.append((orbit.representative, 8 * n // order, order, dim, found, witness))
    return outcomes


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (4, 2)])
def test_one_pass_decisions_match_per_character_decisions(n, m):
    orbit_list = orbits(n, m)
    for cid in chartab.character_ids(n):
        reference = _decision_per_orbit(n, cid, orbit_list)
        outcomes = [(*o[:5], o.witness) for o in orbital_outcomes(n, cid, orbit_list)]
        assert outcomes == reference, cid
        assert _verdict(n, cid, orbit_list) == all(found for *_, found, _ in reference), cid


def test_orbital_outcomes_decide_each_distinct_stabilizer_once_per_call(monkeypatch):
    orbit_list = orbits(4, 2)
    stabilizers = {o.stabilizer for o in orbit_list}
    assert len(stabilizers) == 22 and len(orbit_list) == 2190
    decide = symclass._stabilizer_decision
    calls = []

    def counted(n, cid, stabilizer):
        calls.append(stabilizer)
        return decide(n, cid, stabilizer)

    monkeypatch.setattr(symclass, "_stabilizer_decision", counted)
    for cid in (chi(0), zeta(2), psi(1)):
        for _ in range(2):  # each call keeps its own lookups
            calls.clear()
            assert list(orbital_outcomes(4, cid, orbit_list))
            assert len(calls) == len(stabilizers) and set(calls) == stabilizers, cid


def test_an_empty_orbit_list_has_no_outcomes_and_a_basis():
    # n is passed, not read off the first orbit, so no orbits is no outcomes
    assert list(orbital_outcomes(2, zeta(2), [])) == []
    assert has_orthogonal_basis(2, zeta(2), ()) is True


def test_exhaustive_decisions_small_cases():
    # zeta_2 at n=2 admits a basis, every degree-2 character at n=3 does not
    n3_orbits = orbits(3, 2)
    assert _verdict(2, zeta(2), orbits(2, 2)) is True
    assert _verdict(3, zeta(2), n3_orbits) is False
    assert _verdict(3, zeta(4), n3_orbits) is False
    assert _verdict(3, psi(1), n3_orbits) is False
    assert _verdict(3, psi(7), n3_orbits) is False


def test_failing_orbit_reported():
    outcomes = list(orbital_outcomes(3, zeta(2), orbits(3, 2)))
    first_failure = next(o for o in outcomes if not o.found)
    assert first_failure.orbital_dim > 0
    assert first_failure.witness is None


def test_psi_at_even_n_has_bases_despite_prediction():
    # The exhaustive search, validated entry-by-entry against the direct
    # tensor oracle above, finds an orthogonal basis in every orbital
    # subspace of psi_1 and psi_5 at n=2.  The valuation prediction table
    # says psi characters never admit one; it is wrong for even n, and the
    # two reports are deliberately kept in disagreement.
    orbit_list = orbits(2, 2)
    for cid in (psi(1), psi(5)):
        assert _verdict(2, cid, orbit_list) is True
        assert predicted_basis(2, cid) is False

