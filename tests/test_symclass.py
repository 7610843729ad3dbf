import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtensor import chartab, dims, group, symclass
from sdtensor.chartab import chi, index_sets, psi, zeta
from sdtensor.cyclo import CycloInt
from sdtensor.group import SDElement
from sdtensor.symclass import (
    BudgetExceededError,
    act,
    cosine_vanishing_exists,
    decide_orthogonal_basis,
    delta_bar,
    gram,
    nu2,
    orbits,
    predicted_basis,
    stabilizer_char_sum,
)

ONE_TWO = (1, 2, 2, 2, 2, 2, 2, 2)


def test_act_identity_and_constants():
    assert act(2, group.identity(), ONE_TWO) == ONE_TWO
    constant = (1,) * 8
    for g in group.elements(2):
        assert act(2, g, constant) == constant


def test_act_moves_marked_position():
    # the generator a shifts positions forward: the 1 lands in position 2
    assert act(2, SDElement(0, 1), ONE_TWO) == (2, 1, 2, 2, 2, 2, 2, 2)


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
        act(2, group.identity(), (1, 2, 3))


def test_orbits_single_letter():
    result = orbits(2, 1)
    assert len(result) == 1
    assert result[0].stabilizer == group.elements(2)


def test_orbit_of_marked_sequence():
    orbit = next(o for o in orbits(2, 2) if o.representative == ONE_TWO)
    assert orbit.size == 8
    assert orbit.stabilizer == (group.identity(), SDElement(1, 2))


def test_orbit_stabilizer_products():
    for n, m in ((2, 2), (2, 3), (3, 2)):
        for o in orbits(n, m):
            assert o.size * o.stabilizer_order == 8 * n


def test_orbit_count_is_burnside_dimension():
    assert len(orbits(2, 2)) == dims.dim_general(2, 2, chi(0))
    assert len(orbits(2, 3)) == dims.dim_general(2, 3, chi(0))
    assert len(orbits(3, 2)) == dims.dim_general(3, 2, chi(0))


def test_orbits_partition_and_representatives_minimal():
    for n, m in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2)):
        result = orbits(n, m)
        all_members = []
        for o in result:
            all_members.extend(o.members)
            assert o.representative == min(o.members)
            assert sorted(o.members) == list(o.members)
        assert len(all_members) == m ** (4 * n)
        assert len(set(all_members)) == m ** (4 * n)
        representatives = [o.representative for o in result]
        assert representatives == sorted(representatives)


def test_coset_reps_map_representative_to_members():
    for n, m in ((2, 2), (2, 3), (3, 2)):
        for o in orbits(n, m):
            for sigma, member in zip(o.coset_reps, o.members):
                assert act(n, sigma, o.representative) == member
            # each coset representative is the first element, in
            # group.elements order, reaching its member
            images = {g: act(n, g, o.representative) for g in group.elements(n)}
            first = {}
            for g, image in images.items():
                first.setdefault(image, g)
            assert o.coset_reps == tuple(first[member] for member in o.members)
            assert o.stabilizer == tuple(g for g, image in images.items() if image == o.representative)


def _decode(n, m, code):
    return tuple(code // m ** (4 * n - 1 - t) % m + 1 for t in range(4 * n))


def _encode(m, alpha):
    code = 0
    for letter in alpha:
        code = code * m + letter - 1
    return code


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_code_action_matches_act(n, m, data):
    code = data.draw(st.integers(0, m ** (4 * n) - 1))
    alpha = _decode(n, m, code)
    assert _encode(m, alpha) == code
    elements, letters, halves = symclass._code_action(n, m)
    assert elements == group.elements(n)
    high, low = divmod(code, m ** (2 * n))
    assert letters[high] + letters[low] == alpha
    try:
        for g, (hi, lo) in zip(elements, halves):
            assert hi[high] + lo[low] == _encode(m, act(n, g, alpha))
    finally:
        if m ** (2 * n) > 4096:
            # at (4, 4) the tables hold 4.2 M ints; do not keep them
            symclass._code_action.cache_clear()


def test_orbits_rejects_overlapping_orbits(monkeypatch):
    build = symclass._orbit_from_representative

    def overlapping(n, m, code, interned):
        orbit, members = build(n, m, code, interned)
        # code 0 is the sequence (1,) * 4n, the first orbit's representative
        return orbit, [*members, 0]

    monkeypatch.setattr(symclass, "_orbit_from_representative", overlapping)
    with pytest.raises(RuntimeError, match="overlapping"):
        orbits(2, 2)


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
    # representatives and members are derived, and the marks of the
    # enumeration are freed on return
    fields = {f.name for f in dataclasses.fields(symclass.OrbitData)}
    assert "members" not in fields and "coset_reps" not in fields
    n, m = 4, 2
    symclass._action_maps(n)
    result, retained = _retained_by_orbits(n, m)
    assert len(result) == dims.dim_general(n, m, chi(0))
    assert retained < 64 * m ** (4 * n), retained / m ** (4 * n)

    # orbits with equal stabilizers share one tuple, so a record costs a
    # fixed few hundred bytes; the action tables are built beforehand
    n, m = 3, 3
    symclass._code_action(n, m)
    result, retained = _retained_by_orbits(n, m)
    interned = {}
    for o in result:
        assert interned.setdefault(o.stabilizer, o.stabilizer) is o.stabilizer
    assert retained < 300 * len(result), retained / len(result)


def test_consumers_of_an_orbit_list_do_not_enumerate(monkeypatch):
    orbit_list = orbits(2, 2)

    def fail(*args, **kwargs):
        raise AssertionError("orbits enumerated again")

    monkeypatch.setattr(symclass, "orbits", fail)
    assert decide_orthogonal_basis(zeta(2), orbit_list).exists is True
    assert delta_bar(chi(0), orbit_list) == [o.representative for o in orbit_list]


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
    elements = group.elements(n)
    for stab in {o.stabilizer for o in orbits(n, 2)}:
        firsts, number = symclass._cosets(n, stab)
        for cid in chartab.character_ids(n):
            sums = symclass._coset_sums(n, cid, stab)
            cosets = [{group.multiply(n, elements[x], h) for h in stab} for x in firsts]
            assert sorted(g for coset in cosets for g in coset) == list(elements)
            assert cosets[0] == set(stab)
            for k, (x, coset) in enumerate(zip(firsts, cosets)):
                positions = {group.element_index(n, g) for g in coset}
                assert x == min(positions)
                assert {number[p] for p in positions} == {k}
                expected = CycloInt.zero(4 * n)
                for g in coset:
                    expected = expected + chartab.character_value(n, cid, g)
                assert sums[k] == expected, (n, cid, sorted(stab), k)


@st.composite
def group_elements(draw, count):
    """A group parameter n in 2..40 and count elements of SD_{8n}."""
    n = draw(st.integers(2, 40))
    return n, [draw(st.sampled_from(group.elements(n))) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(group_elements(2))
def test_product_table_agrees_with_multiply(case):
    n, (g, h) = case
    product = group.product_table(n)[group.element_index(n, g)][group.element_index(n, h)]
    assert group.elements(n)[product] == group.multiply(n, g, h)


@settings(max_examples=60, deadline=None)
@given(group_elements(1))
def test_inverse_read_off_the_table_agrees_with_inverse(case):
    n, (g,) = case
    table = group.product_table(n)
    inverse_row = symclass._inverse_row(table, group.element_index(n, g))
    assert inverse_row == table[group.element_index(n, group.inverse(n, g))]


@settings(max_examples=60, deadline=None)
@given(group_elements(2), st.randoms(use_true_random=False))
def test_act_is_a_left_action_at_random_n(case, rng):
    n, (g, h) = case
    alpha = tuple(rng.randint(1, 3) for _ in range(4 * n))
    assert act(n, group.multiply(n, g, h), alpha) == act(n, g, act(n, h, alpha))


def test_zeta_stabilizer_sums_follow_cyclic_intersection():
    from math import gcd

    for n, m in ((2, 2), (3, 2)):
        for h in index_sets(n).Cdag_even:
            cid = zeta(h)
            for o in orbits(n, m):
                total = stabilizer_char_sum(n, cid, o.representative)
                r, _ = group.cyclic_intersection(n, set(o.stabilizer))
                l = 4 * n // gcd(4 * n, r) if r else 1
                if (r * h) % (4 * n) == 0:
                    assert (total - 2 * l).is_zero
                else:
                    assert total.is_zero


def test_delta_bar_single_letter():
    orbit_list = orbits(2, 1)
    assert delta_bar(chi(0), orbit_list) == [(1,) * 8]
    for cid in chartab.character_ids(2):
        if cid != chi(0):
            assert delta_bar(cid, orbit_list) == []


def test_delta_bar_dimension_sum():
    # orbital dimensions over delta-bar add up to the class dimension
    for n, m in ((2, 2), (2, 3), (3, 2)):
        orbit_list = orbits(n, m)
        orbit_index = {o.representative: o for o in orbit_list}
        for cid in chartab.character_ids(n):
            total = 0
            for rep in delta_bar(cid, orbit_list):
                total += gram(cid, orbit_index[rep]).orbital_dim
            assert total == dims.dim_general(n, m, cid), (n, m, cid)


def test_gram_requires_omega_membership():
    orbit = next(o for o in orbits(2, 2) if o.representative == (1,) * 8)
    with pytest.raises(ValueError):
        gram(zeta(2), orbit)


def test_gram_structure():
    orbit_list = orbits(2, 2)
    orbit_index = {o.representative: o for o in orbit_list}
    for cid in (zeta(2), psi(1)):
        for rep in delta_bar(cid, orbit_list)[:6]:
            orbit = orbit_index[rep]
            data = gram(cid, orbit)
            size = orbit.size
            diag = data.entries[0][0]
            expected_diag = stabilizer_char_sum(2, cid, rep)
            for i in range(size):
                assert data.entries[i][i] == diag == expected_diag
                for j in range(size):
                    assert data.entries[i][j] == data.entries[j][i].conjugate()


def test_gram_rotation_coset_entries():
    # with stabilizer {1, ba^2}, the entry between members reached by a^i
    # and a^j is the character value at a^(i-j) (the reflection term dies)
    orbit = next(o for o in orbits(2, 2) if o.representative == ONE_TWO)
    data = gram(zeta(2), orbit)
    for i, sig_i in enumerate(orbit.coset_reps):
        for j, sig_j in enumerate(orbit.coset_reps):
            if sig_i.s or sig_j.s:
                continue
            want = chartab.character_value(2, zeta(2), SDElement(0, (sig_j.r - sig_i.r) % 8))
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
    assert set(cyclic_orbit.stabilizer) == {group.identity(), SDElement(0, 4)}
    trivial_orbit = next(o for o in all_orbits if o.stabilizer_order == 1)
    for cid, orbit in (
        (zeta(2), cyclic_orbit),
        (zeta(2), trivial_orbit),
        (psi(1), trivial_orbit),
    ):
        data = gram(cid, orbit)
        for i, sig_i in enumerate(orbit.coset_reps):
            for j, sig_j in enumerate(orbit.coset_reps):
                if sig_i.s != sig_j.s:
                    assert data.entries[i][j].is_zero


def _tensor_vector(n, cid, member):
    """Coefficients of sum over g of chi(g) e_{g.member}, an exact scalar
    multiple of the decomposable symmetrized tensor of `member`."""
    values = chartab.value_table(n, cid)
    coeffs = {}
    for g in group.elements(n):
        key = act(n, g, member)
        coeffs[key] = coeffs.get(key, CycloInt.zero(4 * n)) + values[g]
    return coeffs


def _tensor_inner(n, u, v):
    acc = CycloInt.zero(4 * n)
    for key, c in u.items():
        if key in v:
            acc = acc + c * v[key].conjugate()
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
    for rep in delta_bar(cid, orbit_list):
        orbit = orbit_index[rep]
        data = gram(cid, orbit)
        vectors = [_tensor_vector(n, cid, member) for member in orbit.members]
        for i in range(orbit.size):
            for j in range(orbit.size):
                lhs = 8 * n * data.entries[i][j]
                rhs = cid.degree * _tensor_inner(n, vectors[i], vectors[j])
                assert (lhs - rhs).is_zero


def test_zeta_orbital_dims_case_analysis():
    # orbital dimensions for zeta characters are 1, 2, or 4, and equal 4
    # exactly when the stabilizer is the cyclic rotation part itself
    for n, m in ((2, 2), (2, 3), (3, 2)):
        orbit_list = orbits(n, m)
        orbit_index = {o.representative: o for o in orbit_list}
        for h in index_sets(n).Cdag_even:
            cid = zeta(h)
            for rep in delta_bar(cid, orbit_list):
                orbit = orbit_index[rep]
                data = gram(cid, orbit)
                assert data.orbital_dim in (1, 2, 4)
                r, proper = group.cyclic_intersection(n, set(orbit.stabilizer))
                assert (data.orbital_dim == 4) == (not proper)


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
            found = symclass._find_clique(neighbors, k)
            assert (found is not None) == _brute_force_has_clique(neighbors, k)
            if found is not None:
                assert len(found) == k
                assert all(v in neighbors[u] for u, v in itertools.combinations(found, 2))


@pytest.mark.parametrize("n, m", [(2, 2), (4, 2)])
def test_decision_graph_is_the_zero_pattern_of_gram(monkeypatch, n, m):
    # The clique graph a decision searches joins cosets v, w exactly when
    # gram() has a zero entry at their coset representatives.  The graph
    # differs here from one built without the inverse sigma_i^(-1).
    graphs = []
    find_clique = symclass._find_clique

    def recording(neighbors, k):
        graphs.append(neighbors)
        return find_clique(neighbors, k)

    monkeypatch.setattr(symclass, "_find_clique", recording)
    symclass._stabilizer_decision.cache_clear()
    elements = group.elements(n)
    one_orbit_per_stabilizer = {o.stabilizer: o for o in orbits(n, m)}
    checked = 0
    for stab, orbit in one_orbit_per_stabilizer.items():
        for cid in chartab.character_ids(n):
            if symclass._subgroup_char_sum(n, cid, stab).is_zero:
                continue
            graphs.clear()
            symclass._stabilizer_decision(n, cid, stab)
            (neighbors,) = graphs
            firsts = symclass._cosets(n, stab)[0]
            # vertex v is the coset of firsts[v]; find the coset rep inside it
            rep_of = []
            for x in firsts:
                coset = {group.multiply(n, elements[x], h) for h in stab}
                (i,) = [i for i, s in enumerate(orbit.coset_reps) if s in coset]
                rep_of.append(i)
            assert sorted(rep_of) == list(range(orbit.size))
            entries = gram(cid, orbit).entries
            for v, w in itertools.permutations(range(len(firsts)), 2):
                assert (w in neighbors[v]) == entries[rep_of[v]][rep_of[w]].is_zero, (
                    n, cid, sorted(stab), v, w,
                )
            checked += 1
    assert checked


def test_decision_witness_on_one_orbit():
    orbit_list = orbits(2, 2)

    def outcome(cid):
        decision = decide_orthogonal_basis(cid, orbit_list)
        return next(o for o in decision.orbits if o.representative == ONE_TWO)

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


def test_linear_characters_always_admit_bases():
    for n, m in ((2, 2), (3, 2)):
        orbit_list = orbits(n, m)
        for i in chartab.linear_range(n):
            decision = decide_orthogonal_basis(chi(i), orbit_list)
            assert decision.exists
            assert all(o.orbital_dim == 1 for o in decision.orbits)
            assert all(o.witness and len(o.witness) == 1 for o in decision.orbits)


def _check_witnesses(n, cid, decision, orbit_index, one_per_stabilizer=False):
    """Check decision witnesses against the tensor oracle: each witness lies
    in its orbit, spans the orbital subspace, and its tensors are pairwise
    orthogonal with nonzero norms.  A decision depends only on the
    (character, stabilizer) pair, so one_per_stabilizer checks the first
    orbit of each distinct stabilizer only."""
    seen = set()
    for outcome in decision.orbits:
        orbit = orbit_index[outcome.representative]
        stab = orbit.stabilizer
        if one_per_stabilizer and stab in seen:
            continue
        seen.add(stab)
        assert outcome.found and outcome.witness is not None
        assert len(outcome.witness) == outcome.orbital_dim
        assert set(outcome.witness) <= set(orbit.members)
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
        _check_witnesses(2, cid, decide_orthogonal_basis(cid, orbit_list), orbit_index)


def test_psi_witnesses_at_n2_m3_match_tensor_oracle():
    # every orbit of psi_1 and psi_5 at n=2, m=3, the cases acceptance
    # criterion 6 pins as exhaustive=True, predicted=False
    orbit_list = orbits(2, 3)
    orbit_index = {o.representative: o for o in orbit_list}
    for cid in (psi(1), psi(5)):
        decision = decide_orthogonal_basis(cid, orbit_list)
        assert decision.exists is True
        assert predicted_basis(2, cid) is False
        _check_witnesses(2, cid, decision, orbit_index)


def test_psi_witnesses_at_n4_match_tensor_oracle():
    # the psi-at-even-n finding is not special to n=2: at n=4 every psi
    # character has an o-basis too; one orbit per distinct stabilizer
    orbit_list = orbits(4, 2)
    orbit_index = {o.representative: o for o in orbit_list}
    psi_ids = [cid for cid in chartab.character_ids(4) if cid.kind == "psi"]
    assert psi_ids == [psi(1), psi(3), psi(9), psi(11)]
    for cid in psi_ids:
        decision = decide_orthogonal_basis(cid, orbit_list)
        assert decision.exists is True
        assert predicted_basis(4, cid) is False
        assert len(_check_witnesses(4, cid, decision, orbit_index, True)) == 9


def test_exhaustive_decisions_small_cases():
    # zeta_2 at n=2 admits a basis, every degree-2 character at n=3 does not
    n3_orbits = orbits(3, 2)
    assert decide_orthogonal_basis(zeta(2), orbits(2, 2)).exists is True
    assert decide_orthogonal_basis(zeta(2), n3_orbits).exists is False
    assert decide_orthogonal_basis(zeta(4), n3_orbits).exists is False
    assert decide_orthogonal_basis(psi(1), n3_orbits).exists is False
    assert decide_orthogonal_basis(psi(7), n3_orbits).exists is False


def test_failing_orbit_reported():
    decision = decide_orthogonal_basis(zeta(2), orbits(3, 2))
    assert decision.first_failure is not None
    assert not decision.first_failure.found
    assert decision.first_failure.witness is None


def test_psi_at_even_n_has_bases_despite_prediction():
    # The exhaustive search, validated entry-by-entry against the direct
    # tensor oracle above, finds an orthogonal basis in every orbital
    # subspace of psi_1 and psi_5 at n=2.  The valuation prediction table
    # says psi characters never admit one; it is wrong for even n, and the
    # two reports are deliberately kept in disagreement.
    orbit_list = orbits(2, 2)
    for cid in (psi(1), psi(5)):
        decision = decide_orthogonal_basis(cid, orbit_list)
        assert decision.exists is True
        assert predicted_basis(2, cid) is False

