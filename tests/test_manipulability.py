"""Oracle tests for channel certification.

Covers the linear-program manipulability check, the witness search, the
witness-to-attack construction, the null-space double-polarization search,
and the combined verdict. Expected values are hand-derived (noted inline)
and frozen before the implementation existed.
"""

import numpy as np
import pytest

from relay_sentinel import harness, lpkernel, manipulability, stochcore
from relay_sentinel.channelmodel import MacModel, marginalize_mac
from relay_sentinel.lpkernel import LpProblem, solve_lp
from relay_sentinel.manipulability import (
    CertificationFailure,
    ConsistencyFailure,
    ManipulabilityVerdict,
)

from conftest import counter_upsilon, is_column_stochastic


# ---------- check_algorithm1 ----------


def test_check_algorithm1_identity_channel():
    # BYA = Y forces the zero deviation, so the certification value is 0:
    # with Omega = M*I for large M and nu = 0 every diagonal slack closes.
    value, manipulable = manipulability.check_algorithm1(np.eye(2), np.eye(2))
    assert abs(value) <= 1e-9
    assert not manipulable


def test_check_algorithm1_motivating(motivating_a, motivating_b):
    value, manipulable = manipulability.check_algorithm1(motivating_a, motivating_b)
    assert abs(value) <= 1e-6
    assert not manipulable


def test_check_algorithm1_higher_order(higher_a, higher_b):
    value, manipulable = manipulability.check_algorithm1(higher_a, higher_b)
    assert abs(value) <= 1e-6
    assert not manipulable


def test_check_algorithm1_counter_example(higher_a, counter_b):
    # The deviation family psi -> counter_upsilon(psi) is feasible for the
    # witness polytope and at psi=1 carries three unit diagonal entries;
    # the certification value equals that count.
    value, manipulable = manipulability.check_algorithm1(higher_a, counter_b)
    assert value == pytest.approx(3.0, abs=1e-6)
    assert manipulable


def test_check_algorithm1_unbounded_is_certification_failure(monkeypatch):
    # The objective is bounded below by 0 analytically, so an unbounded
    # solver status can only mean numerical trouble and must surface.
    def fake_solve(problem):
        return lpkernel.LpOutcome(status=lpkernel.LpStatus.UNBOUNDED)

    monkeypatch.setattr(manipulability, "solve_lp", fake_solve)
    with pytest.raises(CertificationFailure):
        manipulability.check_algorithm1(np.eye(2), np.eye(2))


def _loop_algorithm1_rows(a, b):
    """Algorithm 1's inequality rows, one np.outer per (k, l): the oracle."""
    size_u = a.shape[0]
    rows = np.zeros((size_u + size_u * size_u, 2 * size_u + a.shape[1] * b.shape[0]))
    for k in range(size_u):
        rows[k, k] = -1.0
    r = size_u
    for k in range(size_u):
        for l in range(size_u):
            rows[r, size_u + k] = 1.0
            rows[r, 2 * size_u :] = np.outer(a[k, :], b[:, l]).ravel()
            if l == k:
                rows[r, k] = -1.0
            r += 1
    return rows


def test_algorithm1_rows_match_the_per_pair_loop(
    monkeypatch, motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    programs = []

    def recording(problem):
        programs.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(manipulability, "solve_lp", recording)
    rng = np.random.default_rng(14)
    channels = [(motivating_a, motivating_b), (higher_a, higher_b), (higher_a, counter_b)]
    for size_u, size_x1, size_y1 in ((2, 1, 3), (3, 2, 2), (4, 3, 5), (5, 2, 4), (5, 5, 5)):
        channels.append(_random_channel(rng, size_u, size_x1, size_y1))
    for a, b in channels:
        manipulability.check_algorithm1(a, b)
        rows = programs.pop().a_ub
        assert rows.tobytes() == _loop_algorithm1_rows(a, b).tobytes()


def test_deviation_polytope_rows_match_kron(
    motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    # the rows are built by broadcasting; np.kron is the oracle, byte for byte
    rng = np.random.default_rng(22)
    channels = [(motivating_a, motivating_b), (higher_a, higher_b), (higher_a, counter_b)]
    for size_u, size_x1, size_y1 in ((2, 1, 3), (3, 2, 2), (4, 3, 5), (5, 2, 4), (5, 5, 5)):
        channels.append(_random_channel(rng, size_u, size_x1, size_y1))
    for a, b in channels:
        size_u = a.shape[0]
        a_eq, b_eq, _ = manipulability._deviation_polytope(a, b)
        oracle = np.vstack([np.kron(b, a.T), np.kron(np.ones((1, size_u)), np.eye(size_u))])
        assert a_eq.tobytes() == oracle.tobytes()
        assert b_eq.tobytes() == np.zeros(oracle.shape[0]).tobytes()


# ---------- find_witness ----------


def _assert_valid_witness(upsilon, a, b):
    size_u = a.shape[0]
    assert upsilon.shape == (size_u, size_u)
    # column balance
    assert np.abs(upsilon.sum(axis=0)).max() <= 1e-8
    # off-diagonal sign
    off = upsilon - np.diag(np.diag(upsilon))
    assert off.max() <= 1e-10
    # at least one clearly positive diagonal entry
    assert np.diag(upsilon).max() > 1e-6
    # observation equivalence of the deviation
    assert stochcore.l1_norm(b @ upsilon @ a) <= 1e-6


def test_find_witness_counter_example(higher_a, counter_b):
    upsilon = manipulability.find_witness(higher_a, counter_b)
    assert upsilon is not None
    _assert_valid_witness(upsilon, higher_a, counter_b)


def test_find_witness_none_for_motivating(motivating_a, motivating_b):
    # B = I forces every row of Y into span{(1,-1,1)}; the off-diagonal
    # sign constraints then pin each row's coefficient to 0.
    assert manipulability.find_witness(motivating_a, motivating_b) is None


def test_find_witness_none_for_identity():
    assert manipulability.find_witness(np.eye(2), np.eye(2)) is None


def test_find_witness_none_for_higher_order(higher_a, higher_b):
    assert manipulability.find_witness(higher_a, higher_b) is None


# ---------- witness_to_attack ----------


def test_witness_to_attack_counter_full(counter_upsilon_1, counter_phi2):
    # max diagonal is 1, so the attack is exactly I - Y: column 1 maps to
    # e3, column 2 to e4, column 4 to e2, columns 0 and 3 stay identity.
    phi = manipulability.witness_to_attack(counter_upsilon_1)
    assert np.array_equal(phi, counter_phi2)
    assert is_column_stochastic(phi, 1e-12)
    expected_cols = {1: 3, 2: 4, 4: 2}
    for col, target in expected_cols.items():
        assert np.array_equal(phi[:, col], np.eye(5)[:, target])
    for col in (0, 3):
        assert np.array_equal(phi[:, col], np.eye(5)[:, col])


def test_witness_to_attack_psi_half_normalizes(counter_phi2):
    # scaling the deviation by 1/2 cancels in the max-diagonal division
    phi = manipulability.witness_to_attack(counter_upsilon(0.5))
    assert np.allclose(phi, counter_phi2, atol=1e-12)


def test_witness_to_attack_two_by_two_swap():
    upsilon = np.array([[0.5, -0.5], [-0.5, 0.5]])
    phi = manipulability.witness_to_attack(upsilon)
    assert np.allclose(phi, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


def test_witness_to_attack_column_sums_stay_one():
    upsilon = counter_upsilon(0.25)
    phi = manipulability.witness_to_attack(upsilon)
    assert np.allclose(phi.sum(axis=0), 1.0, atol=1e-12)


def test_witness_to_attack_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        manipulability.witness_to_attack(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        manipulability.witness_to_attack(np.array([[-0.5, 0.5], [0.5, -0.5]]))


# ---------- dpv_search_algorithm2 ----------


def test_dpv_search_identity_full_rank():
    # n = 0: trivial left null space
    assert manipulability.dpv_search_algorithm2(np.eye(2)) == "not_found"


def test_dpv_search_single_column():
    # n = |U| - 1 branch fires without touching the null-space basis
    a = np.array([[0.5], [0.5]])
    assert manipulability.dpv_search_algorithm2(a) == "found"


def test_dpv_search_motivating_not_found(motivating_a):
    # n = 1; basis (1,-1,1) reduces to (1 | -1, 1): the trailing block has a
    # positive entry next to the negative one and there is no row pair.
    assert manipulability.dpv_search_algorithm2(motivating_a) == "not_found"


def test_dpv_search_higher_order_not_found(higher_a):
    # n = 2; basis rows (1,0,-1,1,0) and (0,1,-1,0,1) give trailing rows
    # (-1,1,0) and (-1,0,1): neither single-negative nor proportional.
    assert manipulability.dpv_search_algorithm2(higher_a) == "not_found"


def test_dpv_search_proportional_trailing_rows():
    # Left null space of this 5x3 channel is spanned by
    # (1,0,-1/2,-1/4,-1/4) and (0,1,-1/2,-1/4,-1/4): identical trailing
    # blocks, so the positive-proportionality branch (c=1) fires.
    a = np.array(
        [
            [0.25, 1.0 / 6.0, 1.0 / 6.0],
            [0.25, 1.0 / 6.0, 1.0 / 6.0],
            [0.5, 0.0, 0.0],
            [0.0, 2.0 / 3.0, 0.0],
            [0.0, 0.0, 2.0 / 3.0],
        ]
    )
    assert manipulability.dpv_search_algorithm2(a) == "found"


def test_dpv_search_single_negative_trailing_entry():
    # Rows 1 and 2 of this channel are equal, so e2 - e3 lies in the left
    # null space; the reduced basis contains the trailing row (-1, 0).
    a = np.array([[0.5, 0.0], [0.25, 0.25], [0.25, 0.25], [0.0, 0.5]])
    assert manipulability.dpv_search_algorithm2(a) == "found"


# ---------- certify ----------


def test_certify_motivating(motivating_a, motivating_b):
    verdict = manipulability.certify(motivating_a, motivating_b)
    assert isinstance(verdict, ManipulabilityVerdict)
    assert not verdict.manipulable
    assert abs(verdict.lp_optimal_value) <= 1e-6
    assert verdict.method == "Both"
    assert verdict.dpv_found is False
    assert verdict.witness is None
    assert verdict.induced_attack is None


def test_verdict_method_is_read_off_the_null_space_search():
    base = dict(manipulable=False, lp_optimal_value=0.0, witness=None, induced_attack=None)
    assert ManipulabilityVerdict(**base, dpv_found=False).method == "Both"
    assert ManipulabilityVerdict(**base, dpv_found=None).method == "Algorithm1"
    with pytest.raises(TypeError):
        ManipulabilityVerdict(**base, method="Both", dpv_found=None)


def test_certify_higher_order(higher_a, higher_b):
    # B is 4x5 with a nontrivial right null space, so the null-space search
    # is not authoritative and only the linear program decides.
    verdict = manipulability.certify(higher_a, higher_b)
    assert not verdict.manipulable
    assert verdict.method == "Algorithm1"
    assert verdict.dpv_found is None


def test_certify_counter_example(higher_a, counter_b):
    # counter_b annihilates (0,1,1,-1,-1), so its rank is 4 < 5 and the
    # null-space search is skipped here as well.
    verdict = manipulability.certify(higher_a, counter_b)
    assert verdict.manipulable
    assert verdict.lp_optimal_value == pytest.approx(3.0, abs=1e-6)
    assert verdict.method == "Algorithm1"
    assert verdict.witness is not None
    _assert_valid_witness(verdict.witness, higher_a, counter_b)
    phi = verdict.induced_attack
    assert phi is not None
    assert is_column_stochastic(phi, 1e-9)
    assert stochcore.l1_norm(phi - np.eye(5)) > 0.0
    # the induced attack is observation-equivalent to an honest relay
    assert stochcore.l1_norm(counter_b @ phi @ higher_a - counter_b @ higher_a) <= 1e-6


def test_null_space_search_runs_exactly_when_b_has_full_column_rank(
    monkeypatch, motivating_a, higher_a, higher_b
):
    # a tall B of full column rank has a trivial right null space as a
    # square one does, so the search runs; a B with fewer rows than |U|
    # cannot reach rank |U|, and certify does not compute its rank
    honest = manipulability.rank
    ranked = []

    def recording(m):
        ranked.append(np.shape(m))
        return honest(m)

    monkeypatch.setattr(manipulability, "rank", recording)
    tall = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.5]])
    verdict = manipulability.certify(motivating_a, tall)
    assert (verdict.manipulable, verdict.method, verdict.dpv_found) == (False, "Both", False)
    assert tall.shape in ranked
    ranked.clear()
    assert manipulability.certify(higher_a, higher_b).method == "Algorithm1"
    assert ranked == []


def test_certify_disagreement_with_null_space_search_raises(
    motivating_a, motivating_b, monkeypatch
):
    monkeypatch.setattr(
        manipulability, "dpv_search_algorithm2", lambda a: "found"
    )
    with pytest.raises(ConsistencyFailure):
        manipulability.certify(motivating_a, motivating_b)


def test_certify_disagreement_with_witness_search_raises(
    higher_a, counter_b, monkeypatch
):
    monkeypatch.setattr(manipulability, "find_witness", lambda a, b: None)
    with pytest.raises(ConsistencyFailure):
        manipulability.certify(higher_a, counter_b)


# ---------- property suites ----------


def _random_channel(rng, size_u, size_x1, size_y1):
    # column-stochastic draws: symmetric Dirichlet(1) per column
    a = rng.dirichlet(np.ones(size_u), size=size_x1).T
    b = rng.dirichlet(np.ones(size_y1), size=size_u).T
    return a, b


def test_property_lp_verdict_matches_witness_search():
    rng = np.random.default_rng(20260816)
    verdicts = {True: 0, False: 0}
    for _ in range(100):
        size_u = int(rng.integers(2, 6))
        size_x1 = int(rng.integers(1, size_u + 1))
        size_y1 = int(rng.integers(1, 6))
        a, b = _random_channel(rng, size_u, size_x1, size_y1)
        _, manipulable = manipulability.check_algorithm1(a, b)
        upsilon = manipulability.find_witness(a, b)
        assert manipulable == (upsilon is not None)
        verdicts[manipulable] += 1
        if upsilon is None:
            continue
        _assert_valid_witness(upsilon, a, b)
        phi = manipulability.witness_to_attack(upsilon)
        assert is_column_stochastic(phi, 1e-9)
        assert stochcore.l1_norm(phi - np.eye(size_u)) > 0.0
        assert stochcore.l1_norm(b @ phi @ a - b @ a) <= 1e-6
    # the sweep must exercise both outcomes to mean anything
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_blands_rule_gives_the_same_certificates(
    monkeypatch, motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    # the witness LPs have an all-zero right-hand side, so their pivots are
    # degenerate: with no stall allowance Bland's rule engages at once
    rng = np.random.default_rng(20260816)  # the witness-search property channels
    channels = [(motivating_a, motivating_b), (higher_a, higher_b), (higher_a, counter_b)]
    for _ in range(100):
        size_u = int(rng.integers(2, 6))
        size_x1 = int(rng.integers(1, size_u + 1))
        size_y1 = int(rng.integers(1, 6))
        channels.append(_random_channel(rng, size_u, size_x1, size_y1))
    dantzig = [manipulability.certify(a, b) for a, b in channels]
    monkeypatch.setattr(lpkernel, "_STALL_LIMIT", 0)
    lpkernel._phase_one.cache_clear()  # no phase 1 pivoted by Dantzig's rule is reused
    for (a, b), expected in zip(channels, dantzig):
        verdict = manipulability.certify(a, b)
        assert verdict.manipulable == expected.manipulable
        assert verdict.lp_optimal_value == pytest.approx(expected.lp_optimal_value, abs=1e-9)
    assert 0 < sum(v.manipulable for v in dantzig) < len(channels)


def test_property_lp_verdict_matches_null_space_search():
    # full-rank square B: the null-space search is authoritative and must
    # agree with the linear program on every draw
    rng = np.random.default_rng(20260817)
    verdicts = {True: 0, False: 0}
    checked = 0
    while checked < 100:
        size_u = int(rng.integers(2, 6))
        size_x1 = int(rng.integers(1, size_u + 1))
        a, b = _random_channel(rng, size_u, size_x1, size_u)
        if np.linalg.matrix_rank(b) < size_u:
            continue
        checked += 1
        _, manipulable = manipulability.check_algorithm1(a, b)
        found = manipulability.dpv_search_algorithm2(a) == "found"
        assert manipulable == found
        verdicts[manipulable] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


# ---------- one phase 1 per witness polytope ----------


def _sweep_channels(count, seed):
    """Adder channels drawn as the certify benchmark draws them.

    The second source is uniform, each column of B is a multinomial draw of
    10 over the downlink symbols divided by 10, and every other channel has
    two equal columns of B (so the relay can swap those symbols unseen).
    """
    rng = np.random.default_rng(seed)
    sizes = ((2, 2), (2, 3), (3, 2), (3, 3))
    channels = []
    while len(channels) < count:
        x1_size, x2_size = sizes[int(rng.integers(len(sizes)))]
        a = marginalize_mac(MacModel.adder(x1_size, x2_size), np.full(x2_size, 1 / x2_size))
        size_u = a.shape[0]
        size_y1 = size_u + int(rng.integers(-1, 2))
        b = rng.multinomial(10, np.full(size_y1, 1 / size_y1), size=size_u).T / 10
        channels.append((a, b))
        j, k = rng.choice(size_u, size=2, replace=False)
        b = b.copy()
        b[:, k] = b[:, j]
        channels.append((a, b))
    return channels


def _witness_programs(a, b):
    """find_witness's per-symbol LPs over the deviation polytope of (A, B)."""
    size_u = a.shape[0]
    a_eq, b_eq, bounds = manipulability._deviation_polytope(a, b)
    programs = []
    for k in range(size_u):
        c = np.zeros(size_u * size_u)
        c[k * size_u + k] = -1.0
        programs.append(LpProblem(objective=c, a_eq=a_eq, b_eq=b_eq, bounds=bounds))
    return programs


def test_remembered_phase_one_gives_the_fresh_outcomes(
    monkeypatch, motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    # the slow reference clears the memo before every solve; the memoized
    # solves run in symbol order and in reverse, so a cached basis that a
    # phase 2 corrupted would change a later outcome. certify, whose
    # Algorithm 1 LP dominates its cost, is compared on every third channel
    channels = [(motivating_a, motivating_b), (higher_a, higher_b), (higher_a, counter_b)]
    channels += _sweep_channels(200, 20261018)
    manipulable = 0
    for index, (a, b) in enumerate(channels):
        programs = _witness_programs(a, b)
        fresh = []
        for p in programs:
            lpkernel._phase_one.cache_clear()
            fresh.append(solve_lp(p))
        lpkernel._phase_one.cache_clear()
        assert [solve_lp(p) for p in programs] == fresh
        lpkernel._phase_one.cache_clear()
        assert [solve_lp(p) for p in reversed(programs)] == fresh[::-1]
        if index >= 3 and index % 3:
            continue
        verdict = manipulability.certify(a, b)
        with monkeypatch.context() as patch:
            patch.setattr(lpkernel, "_phase_one", lpkernel._phase_one.__wrapped__)
            assert manipulability.certify(a, b) == verdict
        manipulable += verdict.manipulable
    assert 0 < manipulable < len(channels)


def test_certify_builds_one_standard_form_per_polytope(monkeypatch, higher_a, higher_b):
    # the witness LPs are objective siblings of one program, so they share
    # its standard form: one for Algorithm 1's LP, one for the deviation
    # polytope, although fig5a's channel runs all five witness LPs
    built = []

    class Counting(lpkernel._StandardForm):
        def __init__(self, p):
            built.append(p.objective.size)
            super().__init__(p)

    monkeypatch.setattr(lpkernel, "_StandardForm", Counting)
    assert not manipulability.certify(higher_a, higher_b).manipulable
    assert built == [2 * 5 + 3 * 4, 5 * 5]  # (lambda, nu, Omega), then Y


def test_certify_checks_each_fresh_array_once_and_an_issued_one_never(
    full_checks, higher_a, higher_b
):
    # certify used to check A four times and B three times: itself, then
    # check_algorithm1, find_witness and the null-space search
    assert not manipulability.certify(higher_a, higher_b).manipulable
    assert full_checks == ["A", "B"]
    scenario = harness.preset_curves("fig5a")["phi1"]
    full_checks.clear()
    assert not manipulability.certify(scenario.uplink_matrix(), scenario.b).manipulable
    assert full_checks == []


def test_certify_runs_one_phase_one_per_polytope(higher_a, higher_b):
    # fig5a's channel is not manipulable, so every one of its |U| = 5
    # witness LPs runs, all over one deviation polytope
    lpkernel._phase_one.cache_clear()
    assert manipulability.find_witness(higher_a, higher_b) is None
    assert lpkernel._phase_one.cache_info()[:2] == (4, 1)  # hits, misses
    lpkernel._phase_one.cache_clear()
    assert not manipulability.certify(higher_a, higher_b).manipulable
    # one phase 1 for Algorithm 1 and one for the witness polytope
    assert lpkernel._phase_one.cache_info()[:2] == (4, 2)
