"""Oracle tests for the histogram/estimator/decision detection pipeline."""

import collections
import dataclasses

import numpy as np
import pytest

from conftest import assert_frozen, is_column_stochastic
from relay_sentinel import channelmodel, detector, lpkernel, numlinalg, stochcore
from relay_sentinel.channelmodel import MacModel
from relay_sentinel.detector import DetectorConfig
from relay_sentinel.harness import preset, preset_curves, run_experiment, run_trial, trial_traces


def test_conditional_histogram_hand_counted():
    x1 = np.array([0, 0, 1, 0])
    y1 = np.array([0, 1, 0, 0])
    gamma_hat, unseen = detector.conditional_histogram(x1, y1, x1_size=2, y1_size=2)
    np.testing.assert_allclose(gamma_hat[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(gamma_hat[:, 1], [1.0, 0.0], atol=1e-15)
    assert unseen == []


def test_conditional_histogram_constant_traces():
    x1 = np.zeros(5, dtype=int)
    y1 = np.zeros(5, dtype=int)
    gamma_hat, unseen = detector.conditional_histogram(x1, y1, x1_size=3, y1_size=2)
    np.testing.assert_allclose(gamma_hat[:, 0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(gamma_hat[:, 1], [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(gamma_hat[:, 2], [0.5, 0.5], atol=1e-15)
    assert unseen == [1, 2]


def test_conditional_histogram_length_mismatch():
    with pytest.raises(ValueError):
        detector.conditional_histogram(np.array([0, 1]), np.array([0]), 2, 2)


@pytest.mark.parametrize(
    "x1, y1, message",
    [
        (
            [0, 1, 0, 1, 2],
            [0, 1, 1, 2, 0],
            "x1 symbol 2 is outside the alphabet of size 2",
        ),
        (
            [0, 1, 0, 1, 0],
            [0, 1, 1, 2, 3],
            "y1 symbol 3 is outside the alphabet of size 3",
        ),
        (
            [0, 1, -1, 1, 0],
            [0, 1, 1, 2, 0],
            "x1 symbol -1 is outside the alphabet of size 2",
        ),
    ],
)
def test_out_of_alphabet_symbols_rejected(motivating_a, x1, y1, message):
    # before the check, x1 = 2 was counted in cell (y1 = 1, x1 = 0) and
    # x1 = -1 beside y1 = 1 in cell (y1 = 0, x1 = 1)
    x1, y1 = np.array(x1), np.array(y1)
    with pytest.raises(ValueError, match=message):
        detector.conditional_histogram(x1, y1, 2, 3)
    config = DetectorConfig(a=motivating_a, b=np.eye(3), mu=0.1, delta=0.065)
    with pytest.raises(ValueError, match=message):
        detector.run_detection(config, x1, y1)


@pytest.mark.parametrize(
    "x1, message",
    [
        (np.zeros((5, 2), int), r"^x1 trace must be one-dimensional, got shape \(5, 2\)$"),
        (np.int64(0), r"^x1 trace must be one-dimensional, got shape \(\)$"),
    ],
    ids=["2-D", "0-D"],
)
def test_run_detection_names_a_trace_that_is_not_one_dimensional(x1, message):
    config = preset("fig3a").detector_config
    with pytest.raises(ValueError, match=message):
        detector.run_detection(config, x1, np.zeros(np.size(x1), int))


def test_run_detection_is_the_count_core_on_the_trace_pairs_counts():
    scenario = preset("fig5a")
    config, (x1, y1) = scenario.detector_config, trial_traces(scenario, 0)[:2]
    counts = stochcore.joint_counts((y1, x1), (4, 3), ("y1", "x1"))
    assert detector.run_detection_on_counts(config, counts) == detector.run_detection(config, x1, y1)
    with pytest.raises(ValueError, match=r"^counts have shape \(3, 4\), expected \(4, 3\)$"):
        detector.run_detection_on_counts(config, counts.T)


@pytest.mark.parametrize(
    "counts, message",
    [
        # a negative cell used to give a gamma_hat entry of -0.002 and "clean"
        ([[5000, -10], [0, 5000], [0, 10]], r"^counts\[0\]\[1\]: entry -10 is negative$"),
        (np.array([[5000, 0], [0, 5000], [0, 10]], float), "^counts must be integers, got dtype float64$"),
        (np.array([[1, 0], [0, 1], [0, 1]], bool), "^counts must be integers, got dtype bool$"),
        (np.zeros((3, 2), int), "^counts hold no observation$"),
        (np.ones((2, 3), int), r"^counts have shape \(2, 3\), expected \(3, 2\)$"),
    ],
    ids=["negative", "float", "bool", "empty", "shape"],
)
def test_run_detection_on_counts_rejects_a_bad_count_table(counts, message):
    config = preset("fig3b").detector_config
    with pytest.raises(ValueError, match=message):
        detector.run_detection_on_counts(config, counts)


def test_float_trace_is_rejected_by_name():
    # a float trace used to leak NumPy's TypeError from np.bincount
    config = preset("fig3a").detector_config
    with pytest.raises(ValueError, match="^x1 symbols must be integers, got dtype float64$"):
        detector.run_detection(config, np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_conditional_histogram_converges_clean(motivating_a):
    mac = MacModel.adder(2, 2)
    half = np.array([0.5, 0.5])
    rng = np.random.default_rng(1234)
    x1, _, u = channelmodel.simulate_uplink(mac, half, half, 100_000, rng)
    y1 = channelmodel.simulate_downlink(np.eye(3), u, rng)
    gamma_hat, _ = detector.conditional_histogram(x1, y1, 2, 3)
    # realized deviation with this seed: 0.0128
    assert stochcore.l1_norm(gamma_hat - motivating_a) < 0.02


def test_estimate_attack_identity_channel():
    phi_hat, feasible = detector.estimate_attack(
        np.eye(2), np.eye(2), np.eye(2), mu=0.0
    )
    assert feasible
    np.testing.assert_allclose(phi_hat, np.eye(2), atol=1e-8)


def test_estimate_attack_motivating_exact_clean(motivating_a):
    phi_hat, feasible = detector.estimate_attack(
        motivating_a, motivating_a, np.eye(3), mu=0.0
    )
    assert feasible
    assert detector.decision_statistic(phi_hat) <= 1e-8


def test_estimate_attack_counter_example_exact(higher_a, counter_b):
    gamma = counter_b @ higher_a
    phi_hat, feasible = detector.estimate_attack(
        gamma, higher_a, counter_b, mu=0.0
    )
    assert feasible
    # I - Upsilon(1) is feasible with statistic 6; the optimum can only exceed it
    assert detector.decision_statistic(phi_hat) >= 6.0 - 1e-6
    assert is_column_stochastic(phi_hat, 1e-8)


def test_decision_statistic_and_verdict():
    assert detector.decision_statistic(np.eye(4)) == 0.0
    # phi_hat.shape was read before the conversion: AttributeError on a list
    assert detector.decision_statistic([[1, 0], [0, 1]]) == 0.0
    assert detector.decision_statistic([[0.5, 0.0], [0.5, 1.0]]) == 1.0
    assert detector.detect(0.0, 0.065) == "clean"
    assert detector.detect(0.07, 0.065) == "malicious"
    assert detector.detect(0.065, 0.065) == "clean"  # strict inequality


def test_estimate_attack_exact_clean_ball_optimum(motivating_a):
    # With exact clean data the worst-case consistent channel sits on the
    # slack-ball boundary.  For this channel the optimum has the closed form
    #   phi = I + mu * [[-1, 1, 0], [1, -1, 1], [0, 0, -1]]
    # (column sums preserved, entrywise deviation 6*mu, fit residual exactly
    # mu after the deviations cancel in the middle row).  Hand-checked
    # feasible; the solver must therefore report a statistic of 6*mu.
    for mu in (0.1, 0.05, 0.01):
        phi_hat, feasible = detector.estimate_attack(
            motivating_a, motivating_a, np.eye(3), mu=mu
        )
        assert feasible
        assert detector.decision_statistic(phi_hat) == pytest.approx(
            6.0 * mu, abs=1e-9
        )


def test_run_detection_report_consistency(motivating_a):
    # Worst-case-in-ball estimation inflates the statistic by ~6*mu even on
    # clean data (see test_estimate_attack_exact_clean_ball_optimum), so a
    # clean trace at mu=0.1 lands near 0.6 and is flagged at delta=0.065.
    # realized statistic with seed 500: 0.6177
    mac = MacModel.adder(2, 2)
    half = np.array([0.5, 0.5])
    rng = np.random.default_rng(500)
    x1, _, u = channelmodel.simulate_uplink(mac, half, half, 10_000, rng)
    y1 = channelmodel.simulate_downlink(np.eye(3), u, rng)
    config = DetectorConfig(a=motivating_a, b=np.eye(3), mu=0.1, delta=0.065)
    report = detector.run_detection(config, x1, y1)
    assert report.statistic == pytest.approx(
        stochcore.l1_norm(report.phi_hat - np.eye(3)), abs=1e-12
    )
    assert report.feasible
    assert 0.3 < report.statistic < 0.7
    assert report.verdict == detector.detect(report.statistic, config.delta)
    assert report.verdict == "malicious"
    assert report.residual <= config.mu + 1e-9
    assert report.unseen_x1_columns == []
    assert report.gamma_hat.shape == (3, 2)


def test_run_detection_reports_unseen_columns(motivating_a):
    x1 = np.zeros(50, dtype=int)
    y1 = np.zeros(50, dtype=int)
    config = DetectorConfig(a=motivating_a, b=np.eye(3), mu=0.5, delta=0.065)
    report = detector.run_detection(config, x1, y1)
    assert report.unseen_x1_columns == [1]


def test_infeasible_returns_identity():
    # A = B = I2, exact histogram far from any BPhiA reachable within mu=0
    gamma_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
    phi_hat, feasible = detector.estimate_attack(
        gamma_hat, np.eye(2), np.eye(2), mu=0.0
    )
    # the swap IS reachable: phi = antidiagonal; so this must be feasible
    assert feasible
    assert detector.decision_statistic(phi_hat) == pytest.approx(4.0, abs=1e-8)


def test_detector_config_validation(motivating_a):
    with pytest.raises(ValueError):
        DetectorConfig(a=motivating_a, b=np.eye(3), mu=-0.1, delta=0.065)
    with pytest.raises(ValueError):
        DetectorConfig(a=motivating_a, b=np.eye(4), mu=0.1, delta=0.065)


# faults of A, B and gamma_hat, which estimate_attack and g_mu_residual name alike
_HISTOGRAM_FAULTS = [
    ({"a": 2 * np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])}, r"^A\[\.\]\[0\]: column sums to 2"),
    ({"b": np.full((3, 3), 0.5)}, r"^B\[\.\]\[0\]: column sums to 1.5"),
    ({"b": np.eye(4)}, "^A and B disagree on the relay alphabet size"),
    ({"gamma_hat": np.full((3, 2), 0.5)}, r"^gamma_hat\[\.\]\[0\]: column sums to 1.5"),
    ({"gamma_hat": np.full((2, 2), 0.5)}, r"^gamma_hat has shape \(2, 2\), expected \(3, 2\)"),
]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"mu": -0.1}, "^mu must be nonnegative and finite, got -0.1"),
        ({"mu": np.inf}, "^mu must be nonnegative and finite"),
        ({"mu": np.nan}, "^mu must be nonnegative and finite"),
    ]
    + _HISTOGRAM_FAULTS,
)
def test_estimate_attack_rejects_bad_input_by_name(motivating_a, change, message):
    # mu = -0.1 and a column of A summing to 2 used to reach the LP and fail
    # as "LpFailure: noiseless estimator LP ended with status INFEASIBLE"
    args = {"gamma_hat": motivating_a, "a": motivating_a, "b": np.eye(3), "mu": 0.1, **change}
    with pytest.raises(ValueError, match=message):
        detector.estimate_attack(**args)


@pytest.mark.parametrize(
    "change, message",
    _HISTOGRAM_FAULTS
    + [
        ({"phi_hat": np.eye(2)}, r"^phi_hat has shape \(2, 2\), expected \(3, 3\)"),
        ({"phi_hat": np.ones(3)}, r"^phi_hat has shape \(3,\), expected \(3, 3\)"),
    ],
)
def test_g_mu_residual_rejects_bad_input_by_name(motivating_a, change, message):
    # A, B and gamma_hat are checked as estimate_attack checks them; phi_hat
    # only for its shape, since a candidate off the simplex is allowed
    args = {"phi_hat": np.eye(3), "gamma_hat": motivating_a, "a": motivating_a, "b": np.eye(3)}
    with pytest.raises(ValueError, match=message):
        detector.g_mu_residual(**{**args, **change})


@pytest.mark.parametrize("field", ["mu", "delta"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_detector_config_rejects_non_finite_parameters(motivating_a, field, value):
    # +inf used to pass and then fail inside the LP as "a_ub must be finite"
    params = {"mu": 0.1, "delta": 0.065, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        DetectorConfig(a=motivating_a, b=np.eye(3), **params)


def test_estimator_monotone_in_mu():
    rng = np.random.default_rng(808)
    for _ in range(50):
        u = int(rng.integers(2, 4))
        x1 = int(rng.integers(2, 4))
        y1 = int(rng.integers(2, 4))
        a = rng.dirichlet(np.ones(u), size=x1).T
        b = rng.dirichlet(np.ones(y1), size=u).T
        gamma_hat = rng.dirichlet(np.ones(y1), size=x1).T
        mu = float(rng.uniform(0.02, 0.3))
        phi_small, feas_small = detector.estimate_attack(gamma_hat, a, b, mu)
        phi_big, feas_big = detector.estimate_attack(gamma_hat, a, b, 2 * mu)
        if feas_small:
            assert feas_big
            assert (
                detector.decision_statistic(phi_big)
                >= detector.decision_statistic(phi_small) - 1e-9
            )


def test_feasibility_guarantee_clean_run(motivating_a):
    mac = MacModel.adder(2, 2)
    half = np.array([0.5, 0.5])
    rng = np.random.default_rng(606)
    x1, _, u = channelmodel.simulate_uplink(mac, half, half, 10_000, rng)
    y1 = channelmodel.simulate_downlink(np.eye(3), u, rng)
    gamma_hat, _ = detector.conditional_histogram(x1, y1, 2, 3)
    residual = detector.g_mu_residual(
        np.eye(3), gamma_hat, motivating_a, np.eye(3)
    )
    assert residual <= 0.2  # identity attack is a member of G_0.2 here
    _, feasible = detector.estimate_attack(gamma_hat, motivating_a, np.eye(3), 0.2)
    assert feasible


def test_g_mu_residual_is_infinite_when_no_histogram_reproduces_phi_hat():
    # B = I3 and A of full column rank make Pi_B and Pi_A identities, so
    # gamma_tilde would have to equal B phi_hat A, which has the entry -0.1
    a = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    phi_hat = np.array([[1.2, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.2, 0.0, 1.0]])
    assert (phi_hat @ a)[2, 0] == pytest.approx(-0.1, abs=1e-15)
    assert detector.g_mu_residual(phi_hat, a, a, np.eye(3)) == np.inf


def _epigraph_g_mu_residual(phi_hat, gamma_hat, a, b):
    """The membership slack as one LP over (gamma_tilde, t): minimize sum(t)
    subject to gamma_tilde's column sums, Pi_B gamma_tilde Pi_A = B phi_hat A
    and |Pi_B gamma_tilde Pi_A - Pi_B gamma_hat Pi_A| <= t entrywise."""
    y1, x1 = b.shape[0], a.shape[1]
    pi_b = numlinalg.column_space_projector(b)
    pi_a = numlinalg.row_space_projector(a)
    n_g = y1 * x1
    project = np.kron(pi_b, pi_a.T)
    target = (pi_b @ gamma_hat @ pi_a).ravel()
    a_eq = np.zeros((x1 + n_g, 2 * n_g))
    a_eq[:x1, :n_g] = np.kron(np.ones((1, y1)), np.eye(x1))
    a_eq[x1:, :n_g] = project
    a_ub = np.zeros((2 * n_g, 2 * n_g))
    a_ub[:n_g, :n_g] = project
    a_ub[n_g:, :n_g] = -project
    a_ub[:, n_g:] = -np.vstack([np.eye(n_g), np.eye(n_g)])
    outcome = lpkernel.solve_lp(
        lpkernel.LpProblem(
            objective=np.concatenate([np.zeros(n_g), np.ones(n_g)]),
            a_eq=a_eq,
            b_eq=np.concatenate([np.ones(x1), (b @ phi_hat @ a).ravel()]),
            a_ub=a_ub,
            b_ub=np.concatenate([target, -target]),
        )
    )
    if outcome.status is lpkernel.LpStatus.INFEASIBLE:
        return np.inf
    assert outcome.status is lpkernel.LpStatus.OPTIMAL
    return float(outcome.value)


def test_g_mu_residual_matches_the_epigraph_lp():
    # every gamma_tilde with Pi_B gamma_tilde Pi_A = B phi_hat A has the
    # same slack, so the LP only decides that one exists. Square channels
    # have identity projectors; |Y1| = 3 > |U| and |X1| = 3 > |U| do not.
    # The grid reaches past the simplex, so some candidates have no
    # gamma_tilde at all.
    rng = np.random.default_rng(20260818)
    grid = np.linspace(-0.2, 1.2, 8)
    decisions = collections.Counter()
    for y1_size, x1_size in ((2, 2), (2, 2), (2, 2), (3, 2), (2, 3), (3, 3)):
        a = rng.dirichlet(np.ones(2), size=x1_size).T
        b = rng.dirichlet(np.ones(y1_size), size=2).T
        gamma_hat = b @ rng.dirichlet(np.ones(2), size=2).T @ a
        mu = 0.2
        for c0 in grid:
            for c1 in grid:
                candidate = np.array([[c0, c1], [1.0 - c0, 1.0 - c1]])
                slack = detector.g_mu_residual(candidate, gamma_hat, a, b)
                oracle = _epigraph_g_mu_residual(candidate, gamma_hat, a, b)
                assert (slack <= mu + 1e-6) == (oracle <= mu + 1e-6)
                assert slack == oracle or abs(slack - oracle) <= 1e-12
                decisions["none" if slack == np.inf else slack <= mu + 1e-6] += 1
    assert sum(decisions.values()) == 384
    assert decisions[True] and decisions[False] and decisions["none"]


def test_g_mu_membership_of_returned_estimate():
    rng = np.random.default_rng(909)
    for _ in range(25):
        u, x1, y1 = 3, 2, 3
        a = rng.dirichlet(np.ones(u), size=x1).T
        b = rng.dirichlet(np.ones(y1), size=u).T
        gamma_hat = rng.dirichlet(np.ones(y1), size=x1).T
        mu = float(rng.uniform(0.05, 0.4))
        phi_hat, feasible = detector.estimate_attack(gamma_hat, a, b, mu)
        if feasible:
            assert is_column_stochastic(phi_hat, 1e-8)
            assert detector.g_mu_residual(phi_hat, gamma_hat, a, b) <= mu + 1e-6


def test_clean_data_floor_binary_adder(motivating_a, binary_floor_upsilon):
    # The farthest-point estimator cannot report less than 6 * (mu - r) on a
    # clean trace with histogram residual r: I + (mu - r) * Upsilon stays in
    # G_mu. Both projectors are identities here (B = I3, A has full column
    # rank), so r = l1(gamma_hat - A).
    mac = MacModel.adder(2, 2)
    half = np.array([0.5, 0.5])
    binding = 0  # traces on which the floor is positive
    for mu in (0.01, 0.05, 0.1):
        witness = np.eye(3) + mu * binary_floor_upsilon
        assert is_column_stochastic(witness, 1e-12)
        assert detector.g_mu_residual(
            witness, motivating_a, motivating_a, np.eye(3)
        ) == pytest.approx(mu, abs=1e-12)
        assert detector.decision_statistic(witness) == pytest.approx(6.0 * mu, abs=1e-12)
        phi_hat, feasible = detector.estimate_attack(
            motivating_a, motivating_a, np.eye(3), mu
        )
        assert feasible
        assert detector.decision_statistic(phi_hat) >= 6.0 * mu - 1e-9
        config = DetectorConfig(a=motivating_a, b=np.eye(3), mu=mu, delta=0.065)
        for seed in (11, 12, 13):
            rng = np.random.default_rng(seed)
            x1, _, u = channelmodel.simulate_uplink(mac, half, half, 1_000, rng)
            y1 = channelmodel.simulate_downlink(np.eye(3), u, rng)
            report = detector.run_detection(config, x1, y1)
            r = stochcore.l1_norm(report.gamma_hat - motivating_a)
            assert report.statistic >= 6.0 * (mu - r) - 1e-9
            binding += r < mu
    assert binding > 0


# ---------- the compiled, warm-started estimator against the cold solve ----------


def _original_program(gamma_hat, a, b, mu):
    """The estimator LP as first written, over (vec phi, vec gamma_tilde, t).

    gamma_tilde is column-stochastic with Pi_B gamma_tilde Pi_A = B phi A,
    and l1(Pi_B gamma_tilde Pi_A - Pi_B gamma_hat Pi_A) <= mu through t. The
    package drops the gamma_tilde block (gamma_tilde = B phi A always
    completes it), so this assembly is an oracle that shares none of it.
    """
    u, (y1, x1) = a.shape[0], gamma_hat.shape
    pi_b = numlinalg.column_space_projector(b)
    pi_a = numlinalg.row_space_projector(a)
    n_phi, n_g = u * u, y1 * x1
    project = np.kron(pi_b, pi_a.T)
    target = (pi_b @ gamma_hat @ pi_a).ravel()
    objective = np.zeros(n_phi + 2 * n_g)
    objective[: n_phi : u + 1] = 1.0
    a_eq = np.zeros((u + x1 + n_g, n_phi + 2 * n_g))
    a_eq[:u, :n_phi] = np.kron(np.ones((1, u)), np.eye(u))
    a_eq[u : u + x1, n_phi : n_phi + n_g] = np.kron(np.ones((1, y1)), np.eye(x1))
    a_eq[u + x1 :, :n_phi] = np.kron(b, a.T)
    a_eq[u + x1 :, n_phi : n_phi + n_g] = -project
    b_eq = np.concatenate([np.ones(u + x1), np.zeros(n_g)])
    a_ub = np.zeros((2 * n_g + 1, n_phi + 2 * n_g))
    a_ub[:n_g, n_phi : n_phi + n_g] = project
    a_ub[n_g : 2 * n_g, n_phi : n_phi + n_g] = -project
    a_ub[: 2 * n_g, n_phi + n_g :] = -np.vstack([np.eye(n_g), np.eye(n_g)])
    a_ub[-1, n_phi + n_g :] = 1.0
    b_ub = np.concatenate([target, -target, [mu]])
    return lpkernel.LpProblem(objective=objective, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def test_compiled_estimator_rows_match_kron():
    # the estimator's phi blocks come from numlinalg.vec_operator; an np.kron
    # assembly is the oracle, byte for byte, on every preset curve's channel
    for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b"):
        for scenario in preset_curves(name).values():
            a, b = scenario.uplink_matrix(), scenario.b
            u, n_g = a.shape[0], b.shape[0] * a.shape[1]
            n_phi = u * u
            program = detector._compile(a, b, scenario.mu)[0].problem
            a_eq = np.zeros((u, n_phi + n_g))
            a_eq[:, :n_phi] = np.kron(np.ones((1, u)), np.eye(u))
            a_ub = np.zeros((2 * n_g + 1, n_phi + n_g))
            a_ub[:n_g, :n_phi] = np.kron(b, a.T)
            a_ub[n_g : 2 * n_g, :n_phi] = -np.kron(b, a.T)
            a_ub[: 2 * n_g, n_phi:] = -np.vstack([np.eye(n_g), np.eye(n_g)])
            a_ub[-1, n_phi:] = 1.0
            assert program.a_eq.tobytes() == a_eq.tobytes(), name
            assert program.a_ub.tobytes() == a_ub.tobytes(), name


def _cold_detection(config, gamma_hat):
    """(statistic, feasible) by a cold solve of the original (phi, gamma_tilde, t) LP."""
    outcome = lpkernel.solve_lp(_original_program(gamma_hat, config.a, config.b, config.mu))
    if outcome.status is not lpkernel.LpStatus.OPTIMAL:
        return 0.0, False
    u = config.a.shape[0]
    return detector.decision_statistic(outcome.solution[: u * u].reshape(u, u)), True


def _check_against_oracle(config, report):
    """Feasibility and D equal to the original LP; the residual is phi_hat's G_mu slack."""
    statistic, feasible = _cold_detection(config, report.gamma_hat)
    assert report.feasible == feasible
    # a degenerate optimum (D = 2|U|) may sit at another vertex, so phi_hat's
    # bits are not compared, only D and membership
    assert abs(report.statistic - statistic) <= 1e-9
    if feasible:
        slack = detector.g_mu_residual(report.phi_hat, report.gamma_hat, config.a, config.b)
        assert abs(report.residual - slack) <= 1e-9
        assert report.residual <= config.mu + 1e-9


def _warm_agrees_with_cold(scenarios, trials):
    """Checks every trial; returns (trials, infeasible, LpOutcome.path counts)."""
    seen = infeasible = 0
    paths = collections.Counter()
    for scenario in scenarios:
        config = DetectorConfig(
            a=scenario.uplink_matrix(), b=scenario.b, mu=scenario.mu, delta=scenario.delta
        )
        for trial in trials:
            x1, y1, _, _ = trial_traces(scenario, trial)
            report = detector.run_detection(config, x1, y1)
            _check_against_oracle(config, report)
            if report.lp_path in ("start", "dual"):
                assert (report.lp_pivots > 0) == (report.lp_path == "dual")
            seen += 1
            infeasible += not report.feasible
            paths[report.lp_path] += 1
    return seen, infeasible, paths


def test_warm_estimator_matches_cold_on_every_preset_curve():
    scenarios = [
        scenario
        for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b")
        for scenario in preset_curves(name).values()
    ]
    seen, infeasible, paths = _warm_agrees_with_cold(scenarios, range(10))
    assert (seen, infeasible) == (220, 0)
    # every trial is answered from the compiled restart, none cold
    assert paths["start"] + paths["dual"] == 220, paths


def test_warm_estimator_matches_cold_with_infeasible_trials():
    # fig5b at N = 1e4 leaves G_mu empty on about 6 % of its trials; a
    # verified Farkas ray answers every one of them, with no cold fallback
    scenarios = [
        dataclasses.replace(scenario, n=10_000) for scenario in preset_curves("fig5b").values()
    ]
    seen, infeasible, paths = _warm_agrees_with_cold(scenarios, range(50))
    assert seen == 100 and infeasible >= 3
    assert paths["farkas"] == infeasible and paths["cold"] == 0, paths


@pytest.mark.parametrize("name", ["fig3a", "fig5a", "fig5b"])
def test_one_trial_looks_the_estimator_up_once_and_solves_over_phi_and_t(monkeypatch, name):
    scenario = preset(name)
    a, b = scenario.uplink_matrix(), scenario.b
    (u, x1_size), y1_size = a.shape, b.shape[0]
    lookups, problems = [], []
    compiled, solve = detector._compile, detector.solve_lp
    monkeypatch.setattr(detector, "_compile", lambda *args: lookups.append(args) or compiled(*args))
    monkeypatch.setattr(detector, "solve_lp", lambda p, r: problems.append(p) or solve(p, r))
    run_trial(scenario, 0)
    assert len(lookups) == 1 and len(problems) == 1
    (problem,) = problems
    assert problem.objective.size == u * u + y1_size * x1_size
    assert problem.a_eq.shape[0] == u
    assert problem.a_ub.shape[0] == 2 * y1_size * x1_size + 1


@pytest.mark.parametrize("name, floor", [("fig3b", 0.6), ("fig5a", 1114 / 49 * 0.05)])
def test_noiseless_floor_is_the_statistic_on_ba(name, floor):
    scenario = preset(name)
    a, b = scenario.uplink_matrix(), scenario.b
    config = DetectorConfig(a=a, b=b, mu=scenario.mu, delta=scenario.delta)
    x1, y1, _, _ = trial_traces(scenario, 0)
    report = detector.run_detection(config, x1, y1)
    phi_hat, feasible = detector.estimate_attack(b @ a, a, b, scenario.mu)
    assert feasible
    assert abs(report.noiseless_floor - detector.decision_statistic(phi_hat)) <= 1e-12
    assert report.noiseless_floor == pytest.approx(floor, abs=1e-9)


def test_results_do_not_depend_on_what_the_caches_hold():
    scenario = dataclasses.replace(preset("fig5b"), n=10_000, trials=5)
    detector._compile.cache_clear()
    numlinalg._projector.cache_clear()
    alone = run_trial(scenario, 3)
    detector._compile.cache_clear()
    numlinalg._projector.cache_clear()
    for other in ("fig3a", "fig5a"):
        run_trial(dataclasses.replace(preset(other), n=1_000), 0)
    assert run_experiment(scenario)[3] == alone
    assert run_trial(scenario, 3) == alone


def test_estimator_matches_the_original_lp_on_random_channels():
    # Every preset's A has full column rank (Pi_A = I); these channels also
    # exercise Pi_A != I and Pi_B != I, where gamma_tilde's block differed
    # most from B phi A
    rng = np.random.default_rng(7)
    projected = feasible = 0
    for case in range(200):
        u, x1_size, y1_size = (int(k) for k in rng.integers(2, [5, 5, 6]))
        a = rng.dirichlet(np.ones(u), size=x1_size).T
        b = rng.dirichlet(np.ones(y1_size), size=u).T
        if case % 4 == 0:
            b[:, 1] = b[:, 0]  # two relay symbols the destination cannot tell apart
        mu = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
        config = DetectorConfig(a=a, b=b, mu=mu, delta=0.1)
        x1 = rng.integers(0, x1_size, size=400)
        columns = np.cumsum(b @ a, axis=0)[:, x1]
        y1 = np.minimum((rng.random(x1.size) > columns).sum(axis=0), y1_size - 1)
        report = detector.run_detection(config, x1, y1)
        _check_against_oracle(config, report)
        projected += not (
            np.allclose(numlinalg.row_space_projector(a), np.eye(x1_size))
            and np.allclose(numlinalg.column_space_projector(b), np.eye(y1_size))
        )
        feasible += report.feasible
    assert projected >= 200 / 3
    assert 0 < feasible < 200


def test_no_caller_can_poison_the_projectors_every_detection_shares():
    # the projector memo is process-wide: were a projector writable, one
    # caller's write would change every later detection on that channel
    config = preset("fig3a").detector_config
    counts = np.array([[300, 0], [200, 250], [0, 250]])
    before = detector.run_detection_on_counts(config, counts).statistic
    assert before == pytest.approx(0.8, abs=1e-12)
    for projector in (numlinalg.column_space_projector(config.b), numlinalg.row_space_projector(config.a)):
        assert_frozen(projector)
    assert detector.run_detection_on_counts(config, counts).statistic == before
