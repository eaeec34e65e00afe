"""Tests for the seeded Monte Carlo experiment harness.

Oracles: identity attacks leave traces untouched (truth_stat and
changed_fraction exactly zero); an i.i.d. 1%-switch attack at N=10^5
concentrates the per-trace deviation near its generating value 0.06 and
the changed-symbol fraction near 0.01; CDF/error-rate/KS helpers are
checked against tiny hand-computed samples.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import counter_upsilon
from relay_sentinel import channelmodel, detector, harness, stochcore
from relay_sentinel.attackmodel import AttackSpec, extract_attack_channel
from relay_sentinel.cli import scenario_hash
from relay_sentinel.channelmodel import AlphabetReductionError, MacModel
from relay_sentinel.detector import DetectorConfig, run_detection
from relay_sentinel.harness import (
    DESK_TRIALS,
    Scenario,
    TrialResult,
    empirical_cdf,
    error_rates,
    ks_statistic,
    preset,
    preset_curves,
    run_experiment,
    run_trial,
    score_trial,
    trial_counts,
    trial_seed,
    trial_traces,
)
from relay_sentinel.lpkernel import LpOutcome, LpProblem, LpStatus, solve_lp
from relay_sentinel.manipulability import certify
from relay_sentinel.numlinalg import rref


def binary_adder_scenario(**overrides):
    base = dict(
        p1=np.array([0.5, 0.5]),
        p2=np.array([0.5, 0.5]),
        mac=MacModel.adder(2, 2),
        b=np.eye(3),
        attack=AttackSpec(),
        n=1_000,
        mu=0.2,
        delta=0.065,
        trials=3,
        master_seed=20240501,
    )
    base.update(overrides)
    return Scenario(**base)


# ---------- Scenario / TrialResult validation ----------


def test_scenario_rejects_bad_counts():
    with pytest.raises(ValueError):
        binary_adder_scenario(n=0)
    with pytest.raises(ValueError):
        binary_adder_scenario(trials=0)
    with pytest.raises(ValueError):
        binary_adder_scenario(mu=0.0)
    with pytest.raises(ValueError):
        binary_adder_scenario(mu=-0.1)


def test_scenario_rejects_bad_ingredients():
    with pytest.raises(ValueError):
        binary_adder_scenario(p1=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        binary_adder_scenario(p2=np.array([0.25, 0.25, 0.5]))
    bad_b = np.eye(3)
    bad_b[0, 0] = 0.9
    with pytest.raises(ValueError):
        binary_adder_scenario(b=bad_b)
    with pytest.raises(ValueError):
        binary_adder_scenario(b=np.eye(4))
    with pytest.raises(ValueError):
        binary_adder_scenario(attack=AttackSpec(np.eye(4)))


def test_trial_result_validates():
    good = dict(
        trial_index=0,
        statistic=0.1,
        truth_stat=0.0,
        feasible=True,
        changed_fraction=0.0,
    )
    TrialResult(**good)
    with pytest.raises(ValueError):
        TrialResult(**{**good, "statistic": -0.1})
    with pytest.raises(ValueError):
        TrialResult(**{**good, "statistic": float("nan")})
    with pytest.raises(ValueError):
        TrialResult(**{**good, "truth_stat": -1e-3})
    with pytest.raises(ValueError):
        TrialResult(**{**good, "changed_fraction": 1.5})
    with pytest.raises(ValueError):
        TrialResult(**{**good, "trial_index": -1})


# ---------- run_trial ----------


def test_run_trial_scores_the_traces_of_its_trial():
    scenario = binary_adder_scenario(attack=AttackSpec(preset("fig3a").attack.phi))
    for index in range(3):
        traces = trial_traces(scenario, index)
        assert run_trial(scenario, index) == score_trial(scenario, index, *traces)


def test_run_trial_identity_attack():
    scenario = binary_adder_scenario()
    result = run_trial(scenario, 5)
    assert result.trial_index == 5
    assert result.truth_stat == 0.0
    assert result.changed_fraction == 0.0
    assert np.isfinite(result.statistic) and result.statistic >= 0.0
    assert result.feasible is True
    assert isinstance(trial_seed(scenario, 5), int) and trial_seed(scenario, 5) >= 0


def test_run_trial_uses_the_scenarios_detector_config(monkeypatch):
    scenario = binary_adder_scenario()
    assert np.array_equal(scenario.detector_config.a, scenario.uplink_matrix())
    assert scenario.detector_config.b is scenario.b
    seen = []

    def spy(config, counts):
        seen.append(config)
        return detector.run_detection_on_counts(config, counts)

    monkeypatch.setattr(harness, "run_detection_on_counts", spy)
    run_trial(scenario, 0)
    run_trial(scenario, 1)
    assert len(seen) == 2
    assert all(config is scenario.detector_config for config in seen)


def test_scenario_holds_its_detector_configs_a_b_mu_and_delta():
    scenario = preset("fig3a")
    as_int, as_float = (dataclasses.replace(scenario, mu=mu) for mu in (1, 1.0))
    assert scenario_hash(as_int) == scenario_hash(as_float)
    odd = dataclasses.replace(scenario, mu=np.float32(0.25), delta=1)
    assert scenario_hash(odd) == scenario_hash(dataclasses.replace(scenario, mu=0.25, delta=1.0))
    assert type(odd.mu) is type(odd.delta) is float
    config = odd.detector_config
    assert odd.b is config.b and odd.mu is config.mu and odd.delta is config.delta
    a = odd.uplink_matrix()
    assert a is config.a
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 0.5


def test_a_trial_and_a_rebuilt_scenario_check_no_issued_array_again(full_checks):
    # a trial used to check p1, p2 and B in full, and a replace p1, p2, p2,
    # A, A and B: the scenario's arrays are issued, so only the A that
    # marginalize_mac computes afresh is checked
    scenario = preset("fig3a")
    full_checks.clear()
    run_trial(scenario, 0)
    assert full_checks == []
    rebuilt = dataclasses.replace(scenario, trials=5)
    assert full_checks == ["A"]
    assert rebuilt.p1 is scenario.p1 and rebuilt.b is scenario.b


def test_a_preset_call_checks_only_the_uplink_matrices_it_computes(full_checks):
    # the preset constants (sources, B, every map phi) are issued at import,
    # so each of fig3a's four curves checks in full only its own A; plain
    # constants made 19 checks here: 3 phi, then p1, p2, A and B per curve
    curves = preset_curves("fig3a")
    assert full_checks == ["A"] * len(curves) == ["A"] * 4
    full_checks.clear()
    preset("fig5b")
    assert full_checks == ["A", "A"]


def test_scenario_with_unreachable_relay_symbol_fails_when_built():
    # u = 1 and u = 2 need x2 = 1, which p2 never emits
    table = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(AlphabetReductionError):
        binary_adder_scenario(
            mac=MacModel(table, 2, 2), p2=np.array([1.0, 0.0])
        )


def test_run_trial_rejects_bad_index():
    with pytest.raises(ValueError):
        run_trial(binary_adder_scenario(), -1)


def test_run_trial_is_deterministic():
    scenario = binary_adder_scenario(
        attack=AttackSpec(
            np.array(
                [[0.99, 0.005, 0.005], [0.005, 0.99, 0.005], [0.005, 0.005, 0.99]]
            )
        )
    )
    assert run_trial(scenario, 2) == run_trial(scenario, 2)


def test_run_trial_streams_differ_by_index():
    scenario = binary_adder_scenario(
        attack=AttackSpec(
            np.array(
                [[0.99, 0.005, 0.005], [0.005, 0.99, 0.005], [0.005, 0.005, 0.99]]
            )
        )
    )
    first, second = run_trial(scenario, 0), run_trial(scenario, 1)
    assert trial_seed(scenario, 0) != trial_seed(scenario, 1)
    assert first != second


def test_run_trial_iid_attack_concentrates(motivating_phis):
    # A 1%-switch map has total deviation 0.06 from the identity; at
    # N=10^5 the per-trace deviation and the changed-symbol fraction
    # concentrate tightly around their generating values.
    scenario = binary_adder_scenario(
        attack=AttackSpec(motivating_phis[2]), n=100_000, mu=0.05, delta=0.004
    )
    result = run_trial(scenario, 0)
    assert abs(result.truth_stat - 0.06) <= 0.015
    assert abs(result.changed_fraction - 0.01) <= 0.005
    assert result.feasible is True


# ---------- run_experiment ----------


def test_run_experiment_ordering_and_determinism():
    scenario = binary_adder_scenario(trials=4, n=500)
    results = run_experiment(scenario)
    assert [r.trial_index for r in results] == [0, 1, 2, 3]
    assert results == [run_trial(scenario, i) for i in range(4)]
    assert results == run_experiment(scenario)
    # execution order is immaterial: each trial depends only on its index
    assert list(reversed([run_trial(scenario, i) for i in (3, 2, 1, 0)])) == results


def test_trial_traces_match_run_trial(motivating_phis):
    scenario = binary_adder_scenario(attack=AttackSpec(motivating_phis[2]), n=800)
    x1, y1, u, v = trial_traces(scenario, 3)
    result = run_trial(scenario, 3)
    assert x1.shape == y1.shape == u.shape == v.shape == (800,)
    assert float(np.mean(u != v)) == result.changed_fraction
    # traces regenerate identically
    again = trial_traces(scenario, 3)
    assert all(np.array_equal(first, second) for first, second in zip((x1, y1, u, v), again))
    # the count-based record equals the per-symbol one on every preset curve
    for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b"):
        for label, curve in preset_curves(name).items():
            x1, y1, u, v = trial_traces(curve, 3)
            result = score_trial(curve, 3, x1, y1, u, v)
            assert float(np.mean(u != v)) == result.changed_fraction, (name, label)
            report = detector.run_detection(curve.detector_config, x1, y1)
            unseen = np.flatnonzero(np.bincount(x1, minlength=curve.mac.x1_size) == 0)
            assert report.unseen_x1_columns == unseen.tolist(), (name, label)


def _counted_keys(monkeypatch):
    """Record (traces keyed together, their length, key dtype) of every key
    the one key builder makes, the uplink's in channelmodel included."""
    keyed, flat_key = [], stochcore.flat_key

    def recording_builder(traces, sizes):
        key = flat_key(traces, sizes)
        keyed.append((len(traces), key.size, key.dtype))
        return key

    monkeypatch.setattr(stochcore, "flat_key", recording_builder)
    monkeypatch.setattr(channelmodel, "flat_key", recording_builder)
    return keyed


def _pair_tables(scenario, x1, y1, u, v):
    x1_size, y1_size, u_size = scenario.mac.x1_size, scenario.b.shape[0], scenario.mac.u_size
    return (
        stochcore.joint_counts((y1, x1), (y1_size, x1_size), ("y1", "x1")),
        stochcore.joint_counts((v, u), (u_size, u_size), ("v", "u")),
    )


def test_a_trials_one_count_is_its_two_pair_tables(monkeypatch):
    # every preset's (y1, x1, v, u) table is counted under one key (54 cells
    # on fig3, 300 on fig5a, 375 on fig5b), uint16 past 255 cells; int64
    # traces score exactly as the sampled ones
    key_dtypes = {"fig5a": np.uint16, "fig5b": np.uint16}
    keyed = _counted_keys(monkeypatch)
    for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b"):
        for label, curve in preset_curves(name).items():
            for trial in (0, 1):
                traces = trial_traces(curve, trial)
                keyed.clear()
                counts = trial_counts(curve, *traces)
                assert keyed == [(4, curve.n, key_dtypes.get(name, np.uint8))], (name, label)
                for table, expected in zip(counts, _pair_tables(curve, *traces)):
                    np.testing.assert_array_equal(table, expected)
                wide = [trace.astype(np.int64) for trace in traces]
                assert score_trial(curve, trial, *wide) == score_trial(curve, trial, *traces)


@pytest.mark.parametrize(
    "size, key_dtype",
    [(7, np.uint16), (12, np.uint32)],
    ids=["7x7 adder", "12x12 adder"],
)
def test_a_table_past_block_size_cells_is_counted_as_one_joint_table(monkeypatch, size, key_dtype):
    # an adder with B = I has (2 size - 1)**3 * size cells, past BLOCK_SIZE
    # from 7 x 7 on and past 65 535 (a uint32 key) from 10 x 10 on
    u_size = 2 * size - 1
    wide = Scenario(
        p1=np.full(size, 1 / size), p2=np.full(size, 1 / size), mac=MacModel.adder(size, size),
        b=np.eye(u_size), attack=AttackSpec(), n=10_000, mu=0.05, delta=0.07, trials=1,
        master_seed=7,
    )
    assert u_size**3 * size > stochcore.BLOCK_SIZE
    keyed = _counted_keys(monkeypatch)
    x1, y1, u, v = traces = trial_traces(wide, 0)
    relayed = np.random.default_rng(7).permutation(u)  # the honest relay's v is u
    detector_counts, relay_counts = trial_counts(wide, x1, y1, u, relayed)
    assert keyed == [(2, wide.n, np.uint8), (4, wide.n, key_dtype)]
    wide_y1, wide_relayed = y1.astype(np.int64), relayed.astype(np.int64)
    observed = np.bincount(wide_y1 * size + x1, minlength=u_size * size)
    np.testing.assert_array_equal(detector_counts, observed.reshape(u_size, size))
    relay = np.bincount(wide_relayed * u_size + u, minlength=u_size * u_size)
    np.testing.assert_array_equal(relay_counts, relay.reshape(u_size, u_size))
    if size == 7:  # the 12 x 12 estimator takes tens of seconds to compile
        result = score_trial(wide, 0, *traces)
        assert result == score_trial(wide, 0, *(trace.astype(np.int64) for trace in traces))


def test_clean_trials_stay_feasible():
    scenario = binary_adder_scenario(trials=60)
    results = run_experiment(scenario)
    assert all(r.feasible for r in results)
    assert all(r.truth_stat == 0.0 for r in results)


# ---------- aggregation helpers ----------


def test_empirical_cdf_sorts_and_fractions():
    values, fractions = empirical_cdf([0.1, 0.3, 0.2])
    assert np.allclose(values, [0.1, 0.2, 0.3])
    assert np.allclose(fractions, [1 / 3, 2 / 3, 1.0])
    # cumulative fraction at 0.2 is 2/3
    assert fractions[np.searchsorted(values, 0.2, side="right") - 1] == pytest.approx(
        2 / 3
    )
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_error_rates_counts_threshold_crossings():
    assert error_rates([0.0, 0.0, 0.0], [0.07], 0.01) == (0.0, 0.0)
    assert error_rates([0.0], [0.07, 0.07], 0.065) == (0.0, 0.0)
    false_alarm, miss = error_rates([0.0, 0.1], [0.0, 0.1], 0.05)
    assert false_alarm == pytest.approx(0.5)
    assert miss == pytest.approx(0.5)
    # boundary: D equal to the threshold is not an alarm
    assert error_rates([0.05], [0.05], 0.05) == (0.0, 1.0)
    with pytest.raises(ValueError):
        error_rates([], [0.1], 0.05)
    with pytest.raises(ValueError):
        error_rates([0.1], [], 0.05)


def test_ks_statistic_hand_cases():
    assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_statistic([0.0, 0.0], [1.0, 1.0]) == 1.0
    # F_a jumps to 1/2 at 0 and to 1 at 1; F_b jumps to 1 at 0.5
    assert ks_statistic([0.0, 1.0], [0.5]) == pytest.approx(0.5)
    assert ks_statistic([0.5], [0.0, 1.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ks_statistic([], [1.0])


# ---------- presets ----------


def test_preset_parameters():
    expected = {
        "fig3a": (1_000, 0.2, 0.065),
        "fig3b": (10_000, 0.1, 0.065),
        "fig3c": (100_000, 0.05, 0.004),
        "fig3d": (100_000, 0.01, 0.07),
        "fig5a": (100_000, 0.05, 0.07),
        "fig5b": (100_000, 0.05, 0.07),
    }
    seeds = set()
    for name, (n, mu, delta) in expected.items():
        scenario = preset(name)
        assert scenario.n == n, name
        assert scenario.mu == pytest.approx(mu), name
        assert scenario.delta == pytest.approx(delta), name
        assert scenario.trials == DESK_TRIALS
        seeds.add(scenario.master_seed)
        # every curve, not just the headline, runs DESK_TRIALS on that seed
        curves = preset_curves(name).values()
        assert {s.trials for s in curves} == {DESK_TRIALS}, name
        seeds |= {s.master_seed for s in curves}
    assert len(seeds) == 1  # one shared master seed across presets
    for lookup in (preset, preset_curves):
        with pytest.raises(ValueError, match="unknown preset"):
            lookup("fig9z")


def test_preset_channels(higher_b, counter_b):
    fig3a = preset("fig3a")
    assert np.array_equal(fig3a.b, np.eye(3))
    assert fig3a.mac.u_size == 3
    assert np.allclose(fig3a.p1, [0.5, 0.5]) and np.allclose(fig3a.p2, [0.5, 0.5])
    fig5a = preset("fig5a")
    assert np.allclose(fig5a.b, higher_b)
    assert fig5a.mac.u_size == 5
    assert np.allclose(fig5a.p1, np.full(3, 1 / 3))
    fig5b = preset("fig5b")
    assert np.allclose(fig5b.b, counter_b)


def test_preset_headline_attacks(motivating_phis, higher_phis):
    assert preset("fig3b").attack.kind == "iid"
    assert np.allclose(preset("fig3b").attack.phi, motivating_phis[2])
    fig3d = preset("fig3d")
    assert fig3d.attack.kind == "gated"
    assert fig3d.attack.gate_parity == "even"
    assert np.allclose(fig3d.attack.phi, motivating_phis[4])
    assert np.allclose(preset("fig5a").attack.phi, higher_phis[2])
    fig5b = preset("fig5b")
    assert fig5b.attack.kind == "iid"
    assert np.allclose(fig5b.attack.phi, np.eye(5) - counter_upsilon(1.0))


def test_preset_curves_families(motivating_phis, higher_phis):
    curves = preset_curves("fig3c")
    assert list(curves) == ["phi1", "phi2", "phi3", "phi4"]
    assert curves["phi1"].attack.kind == "identity"
    assert np.allclose(curves["phi3"].attack.phi, motivating_phis[3])
    base = preset("fig3c")
    for scenario in curves.values():
        assert (scenario.n, scenario.mu, scenario.delta) == (
            base.n,
            base.mu,
            base.delta,
        )
        assert scenario.trials == base.trials
        assert scenario.master_seed == base.master_seed

    gated = preset_curves("fig3d")
    assert list(gated) == ["phi1", "phi2", "phi3", "phi4"]
    assert gated["phi1"].attack.kind == "identity"
    for label in ("phi2", "phi3", "phi4"):
        assert gated[label].attack.kind == "gated"
        assert gated[label].attack.gate_parity == "even"

    higher = preset_curves("fig5a")
    assert list(higher) == ["phi1", "phi2", "phi3", "phi4"]
    assert np.allclose(higher["phi4"].attack.phi, higher_phis[4])

    counter = preset_curves("fig5b")
    assert list(counter) == ["clean", "phi2"]
    assert counter["clean"].attack.kind == "identity"
    assert np.allclose(counter["phi2"].attack.phi, np.eye(5) - counter_upsilon(1.0))

    # every map of every preset against its reference; only fig3d gates
    references = dict.fromkeys(("fig3a", "fig3b", "fig3c", "fig3d"), motivating_phis)
    references |= {"fig5a": higher_phis, "fig5b": {2: np.eye(5) - counter_upsilon(1.0)}}
    for name, reference in references.items():
        for label, scenario in list(preset_curves(name).items())[1:]:
            phi = reference[int(label.removeprefix("phi"))]
            assert np.allclose(scenario.attack.phi, phi), (name, label)
            assert scenario.attack.gate_parity == ("even" if name == "fig3d" else None)

    with pytest.raises(ValueError):
        preset_curves("fig4x")


# every preset curve's scenario_hash, honest curve first, and the headline label
_PRESET_TRAFFIC = {
    "fig3a": (
        "phi2",
        {
            "phi1": "3b77d1ef2860d9d4a1b057a7c138df17dfe05835f18748a28fadceab403836b7",
            "phi2": "054035a9adf983fd2c217acfa5a4eb658378e6ba3b1838676fa7697068c7937a",
            "phi3": "5253e9816b71d022a6574e19aebb682ed9fd4639490d0da4abb320400197e6fa",
            "phi4": "ad48b74feec58c14caa9c2bbbaf3b68bb45b9790c842946fbc298e1ed672f645",
        },
    ),
    "fig3b": (
        "phi2",
        {
            "phi1": "4a35513e7569b04d31e1b19419649c4feee79026ee3adea82fe28f0932c9bcba",
            "phi2": "fe882bc6620c2012d87c296f6b6cebc0341ee129ab66423906c4de15dddebc9d",
            "phi3": "eb5dee15917f565eddec2f1fb2fa390bcdd62b8f189d965c58d2d772e3fb3c3e",
            "phi4": "6db4a81782f5ad94c5cd5a1d230e13efa559e68155c462efe0d8ca6d3b31c6dc",
        },
    ),
    "fig3c": (
        "phi2",
        {
            "phi1": "20389811dc7b933ec4bfea9ae6d1e87cc7c9ba889a2d93db487600e7a51a6375",
            "phi2": "3ca99a558c08a3775a54b51e42f4249c5597a3c0287bfa67bcf281f6353a95c2",
            "phi3": "f541ee484033cf456e2c51c9fcb8da01238550935ed99a26e52b93fb7ff2c67d",
            "phi4": "fd36c45362cf5029ba6144bfbcee7aac7c2843ebf7647bb91ada9f9b47c1e812",
        },
    ),
    "fig3d": (
        "phi4",
        {
            "phi1": "9b7b2c141bc8a8e1d865b979085c126cecc35e1564afff30ea2e43a3fb2a3ad7",
            "phi2": "9d44c8d0ed1f8aba99bb4184096f489c35c068d924faf1e11f651f4e0a1a6567",
            "phi3": "a2cfca47e4a9e751374e0bae2e780a5884ae020acbfb963ac022f79fd77d6279",
            "phi4": "b4c55d5f09d607cb45e38df3d47392cc7af571bf461f78e754b0000d90965757",
        },
    ),
    "fig5a": (
        "phi2",
        {
            "phi1": "fb71d2b20bf28feec4cbfe3f7c56b458b7130ab85f8cfe96e1b7ea2009f214d4",
            "phi2": "7d81c07afe564056663b4ec04de4ac61c8b10a4d82929672f0322a458fddc04d",
            "phi3": "eabf552b30eed0e4cedae2bbe75dd3ec3996b6f0ef198fccfd97fa884e4522e2",
            "phi4": "878e0f971abb27e7e095db6b056596278eb05a61804146b885f600fac0f9751e",
        },
    ),
    "fig5b": (
        "phi2",
        {
            "clean": "acbddb2e7ce197bc2cc911f0ed8f58fa09b499537618dd5ad0a3beeef27967ac",
            "phi2": "59b26445afc6847ae0325701b61b99f681a84ca5be4cdec0bcf7fe8ac2edd8fe",
        },
    ),
}


def test_preset_traffic_is_pinned():
    # the traffic of every experiment and benchmark workload, as the
    # canonical documents of its curves hash
    for name, (headline, hashes) in _PRESET_TRAFFIC.items():
        curves = preset_curves(name)
        assert {label: scenario_hash(s) for label, s in curves.items()} == hashes, name
        assert list(curves) == list(hashes), name
        assert next(iter(curves.values())).attack.kind == "identity", name
        assert preset(name) == curves[headline], name
        assert scenario_hash(preset(name)) == hashes[headline], name


def test_preset_arrays_are_read_only():
    # every curve holds its own validated copies, which no write can change
    for scenario in (s for name in _PRESET_TRAFFIC for s in preset_curves(name).values()):
        arrays = [scenario.p1, scenario.p2, scenario.mac.table, scenario.b]
        if scenario.attack.phi is not None:
            arrays.append(scenario.attack.phi)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


def test_gated_preset_produces_both_modes():
    # the gate keys on the parity of each realized relay trace, so across
    # trials some traces pass through untouched and some are manipulated
    scenario = preset("fig3d")
    scenario = Scenario(
        p1=scenario.p1,
        p2=scenario.p2,
        mac=scenario.mac,
        b=scenario.b,
        attack=scenario.attack,
        n=2_000,
        mu=scenario.mu,
        delta=scenario.delta,
        trials=8,
        master_seed=scenario.master_seed,
    )
    changed = [run_trial(scenario, i).changed_fraction for i in range(8)]
    assert any(c == 0.0 for c in changed)
    assert any(c > 0.0 for c in changed)
    assert all(c == 0.0 or c < 0.02 for c in changed)


# sha256 of trial_traces(curve, k) for k in (0, 1), each trace as int64
# bytes in (x1, y1, u, v) order. Recorded before the comparison-count
# sampler replaced the searchsorted/argmax formulas; any change to how the
# random stream is consumed shows up here. Traces, not statistics, are
# pinned: D goes through LAPACK and may differ in the last bit by machine.
_STREAM_DIGESTS = {
    ("fig3a", "phi1"): "461acc602176ddd7225eadd95010e1c88350dfba38c02e34ca0efc48e525d0b1",
    ("fig3a", "phi2"): "dc0843b9483527a2aeae62ffee218ed3f8df4bd32414672b266fd34a4cdeddfb",
    ("fig3a", "phi3"): "6ca998a0f4c3f65f5588ce0324d5ac213612705f7a48fee628bb8878c0402b48",
    ("fig3a", "phi4"): "b05f864d5d400358f03c30b38d26cd104019194fa4a25bb3e339a897b9010667",
    ("fig3b", "phi1"): "5398931e612f07648c9625b062a19fa71504092c709e277f6c039248910a5c2a",
    ("fig3b", "phi2"): "bb781d309951bd8f283786d022bceab7d311942e2398ceac3d8e8dded27fd006",
    ("fig3b", "phi3"): "ccb634e5ad6d7900fc4bb2af86125a8e0c892335ed8d90418062cf31d4eceb18",
    ("fig3b", "phi4"): "2c0bc43173c03a9538d24611cfb71e1a1aa9906d2212e347f5fffaa11aa8e625",
    ("fig3c", "phi1"): "511df9dd9a75b5b4855fbbba1e91fc611a101578ad24d37fa8e7982c77f1f5d7",
    ("fig3c", "phi2"): "c0e80632ffc0c46c579f19c11969cb05b63f8e2fc3dbfd22bfa238a5eca775b1",
    ("fig3c", "phi3"): "b49c8074bcdba38749343c2eda53e5455d5fa3147b0ab971a89daea0f67529e6",
    ("fig3c", "phi4"): "12bbb3fcfc32cdc36c0b26303171f06098b7bacfc4ca1f4116fce5b42cd55ba2",
    ("fig3d", "phi1"): "511df9dd9a75b5b4855fbbba1e91fc611a101578ad24d37fa8e7982c77f1f5d7",
    ("fig3d", "phi2"): "8a6ceaf552a5313c9a79b9910fbcca5e6c65fe96ab9158df90cdd509b1d916a2",
    ("fig3d", "phi3"): "2166a6b3a6ba27ace0d461a13267645c1873431806c429024d0eef40012a51dd",
    ("fig3d", "phi4"): "4ac260ad7b8d348523fd547b3af8fc41d9340e56f022392b602dc22f9a5f4f51",
    ("fig5a", "phi1"): "fede219fe1ad8e384276ff35d86d7698c975d73a33db1a77b4933b5a13609f08",
    ("fig5a", "phi2"): "215f892925b74b38477e8329ea02da6661f7a3cb0bbbbc84771fc3d211caf3b5",
    ("fig5a", "phi3"): "7509b396955fcb235a1d01c764abc944764cd24dc254e10a4058b26c34fb0c04",
    ("fig5a", "phi4"): "ad1322a28878056509914d2fb3c64fd7438b386541817449e7ae3c402640e92a",
    ("fig5b", "clean"): "6f5f7c661015e6366bb6a26157ccdeb30b1eb2f2934ecc8097a62c95be18edd7",
    ("fig5b", "phi2"): "2292aff28388381a2fbffac2e753664e8e2b274bcee1402456c20a2269617193",
}


def test_sampler_stream_digest():
    names = sorted({name for name, _ in _STREAM_DIGESTS})
    assert names == ["fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b"]
    for name in names:
        curves = preset_curves(name)
        assert sorted(curves) == sorted(
            label for preset_name, label in _STREAM_DIGESTS if preset_name == name
        )
        for label, curve in curves.items():
            digest = hashlib.sha256()
            for trial_index in (0, 1):
                for trace in trial_traces(curve, trial_index):
                    digest.update(np.asarray(trace, dtype=np.int64).tobytes())
            assert digest.hexdigest() == _STREAM_DIGESTS[name, label], (name, label)


@pytest.mark.parametrize("name", ["fig5a", "fig3d"])
def test_long_trial_memory_stays_under_one_mib(name):
    # traces are uint8 and every per-symbol pass works in blocks; whole-trace
    # int64 and float64 temporaries put this peak at about 5.4 MiB. fig3d's
    # B = I is a lookup, where a whole-trace take index adds 800 KB
    scenario = preset(name)
    assert scenario.n == 100_000
    run_trial(scenario, 0)  # builds the cached estimator and sampling tables
    tracemalloc.start()
    try:
        run_trial(scenario, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# fig5a draws x1, x2, the iid attack and y1; fig3d's MAC and B = I are
# lookups, and its gate is open on trial 1, so it draws x1, x2 and the attack
@pytest.mark.parametrize("name, drawing_stages", [("fig5a", 4), ("fig3d", 3)])
def test_a_long_trial_keys_each_trace_pair_once_and_draws_one_call_per_block(
    monkeypatch, name, drawing_stages
):
    # the calls a trial makes, not its time: one key per trace, from the one
    # key builder (the uplink's (x1, x2) pair key, then the one counting key
    # of (y1, x1, v, u)), and one rng.random per trace block of each stage
    # that draws
    keyed = _counted_keys(monkeypatch)
    drawn = []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, size):
            drawn.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    scenario = preset(name)
    run_trial(scenario, 1)
    assert [(traces, size) for traces, size, _ in keyed] == [(2, scenario.n), (4, scenario.n)]
    blocks = [block.stop - block.start for block in stochcore.trace_blocks(scenario.n)]
    assert len(blocks) == -(-scenario.n // stochcore.BLOCK_SIZE)
    assert drawn == blocks * drawing_stages
    # the columns of a sampled stage cover its trace, one per symbol
    n, rng = scenario.n, np.random.default_rng(3)
    for shape in (n - 1, n + 1, (n, 1)):
        with pytest.raises(ValueError, match="columns"):
            channelmodel.sample_trace(np.eye(2), n, rng, np.zeros(shape, np.uint8))


def test_array_holding_inputs_compare_by_value():
    phi = np.eye(2)
    u = np.array([0, 1, 2, 2, 1])
    scenario = preset("fig3a")
    config, traces = scenario.detector_config, trial_traces(scenario, 0)
    program = LpProblem([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    manipulable = preset("fig5b")  # its verdict holds a witness and an induced attack
    channel = manipulable.uplink_matrix(), manipulable.b
    equal_pairs = [
        (MacModel.adder(2, 2), MacModel.adder(2, 2)),
        (preset("fig3a"), preset("fig3a")),
        (AttackSpec(phi), AttackSpec(phi.copy())),
        (AttackSpec(phi, "odd"), AttackSpec(phi.tolist(), "odd")),
        (AttackSpec(), AttackSpec()),
        (DetectorConfig(np.eye(2), np.eye(2), 0.1, 0.2), DetectorConfig([[1, 0], [0, 1]], np.eye(2), 0.1, 0.2)),
        (extract_attack_channel(u, u[::-1], 3), extract_attack_channel(u, u[::-1], 3)),
        (run_detection(config, *traces[:2]), run_detection(config, *traces[:2])),
        (rref([[1.0, 2.0], [2.0, 4.0]]), rref(np.array([[1, 2], [2, 4]]))),
        (program, LpProblem(np.ones(2), a_eq=np.ones((1, 2)), b_eq=[1.0])),
        (solve_lp(program), solve_lp(program)),
        (LpOutcome(LpStatus.INFEASIBLE), LpOutcome(LpStatus.INFEASIBLE)),
        (certify(*channel), certify(*channel)),
    ]
    for left, right in equal_pairs:
        assert left == right and not left != right
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    unequal_pairs = [
        (MacModel.adder(2, 2), MacModel.adder(2, 3)),
        (MacModel(np.eye(2), 2, 1), MacModel(swap, 2, 1)),
        (preset("fig3a"), preset("fig3b")),
        (preset("fig3a"), preset_curves("fig3a")["phi3"]),
        (AttackSpec(phi), AttackSpec(swap)),
        (AttackSpec(phi), AttackSpec(phi, "even")),
        (AttackSpec(), AttackSpec(phi)),
        (DetectorConfig(np.eye(2), np.eye(2), 0.1, 0.2), DetectorConfig(np.eye(2), swap, 0.1, 0.2)),
        (DetectorConfig(np.eye(2), np.eye(2), 0.1, 0.2), DetectorConfig(np.eye(2), np.eye(2), 0.1, 0.3)),
        (MacModel.adder(2, 2), "adder"),
        (extract_attack_channel(u, u[::-1], 3), extract_attack_channel(u, u, 3)),
        (run_detection(config, *traces[:2]), run_detection(config, *trial_traces(scenario, 1)[:2])),
        (rref([[1.0, 2.0], [2.0, 4.0]]), rref([[1.0, 0.0], [0.0, 1.0]])),
        (program, program.with_rhs(b_eq=[2.0])),
        (solve_lp(program), solve_lp(program.with_rhs(b_eq=[2.0]))),
        (solve_lp(program), LpOutcome(LpStatus.INFEASIBLE)),
        (certify(*channel), certify(scenario.uplink_matrix(), scenario.b)),
    ]
    for left, right in unequal_pairs:
        assert left != right and not left == right
