"""Seeded Monte Carlo experiments over the relay detection pipeline.

A :class:`Scenario` bundles the two source distributions, the multiple
access model, the downlink marginal ``B``, a relay manipulation, and the
detector parameters.  Each trial derives its own RNG stream from
``(master_seed, trial_index)``, simulates uplink -> manipulation ->
downlink, and records both the detector's decision statistic and the
ground-truth deviation of the realized symbol-substitution channel, so
the two can be compared trial by trial.  Both read counts alone, and a
trial's traces are counted once (``trial_counts``): the detector's
(y1 | x1) table and the relay's (v | u) table are the marginals of one
joint (y1, x1, v, u) table, whatever the alphabets.  Results depend only on the
scenario and the trial index, never on execution order, which makes
experiments safe to parallelize and bitwise reproducible.

``preset`` exposes the named example scenarios used throughout the test
suite: a binary adder with an ideal downlink observed at three trace
lengths, its parity-gated variant, and two ternary-adder setups with
noisy five-symbol downlinks (one certifiably manipulable).
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# score_trial calls neither extract_attack_channel nor run_detection, but
# benchmark/tracing.py looks both up on this module
from .attackmodel import (
    AttackChannel,
    AttackSpec,
    apply_attack,
    extract_attack_channel,
    truth_statistic,
)
from .channelmodel import MacModel, marginalize_mac, simulate_downlink, simulate_uplink
from .detector import DetectorConfig, run_detection, run_detection_on_counts
from .stochcore import (
    joint_counts,
    validate_column_stochastic,
    validate_count,
    validate_pmf,
    validate_source,
    value_eq,
)

__all__ = [
    "DESK_TRIALS",
    "Scenario",
    "TrialResult",
    "empirical_cdf",
    "error_rates",
    "ks_statistic",
    "preset",
    "preset_curves",
    "run_experiment",
    "run_trial",
    "score_trial",
    "trial_counts",
    "trial_seed",
    "trial_traces",
]

DESK_TRIALS = 300

_MASTER_SEED = 20240501


@dataclass(frozen=True)
class Scenario:
    """One fully specified experiment: channels, manipulation, detector.

    ``detector_config`` is built once from the other fields: it validates
    A, B, mu and delta, and the scenario holds its very B, mu and delta.
    ``validate_source`` and ``validate_count`` check the sources and counts.
    """

    p1: np.ndarray
    p2: np.ndarray
    mac: MacModel
    b: np.ndarray
    attack: AttackSpec
    n: int
    mu: float
    delta: float
    trials: int
    master_seed: int
    detector_config: DetectorConfig = field(init=False, repr=False, compare=False)

    __eq__ = value_eq

    def __post_init__(self):
        object.__setattr__(self, "p1", validate_source(self.p1, "p1", self.mac.x1_size))
        object.__setattr__(self, "p2", validate_source(self.p2, "p2", self.mac.x2_size))
        # phi is square
        if self.attack.phi is not None and self.attack.phi.shape[0] != self.mac.u_size:
            raise ValueError("attack map size does not match the relay alphabet")
        validate_count(self.n, "n")
        validate_count(self.trials, "trials")
        validate_count(self.master_seed, "master_seed", minimum=0)
        config = DetectorConfig(
            a=marginalize_mac(self.mac, self.p2), b=self.b, mu=self.mu, delta=self.delta
        )
        for name in ("b", "mu", "delta"):
            object.__setattr__(self, name, getattr(config, name))
        object.__setattr__(self, "detector_config", config)

    def uplink_matrix(self) -> np.ndarray:
        """Observation matrix A seen from source 1 (u given x1), frozen."""
        return self.detector_config.a


@dataclass(frozen=True)
class TrialResult:
    """Per-trial outcome: decision statistic vs ground-truth deviation."""

    trial_index: int
    statistic: float
    truth_stat: float
    feasible: bool
    changed_fraction: float

    def __post_init__(self):
        validate_count(self.trial_index, "trial_index", minimum=0)
        for label, value in (
            ("statistic", self.statistic),
            ("truth_stat", self.truth_stat),
        ):
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{label} must be finite and non-negative")
        if not 0.0 <= self.changed_fraction <= 1.0:
            raise ValueError("changed_fraction must lie in [0, 1]")


def _trial_seed_sequence(scenario: Scenario, trial_index: int) -> np.random.SeedSequence:
    validate_count(trial_index, "trial_index", minimum=0)
    return np.random.SeedSequence(scenario.master_seed, spawn_key=(trial_index,))


def trial_seed(scenario: Scenario, trial_index: int) -> int:
    """The first 32-bit word of one trial's seed sequence, to label its outputs."""
    return int(_trial_seed_sequence(scenario, trial_index).generate_state(1)[0])


def trial_traces(
    scenario: Scenario, trial_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (x1, y1, u, v) symbol traces of one seeded trial.

    The RNG stream is derived from ``(master_seed, trial_index)`` alone,
    so repeated calls with the same arguments draw the same traces.
    """
    rng = np.random.default_rng(_trial_seed_sequence(scenario, trial_index))
    x1, _x2, u = simulate_uplink(scenario.mac, scenario.p1, scenario.p2, scenario.n, rng)
    v = apply_attack(scenario.attack, u, rng)
    y1 = simulate_downlink(scenario.b, v, rng)
    return x1, y1, u, v


def trial_counts(scenario: Scenario, x1, y1, u, v) -> tuple[np.ndarray, np.ndarray]:
    """The (y1 | x1) counts #(y1=i, x1=j) and the relay's (v | u) counts
    #(v=i, u=j) of one trial's traces, all the detector and the ground truth read.

    The four traces are counted as one (y1, x1, v, u) table, whatever its
    size, and the two marginals are read off it.
    """
    y1_size, x1_size, u_size = scenario.b.shape[0], scenario.mac.x1_size, scenario.mac.u_size
    sizes, names = (y1_size, x1_size, u_size, u_size), ("y1", "x1", "v", "u")
    joint = joint_counts((y1, x1, v, u), sizes, names).reshape(y1_size * x1_size, u_size * u_size)
    return joint.sum(axis=1).reshape(y1_size, x1_size), joint.sum(axis=0).reshape(u_size, u_size)


def score_trial(scenario: Scenario, trial_index: int, x1, y1, u, v) -> TrialResult:
    """Run the detector and the ground truth on one trial's traces, counted
    once by `trial_counts`.

    ``changed_fraction`` is the off-diagonal share of the relay's counts.
    """
    detector_counts, relay_counts = trial_counts(scenario, x1, y1, u, v)
    truth = AttackChannel.from_counts(relay_counts)
    truth_stat = truth_statistic(truth)
    report = run_detection_on_counts(scenario.detector_config, detector_counts)
    symbols = int(truth.counts.sum())
    return TrialResult(
        trial_index=trial_index,
        statistic=report.statistic,
        truth_stat=truth_stat,
        feasible=report.feasible,
        changed_fraction=(symbols - int(np.trace(truth.counts))) / symbols,
    )


def run_trial(scenario: Scenario, trial_index: int) -> TrialResult:
    """Simulate one seeded trial and score it (``trial_traces``, ``score_trial``)."""
    return score_trial(scenario, trial_index, *trial_traces(scenario, trial_index))


def run_experiment(scenario: Scenario) -> list[TrialResult]:
    """Run all trials of a scenario, returned in trial-index order."""
    return [run_trial(scenario, index) for index in range(scenario.trials)]


def empirical_cdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample values paired with cumulative fractions i/n."""
    sample = np.asarray(values, dtype=float)
    if sample.size == 0:
        raise ValueError("empirical_cdf needs at least one value")
    ordered = np.sort(sample)
    fractions = np.arange(1, ordered.size + 1, dtype=float) / ordered.size
    return ordered, fractions


def error_rates(null_stats, alt_stats, delta: float) -> tuple[float, float]:
    """False-alarm and miss fractions of two statistic samples at ``delta``.

    A null-sample value strictly above ``delta`` counts as a false alarm;
    an alternative-sample value at or below ``delta`` counts as a miss.
    """
    null_sample = np.asarray(null_stats, dtype=float)
    alt_sample = np.asarray(alt_stats, dtype=float)
    if null_sample.size == 0 or alt_sample.size == 0:
        raise ValueError("error_rates needs non-empty samples on both sides")
    false_alarm = float(np.mean(null_sample > delta))
    miss = float(np.mean(alt_sample <= delta))
    return false_alarm, miss


def ks_statistic(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_statistic needs non-empty samples on both sides")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


# ---------- preset scenarios ----------

# Binary-adder example: two uniform binary sources, relay alphabet
# {0,1,2}, ideal downlink.  The malicious maps switch about 1% of the
# relay symbols, from blatant (phi2, every switch possible) to cautious
# (phi4, only switches neither source can recognize from one symbol).
_BINARY_PHI = {
    "phi2": np.array(
        [[0.99, 0.005, 0.005], [0.005, 0.99, 0.005], [0.005, 0.005, 0.99]]
    ),
    "phi3": np.array([[0.99, 0.005, 0.0], [0.01, 0.99, 0.01], [0.0, 0.005, 0.99]]),
    "phi4": np.array([[0.99, 0.0, 0.0], [0.01, 1.0, 0.01], [0.0, 0.0, 0.99]]),
}

# Ternary-adder example: relay alphabet {0,..,4} and a noisy downlink
# whose 4x5 marginal keeps the channel certifiably non-manipulable.
_TERNARY_B = np.array(
    [
        [1.0, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.7, 0.0, 0.0],
        [0.0, 0.0, 0.3, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.5, 1.0],
    ]
)

_TERNARY_PHI = {
    "phi2": np.array(
        [
            [0.99, 0.0025, 0.0025, 0.0025, 0.0025],
            [0.0025, 0.99, 0.0025, 0.0025, 0.0025],
            [0.0025, 0.0025, 0.99, 0.0025, 0.0025],
            [0.0025, 0.0025, 0.0025, 0.99, 0.0025],
            [0.0025, 0.0025, 0.0025, 0.0025, 0.99],
        ]
    ),
    "phi3": np.array(
        [
            [0.99, 0.01 / 3, 0.0025, 0.0, 0.0],
            [0.005, 0.99, 0.0025, 0.01 / 3, 0.0],
            [0.005, 0.01 / 3, 0.99, 0.01 / 3, 0.005],
            [0.0, 0.01 / 3, 0.0025, 0.99, 0.005],
            [0.0, 0.0, 0.0025, 0.01 / 3, 0.99],
        ]
    ),
    "phi4": np.array(
        [
            [0.985, 0.0, 0.0, 0.0, 0.0],
            [0.0075, 0.985, 0.0, 0.0, 0.0],
            [0.0075, 0.015, 1.0, 0.015, 0.0075],
            [0.0, 0.0, 0.0, 0.985, 0.0075],
            [0.0, 0.0, 0.0, 0.0, 0.985],
        ]
    ),
}

# Same ternary uplink with a square downlink marginal that admits a
# feasible deviation: substituting symbols 1<->3 and 2<->4 leaves the
# observed statistics of both sources exactly unchanged.
_SQUARE_B = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.3, 0.2],
        [0.0, 0.0, 0.5, 0.2, 0.3],
        [0.0, 0.3, 0.2, 0.5, 0.0],
        [0.0, 0.2, 0.3, 0.0, 0.5],
    ]
)

_SQUARE_DEVIATION = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, -1.0],
        [0.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 1.0],
    ]
)

_SQUARE_PHI2 = np.eye(5) - _SQUARE_DEVIATION


class _Preset(NamedTuple):
    """One named preset: its parameters, its channel and its curves."""

    n: int
    mu: float
    delta: float
    channel: tuple  # (p1, p2, mac, b): Scenario's leading fields
    honest: str  # label of the honest relay's curve
    maps: dict  # label -> phi of each manipulated curve
    gate: str | None  # gate parity of every map; None runs them iid
    headline: str  # the curve a bare preset() call returns


# Every preset array is issued by its validator once, here, so that a
# preset's scenarios check in full only the A each computes (marginalize_mac).
_TERNARY_B, _SQUARE_B, _SQUARE_PHI2 = (
    validate_column_stochastic(m, name)
    for m, name in ((_TERNARY_B, "B"), (_SQUARE_B, "B"), (_SQUARE_PHI2, "phi2"))
)
_BINARY_PHI, _TERNARY_PHI = (
    {label: validate_column_stochastic(phi, label) for label, phi in maps.items()}
    for maps in (_BINARY_PHI, _TERNARY_PHI)
)
_HALVES, _THIRDS = validate_pmf([0.5, 0.5], "p"), validate_pmf(np.full(3, 1 / 3), "p")

_BINARY = (_HALVES, _HALVES, MacModel.adder(2, 2), validate_column_stochastic(np.eye(3), "B"))
_TERNARY_SOURCES = (_THIRDS, _THIRDS, MacModel.adder(3, 3))
_TERNARY, _SQUARE = (*_TERNARY_SOURCES, _TERNARY_B), (*_TERNARY_SOURCES, _SQUARE_B)

_PRESETS = {
    "fig3a": _Preset(1_000, 0.2, 0.065, _BINARY, "phi1", _BINARY_PHI, None, "phi2"),
    "fig3b": _Preset(10_000, 0.1, 0.065, _BINARY, "phi1", _BINARY_PHI, None, "phi2"),
    "fig3c": _Preset(100_000, 0.05, 0.004, _BINARY, "phi1", _BINARY_PHI, None, "phi2"),
    "fig3d": _Preset(100_000, 0.01, 0.07, _BINARY, "phi1", _BINARY_PHI, "even", "phi4"),
    "fig5a": _Preset(100_000, 0.05, 0.07, _TERNARY, "phi1", _TERNARY_PHI, None, "phi2"),
    "fig5b": _Preset(100_000, 0.05, 0.07, _SQUARE, "clean", {"phi2": _SQUARE_PHI2}, None, "phi2"),
}


def preset_curves(name: str) -> dict[str, Scenario]:
    """All curves of a named preset, the honest relay's first: one scenario per map.

    Each runs the ``DESK_TRIALS`` desk default; ``dataclasses.replace(s,
    trials=5000)`` gives the count of the reference result figures.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    row = _PRESETS[name]
    attacks = {row.honest: AttackSpec()} | {
        label: AttackSpec(phi, row.gate) for label, phi in row.maps.items()
    }
    return {
        label: Scenario(*row.channel, attack, row.n, row.mu, row.delta, DESK_TRIALS, _MASTER_SEED)
        for label, attack in attacks.items()
    }


def preset(name: str) -> Scenario:
    """The headline scenario of a named preset (its main malicious curve)."""
    return preset_curves(name)[_PRESETS[name].headline]
