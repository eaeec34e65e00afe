"""Certification, simulation, and detection of symbol manipulation by an
amplify-and-forward relay, using only one source node's transmit/receive
symbol traces."""

__version__ = "0.1.0"

from .attackmodel import (
    AttackChannel,
    AttackSpec,
    apply_attack,
    extract_attack_channel,
    truth_statistic,
)
from .channelmodel import (
    AlphabetReductionError,
    MacModel,
    gamma_from,
    marginalize_mac,
    simulate_downlink,
    simulate_uplink,
    stationary_u_pmf,
)
from .detector import (
    DetectionReport,
    DetectorConfig,
    conditional_histogram,
    decision_statistic,
    detect,
    estimate_attack,
    g_mu_residual,
    run_detection,
    run_detection_on_counts,
)
from .harness import (
    Scenario,
    TrialResult,
    empirical_cdf,
    error_rates,
    ks_statistic,
    preset,
    preset_curves,
    run_experiment,
    run_trial,
    trial_traces,
)
from .manipulability import (
    CertificationFailure,
    ConsistencyFailure,
    ManipulabilityVerdict,
    certify,
    check_algorithm1,
    dpv_search_algorithm2,
    find_witness,
    witness_to_attack,
)
from .stochcore import validate_pmf

__all__ = [
    "AlphabetReductionError",
    "AttackChannel",
    "AttackSpec",
    "CertificationFailure",
    "ConsistencyFailure",
    "DetectionReport",
    "DetectorConfig",
    "MacModel",
    "ManipulabilityVerdict",
    "Scenario",
    "TrialResult",
    "__version__",
    "apply_attack",
    "certify",
    "check_algorithm1",
    "conditional_histogram",
    "decision_statistic",
    "detect",
    "dpv_search_algorithm2",
    "empirical_cdf",
    "error_rates",
    "estimate_attack",
    "extract_attack_channel",
    "find_witness",
    "g_mu_residual",
    "gamma_from",
    "ks_statistic",
    "marginalize_mac",
    "preset",
    "preset_curves",
    "run_detection",
    "run_detection_on_counts",
    "run_experiment",
    "run_trial",
    "simulate_downlink",
    "simulate_uplink",
    "stationary_u_pmf",
    "trial_traces",
    "truth_statistic",
    "validate_pmf",
    "witness_to_attack",
]
