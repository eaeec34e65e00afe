"""Output checks that hold for any random stream.

Every function returns a list of failure messages; an empty list means the
output passed. None of them compares against recorded numbers, so a change
to how the package consumes its random stream cannot trip them.
"""

from __future__ import annotations

import math

import numpy as np

from relay_sentinel import stationary_u_pmf

# standard errors a pooled changed fraction may sit from its expectation
CHANGED_FRACTION_SIGMAS = 6.0
WITNESS_TOL = 1e-8
VALUE_TOL = 1e-6
STATISTIC_TOL = 1e-12
EXIT_OK, EXIT_FLAGGED = 0, 2


def trial_results(label, results, trials) -> list[str]:
    """One finite, non-negative result per trial, in trial-index order."""
    if [r.trial_index for r in results] != list(range(trials)):
        return [f"{label}: expected trials 0..{trials - 1}, got {len(results)} results"]
    failures = []
    for r in results:
        values = (r.statistic, r.truth_stat, r.changed_fraction)
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            failures.append(f"{label}#{r.trial_index}: non-finite or negative result {values}")
    return failures


def null_curve(label, results) -> list[str]:
    """A faithful relay changes nothing, so its ground truth is exactly zero."""
    return [
        f"{label}#{r.trial_index}: faithful relay has truth_stat {r.truth_stat} and "
        f"changed_fraction {r.changed_fraction}"
        for r in results
        if r.truth_stat != 0.0 or r.changed_fraction != 0.0
    ]


def expected_changed_fraction(scenario) -> float:
    """1 - sum_u p(u) phi_uu: the chance an i.i.d. attack rewrites a symbol."""
    p_u = stationary_u_pmf(scenario.mac, scenario.p1, scenario.p2)
    return float(1.0 - p_u @ np.diag(scenario.attack.phi))


def pooled_changed_fraction(label, changed, symbols, expected) -> list[str]:
    """Pooled changed symbols against Binomial(symbols, expected)."""
    observed = changed / symbols
    stderr = math.sqrt(max(expected * (1.0 - expected), 1e-12) / symbols)
    if abs(observed - expected) > CHANGED_FRACTION_SIGMAS * stderr:
        return [
            f"{label}: changed fraction {observed:.6g} over {symbols} symbols is more "
            f"than {CHANGED_FRACTION_SIGMAS:g} standard errors from {expected:.6g}"
        ]
    return []


def identical_rerun(label, first, again) -> list[str]:
    """A rerun of one (curve, trial) pair must reproduce every field bitwise."""
    if first != again:
        return [f"{label}: rerun gave {again}, first run gave {first}"]
    return []


def witness(label, upsilon, a, b) -> list[str]:
    """A deviation with balanced columns, positive diagonal and B Y A = 0."""
    failures = []
    if np.abs(upsilon.sum(axis=0)).max() > WITNESS_TOL:
        failures.append(f"{label}: witness columns do not sum to zero")
    off_diagonal = upsilon - np.diag(np.diag(upsilon))
    if off_diagonal.max() > WITNESS_TOL or np.diag(upsilon).max() <= VALUE_TOL:
        failures.append(f"{label}: witness breaks the deviation sign pattern")
    if np.abs(b @ upsilon @ a).max() > WITNESS_TOL:
        failures.append(f"{label}: witness has |B Y A| = {np.abs(b @ upsilon @ a).max():.3g}")
    return failures


def certify_verdict(label, verdict, a, b, expect) -> list[str]:
    """Internal consistency of a verdict plus whatever ``expect`` pins.

    ``expect`` may hold ``manipulable`` (bool), ``value`` (LP optimum) and
    ``method``; a channel built to be manipulable passes
    ``{"manipulable": True}``.
    """
    failures = []
    for key, actual in (("manipulable", verdict.manipulable), ("method", verdict.method)):
        if key in expect and actual != expect[key]:
            failures.append(f"{label}: {key} is {actual!r}, expected {expect[key]!r}")
    value = verdict.lp_optimal_value
    if "value" in expect and abs(value - expect["value"]) > VALUE_TOL:
        failures.append(f"{label}: LP value {value!r}, expected {expect['value']!r}")
    if verdict.manipulable != (value > VALUE_TOL):
        failures.append(f"{label}: LP value {value!r} contradicts manipulable={verdict.manipulable}")
    if verdict.manipulable != (verdict.witness is not None):
        failures.append(f"{label}: manipulable={verdict.manipulable} but witness is {verdict.witness}")
    if verdict.witness is not None:
        failures += witness(label, verdict.witness, a, b)
    return failures


def cli_detect(label, exit_code, report, simulated_statistic, delta) -> list[str]:
    """``detect`` reproduces the simulated trial's statistic and exits by verdict."""
    failures = []
    statistic = report["statistic"]
    if abs(statistic - simulated_statistic) > STATISTIC_TOL:
        failures.append(
            f"{label}: detect statistic {statistic!r} != simulated {simulated_statistic!r}"
        )
    verdict = "malicious" if statistic > delta else "clean"
    expected_exit = EXIT_FLAGGED if verdict == "malicious" else EXIT_OK
    if report["verdict"] != verdict or exit_code != expected_exit:
        failures.append(
            f"{label}: verdict {report['verdict']!r} with exit {exit_code} for "
            f"statistic {statistic!r} at delta {delta!r}"
        )
    return failures
