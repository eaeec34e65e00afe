"""Maliciousness detection from one source node's transmit/receive traces.

Pipeline: conditional histogram of (y1 | x1) -> worst-case attack-channel
estimate over the feasibility set G_mu -> decision statistic
D = l1(phi_hat - I) thresholded at delta. Only the counts #(y1, x1) reach
the estimator: `run_detection_on_counts` runs the pipeline on them, and
`run_detection` counts an (x1, y1) trace pair first.

The estimator solves a single LP. For a column-stochastic candidate phi the
distance to identity is l1(phi - I) = 2(|U| - trace(phi)) exactly (diagonal
deficits are 1 - phi_jj and off-diagonal entries are nonnegative), so
minimizing the trace maximizes the distance. G_mu is the set of
column-stochastic phi with l1(B phi A - Pi_B gamma_hat Pi_A) <= mu, so the
LP runs over (vec phi, t): phi's column sums, +-(B phi A - target) <= t
entrywise and sum(t) <= mu, with phi's blocks built on row-major vectors by
numlinalg.vec_operator. The paper's column-stochastic gamma_tilde with
Pi_B gamma_tilde Pi_A = B phi A needs no variables of its own:
gamma_tilde = B phi A always qualifies, because Pi_B B = B and A Pi_A = A.

Only the target rows' right-hand side depends on the histogram. So the
estimator is compiled once per (A, B, mu) content into an lpkernel.Restart
of the noiseless problem gamma_hat = B A, factored at its optimal basis,
and that optimum's statistic, the clean-data floor D0 every report
carries. A trial's LP is the restart's problem with its target rows
replaced, and it restarts from that basis. The restart depends on
(A, B, mu) alone and no solve modifies it, so a result still depends only
on its traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lpkernel, numlinalg
from .lpkernel import LpFailure, LpProblem, LpStatus, solve_lp
from .numlinalg import column_space_projector, row_space_projector, vec_operator
from .stochcore import (
    content_memo,
    joint_counts,
    l1_norm,
    validate_channel,
    validate_column_stochastic,
    validate_count_table,
    validate_positive,
    value_eq,
)

__all__ = [
    "DetectorConfig",
    "DetectionReport",
    "conditional_histogram",
    "estimate_attack",
    "g_mu_residual",
    "decision_statistic",
    "detect",
    "run_detection",
    "run_detection_on_counts",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Observation channel (A, B), estimator slack mu, and threshold delta."""

    a: np.ndarray
    b: np.ndarray
    mu: float
    delta: float

    __eq__ = value_eq

    def __post_init__(self):
        a, b = validate_channel(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mu", validate_positive(self.mu, "mu"))
        object.__setattr__(self, "delta", validate_positive(self.delta, "delta"))


@dataclass(frozen=True)
class DetectionReport:
    """Everything one detection run produced.

    ``residual`` is l1(Pi_B (B phi_hat A - gamma_hat) Pi_A), the projected
    distance between the histogram phi_hat would produce and the observed
    one: the slack that admits phi_hat into G_mu (``g_mu_residual``), always
    <= mu when ``feasible`` (0.0 otherwise).
    ``noiseless_floor`` is D0, the statistic on the exact channel B A: the
    smallest threshold delta at which clean traces can pass.
    ``lp_path`` and ``lp_pivots`` are the estimator LP's ``LpOutcome.path``
    and ``LpOutcome.pivots``: what answered it and how many pivots it took.
    """

    gamma_hat: np.ndarray
    phi_hat: np.ndarray
    statistic: float
    feasible: bool
    verdict: str
    unseen_x1_columns: list = field(default_factory=list)
    residual: float = 0.0
    noiseless_floor: float = 0.0
    lp_path: str = "cold"
    lp_pivots: int = 0

    __eq__ = value_eq


def conditional_histogram(
    x1_trace: np.ndarray, y1_trace: np.ndarray, x1_size: int, y1_size: int
) -> tuple[np.ndarray, list]:
    """Conditional frequency of y1 given x1, and the x1 symbols never seen.

    Returns (gamma_hat, unseen). gamma_hat is column-stochastic; its unseen
    columns are filled uniformly (the maximum-entropy neutral choice).
    ``joint_counts`` checks and counts the traces.
    """
    return _histogram(joint_counts((y1_trace, x1_trace), (y1_size, x1_size), ("y1", "x1")))


def _histogram(counts: np.ndarray) -> tuple[np.ndarray, list]:
    """`conditional_histogram` of the counts #(y1=i, x1=j)."""
    totals = counts.sum(axis=0)
    seen = totals > 0
    gamma_hat = np.full(counts.shape, 1.0 / counts.shape[0])
    gamma_hat[:, seen] = counts[:, seen] / totals[seen]
    return gamma_hat, np.flatnonzero(~seen).tolist()


# distinct (A, B, mu) whose compiled estimators are kept
_COMPILED_MEMO = 16


def _with_target(program: LpProblem, target: np.ndarray) -> LpProblem:
    """program with the +-target rows of its b_ub set to target (Pi_B gamma_hat Pi_A).

    The sibling shares program's matrices, so a Restart of program answers it.
    """
    n_g = target.size
    b_ub = program.b_ub.copy()
    b_ub[:n_g] = target
    b_ub[n_g : 2 * n_g] = -target
    return program.with_rhs(b_ub=b_ub)


@content_memo(_COMPILED_MEMO)
def _compile(a: np.ndarray, b: np.ndarray, mu: float) -> tuple[lpkernel.Restart, float]:
    """(restart, D0): the noiseless problem's Restart and its optimum's statistic."""
    # numlinalg and lpkernel are called through their own modules here, so
    # the one-off compilation never counts as a per-trial projector or LP
    u = a.shape[0]
    n_phi, n_g = u * u, b.shape[0] * a.shape[1]

    objective = np.zeros(n_phi + n_g)  # phi, slack t
    objective[np.arange(u) * u + np.arange(u)] = 1.0  # minimize trace(phi)
    # phi's column sums; +-(vec(B phi A) - target) <= t and sum(t) <= mu
    a_eq = np.hstack([vec_operator(np.ones((1, u)), np.eye(u)), np.zeros((u, n_g))])
    reach, slack = vec_operator(b, a), -np.eye(n_g)
    a_ub = np.block([[reach, slack], [-reach, slack], [np.zeros((1, n_phi)), np.ones((1, n_g))]])
    b_ub = np.zeros(2 * n_g + 1)
    b_ub[-1] = mu
    program = LpProblem(objective=objective, a_eq=a_eq, b_eq=np.ones(u), a_ub=a_ub, b_ub=b_ub)
    pi_b = numlinalg.column_space_projector(b)
    pi_a = numlinalg.row_space_projector(a)
    noiseless = _with_target(program, (pi_b @ (b @ a) @ pi_a).ravel())
    restart = lpkernel.Restart(noiseless)
    outcome = restart.optimum
    if outcome.status is not LpStatus.OPTIMAL:  # Phi = I is always feasible
        raise LpFailure(f"noiseless estimator LP ended with status {outcome.status}")
    return restart, decision_statistic(outcome.solution[:n_phi].reshape(u, u))


def _estimate(restart: lpkernel.Restart, gamma_hat, a, b):
    """(phi_hat, feasible, outcome) of one histogram; the identity if G_mu is empty."""
    pi_b = column_space_projector(b)
    pi_a = row_space_projector(a)
    outcome = solve_lp(_with_target(restart.problem, (pi_b @ gamma_hat @ pi_a).ravel()), restart)
    u = a.shape[0]
    if outcome.status is LpStatus.INFEASIBLE:
        return np.eye(u), False, outcome
    if outcome.status is not LpStatus.OPTIMAL:
        raise LpFailure(f"estimator LP ended with status {outcome.status}")
    return outcome.solution[: u * u].reshape(u, u), True, outcome


def estimate_attack(
    gamma_hat: np.ndarray, a: np.ndarray, b: np.ndarray, mu: float
) -> tuple[np.ndarray, bool]:
    """Worst-case (farthest-from-identity) attack channel consistent with G_mu.

    Returns (identity, False) when the feasibility set is empty. mu may be
    0 here (exact membership); A, B and mu are checked as DetectorConfig
    checks them, and gamma_hat must be a |Y1| x |X1| column-stochastic
    histogram.
    """
    a, b = validate_channel(a, b)
    mu = validate_positive(mu, "mu", zero_allowed=True)
    gamma_hat = _validate_histogram(gamma_hat, a, b)
    phi_hat, feasible, _ = _estimate(_compile(a, b, mu)[0], gamma_hat, a, b)
    return phi_hat, feasible


def _validate_histogram(gamma_hat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gamma_hat as a |Y1| x |X1| column-stochastic frozen copy, or ValueError."""
    gamma_hat = validate_column_stochastic(gamma_hat, "gamma_hat")
    if gamma_hat.shape != (b.shape[0], a.shape[1]):
        raise ValueError(
            f"gamma_hat has shape {gamma_hat.shape}, expected {(b.shape[0], a.shape[1])}"
        )
    return gamma_hat


def g_mu_residual(
    phi_hat: np.ndarray, gamma_hat: np.ndarray, a: np.ndarray, b: np.ndarray
) -> float:
    """Smallest projected-l1 histogram slack that admits phi_hat into G_mu.

    Every column-stochastic gamma_tilde with Pi_B gamma_tilde Pi_A = B phi_hat A
    has the slack l1(B phi_hat A - Pi_B gamma_hat Pi_A), so a zero-objective
    LP over gamma_tilde only decides whether one exists; +inf when none does.
    A, B and gamma_hat are checked as estimate_attack checks them; phi_hat
    must be |U| x |U| and may leave the simplex (then often +inf).
    """
    a, b = validate_channel(a, b)
    gamma_hat = _validate_histogram(gamma_hat, a, b)
    phi_hat = np.asarray(phi_hat, dtype=float)
    if phi_hat.shape != (a.shape[0], a.shape[0]):
        raise ValueError(f"phi_hat has shape {phi_hat.shape}, expected {(a.shape[0], a.shape[0])}")
    y1, x1 = b.shape[0], a.shape[1]
    pi_b = column_space_projector(b)
    pi_a = row_space_projector(a)
    reach = b @ phi_hat @ a
    # gamma_tilde's column sums, then vec(Pi_B gamma_tilde Pi_A)
    a_eq = np.vstack([vec_operator(np.ones((1, y1)), np.eye(x1)), vec_operator(pi_b, pi_a)])
    b_eq = np.concatenate([np.ones(x1), reach.ravel()])
    outcome = solve_lp(LpProblem(objective=np.zeros(y1 * x1), a_eq=a_eq, b_eq=b_eq))
    if outcome.status is LpStatus.INFEASIBLE:
        return float("inf")
    if outcome.status is not LpStatus.OPTIMAL:
        raise LpFailure(f"membership LP ended with status {outcome.status}")
    return l1_norm(reach - pi_b @ gamma_hat @ pi_a)


def decision_statistic(phi_hat: np.ndarray) -> float:
    """l1 distance of the estimated attack channel from the identity."""
    phi_hat = np.asarray(phi_hat, dtype=float)
    return l1_norm(phi_hat - np.eye(phi_hat.shape[0]))


def detect(statistic: float, delta: float) -> str:
    """'malicious' iff the statistic strictly exceeds the threshold."""
    return "malicious" if statistic > delta else "clean"


def run_detection(
    config: DetectorConfig, x1_trace: np.ndarray, y1_trace: np.ndarray
) -> DetectionReport:
    """`run_detection_on_counts` of the (x1, y1) trace pair's counts."""
    x1_size, y1_size = config.a.shape[1], config.b.shape[0]
    counts = joint_counts((y1_trace, x1_trace), (y1_size, x1_size), ("y1", "x1"))
    return run_detection_on_counts(config, counts)


def run_detection_on_counts(config: DetectorConfig, counts: np.ndarray) -> DetectionReport:
    """Histogram -> estimator -> statistic -> verdict, with diagnostics, from
    the |Y1| x |X1| counts #(y1=i, x1=j), checked by `validate_count_table`."""
    counts = validate_count_table(counts, (config.b.shape[0], config.a.shape[1]))
    gamma_hat, unseen = _histogram(counts)
    a, b = config.a, config.b
    restart, noiseless_floor = _compile(a, b, config.mu)
    phi_hat, feasible, outcome = _estimate(restart, gamma_hat, a, b)
    if feasible:
        pi_b = column_space_projector(b)
        pi_a = row_space_projector(a)
        residual = l1_norm(pi_b @ (b @ phi_hat @ a - gamma_hat) @ pi_a)
        statistic = decision_statistic(phi_hat)
    else:
        residual = 0.0
        statistic = 0.0
    return DetectionReport(
        gamma_hat=gamma_hat,
        phi_hat=phi_hat,
        statistic=statistic,
        feasible=feasible,
        verdict=detect(statistic, config.delta),
        unseen_x1_columns=unseen,
        residual=residual,
        noiseless_floor=noiseless_floor,
        lp_path=outcome.path,
        lp_pivots=outcome.pivots,
    )
