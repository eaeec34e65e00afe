"""Channel certification: can the relay rewrite symbols without changing
what a watching source node can ever observe?

A channel pair (A, B) is manipulable when some nonzero deviation matrix Y
with zero column sums, nonpositive off-diagonal entries, and a positive
diagonal entry satisfies B Y A = 0; then phi = I - Y / max_diag(Y) is a
non-identity column-stochastic attack with B phi A = B A, invisible to the
node. Three cooperating procedures decide this:

* check_algorithm1: a linear program over free variables (lambda, nu,
  Omega) whose optimal value is 0 exactly when only the trivial deviation
  exists, and positive otherwise.
* find_witness: recovers a concrete deviation by maximizing each diagonal
  entry in turn over the deviation polytope (one LP per symbol; the first
  clearly positive optimum wins, so results merge deterministically). The
  polytope is validated once and each LP is its with_objective sibling,
  so they share one standard form and one phase 1.
* dpv_search_algorithm2: a solver-free sign-pattern search over the left
  null space of A, authoritative when B has a trivial right null space
  (rank(B) = |U|, so B has at least |U| rows).

certify() runs the applicable procedures and insists their verdicts agree.
Both programs act on row-major vectors of a matrix, Omega or Y, through
numlinalg.vec_operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lpkernel import LpProblem, LpStatus, solve_lp
from .numlinalg import DEFAULT_RANK_TOL, left_nullspace_basis, rank, rref, vec_operator
from .stochcore import validate_channel, validate_uplink, value_eq

__all__ = [
    "CertificationFailure",
    "ConsistencyFailure",
    "ManipulabilityVerdict",
    "check_algorithm1",
    "find_witness",
    "witness_to_attack",
    "dpv_search_algorithm2",
    "certify",
]

# LP optima this close to zero count as zero (observed separation between
# the two verdict classes is many orders of magnitude wider)
_ZERO_GATE = 1e-6
# relative tolerance for the row-proportionality ratio
_RATIO_RTOL = 1e-8


class CertificationFailure(RuntimeError):
    """The certification LP ended in a state its theory rules out."""


class ConsistencyFailure(RuntimeError):
    """Two certification procedures disagree; never silently resolved."""


@dataclass(frozen=True)
class ManipulabilityVerdict:
    """Combined certification result.

    dpv_found mirrors the null-space search, which runs only when B has
    full column rank, or stays None; method is then "Both", else "Algorithm1".
    """

    manipulable: bool
    lp_optimal_value: float
    witness: np.ndarray | None
    induced_attack: np.ndarray | None
    dpv_found: bool | None

    __eq__ = value_eq

    @property
    def method(self) -> str:
        return "Both" if self.dpv_found is not None else "Algorithm1"


def check_algorithm1(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """LP certification of manipulability: (optimal_value, manipulable).

    Variables are two free 1 x |U| vectors lambda, nu and a free
    |X1| x |Y1| matrix Omega. The program

        minimize   sum_k  lambda_k - nu_k - [A Omega B]_{k,k}
        subject to 1 - lambda_k <= 0
                   nu_k + [A Omega B]_{k,k} - lambda_k <= 0
                   nu_k + [A Omega B]_{k,l} <= 0          (k != l)

    has value 0 iff (A, B) is non-manipulable. Each summand is nonnegative
    by the second constraint row, so the value is bounded below by 0; any
    non-optimal solver status is therefore numerical trouble and raises
    CertificationFailure.
    """
    a, b = validate_channel(a, b)
    size_u, size_x1 = a.shape
    size_y1 = b.shape[0]
    n_omega = size_x1 * size_y1
    n_vars = 2 * size_u + n_omega  # layout: [lambda, nu, vec_r(Omega)]

    c = np.zeros(n_vars)
    c[:size_u] = 1.0
    c[size_u : 2 * size_u] = -1.0
    # sum_k [A Omega B]_{k,k} = sum_{x,y} (B A)_{y,x} Omega_{x,y}
    c[2 * size_u :] = -(b @ a).T.ravel()

    rows = np.zeros((size_u + size_u * size_u, n_vars))
    rhs = np.zeros(size_u + size_u * size_u)
    symbols = np.arange(size_u)
    rows[symbols, symbols] = -1.0
    rhs[:size_u] = -1.0
    # coupling row k |U| + l: nu_k + [A Omega B]_{k,l} (- lambda_k if l == k);
    # nu_k on row (k, l) is vec(nu 1.T) with nu a column
    coupling = rows[size_u:]
    coupling[:, size_u : 2 * size_u] = vec_operator(np.eye(size_u), np.ones((1, size_u)))
    coupling[symbols * (size_u + 1), symbols] = -1.0
    coupling[:, 2 * size_u :] = vec_operator(a, b)

    outcome = solve_lp(
        LpProblem(
            objective=c,
            a_ub=rows,
            b_ub=rhs,
            bounds=tuple((None, None) for _ in range(n_vars)),
        )
    )
    if outcome.status is not LpStatus.OPTIMAL:
        raise CertificationFailure(
            f"manipulability LP ended {outcome.status.value}; its value is "
            "bounded below by 0, so this indicates numerical trouble"
        )
    value = float(outcome.value)
    return value, value > _ZERO_GATE


def _deviation_polytope(a: np.ndarray, b: np.ndarray):
    """Equality rows and bounds shared by the per-diagonal witness LPs."""
    size_u = a.shape[0]
    # B Y A, then Y's column sums
    a_eq = np.vstack([vec_operator(b, a), vec_operator(np.ones((1, size_u)), np.eye(size_u))])
    b_eq = np.zeros(a_eq.shape[0])
    bounds = tuple(
        (None, 1.0) if j == m else (None, 0.0)
        for j in range(size_u)
        for m in range(size_u)
    )
    return a_eq, b_eq, bounds


def find_witness(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Search for a deviation Y certifying manipulability, else None.

    For each symbol k in turn, maximizes Y_{k,k} subject to B Y A = 0,
    zero column sums, off-diagonals <= 0 and diagonals <= 1 (diagonal
    nonnegativity follows from balance plus the off-diagonal signs). The
    first optimum above the zero gate is returned. The zero matrix is
    always feasible and the objective is capped at 1, so any non-optimal
    solver status raises CertificationFailure. The polytope is one program
    and each LP its with_objective sibling.
    """
    a, b = validate_channel(a, b)
    size_u = a.shape[0]
    a_eq, b_eq, bounds = _deviation_polytope(a, b)
    polytope = LpProblem(np.zeros(size_u * size_u), a_eq=a_eq, b_eq=b_eq, bounds=bounds)
    for k in range(size_u):
        c = np.zeros(size_u * size_u)
        c[k * size_u + k] = -1.0
        outcome = solve_lp(polytope.with_objective(c))
        if outcome.status is not LpStatus.OPTIMAL:
            raise CertificationFailure(
                f"witness LP for symbol {k} ended {outcome.status.value}; "
                "the zero deviation is feasible and the objective is capped"
            )
        if -float(outcome.value) > _ZERO_GATE:
            return outcome.solution.reshape(size_u, size_u)
    return None


def witness_to_attack(upsilon: np.ndarray) -> np.ndarray:
    """Turn a deviation Y into the induced attack phi = I - Y / max_j Y_jj.

    Zero column sums of Y keep phi column-stochastic; the normalization
    makes the largest diagonal deficit exactly 1. Raises ValueError when no
    diagonal entry is positive (nothing to normalize by).
    """
    upsilon = np.asarray(upsilon, dtype=float)
    if upsilon.ndim != 2 or upsilon.shape[0] != upsilon.shape[1]:
        raise ValueError("deviation matrix must be square")
    peak = float(np.diag(upsilon).max())
    if peak <= 0.0:
        raise ValueError("deviation has no positive diagonal entry")
    return np.eye(upsilon.shape[0]) - upsilon / peak


def _positively_proportional(u: np.ndarray, v: np.ndarray) -> bool:
    """u == c * v for one c > 0, up to _RATIO_RTOL; entries <= DEFAULT_RANK_TOL are 0."""
    support_u = np.abs(u) > DEFAULT_RANK_TOL
    support_v = np.abs(v) > DEFAULT_RANK_TOL
    if not support_u.any() or not np.array_equal(support_u, support_v):
        return False
    ratios = u[support_u] / v[support_u]
    c = float(ratios[0])
    if c <= 0.0:
        return False
    return bool(np.all(np.abs(ratios - c) <= _RATIO_RTOL * max(1.0, abs(c))))


def dpv_search_algorithm2(a: np.ndarray) -> str:
    """Does the left null space of A contain a double-polarized direction?

    Returns "found" / "not_found" by sign patterns alone. With
    n = |U| - rank(A): n = 0 means the null space is trivial; n = |U| - 1
    always contains such a direction; otherwise a basis is brought to
    reduced row echelon form (I | T) with column pivoting, and "found"
    fires iff some row of T has a single negative entry as its only
    nonzero, or two rows of T are positively proportional.
    """
    a = validate_uplink(a)
    size_u = a.shape[0]
    n = size_u - rank(a)
    if n == 0:
        return "not_found"
    if n == size_u - 1:
        return "found"
    basis = left_nullspace_basis(a)
    reduced = rref(basis)
    if reduced.rank != n:
        raise CertificationFailure(
            "null-space basis lost rank during row reduction"
        )
    tail = reduced.reduced[:, n:]
    # checks below are invariant to column order; restoring the original
    # relative order keeps the block aligned with the un-permuted symbols
    order = np.argsort(reduced.column_permutation[n:])
    tail = tail[:, order]
    for i in range(n):
        row = tail[i]
        support = np.abs(row) > DEFAULT_RANK_TOL
        if support.sum() == 1 and row[support][0] < 0.0:
            return "found"
    for i in range(n):
        for j in range(n):
            if i != j and _positively_proportional(tail[i], tail[j]):
                return "found"
    return "not_found"


def certify(a: np.ndarray, b: np.ndarray) -> ManipulabilityVerdict:
    """Full certification of (A, B) with cross-checked verdicts.

    Always runs the LP check and the witness search; when B has full
    column rank (trivial right null space) the null-space search runs as
    well. B then has at least |U| rows, so a shorter B skips the rank.
    Any disagreement raises ConsistencyFailure rather than guessing.
    """
    a, b = validate_channel(a, b)
    size_u = a.shape[0]
    value, manipulable = check_algorithm1(a, b)
    upsilon = find_witness(a, b)
    if manipulable != (upsilon is not None):
        raise ConsistencyFailure(
            f"LP value {value:.3e} says manipulable={manipulable} but the "
            f"witness search {'found' if upsilon is not None else 'found no'}"
            " deviation"
        )
    induced = witness_to_attack(upsilon) if upsilon is not None else None
    dpv_found = None
    if b.shape[0] >= size_u and rank(b) == size_u:
        dpv_found = dpv_search_algorithm2(a) == "found"
        if dpv_found != manipulable:
            raise ConsistencyFailure(
                f"null-space search says found={dpv_found} but the LP value "
                f"{value:.3e} says manipulable={manipulable}"
            )
    return ManipulabilityVerdict(
        manipulable=manipulable,
        lp_optimal_value=value,
        witness=upsilon,
        induced_attack=induced,
        dpv_found=dpv_found,
    )
