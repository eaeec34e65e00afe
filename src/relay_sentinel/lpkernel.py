"""Small dense linear-program solver.

Solves  minimize c @ x  subject to  A_eq x = b_eq,  A_ub x <= b_ub  and
per-variable bounds, by two-phase primal simplex on a dense tableau.
Pivoting is Dantzig's rule with a largest-pivot tie-break, falling back to
Bland's rule (anti-cycling) after a run of degenerate pivots; the tableau
is refactorized from pristine data periodically and before any stop
decision, so accumulated roundoff cannot manufacture a verdict. Free
variables are split into positive/negative parts at the solver boundary.
Results are deterministic: identical inputs produce bitwise-identical
outcomes.

An optimal outcome carries its basis. Passed to the solve of a sibling
program that differs only in its right-hand sides, that basis restarts the
solve by dual simplex: reduced costs do not depend on the right-hand side,
so the basis stays dual feasible and is typically a few pivots from the new
optimum (Chvatal, Linear Programming, 1983, ch. 10). Whenever the restart
cannot finish, the cold two-phase solve runs instead, so that solve remains
the only judge of infeasibility.

This is deliberately a small, dependency-free kernel: every program in this
package has at most a few hundred variables, so a dense tableau is adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["LpProblem", "LpOutcome", "LpStatus", "LpFailure", "solve_lp"]

# pivot/zero thresholds inside the tableau
_PIVOT_TOL = 1e-9
# feasibility decision for phase 1 and optimality margin for reduced costs
_FEAS_TOL = 1e-8
# largest bound violation of a basic value a dual-simplex restart accepts
_PRIMAL_TOL = 1e-12


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpFailure(RuntimeError):
    """Numerical breakdown (e.g. pivot-count blowup); distinct from infeasibility."""


@dataclass(frozen=True)
class LpProblem:
    """minimize objective @ x subject to a_eq x = b_eq, a_ub x <= b_ub, bounds.

    bounds is one (lower, upper) pair per variable; None means unbounded on
    that side. Default bounds are (0, None) for every variable.
    """

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    bounds: tuple = field(default=None)

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).ravel()
        object.__setattr__(self, "objective", c)
        n = c.size
        for name in ("a_eq", "a_ub"):
            mat = getattr(self, name)
            vec = getattr(self, "b" + name[1:])
            if (mat is None) != (vec is None):
                raise ValueError(f"{name} and its rhs must be given together")
            if mat is None:
                continue
            mat = np.asarray(mat, dtype=float)
            mat = mat.reshape(-1, n) if mat.size else mat.reshape(0, n)
            vec = np.asarray(vec, dtype=float).ravel()
            if mat.ndim != 2 or mat.shape[1] != n:
                raise ValueError(f"{name} must have {n} columns")
            if vec.size != mat.shape[0]:
                raise ValueError(f"{name} rhs length {vec.size} != {mat.shape[0]} rows")
            if not (np.isfinite(mat).all() and np.isfinite(vec).all()):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, mat)
            object.__setattr__(self, "b" + name[1:], vec)
        if not np.isfinite(c).all():
            raise ValueError("objective must be finite")
        if self.bounds is None:
            bounds = tuple((0.0, None) for _ in range(n))
        else:
            bounds = tuple((lo, hi) for lo, hi in self.bounds)
            if len(bounds) != n:
                raise ValueError(f"expected {n} bound pairs, got {len(bounds)}")
            for lo, hi in bounds:
                if lo is not None and hi is not None and lo > hi:
                    raise ValueError(f"bound lower {lo} exceeds upper {hi}")
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class LpOutcome:
    """Status, and for an optimum the solution, its value and its basis.

    ``basis`` (read-only) lists the standard-form columns basic at the
    optimum; it is meaningful only to solve_lp on a program of the same
    shape.
    """

    status: LpStatus
    solution: np.ndarray | None = None
    value: float | None = None
    basis: np.ndarray | None = None


# ---------- standard-form conversion ----------


def _standardize(p: LpProblem):
    """Rewrite the program over nonnegative variables x_std with x = S x_std + t."""
    n = p.objective.size
    col = 0
    records = []  # per original var: ('id'|'neg'|'split', indices, shift)
    extra_rows = []  # box constraints: (std index, cap)
    for lo, hi in p.bounds:
        if lo is None and hi is None:
            records.append(("split", (col, col + 1), 0.0))
            col += 2
        elif lo is not None and hi is None:
            records.append(("id", (col,), float(lo)))
            col += 1
        elif lo is None:
            records.append(("neg", (col,), float(hi)))
            col += 1
        else:
            records.append(("id", (col,), float(lo)))
            extra_rows.append((col, float(hi) - float(lo)))
            col += 1
    n_std = col
    s = np.zeros((n, n_std))
    t = np.zeros(n)
    for i, (kind, idx, shift) in enumerate(records):
        t[i] = shift
        if kind == "split":
            s[i, idx[0]] = 1.0
            s[i, idx[1]] = -1.0
        elif kind == "id":
            s[i, idx[0]] = 1.0
        else:  # neg: x = hi - x_std
            s[i, idx[0]] = -1.0

    eq_mat = p.a_eq @ s if p.a_eq is not None else np.zeros((0, n_std))
    eq_rhs = p.b_eq - p.a_eq @ t if p.a_eq is not None else np.zeros(0)
    ub_mat = p.a_ub @ s if p.a_ub is not None else np.zeros((0, n_std))
    ub_rhs = p.b_ub - p.a_ub @ t if p.a_ub is not None else np.zeros(0)
    if extra_rows:
        box = np.zeros((len(extra_rows), n_std))
        cap = np.zeros(len(extra_rows))
        for r, (j, c) in enumerate(extra_rows):
            box[r, j] = 1.0
            cap[r] = c
        ub_mat = np.vstack([ub_mat, box])
        ub_rhs = np.concatenate([ub_rhs, cap])

    # equilibrate structural rows to unit max-abs (before slacks join, so a
    # unit slack cannot mask a badly scaled row): pivot tolerances then act
    # uniformly regardless of the magnitudes the caller happened to use
    mat = np.vstack([eq_mat, ub_mat])
    rhs = np.concatenate([eq_rhs, ub_rhs])
    scale = np.abs(mat).max(axis=1, initial=0.0) if mat.size else np.zeros(0)
    live = scale > 0.0
    mat[live] /= scale[live, None]
    rhs[live] /= scale[live]

    # append one slack per inequality row
    m_ub = ub_mat.shape[0]
    m = mat.shape[0]
    full = np.zeros((m, n_std + m_ub))
    full[:, :n_std] = mat
    if m_ub:
        full[eq_mat.shape[0]:, n_std:] = np.eye(m_ub)
    # make rhs nonnegative
    neg = rhs < 0
    full[neg] *= -1.0
    rhs = np.abs(rhs)
    c_std = np.zeros(n_std + m_ub)
    c_std[:n_std] = p.objective @ s
    return full, rhs, c_std, s, t, n_std


# ---------- simplex core ----------


def _pivot(tab, obj, basis, row, col):
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    tab -= np.outer(factor, tab[row])
    obj -= obj[col] * tab[row]
    basis[row] = col


def _tableau_for_basis(ext, rhs, c_vec, basis):
    """Exact tableau and objective row for a basis, from pristine data.

    Incremental pivoting accumulates roundoff (each pivot divides by the
    pivot element); rebuilding from the original matrix resets that drift.
    """
    if basis.size == 0:
        tab = np.empty((0, ext.shape[1] + 1))
        obj = np.concatenate([c_vec, [0.0]])
        return tab, obj
    bmat = ext[:, basis]
    try:
        inv_ext = np.linalg.solve(bmat, ext)
        inv_rhs = np.linalg.solve(bmat, rhs)
    except np.linalg.LinAlgError as exc:
        raise LpFailure("basis matrix singular during refactorization") from exc
    tab = np.empty((ext.shape[0], ext.shape[1] + 1))
    tab[:, :-1] = inv_ext
    tab[:, -1] = inv_rhs
    cb = c_vec[basis]
    obj = np.empty(ext.shape[1] + 1)
    obj[:-1] = c_vec - cb @ inv_ext
    obj[-1] = -float(cb @ inv_rhs)
    return tab, obj


# refactorize this often even without a stop signal
_REFRESH_PERIOD = 64
# degenerate pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 40


def _simplex(ext, rhs, c_vec, basis, max_iter, n_enter, pin_start):
    """Iterate to optimality from `basis`; returns (status, tab, basis).

    Pivot choice is Dantzig's rule (most negative reduced cost) with the
    largest pivot element among ratio-test ties — fast and numerically
    kind. After _STALL_LIMIT degenerate pivots it falls back to Bland's
    rule (smallest indices) until the objective strictly improves again,
    which breaks cycles. 'optimal'/'unbounded' are only declared on a
    freshly refactorized tableau so drift cannot manufacture either.

    Only columns below n_enter may enter the basis. Basic variables with
    index >= pin_start (lingering artificials in phase 2) are pinned at
    zero: any entering column that would move one forces a ratio of 0 and
    ejects the artificial instead, on either pivot sign. Such pivots can
    happen at most once per artificial, so they cannot cycle, and sound
    unbounded certificates are preserved (a ray may never grow an
    artificial).
    """
    tab, obj = _tableau_for_basis(ext, rhs, c_vec, basis)
    since_refresh = 0
    stall = 0
    bland = False
    for _ in range(max_iter):
        reduced = obj[:n_enter]
        entering = np.nonzero(reduced < -_FEAS_TOL)[0]
        if entering.size == 0:
            if since_refresh == 0:
                return "optimal", tab, basis
            tab, obj = _tableau_for_basis(ext, rhs, c_vec, basis)
            since_refresh = 0
            continue
        if bland:
            j = int(entering[0])
        else:
            j = int(entering[np.argmin(reduced[entering])])
        col = tab[:, j]
        pos = col > _PIVOT_TOL
        pinned = (basis >= pin_start) & (np.abs(col) > _PIVOT_TOL)
        if not pos.any() and not pinned.any():
            if since_refresh == 0:
                return "unbounded", tab, basis
            tab, obj = _tableau_for_basis(ext, rhs, c_vec, basis)
            since_refresh = 0
            continue
        ratios = np.full(col.size, np.inf)
        ratios[pos] = tab[pos, -1] / col[pos]
        ratios[pinned] = 0.0
        rmin = ratios.min()
        # sign-safe window: rmin itself is always inside even when tiny
        # negative ratios appear from post-pivot rhs noise
        ties = np.nonzero(ratios <= rmin + 1e-10 * (1.0 + abs(rmin)))[0]
        if bland:
            row = int(ties[np.argmin(basis[ties])])
        else:
            row = int(ties[np.argmax(np.abs(col[ties]))])
        before = obj[-1]
        _pivot(tab, obj, basis, row, j)
        since_refresh += 1
        if since_refresh >= _REFRESH_PERIOD:
            tab, obj = _tableau_for_basis(ext, rhs, c_vec, basis)
            since_refresh = 0
        if obj[-1] > before + 1e-12 * max(1.0, abs(before)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise LpFailure("simplex pivot budget exhausted (numerical breakdown)")


def _dual_simplex(ext, rhs, c_vec, basis, n_real):
    """Restart from a dual-feasible `basis`; returns the tableau or None.

    Basic real variables are bounded below by zero and lingering artificials
    are fixed at zero. Each pivot takes the basic value farthest outside its
    bound as the leaving row and enters by the dual ratio test over columns
    below n_real, largest pivot element among ties, so an artificial pushed
    off zero is driven out of the basis like any other infeasible variable.
    'optimal' is declared only on a freshly refactorized tableau that is
    primal and dual feasible. None means the restart gave up: singular
    basis, not dual feasible, no eligible entry in the leaving row, or the
    pivot budget spent. The caller then solves cold, so this path never
    reports infeasibility.
    """
    since_refresh = 0
    for _ in range(n_real + ext.shape[0]):
        if since_refresh == 0:
            try:
                tab, obj = _tableau_for_basis(ext, rhs, c_vec, basis)
            except LpFailure:
                return None
            if (obj[:n_real] < -_FEAS_TOL).any():
                return None
        values = tab[:, -1]
        excess = np.where(basis >= n_real, np.abs(values), -values)
        if excess.size == 0 or excess.max() <= _PRIMAL_TOL:
            if since_refresh == 0:
                return tab
            since_refresh = 0
            continue
        row = int(np.argmax(excess))
        # entries whose column, entering, moves the leaving value toward zero
        entries = tab[row, :n_real] * np.sign(values[row])
        cand = np.flatnonzero(entries > _PIVOT_TOL)
        if cand.size == 0:
            return None
        ratios = obj[cand] / entries[cand]
        rmin = ratios.min()
        ties = cand[ratios <= rmin + 1e-10 * (1.0 + abs(rmin))]
        _pivot(tab, obj, basis, row, int(ties[np.argmax(entries[ties])]))
        since_refresh = (since_refresh + 1) % _REFRESH_PERIOD
    return None


def _optimal(p, tab, basis, s, t, n_real):
    x_std = np.zeros(n_real)
    real_rows = basis < n_real
    x_std[basis[real_rows]] = np.maximum(tab[real_rows, -1], 0.0)
    x = s @ x_std[: s.shape[1]] + t
    basis.setflags(write=False)
    return LpOutcome(
        status=LpStatus.OPTIMAL, solution=x, value=float(p.objective @ x), basis=basis
    )


def solve_lp(p: LpProblem, basis: np.ndarray | None = None) -> LpOutcome:
    """Deterministic two-phase dense simplex with periodic refactorization.

    ``basis``, the ``LpOutcome.basis`` of a program of the same shape,
    warm-starts the solve by dual simplex; if that restart cannot finish,
    the cold two-phase solve runs as if no basis had been given.
    """
    full, rhs, c_std, s, t, _ = _standardize(p)
    m, n_real = full.shape
    ext = np.hstack([full, np.eye(m)])
    c2 = np.concatenate([c_std, np.zeros(m)])
    if basis is not None:
        start = np.array(basis, dtype=np.intp)
        if start.shape != (m,) or ((start < 0) | (start >= n_real + m)).any():
            raise ValueError(f"basis must hold {m} column indices below {n_real + m}")
        tab = _dual_simplex(ext, rhs, c2, start, n_real)
        if tab is not None:
            return _optimal(p, tab, start, s, t, n_real)
    max_iter = 500 + 50 * (m + n_real)

    # phase 1: artificial identity basis, minimize the artificial sum
    c1 = np.zeros(n_real + m)
    c1[n_real:] = 1.0
    basis = np.arange(n_real, n_real + m)
    status, tab, basis = _simplex(
        ext, rhs, c1, basis, max_iter, n_enter=n_real, pin_start=n_real + m
    )
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded below
        raise LpFailure("phase 1 reported unbounded")
    phase1 = float(c1[basis] @ np.maximum(tab[:, -1], 0.0))
    if phase1 > _FEAS_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0))):
        return LpOutcome(status=LpStatus.INFEASIBLE)

    # phase 2: original objective; lingering artificial columns stay in the
    # working basis (pinned at zero) so it remains well-conditioned even
    # when the caller supplied redundant equality rows
    status, tab, basis = _simplex(
        ext, rhs, c2, basis, max_iter, n_enter=n_real, pin_start=n_real
    )
    if status == "unbounded":
        return LpOutcome(status=LpStatus.UNBOUNDED)
    return _optimal(p, tab, basis, s, t, n_real)
