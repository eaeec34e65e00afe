"""Small dense linear-program solver.

Solves  minimize c @ x  subject to  A_eq x = b_eq,  A_ub x <= b_ub  and
per-variable bounds, by two-phase primal simplex on a dense tableau.
Pivoting is Dantzig's rule with a largest-pivot tie-break, falling back to
Bland's rule (anti-cycling) after a run of degenerate pivots; the tableau
is refactorized from pristine data periodically and before any stop
decision, so accumulated roundoff cannot manufacture a verdict. Free
variables are split into positive/negative parts at the solver boundary.
For one BLAS build and thread count, identical inputs produce bitwise-
identical outcomes (threaded LAPACK solves round differently). The pivot
loops call ndarray methods and ufunc reductions, not NumPy's Python-level
wrappers: at this size dispatch, not arithmetic, is the cost. Each loop
pivots one work array, the tableau [B^-1 A | B^-1 b] over its objective row
(reduced costs, minus the objective value), by one BLAS rank-1 product
into a reused buffer and one subtraction.

A program has two kinds of sibling, each sharing everything else with it:
p.with_objective(c) has a new objective, p.with_rhs(...) new right-hand
sides, each checked as the constructor checks it. The constructor builds
the standard form, checking each bound in the one pass that classifies it;
the form depends only on the constraints and bounds, so every sibling
shares it, and each solve computes its own cost row from it. Every array
a program, its form, a Restart or the phase-1 memo holds is `frozen`.

Phase 1 reads only the constraints and the right-hand side, never the
objective (Chvatal, Linear Programming, 1983, ch. 8), so its result is a
`content_memo` of the form's matrix and the right-hand side: objective
siblings, such as the per-symbol witness LPs of one channel, run it once. A
phase 1 taken from the memo still counts its pivots, so every outcome is
the one a fresh solve gives. A cold solve factors each basis once. Phase 1
flips the rows whose right-hand side is negative and starts at the
artificial identity basis, where the tableau is that sign-normalized
[A | I | b] itself, so it starts without a solve. The memo holds [A | I]
and b, phase 1's feasibility, its final basis, its pivots and the work
array it ends on, which was refactorized from pristine data to confirm that
stop. Phase 2 runs on the same [A | I] and b, from a copy of that tableau
at the same basis (ch. 8 again), under its own objective row.

An optimal outcome carries its basis. A Restart solves a program once,
cold, and factors it at its own optimal basis; solve_lp then answers each
with_rhs sibling by dual simplex from there: reduced costs do not depend
on the right-hand side, so the basis stays dual feasible and is typically
a few pivots from the new optimum (Chvatal, Linear Programming, 1983,
ch. 10). A sibling already primal
feasible at that basis costs one matvec. An optimum is declared only after
the basic values and reduced costs are recomputed at the final basis from
pristine data. When the dual ratio test finds no eligible entry, the
leaving row is a Farkas ray; it is recomputed from pristine data and
declares the sibling infeasible only if it verifies (y @ A >= 0 and
y @ b < 0, with a margin). Whenever the restart cannot finish (a ray that
does not verify, a singular or dual-infeasible basis, a spent pivot
budget), the cold two-phase solve runs instead.

This is deliberately a small, dependency-free kernel: every program in this
package has at most a few hundred variables, so a dense tableau is adequate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .stochcore import content_memo, frozen, value_eq

__all__ = ["LpProblem", "LpOutcome", "LpStatus", "LpFailure", "Restart", "solve_lp"]

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

    bounds is one (lower, upper) pair per variable, each a finite real or
    None, which means unbounded on that side. Default bounds are (0, None)
    for every variable. The program holds frozen copies of the arrays it
    is given, so writing to the caller's arrays afterwards does not change it.
    It and its with_rhs and with_objective siblings share one standard
    form, which the constructor builds, checking the bounds as it goes.
    """

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    bounds: tuple = field(default=None)

    __eq__ = value_eq

    def __post_init__(self):
        c = _vector("objective", self.objective, np.size(self.objective), "variables")
        object.__setattr__(self, "objective", c)
        n = c.size
        for name, rhs in (("a_eq", "b_eq"), ("a_ub", "b_ub")):
            mat, vec = getattr(self, name), getattr(self, rhs)
            if (mat is None) != (vec is None):
                raise ValueError(f"{name} and its rhs must be given together")
            if mat is None:
                continue
            mat = np.asarray(mat, dtype=float)
            if mat.size == 0:
                mat = mat.reshape(0, n)
            if mat.ndim != 2 or mat.shape[1] != n:
                raise ValueError(f"{name} must be 2-D with {n} columns")
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, frozen(mat))
            object.__setattr__(self, rhs, _vector(rhs, vec, mat.shape[0], "rows"))
        bounds = ((0.0, None),) * n if self.bounds is None else tuple(map(tuple, self.bounds))
        if len(bounds) != n:
            raise ValueError(f"expected {n} bound pairs, got {len(bounds)}")
        object.__setattr__(self, "bounds", bounds)
        # not a field: siblings copy it, so this one form is all of theirs
        object.__setattr__(self, "_form", _StandardForm(self))

    def with_rhs(self, b_eq=None, b_ub=None) -> LpProblem:
        """This program with new right-hand sides.

        The sibling shares this program's matrices, objective, bounds and
        standard form, which are not validated again; only the new vectors
        are checked, and stored as frozen copies.
        """
        changes = {}
        for name, vec in (("b_eq", b_eq), ("b_ub", b_ub)):
            if vec is None:
                continue
            rows = getattr(self, "a" + name[1:])
            if rows is None:
                raise ValueError(f"{name} given to a program without a{name[1:]}")
            changes[name] = _vector(name, vec, rows.shape[0], "rows")
        return self._sibling(changes)

    def with_objective(self, objective) -> LpProblem:
        """This program with a new objective.

        The sibling shares this program's constraints, bounds and standard
        form, which are not validated again; only the new objective is
        checked, and stored as a frozen copy.
        """
        c = _vector("objective", objective, self.objective.size, "variables")
        return self._sibling({"objective": c})

    def _sibling(self, changes: dict) -> LpProblem:
        """This program with the fields in `changes` replaced, nothing validated."""
        sibling = object.__new__(LpProblem)
        sibling.__dict__.update(self.__dict__, **changes)
        return sibling


def _vector(name: str, vec, size: int, unit: str) -> np.ndarray:
    """vec as a frozen float copy of `size` finite entries, or ValueError."""
    vec = np.asarray(vec, dtype=float).ravel()
    if vec.size != size:
        raise ValueError(f"{name} has {vec.size} entries for {size} {unit}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite")
    return frozen(vec)


@dataclass(frozen=True)
class LpOutcome:
    """Status, and for an optimum the solution, its value and its basis.

    ``solution`` and ``basis`` (the standard-form columns basic at the optimum)
    are frozen: a Restart, factored at its own optimum, shares that outcome.
    ``path`` says what answered: ``"start"`` (optimal at a restart's basis),
    ``"dual"`` (dual-simplex pivots from it), ``"farkas"`` (a verified ray
    from it) or ``"cold"`` (the two-phase solve); ``pivots`` counts every
    pivot made, a restart's abandoned ones included. A phase 1 shared with
    an earlier program of the same constraints counts its pivots again, so
    an outcome never depends on what was solved before it.
    """

    status: LpStatus
    solution: np.ndarray | None = None
    value: float | None = None
    basis: np.ndarray | None = None
    path: str = "cold"
    pivots: int = 0

    __eq__ = value_eq


# ---------- standard-form conversion ----------


class _StandardForm:
    """The program over nonnegative variables x_std with x = s x_std + t.

    Rows are the equality rows, the inequality rows and one box row per
    two-sided bound, each scaled to unit max-abs; columns are the
    structural variables and then one slack per inequality or box row.
    ``full`` does not depend on the right-hand side, which ``rhs`` maps
    into the same rows, so no row is sign-flipped here, nor on the
    objective, which ``cost`` maps onto the columns. The arrays are
    frozen: the form is shared by a program's siblings. Its one pass
    over the bounds checks each pair as it classifies it.
    """

    def __init__(self, p: LpProblem):
        n = p.objective.size
        variables, signs = [], []  # per standard-form column: its variable and sign
        t = np.zeros(n)
        box_cols, caps = [], []  # per two-sided bound: its column and cap
        for i, (lo, hi) in enumerate(p.bounds):
            for side, value in (("lower", lo), ("upper", hi)):
                real = isinstance(value, numbers.Real) and not isinstance(value, bool)
                if value is not None and not (real and math.isfinite(value)):
                    raise ValueError(f"bound {i}: {side} {value!r} must be finite or None")
            if lo is None and hi is None:  # free: x = x_std+ - x_std-
                variables += [i, i]
                signs += [1.0, -1.0]
            elif lo is None:  # x = hi - x_std
                variables.append(i)
                signs.append(-1.0)
                t[i] = hi
            else:  # x = lo + x_std, with x_std <= hi - lo when hi is set
                if hi is not None:
                    if lo > hi:
                        raise ValueError(f"bound {i}: lower {lo} exceeds upper {hi}")
                    box_cols.append(len(variables))
                    caps.append(float(hi) - float(lo))
                variables.append(i)
                signs.append(1.0)
                t[i] = lo
        n_std = len(variables)
        s = np.zeros((n, n_std))
        s[variables, np.arange(n_std)] = signs

        blocks = [(m @ s, m @ t) for m in (p.a_eq, p.a_ub) if m is not None]
        box = np.zeros((len(caps), n_std))
        for r, j in enumerate(box_cols):
            box[r, j] = 1.0
        mat = np.vstack([std for std, _ in blocks] + [box])
        shift = np.concatenate([shift for _, shift in blocks] + [np.zeros(len(caps))])

        # equilibrate structural rows to unit max-abs (before slacks join, so a
        # unit slack cannot mask a badly scaled row): pivot tolerances then act
        # uniformly regardless of the magnitudes the caller happened to use
        scale = np.abs(mat).max(axis=1, initial=0.0)
        divisor = np.where(scale > 0.0, scale, 1.0)
        mat /= divisor[:, None]  # x / 1.0 is x to the bit, signed zeros included

        # append one slack per inequality row
        m = mat.shape[0]
        m_ub = m - (p.a_eq.shape[0] if p.a_eq is not None else 0)
        full = np.zeros((m, n_std + m_ub))
        full[:, :n_std] = mat
        full[m - m_ub :, n_std:] = np.eye(m_ub)
        arrays = full, shift, divisor, np.array(caps, dtype=float), s, t
        self.full, self.shift, self.divisor, self.caps, self.s, self.t = map(frozen, arrays)

    def rhs(self, p: LpProblem) -> np.ndarray:
        """The scaled standard-form right-hand side of p (or of a sibling)."""
        given = [vec for vec in (p.b_eq, p.b_ub) if vec is not None]
        return (np.concatenate(given + [self.caps]) - self.shift) / self.divisor

    def cost(self, p: LpProblem) -> np.ndarray:
        """p's objective on the columns, then a zero per row for the artificials."""
        m, n_real = self.full.shape
        cost = np.zeros(n_real + m)
        cost[: self.s.shape[1]] = p.objective @ self.s
        return cost


# ---------- simplex core ----------


def _pivot(work, product, basis, row, col):
    """Pivot the work array on (row, col); `product`, of its shape, is scratch.

    The rank-1 update, objective row included, is one BLAS product (a k = 1
    dgemm rounds each entry once, as the broadcast factor * prow does,
    without NumPy's slow loop over a stride-0 operand) and one subtraction.
    Only the sign of an exact zero can differ from the broadcast form (+0
    where it gives -0), and nothing reads it: no zero is ever a divisor,
    and every value an outcome returns is recomputed from pristine data.
    """
    prow = work[row]
    prow /= prow[col]
    factor = work[:, col].copy()
    factor[row] = 0.0
    np.dot(factor[:, None], prow[None, :], out=product)
    work -= product
    basis[row] = col


def _tableau_for_basis(ext, rhs, c_vec, basis):
    """Exact work array of a basis, from pristine data.

    Incremental pivoting accumulates roundoff (each pivot divides by the
    pivot element); rebuilding from the original matrix resets that drift.
    Two solves, not one over [ext | rhs]: LAPACK rounds the extra column
    differently, and every outcome would move.
    """
    bmat = ext[:, basis]
    try:
        inv_ext = np.linalg.solve(bmat, ext)
        inv_rhs = np.linalg.solve(bmat, rhs)
    except np.linalg.LinAlgError as exc:
        raise LpFailure("basis matrix singular during refactorization") from exc
    return _work_array(inv_ext, inv_rhs, c_vec, basis)


def _work_array(inv_ext, inv_rhs, c_vec, basis):
    """The tableau B^-1 [ext | rhs] over its objective row, at `basis`.

    The objective row holds the reduced costs and then minus the objective
    value. The blocks must be C-contiguous: a strided view may take another
    BLAS path and round differently, and every phase start must round alike.
    """
    m, n = inv_ext.shape
    cb = c_vec[basis]
    work = np.empty((m + 1, n + 1))
    work[:-1, :-1] = inv_ext
    work[:-1, -1] = inv_rhs
    work[-1, :-1] = c_vec - cb @ inv_ext
    work[-1, -1] = -float(cb @ inv_rhs)
    return work


# refactorize this often even without a stop signal
_REFRESH_PERIOD = 64
# degenerate pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 40


def _simplex(ext, rhs, c_vec, basis, work, max_iter, pin_start):
    """Iterate to optimality from `basis`; returns (status, work, basis, pivots).

    `work` is the work array of `basis` (`_work_array`), exact from
    pristine data; it is pivoted in place.

    Pivot choice is Dantzig's rule (most negative reduced cost) with the
    largest pivot element among ratio-test ties — fast and numerically
    kind. After _STALL_LIMIT degenerate pivots it falls back to Bland's
    rule (smallest indices) until the objective strictly improves again,
    which breaks cycles. 'optimal'/'unbounded' are only declared on a
    freshly refactorized tableau so drift cannot manufacture either.

    Only the real columns, left of `ext`'s artificial block, may enter the
    basis. Basic variables with index >= pin_start (lingering artificials
    in phase 2) are pinned at zero: any entering column that would move one
    forces a ratio of 0 and ejects the artificial instead, on either pivot
    sign. Such pivots can happen at most once per artificial, so they
    cannot cycle, and sound unbounded certificates are preserved (a ray may
    never grow an artificial). An ejected artificial never re-enters, so
    once none is left the pinning stops.
    """
    n_enter = ext.shape[1] - ext.shape[0]
    if n_enter == 0:  # a program without variables: no column can enter
        return "optimal", work, basis, 0
    lingering = basis >= pin_start  # rows pinned at zero; none in phase 1
    pinning = lingering.any()
    ratios = np.empty(ext.shape[0])
    product = np.empty_like(work)
    since_refresh = 0
    stall = 0
    bland = False
    pivots = 0
    for _ in range(max_iter):
        reduced = work[-1, :n_enter]
        # Bland's entering column is the first eligible one, Dantzig's the
        # first most negative reduced cost, eligible only below -_FEAS_TOL
        j = int((reduced < -_FEAS_TOL).argmax() if bland else reduced.argmin())
        if not reduced[j] < -_FEAS_TOL:
            if since_refresh == 0:
                return "optimal", work, basis, pivots
            work = _tableau_for_basis(ext, rhs, c_vec, basis)
            since_refresh = 0
            continue
        col = work[:-1, j]
        blocking = col > _PIVOT_TOL
        ratios.fill(np.inf)
        np.divide(work[:-1, -1], col, out=ratios, where=blocking)
        if pinning:
            pinned = lingering & (np.abs(col) > _PIVOT_TOL)
            ratios[pinned] = 0.0
            blocking |= pinned
        rmin = np.minimum.reduce(ratios, initial=np.inf)
        if rmin == np.inf and not np.logical_or.reduce(blocking):  # blocking ratios are finite
            if since_refresh == 0:
                return "unbounded", work, basis, pivots
            work = _tableau_for_basis(ext, rhs, c_vec, basis)
            since_refresh = 0
            continue
        # sign-safe window: rmin itself is always inside even when tiny
        # negative ratios appear from post-pivot rhs noise
        ties = (ratios <= rmin + 1e-10 * (1.0 + abs(rmin))).nonzero()[0]
        if ties.size == 1:  # the usual case, and the row either tie-break picks
            row = int(ties[0])
        elif bland:
            row = int(ties[basis[ties].argmin()])
        else:
            row = int(ties[np.abs(col[ties]).argmax()])
        before = work[-1, -1]
        _pivot(work, product, basis, row, j)
        if pinning and lingering[row]:  # an artificial left the basis
            lingering[row] = False
            pinning = lingering.any()
        pivots += 1
        since_refresh += 1
        if since_refresh >= _REFRESH_PERIOD:
            work = _tableau_for_basis(ext, rhs, c_vec, basis)
            since_refresh = 0
        if work[-1, -1] > before + 1e-12 * max(1.0, abs(before)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    raise LpFailure("simplex pivot budget exhausted (numerical breakdown)")


def _primal_feasible(values, basis, n_real):
    """Basic real values nonnegative and lingering artificials at zero."""
    excess = np.where(basis >= n_real, np.abs(values), -values)
    return excess.max(initial=0.0) <= _PRIMAL_TOL


def _verified_optimum(ext, rhs, c_vec, basis, n_real):
    """The basic values at `basis` from pristine data, if it is optimal there.

    Two m x m solves give the basic values and the duals; None unless the
    values are primal feasible and the reduced costs dual feasible.
    """
    bmat = ext[:, basis]
    try:
        values = np.linalg.solve(bmat, rhs)
        duals = np.linalg.solve(bmat.T, c_vec[basis])
    except np.linalg.LinAlgError:
        return None
    reduced = c_vec[:n_real] - duals @ ext[:, :n_real]
    if _primal_feasible(values, basis, n_real) and (reduced >= -_FEAS_TOL).all():
        return values
    return None


def _farkas_ray(ext, rhs, basis, row):
    """Row `row` of the basis inverse from pristine data, oriented so y @ rhs <= 0."""
    unit = np.zeros(basis.size)
    unit[row] = 1.0
    y = np.linalg.solve(ext[:, basis].T, unit)
    return -y if y @ rhs > 0.0 else y


def _is_farkas(y, full, rhs):
    """True iff y proves {x >= 0 : full x = rhs} empty, with a margin.

    y @ full >= 0 makes y @ full x >= 0 for every x >= 0, which y @ rhs < 0
    then contradicts; both hold relative to the size of y and of rhs.
    """
    size = np.abs(y).max(initial=0.0)
    return bool(
        (y @ full >= -_FEAS_TOL * size).all()
        and y @ rhs < -_FEAS_TOL * size * max(1.0, np.abs(rhs).max(initial=0.0))
    )


def _dual_simplex(ext, rhs, c_vec, basis, work, n_real):
    """Dual-simplex pivots from a dual-feasible `basis` whose work array is `work`.

    Returns (path, values, pivots): ("dual", basic values, k) at a verified
    optimum, ("farkas", None, k) on a verified ray, or (None, None, k) when
    the restart gives up, and the caller then solves cold.

    Basic real variables are bounded below by zero and lingering artificials
    are fixed at zero. Each pivot takes the basic value farthest outside its
    bound as the leaving row and enters by the dual ratio test over columns
    below n_real, largest pivot element among ties, so an artificial pushed
    off zero is driven out of the basis like any other infeasible variable.
    After _STALL_LIMIT pivots that leave the objective unchanged it falls
    back to Bland's rule (the infeasible row of smallest basic index leaves,
    the first ratio-test tie enters) until the objective moves again, so the
    loop ends; its budget, a cold phase's, guards against numerical
    breakdown. `work` and `basis` are pivoted in place.
    """
    product = np.empty_like(work)
    stall = 0
    bland = False
    pivots = 0
    for _ in range(_max_iter((ext.shape[0], n_real))):
        values = work[:-1, -1]
        excess = np.where(basis >= n_real, np.abs(values), -values)
        row = int(excess.argmax())
        if excess[row] <= _PRIMAL_TOL:  # _primal_feasible, from the same excess
            values = _verified_optimum(ext, rhs, c_vec, basis, n_real)
            return ("dual" if values is not None else None), values, pivots
        if bland:
            infeasible = (excess > _PRIMAL_TOL).nonzero()[0]
            row = int(infeasible[basis[infeasible].argmin()])
        # entries whose column, entering, moves the leaving value toward zero
        entries = work[row, :n_real] * np.sign(values[row])
        cand = (entries > _PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            try:
                y = _farkas_ray(ext, rhs, basis, row)
            except np.linalg.LinAlgError:
                return None, None, pivots
            verified = _is_farkas(y, ext[:, :n_real], rhs)
            return ("farkas" if verified else None), None, pivots
        ratios = work[-1, cand] / entries[cand]
        rmin = np.minimum.reduce(ratios)
        ties = cand[ratios <= rmin + 1e-10 * (1.0 + abs(rmin))]
        col = ties[0] if ties.size == 1 or bland else ties[entries[ties].argmax()]
        before = work[-1, -1]
        _pivot(work, product, basis, row, int(col))
        pivots += 1
        if pivots % _REFRESH_PERIOD == 0:
            try:
                work = _tableau_for_basis(ext, rhs, c_vec, basis)
            except LpFailure:
                return None, None, pivots
            if (work[-1, :n_real] < -_FEAS_TOL).any():
                return None, None, pivots
        # each pivot lowers minus the objective value, unless it is degenerate
        if work[-1, -1] < before - 1e-12 * max(1.0, abs(before)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
    return None, None, pivots


def _optimal(p, basis, values, path, pivots):
    form = p._form
    n_real = form.full.shape[1]
    x_std = np.zeros(n_real)
    real_rows = basis < n_real
    x_std[basis[real_rows]] = np.maximum(values[real_rows], 0.0)
    x = form.s @ x_std[: form.s.shape[1]] + form.t
    return LpOutcome(
        status=LpStatus.OPTIMAL,
        solution=frozen(x),
        value=float(p.objective @ x),
        basis=frozen(basis),
        path=path,
        pivots=pivots,
    )


def _same_program(p: LpProblem, q: LpProblem) -> bool:
    """True iff p and q differ at most in their right-hand sides."""
    blocks = ((p.objective, q.objective), (p.a_eq, q.a_eq), (p.a_ub, q.a_ub))
    return (p.bounds is q.bounds or p.bounds == q.bounds) and all(
        x is y or np.array_equal(x, y) for x, y in blocks
    )


class Restart:
    """One program solved cold and factored at its own optimum, to answer its siblings.

    ``optimum`` is the program's cold LpOutcome. At its basis the restart
    holds the basis inverse and a work array: the tableau B^-1 [A | I] over
    the program's standard form, above the reduced costs. Dual feasibility
    does not depend on the right-hand side, so it is checked here once: a
    program with no optimum, or a basis that roundoff leaves singular or
    dual infeasible, leaves the restart unusable, and every solve through
    it runs cold. The restart is never modified by a solve.
    """

    def __init__(self, p: LpProblem):
        form = p._form
        self.problem = p
        self.optimum = _solve_cold(p, 0)
        self.basis = self.optimum.basis
        m, n_real = form.full.shape
        self.ext = frozen(np.hstack([form.full, np.eye(m)]))
        self.cost = frozen(form.cost(p))
        self.inverse = self.work = None
        if self.basis is None:
            return
        try:
            inverse = np.linalg.inv(self.ext[:, self.basis])
        except np.linalg.LinAlgError:
            return
        # a sibling's answer fills in the last column, its right-hand side's
        work = _work_array(inverse @ self.ext, np.zeros(m), self.cost, self.basis)
        if (work[-1, :n_real] < -_FEAS_TOL).any():
            return
        self.inverse, self.work = frozen(inverse), frozen(work)

    def answer(self, p: LpProblem):
        """(outcome, pivots) for sibling p; outcome None means solve cold."""
        if not _same_program(p, self.problem):
            raise ValueError("the restart was factored for a different program")
        if self.inverse is None:
            return None, 0
        rhs = p._form.rhs(p)
        n_real = p._form.full.shape[1]
        values = self.inverse @ rhs
        if _primal_feasible(values, self.basis, n_real):
            return _optimal(p, self.basis, values, "start", 0), 0
        work = self.work.copy()
        work[:-1, -1] = values
        work[-1, -1] = -(self.cost[self.basis] @ values)
        basis = self.basis.copy()
        path, values, pivots = _dual_simplex(self.ext, rhs, self.cost, basis, work, n_real)
        if path == "dual":
            return _optimal(p, basis, values, path, pivots), pivots
        if path == "farkas":
            return LpOutcome(status=LpStatus.INFEASIBLE, path=path, pivots=pivots), pivots
        return None, pivots


def solve_lp(p: LpProblem, restart: Restart | None = None) -> LpOutcome:
    """Deterministic two-phase dense simplex with periodic refactorization.

    ``restart``, a Restart of a program that differs from ``p`` at most in
    its right-hand sides, answers the solve by dual simplex from its basis;
    if it cannot finish, the cold two-phase solve runs as if no restart had
    been given.
    """
    if restart is None:
        return _solve_cold(p, 0)
    outcome, spent = restart.answer(p)
    return outcome if outcome is not None else _solve_cold(p, spent)


def _solve_cold(p: LpProblem, spent: int) -> LpOutcome:
    """The two-phase solve of p in its standard form; ``spent`` pivots came before."""
    form = p._form
    ext, rhs, feasible, basis, pivots1, work = _phase_one(form.full, form.rhs(p))
    if not feasible:
        return LpOutcome(status=LpStatus.INFEASIBLE, pivots=spent + pivots1)

    # phase 2: original objective, on phase 1's sign-normalized [A | I] and
    # from the tableau of its final work array, which is that basis factored
    # from pristine data: only the objective row is new. Lingering
    # artificial columns stay in the working basis (pinned at zero) so it
    # remains well-conditioned even when the caller supplied redundant
    # equality rows
    c2 = form.cost(p)
    start = _work_array(np.ascontiguousarray(work[:-1, :-1]), work[:-1, -1].copy(), c2, basis)
    status, work, basis, pivots2 = _simplex(
        ext, rhs, c2, basis.copy(), start, _max_iter(form.full.shape),
        pin_start=form.full.shape[1],
    )
    pivots = spent + pivots1 + pivots2
    if status == "unbounded":
        return LpOutcome(status=LpStatus.UNBOUNDED, pivots=pivots)
    return _optimal(p, basis, work[:-1, -1], "cold", pivots)


def _max_iter(shape) -> int:
    """The pivot budget of one simplex phase on an m x n_real program."""
    return 500 + 50 * (shape[0] + shape[1])


# standard forms and right-hand sides whose phase 1 is remembered, process-wide
# by content: a certify's witness LPs share an entry, and so do the certify
# benchmark's five set-ups in one process, which certify the same reference
# channels again (a memo per standard form raised setup_s from 0.008 to 0.013 s)
_PHASE_ONE_MEMO = 8


@content_memo(_PHASE_ONE_MEMO)
def _phase_one(full: np.ndarray, rhs: np.ndarray) -> tuple:
    """(ext, rhs, feasible, basis, pivots, work) of phase 1 on {x >= 0 : full x = rhs}.

    Rows with a negative right-hand side are flipped, so ext = [full | I] and
    rhs >= 0, and phase 1 starts from the artificial identity basis, whose
    tableau is [ext | rhs] itself. It minimizes the artificial sum, so it
    reads only the constraints and the right-hand side: memoized by their
    content, it runs once per constraint set, not once per objective. The
    work array is the final basis's, refactorized from pristine data, and
    phase 2 starts from its tableau on the same ext and rhs. Every array is
    frozen; phase 2 pivots on copies.
    """
    m, n_real = full.shape
    ext = np.hstack([full, np.eye(m)])
    ext[rhs < 0, :n_real] *= -1.0
    rhs = np.abs(rhs)
    c1 = np.zeros(n_real + m)
    c1[n_real:] = 1.0
    basis = np.arange(n_real, n_real + m)
    status, work, basis, pivots = _simplex(
        ext, rhs, c1, basis, _work_array(ext, rhs, c1, basis), _max_iter(full.shape),
        pin_start=n_real + m,
    )
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded below
        raise LpFailure("phase 1 reported unbounded")
    phase1 = float(c1[basis] @ np.maximum(work[:-1, -1], 0.0))
    infeasible = phase1 > _FEAS_TOL * max(1.0, float(rhs.max(initial=0.0)))
    return frozen(ext), frozen(rhs), not infeasible, frozen(basis), pivots, frozen(work)
