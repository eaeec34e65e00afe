"""Oracle tests for the dense simplex solver.

Expected values come from hand-solvable programs and from a brute-force
vertex-enumeration oracle that is independent of the simplex path.
"""

import collections
import dataclasses
import itertools
import time
import timeit

import numpy as np
import pytest

from relay_sentinel import detector, lpkernel, manipulability
from relay_sentinel.attackmodel import AttackSpec
from relay_sentinel.channelmodel import MacModel
from relay_sentinel.detector import DetectorConfig
from relay_sentinel.harness import Scenario, preset_curves, trial_counts, trial_traces
from relay_sentinel.lpkernel import LpFailure, LpProblem, LpStatus, solve_lp
from relay_sentinel.stochcore import frozen

from conftest import assert_frozen
from test_manipulability import _sweep_channels, _witness_programs


# ---------- hand oracles ----------


def test_minimize_x_at_least_one():
    # minimize x subject to x >= 1 (as a bound)
    p = LpProblem(objective=[1.0], bounds=[(1.0, None)])
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - 1.0) < 1e-8
    assert abs(out.solution[0] - 1.0) < 1e-8


def test_minimize_x_at_least_one_as_inequality():
    # same program phrased as -x <= -1 with x free
    p = LpProblem(objective=[1.0], a_ub=[[-1.0]], b_ub=[-1.0], bounds=[(None, None)])
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - 1.0) < 1e-8


def test_maximize_sum_on_simplex():
    # minimize -x-y subject to x+y <= 1, x,y >= 0  -> value -1
    p = LpProblem(objective=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value + 1.0) < 1e-8
    assert abs(out.solution.sum() - 1.0) < 1e-8


def test_infeasible():
    # x <= -1 and x >= 0 cannot hold together
    p = LpProblem(objective=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
    out = solve_lp(p)
    assert out.status is LpStatus.INFEASIBLE
    assert out.solution is None and out.value is None


def test_unbounded():
    # minimize -x with x >= 0 and no cap
    p = LpProblem(objective=[-1.0])
    out = solve_lp(p)
    assert out.status is LpStatus.UNBOUNDED


def test_free_variable_minimax():
    # minimize y subject to y >= x - 2 and y >= -x, x free
    # optimum at x = 1, y = -1
    p = LpProblem(
        objective=[0.0, 1.0],
        a_ub=[[1.0, -1.0], [-1.0, -1.0]],
        b_ub=[2.0, 0.0],
        bounds=[(None, None), (None, None)],
    )
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value + 1.0) < 1e-8


def test_program_without_variables():
    # no column can enter, so both phases stop at once
    out = solve_lp(LpProblem(objective=[]))
    assert (out.status, out.value, out.pivots, out.basis.size) == (LpStatus.OPTIMAL, 0.0, 0, 0)


def test_equality_constraint():
    # minimize x + 2y subject to x + y = 1, x,y >= 0 -> x=1, value 1
    p = LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - 1.0) < 1e-8
    assert abs(out.solution[0] - 1.0) < 1e-8


def test_redundant_equalities():
    # duplicated equality rows must not break phase 1
    p = LpProblem(
        objective=[1.0, 1.0],
        a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 1.0, 2.0],
    )
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - 1.0) < 1e-8


def test_box_bounds():
    # minimize -x - y with x in [0, 2], y in [-1, 1] -> value -3
    p = LpProblem(objective=[-1.0, -1.0], bounds=[(0.0, 2.0), (-1.0, 1.0)])
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value + 3.0) < 1e-8


def test_dimension_mismatch_is_contract_error():
    with pytest.raises(ValueError):
        LpProblem(objective=[1.0, 1.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LpProblem(objective=[1.0], bounds=[(0.0, None), (0.0, None)])
    with pytest.raises(ValueError):
        LpProblem(objective=[1.0], bounds=[(2.0, 1.0)])


def test_a_bound_is_a_finite_real_or_none():
    # an infinite lower bound used to solve to x = -inf, and the other four
    # failed inside the simplex with "argmax of an empty sequence"
    inf, nan = float("inf"), float("nan")
    cases = {
        (-inf, None): "lower -inf",
        (0.0, inf): "upper inf",
        (nan, None): "lower nan",
        (0.0, nan): "upper nan",
        (-inf, inf): "lower -inf",
    }
    for bound, shown in cases.items():
        with pytest.raises(ValueError, match=f"^bound 1: {shown} must be finite or None$"):
            LpProblem(objective=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[5.0], bounds=[(0.0, None), bound])
    # a crossed pair names its variable too
    with pytest.raises(ValueError, match="^bound 1: lower 2.0 exceeds upper 1.0$"):
        LpProblem(objective=[1.0, 1.0], bounds=[(0.0, None), (2.0, 1.0)])


def test_a_program_owns_read_only_copies_of_its_arrays():
    # a program that aliased its caller's matrix let a Restart match a
    # changed program by identity and answer it with a stale optimum
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, -2.0])
    p = LpProblem(c, a_ub=a, b_ub=b)
    restart = lpkernel.Restart(p)
    a[0, 1], b[0], c[0] = 4.0, 7.0, 5.0
    assert p.a_ub.tolist() == [[1.0, 1.0]] and p.b_ub.tolist() == [1.0]
    assert p.objective.tolist() == [-1.0, -2.0]
    sibling = p.with_rhs(b_ub=[2.0])
    assert solve_lp(sibling, restart).value == solve_lp(sibling).value == -4.0
    changed = LpProblem([-1.0, -2.0], a_ub=a, b_ub=[2.0])
    assert solve_lp(changed).value == -2.0
    with pytest.raises(ValueError, match="different program"):
        solve_lp(changed, restart)
    rhs = np.array([3.0])
    sibling = p.with_rhs(b_ub=rhs)
    rhs[0] = 0.0
    assert sibling.b_ub.tolist() == [3.0]
    for arr in (p.objective, p.a_ub, p.b_ub, sibling.b_ub):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert not LpProblem([1.0, 1.0], a_eq=[], b_eq=[]).a_eq.flags.writeable


def test_a_block_is_never_reshaped_to_fit():
    # a (2, 3) block with a 6-variable objective is not one 1 x 6 row
    with pytest.raises(ValueError, match="a_eq must be 2-D with 6 columns"):
        LpProblem(objective=np.zeros(6), a_eq=np.ones((2, 3)), b_eq=[1.0])
    # nor is a (1, 3) block cut down to 2 variables
    with pytest.raises(ValueError, match="a_ub must be 2-D with 2 columns"):
        LpProblem(objective=np.zeros(2), a_ub=np.ones((1, 3)), b_ub=[1.0])
    with pytest.raises(ValueError, match="a_eq must be 2-D with 3 columns"):
        LpProblem(objective=np.zeros(3), a_eq=np.ones(3), b_eq=[1.0])
    # only an empty block is reshaped, to no rows
    assert LpProblem(objective=np.zeros(3), a_eq=[], b_eq=[]).a_eq.shape == (0, 3)


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    c = rng.normal(size=6)
    a_ub = rng.normal(size=(4, 6))
    x0 = rng.random(6)
    b_ub = a_ub @ x0 + 0.5
    p = LpProblem(objective=c, a_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 2.0)] * 6)
    out1 = solve_lp(p)
    out2 = solve_lp(p)
    assert out1.status is out2.status is LpStatus.OPTIMAL
    assert out1.value == out2.value
    assert np.array_equal(out1.solution, out2.solution)


# ---------- anti-cycling ----------


def test_beale_degenerate_instance_terminates():
    # classic cycling instance for naive pivoting; Bland's rule must terminate
    c = [-0.75, 150.0, -0.02, 6.0]
    a_ub = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0.0, 0.0, 1.0]
    out = solve_lp(LpProblem(objective=c, a_ub=a_ub, b_ub=b_ub))
    assert out.status is LpStatus.OPTIMAL
    oracle = _vertex_oracle(np.array(c), None, None, np.array(a_ub), np.array(b_ub), [(0.0, None)] * 4)
    assert abs(out.value - oracle) < 1e-8


# ---------- brute-force vertex-enumeration oracle ----------


def _vertex_oracle(c, a_eq, b_eq, a_ub, b_ub, bounds):
    """Minimum of c @ x over the polytope, by enumerating basic solutions.

    Every vertex is the intersection of n active constraints; equalities are
    always active. Assumes the feasible set is a bounded nonempty polytope.
    """
    n = c.size
    rows = []
    rhs = []
    if a_eq is not None:
        for i in range(a_eq.shape[0]):
            rows.append(a_eq[i])
            rhs.append(b_eq[i])
    n_eq = len(rows)
    ineq_rows = []
    ineq_rhs = []
    if a_ub is not None:
        for i in range(a_ub.shape[0]):
            ineq_rows.append(a_ub[i])
            ineq_rhs.append(b_ub[i])
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        if lo is not None:
            e_lo = -e.copy()
            e_lo[j] = -1.0
            ineq_rows.append(e_lo)
            ineq_rhs.append(-lo)
        if hi is not None:
            e_hi = e.copy()
            e_hi[j] = 1.0
            ineq_rows.append(e_hi)
            ineq_rhs.append(hi)
    best = np.inf
    for combo in itertools.combinations(range(len(ineq_rows)), n - n_eq):
        mat = np.array(rows + [ineq_rows[i] for i in combo])
        vec = np.array(rhs + [ineq_rhs[i] for i in combo])
        try:
            x = np.linalg.solve(mat, vec)
        except np.linalg.LinAlgError:
            continue
        ok = True
        for r, b in zip(ineq_rows, ineq_rhs):
            if r @ x > b + 1e-7:
                ok = False
                break
        if ok and a_eq is not None:
            if np.abs(a_eq @ x - b_eq).max() > 1e-7:
                ok = False
        if ok:
            best = min(best, float(c @ x))
    return best


def _random_lps():
    """200 random feasible bounded programs, <= 5 variables, with their data."""
    rng = np.random.default_rng(20240817)
    for trial in range(200):
        n = int(rng.integers(2, 6))
        m_ub = int(rng.integers(1, 4))
        with_eq = n >= 3 and bool(rng.integers(0, 2))
        ubs = rng.uniform(0.5, 2.0, size=n)
        bounds = [(0.0, float(u)) for u in ubs]
        x0 = np.array([rng.uniform(0.0, u) for u in ubs])
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m_ub, n))
        b_ub = a_ub @ x0 + rng.uniform(0.05, 1.0, size=m_ub)
        a_eq = b_eq = None
        if with_eq:
            a_eq = rng.normal(size=(1, n))
            b_eq = a_eq @ x0
        p = LpProblem(objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        yield trial, p, (c, a_eq, b_eq, a_ub, b_ub, bounds)


def test_random_lps_match_vertex_oracle():
    for trial, p, (c, a_eq, b_eq, a_ub, b_ub, bounds) in _random_lps():
        out = solve_lp(p)
        assert out.status is LpStatus.OPTIMAL, f"trial {trial} not optimal"
        oracle = _vertex_oracle(c, a_eq, b_eq, a_ub, b_ub, bounds)
        assert np.isfinite(oracle), f"trial {trial} oracle found no vertex"
        assert abs(out.value - oracle) < 1e-6, f"trial {trial}: {out.value} vs {oracle}"
        # optimal point satisfies all constraints within the feasibility tolerance
        assert (a_ub @ out.solution <= b_ub + 1e-8).all()
        if a_eq is not None:
            assert np.abs(a_eq @ out.solution - b_eq).max() < 1e-8
        for xj, (lo, hi) in zip(out.solution, bounds):
            assert lo - 1e-8 <= xj <= hi + 1e-8


def test_failure_is_distinct_type():
    assert issubclass(LpFailure, RuntimeError)
    assert not issubclass(LpFailure, ValueError)


def test_redundant_equality_rows_keep_exact_solution():
    # duplicated equality rows leave an artificial basic at zero after
    # phase 1; it must ride along pinned without poisoning the basis
    p = LpProblem(
        objective=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),
        b_eq=np.array([1.0, 1.0, 0.0]),
    )
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(out.solution, [0.5, 0.5], atol=1e-9)


def test_row_scales_do_not_change_the_answer():
    # min x subject to 1e-8 x >= 1e-8: row equilibration makes the pivot
    # tolerance meaningful regardless of the caller's units
    p = LpProblem(
        objective=np.array([1.0]),
        a_ub=np.array([[-1e-8]]),
        b_ub=np.array([-1e-8]),
    )
    out = solve_lp(p)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)


# ---------- restart from a sibling's basis ----------


def _families(count=60):
    """Random program families that differ only in their right-hand sides.

    Yields (base program, its cold optimum, six siblings). The last sibling
    of each family is infeasible, every third family duplicates its
    equality row (a lingering artificial), and the box bounds add rows of
    their own.
    """
    rng = np.random.default_rng(20261018)
    for family in range(count):
        n = int(rng.integers(2, 7))
        m_ub = int(rng.integers(1, 5))
        ubs = rng.uniform(0.5, 2.0, size=n)
        bounds = [(0.0, float(u)) for u in ubs]
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m_ub, n))
        a_eq = rng.normal(size=(1, n))
        if family % 3 == 0:
            a_eq = np.vstack([a_eq, a_eq])
        x, slack = rng.uniform(0.0, ubs), rng.uniform(0.05, 1.0, m_ub)
        base = LpProblem(
            objective=c, a_eq=a_eq, b_eq=a_eq @ x, a_ub=a_ub, b_ub=a_ub @ x + slack,
            bounds=bounds,
        )
        siblings = []
        for k in range(6):
            slack = rng.uniform(0.0, 1.0, m_ub)
            if k == 5:  # row 0 below its minimum over the box
                slack[0] = -1.0 - np.abs(a_ub[0]) @ ubs
            x = rng.uniform(0.0, ubs)
            siblings.append(base.with_rhs(b_eq=a_eq @ x, b_ub=a_ub @ x + slack))
        yield base, solve_lp(base), siblings


def _outcome_key(out):
    """Every field of an outcome, arrays as their bytes."""
    solution = None if out.solution is None else out.solution.tobytes()
    basis = None if out.basis is None else out.basis.tobytes()
    return out.status, out.path, out.pivots, solution, out.value, basis


def test_warm_start_from_sibling_basis_matches_cold():
    outcomes = collections.Counter()
    paths = collections.Counter()
    for base, optimum, siblings in _families():
        assert optimum.status is LpStatus.OPTIMAL and optimum.path == "cold"
        assert optimum.basis.shape == (base.a_ub.shape[0] + base.objective.size + base.a_eq.shape[0],)
        restart = lpkernel.Restart(base)
        assert _outcome_key(restart.optimum) == _outcome_key(optimum)
        answers = []
        for k, p in enumerate(siblings):
            cold = solve_lp(p)
            warm = solve_lp(p, restart)
            outcomes[cold.status] += 1
            paths[cold.status, warm.path] += 1
            assert cold.path == "cold"
            assert warm.status is cold.status, k
            if cold.status is LpStatus.OPTIMAL:
                assert abs(warm.value - cold.value) <= 1e-9, k
                assert (base.a_ub @ warm.solution <= p.b_ub + 1e-8).all()
                assert np.abs(base.a_eq @ warm.solution - p.b_eq).max() < 1e-8
            answers.append(_outcome_key(warm))
        # no solve leaves anything behind in the restart: in reverse order,
        # every sibling gets the same answer bit for bit
        for p, answer in reversed(list(zip(siblings, answers))):
            assert _outcome_key(solve_lp(p, restart)) == answer
    assert outcomes[LpStatus.OPTIMAL] >= 250 and outcomes[LpStatus.INFEASIBLE] >= 60
    # the restart answers every feasible sibling; an infeasible one is
    # answered by a verified ray or by the cold solve
    feasible = paths[LpStatus.OPTIMAL, "start"] + paths[LpStatus.OPTIMAL, "dual"]
    assert feasible == outcomes[LpStatus.OPTIMAL]
    rays = paths[LpStatus.INFEASIBLE, "farkas"]
    assert rays + paths[LpStatus.INFEASIBLE, "cold"] == outcomes[LpStatus.INFEASIBLE]
    assert rays >= outcomes[LpStatus.INFEASIBLE] // 2


def test_warm_start_basis_contract():
    p = LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    out = solve_lp(p)
    assert out.basis.tolist() == [0]
    with pytest.raises(ValueError):
        out.basis[0] = 1
    # a restart solves its program cold and factors it at that optimum
    restart = lpkernel.Restart(p)
    assert _outcome_key(restart.optimum) == _outcome_key(out)
    assert restart.basis is restart.optimum.basis
    other = LpProblem(objective=[1.0, 3.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    with pytest.raises(ValueError, match="different program"):
        solve_lp(other, restart)
    assert solve_lp(p.with_rhs(b_eq=[2.0]), restart).path == "start"
    # duplicated equality rows keep an artificial basic (column 2 or 3) at
    # the optimum, pinned at zero: a sibling that moves both copies is
    # answered from the start, one that moves a single copy by a ray
    twice = LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0])
    lingering = lpkernel.Restart(twice)
    assert (lingering.basis >= 2).any() and lingering.inverse is not None
    both = solve_lp(twice.with_rhs(b_eq=[2.0, 2.0]), lingering)
    assert (both.value, both.path) == (2.0, "start")
    one = solve_lp(twice.with_rhs(b_eq=[1.0, 2.0]), lingering)
    assert (one.status, one.path) == (LpStatus.INFEASIBLE, "farkas")
    # a program with no optimum leaves the restart unusable: solves run cold
    empty = LpProblem(objective=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
    unusable = lpkernel.Restart(empty)
    assert unusable.optimum.status is LpStatus.INFEASIBLE and unusable.inverse is None
    assert solve_lp(empty.with_rhs(b_ub=[1.0]), unusable).path == "cold"
    assert solve_lp(LpProblem(objective=[1.0], a_ub=[[1.0]], b_ub=[-1.0])).basis is None
    # a sibling checks only its new right-hand side
    with pytest.raises(ValueError, match="b_eq"):
        p.with_rhs(b_eq=[1.0, 2.0])
    with pytest.raises(ValueError, match="b_eq must be finite"):
        p.with_rhs(b_eq=[np.inf])
    with pytest.raises(ValueError, match="b_ub"):
        p.with_rhs(b_ub=[1.0])


@pytest.mark.parametrize(
    "p, basis",
    [
        # x1 basic costs more than x0: dual infeasible
        (LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]), [1]),
        (
            LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[1.0, 0.0]),
            [0, 0],
        ),
    ],
    ids=["dual-infeasible", "singular"],
)
def test_restart_at_a_basis_it_cannot_use_solves_cold(monkeypatch, p, basis):
    # roundoff could leave a cold optimum's basis singular or dual
    # infeasible when it is factored; stand in such a basis for the optimum's
    honest = lpkernel._solve_cold

    def foreign(q, spent):
        return dataclasses.replace(honest(q, spent), basis=np.array(basis))

    monkeypatch.setattr(lpkernel, "_solve_cold", foreign)
    restart = lpkernel.Restart(p)
    monkeypatch.setattr(lpkernel, "_solve_cold", honest)
    assert restart.inverse is None
    answer = solve_lp(p, restart)
    assert (answer.value, answer.path) == (solve_lp(p).value, "cold")


@pytest.mark.parametrize("corruption", ["flipped sign", "negative slack entry"])
def test_corrupted_farkas_ray_falls_back_to_the_cold_solve(monkeypatch, corruption):
    honest = lpkernel._farkas_ray
    rays = []

    def corrupted(ext, rhs, basis, row):
        y = honest(ext, rhs, basis, row)
        rays.append(row)
        if corruption == "flipped sign":
            return -y
        # the last row is a box row, so y[-1] is y @ A on its slack column
        y = y.copy()
        y[-1] = -1.0 - np.abs(y).max()
        return y

    monkeypatch.setattr(lpkernel, "_farkas_ray", corrupted)
    infeasible = 0
    for base, optimum, siblings in _families(30):
        restart = lpkernel.Restart(base)
        for p in siblings:
            cold = solve_lp(p)
            warm = solve_lp(p, restart)
            assert warm.status is cold.status
            if cold.status is LpStatus.INFEASIBLE:
                infeasible += 1
                assert warm.path == "cold"
    assert infeasible >= 30 and len(rays) >= infeasible // 2


def test_ray_verification_never_declares_a_feasible_sibling_infeasible():
    # a feasible program admits no Farkas ray, so no candidate may verify:
    # try every row of the factored basis and of the final one as the ray
    checked = 0
    for base, optimum, siblings in _families():
        restart = lpkernel.Restart(base)
        full = restart.ext[:, : base._form.full.shape[1]]
        for p in siblings:
            warm = solve_lp(p, restart)
            if warm.status is not LpStatus.OPTIMAL:
                continue
            rhs = base._form.rhs(p)
            for basis in (restart.basis, warm.basis):
                for row in range(basis.size):
                    y = lpkernel._farkas_ray(restart.ext, rhs, basis, row)
                    assert not lpkernel._is_farkas(y, full, rhs)
                    checked += 1
    assert checked >= 3000


def test_restart_answers_from_pristine_data_despite_tableau_drift(monkeypatch):
    # roundoff drift of the pivoted tableau's basic values must never reach
    # an answer: the values at the final basis are recomputed from pristine
    # data before "optimal" is declared, and the cold solve runs otherwise
    honest_pivot, honest_dual = lpkernel._pivot, lpkernel._dual_simplex
    restarting = []

    def drifting_pivot(work, product, basis, row, col):
        honest_pivot(work, product, basis, row, col)
        if restarting:
            work[:-1, -1] += 1e-7

    def dual_simplex(*args):
        restarting.append(True)
        try:
            return honest_dual(*args)
        finally:
            restarting.pop()

    monkeypatch.setattr(lpkernel, "_pivot", drifting_pivot)
    monkeypatch.setattr(lpkernel, "_dual_simplex", dual_simplex)
    answered = 0
    for base, optimum, siblings in _families():
        restart = lpkernel.Restart(base)
        for p in siblings:
            cold = solve_lp(p)
            warm = solve_lp(p, restart)
            assert warm.status is cold.status
            if cold.status is LpStatus.OPTIMAL:
                answered += warm.path == "dual"
                assert abs(warm.value - cold.value) <= 1e-9
                assert np.abs(base.a_eq @ warm.solution - p.b_eq).max() < 1e-8
    assert answered >= 50


# ---------- objective siblings ----------


def test_an_objective_sibling_shares_all_but_its_objective(monkeypatch):
    built = []

    class Counting(lpkernel._StandardForm):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(lpkernel, "_StandardForm", Counting)
    p = LpProblem(
        objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, -1.0]], b_ub=[0.5],
        bounds=[(0.0, 2.0), (None, 1.0)],
    )
    c = np.array([3.0, -1.0])
    sibling = p.with_objective(c)
    c[0] = 0.0
    assert sibling.objective.tolist() == [3.0, -1.0] and not sibling.objective.flags.writeable
    assert p.objective.tolist() == [1.0, 2.0]
    for name in ("a_eq", "b_eq", "a_ub", "b_ub", "bounds"):
        assert getattr(sibling, name) is getattr(p, name)
    # the parent built the form when it was made: solving it or any
    # sibling, in any order, builds none
    moved = p.with_rhs(b_eq=[1.5])
    assert _outcome_key(solve_lp(sibling)) == _outcome_key(solve_lp(LpProblem(
        objective=[3.0, -1.0], a_eq=p.a_eq, b_eq=p.b_eq, a_ub=p.a_ub, b_ub=p.b_ub, bounds=p.bounds,
    )))
    built.clear()
    for q in (p, moved, moved.with_objective([0.0, 1.0])):
        solve_lp(q)
    assert built == []
    assert sibling._form is p._form is moved._form
    assert not sibling._form.full.flags.writeable
    # a Restart answers right-hand-side siblings only
    with pytest.raises(ValueError, match="different program"):
        solve_lp(sibling, lpkernel.Restart(p))


def test_a_program_builds_its_standard_form_once_when_it_is_made(monkeypatch):
    # the constructor builds the form; siblings, siblings of siblings and
    # a Restart read that one object, and no solve builds another
    built, read = [], []

    class Counting(lpkernel._StandardForm):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

        def rhs(self, p):
            read.append(self)
            return super().rhs(p)

        def cost(self, p):
            read.append(self)
            return super().cost(p)

    monkeypatch.setattr(lpkernel, "_StandardForm", Counting)
    p = LpProblem(
        objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, -1.0]], b_ub=[0.5],
        bounds=[(0.0, 2.0), (None, 1.0)],
    )
    assert built == [p] and isinstance(p._form, Counting)
    moved = p.with_rhs(b_eq=[1.5])
    siblings = [
        moved, p.with_objective([3.0, -1.0]), moved.with_objective([0.0, 1.0]),
        moved.with_rhs(b_ub=[0.0]), p.with_objective([1.0, 1.0]).with_rhs(b_eq=[0.5]),
    ]
    restart = lpkernel.Restart(p)
    moved_restart = lpkernel.Restart(moved)
    for q in [p] + siblings:
        assert q._form is p._form
        solve_lp(q)
    for q in (p, moved, siblings[3]):
        solve_lp(q, restart)
        solve_lp(q, moved_restart)
    assert built == [p]
    assert len(read) > len(siblings) and all(form is p._form for form in read)


def test_an_objective_sibling_checks_only_its_objective():
    p = LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    with pytest.raises(ValueError, match="^objective has 3 entries for 2 variables$"):
        p.with_objective([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^objective has 1 entries for 2 variables$"):
        p.with_objective(1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^objective must be finite$"):
            p.with_objective([1.0, bad])
    assert p.with_objective([[4.0], [5.0]]).objective.tolist() == [4.0, 5.0]


# ---------- vector checks ----------

_CHECKED = LpProblem(
    objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=np.eye(2), b_ub=[1.0, 1.0]
)
# every route a vector takes into a program: its name there, its length, and what it counts
_VECTOR_ROUTES = [
    ("constructor", "b_eq", 1, "rows"),
    ("constructor", "b_ub", 2, "rows"),
    ("with_rhs", "b_eq", 1, "rows"),
    ("with_rhs", "b_ub", 2, "rows"),
    ("with_objective", "objective", 2, "variables"),
]


def _given(route, name, vec):
    """_CHECKED's sibling or copy with `name` set to vec through `route`."""
    if route == "with_rhs":
        return _CHECKED.with_rhs(**{name: vec})
    if route == "with_objective":
        return _CHECKED.with_objective(vec)
    fields = {f.name: getattr(_CHECKED, f.name) for f in dataclasses.fields(LpProblem)}
    return LpProblem(**{**fields, name: vec})


@pytest.mark.parametrize("route, name, size, unit", _VECTOR_ROUTES)
def test_a_vector_of_the_wrong_length_is_rejected_by_name(route, name, size, unit):
    for wrong in (size - 1, size + 1):
        with pytest.raises(ValueError, match=f"^{name} has {wrong} entries for {size} {unit}$"):
            _given(route, name, np.ones(wrong))
    assert _given(route, name, np.full((size, 1), 3.0)).__dict__[name].tolist() == [3.0] * size


@pytest.mark.parametrize(
    "route, name, size", [route[:3] for route in _VECTOR_ROUTES] + [("constructor", "objective", 2)]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_vector_that_is_not_finite_is_rejected_by_name(route, name, size, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        _given(route, name, [1.0] * (size - 1) + [bad])


def test_a_right_hand_side_needs_its_rows():
    only_ub = LpProblem(objective=[1.0, 2.0], a_ub=np.eye(2), b_ub=[1.0, 1.0])
    only_eq = LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    cases = ((only_ub, "b_eq", [1.0]), (only_ub, "b_eq", []), (only_eq, "b_ub", [1.0, 1.0]))
    for p, name, vec in cases:
        with pytest.raises(ValueError, match=f"^{name} given to a program without a{name[1:]}$"):
            p.with_rhs(**{name: vec})


def _hand_written_with_rhs(p, b_eq=None, b_ub=None):
    """with_rhs as written out before the vector check had one owner."""
    sibling = object.__new__(LpProblem)
    sibling.__dict__.update(p.__dict__)
    for name, vec in (("b_eq", b_eq), ("b_ub", b_ub)):
        if vec is None:
            continue
        rows = getattr(p, "a" + name[1:])
        vec = np.asarray(vec, dtype=float).ravel()
        if rows is None or vec.size != rows.shape[0]:
            raise ValueError(f"{name} does not match the program's rows")
        if not np.isfinite(vec).all():
            raise ValueError(f"{name} must be finite")
        object.__setattr__(sibling, name, frozen(vec))
    return sibling


def test_with_rhs_costs_at_most_a_microsecond_more_than_written_out():
    # every estimator trial makes one with_rhs sibling; the shared check and
    # clone may cost a call or two, not more. Best of interleaved batches,
    # timed in process CPU time so that time the process spends descheduled
    # (other work on the machine) is not counted against either
    scenario = preset_curves("fig5a")["phi1"]
    program = detector._compile(scenario.uplink_matrix(), scenario.b, scenario.mu)[0].problem
    b_ub = program.b_ub.copy()
    assert _hand_written_with_rhs(program, b_ub=b_ub) == program.with_rhs(b_ub=b_ub)
    calls = 1000
    shared_timer = timeit.Timer(lambda: program.with_rhs(b_ub=b_ub), timer=time.process_time)
    written_timer = timeit.Timer(
        lambda: _hand_written_with_rhs(program, b_ub=b_ub), timer=time.process_time
    )
    shared, written = [], []
    for _ in range(25):
        shared.append(shared_timer.timeit(number=calls) / calls)
        written.append(written_timer.timeit(number=calls) / calls)
    assert min(shared) - min(written) <= 1e-6, (min(shared), min(written))


def test_objective_siblings_solve_as_fresh_programs(
    motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    # find_witness solves its LPs as objective siblings of one program; each
    # outcome must be that of a program built from scratch, bit for bit, on
    # the channels of the phase-start oracle below
    channels = _reference_channels(motivating_a, motivating_b, higher_a, higher_b, counter_b)
    solved = 0
    for a, b in channels:
        fresh = _witness_programs(a, b)
        a_eq, b_eq, bounds = manipulability._deviation_polytope(a, b)
        polytope = LpProblem(np.zeros(fresh[0].objective.size), a_eq=a_eq, b_eq=b_eq, bounds=bounds)
        lpkernel._phase_one.cache_clear()
        expected = [_outcome_key(solve_lp(p)) for p in fresh]
        lpkernel._phase_one.cache_clear()
        siblings = [polytope.with_objective(p.objective) for p in fresh]
        assert [_outcome_key(solve_lp(p)) for p in siblings] == expected
        solved += len(fresh)
    assert solved > 4 * len(channels)  # 823 LPs: |U| is 3 to 5


# ---------- phase-1 memo ----------


def test_programs_with_shared_constraints_share_one_phase_one(monkeypatch):
    # phase 1 reads only the constraints and the right-hand side, so every
    # objective over one polytope reuses it and still reports its pivots
    rng = np.random.default_rng(14)
    optimal = 0
    for _ in range(20):
        x0 = rng.random(7)  # inside the bounds below
        a_eq = rng.normal(size=(3, 7))
        b_eq = a_eq @ x0
        a_ub = rng.normal(size=(4, 7))
        b_ub = a_ub @ x0 + rng.random(4)
        bounds = [(0.0, 2.0)] * 3 + [(None, None), (-1.0, None), (None, 3.0), (0.0, None)]
        programs = [
            LpProblem(objective=rng.normal(size=7), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
            for _ in range(4)
        ]
        lpkernel._phase_one.cache_clear()
        memoized = [solve_lp(p) for p in programs]
        assert lpkernel._phase_one.cache_info()[:2] == (3, 1)  # hits, misses
        with monkeypatch.context() as patch:  # the slow reference: phase 1 run afresh
            patch.setattr(lpkernel, "_phase_one", lpkernel._phase_one.__wrapped__)
            assert [solve_lp(p) for p in programs] == memoized
        optimal += sum(outcome.status is LpStatus.OPTIMAL for outcome in memoized)
    assert optimal >= 40


def test_infeasible_phase_one_is_remembered_with_its_pivots():
    # x + y <= 1 and x + 2y >= 3 have no solution with x, y >= 0
    a_ub, b_ub = [[1.0, 1.0], [-1.0, -2.0]], [1.0, -3.0]
    lpkernel._phase_one.cache_clear()
    first = solve_lp(LpProblem(objective=[1.0, 1.0], a_ub=a_ub, b_ub=b_ub))
    again = solve_lp(LpProblem(objective=[1.0, 1.0], a_ub=a_ub, b_ub=b_ub))
    other = solve_lp(LpProblem(objective=[-1.0, 3.0], a_ub=a_ub, b_ub=b_ub))
    assert first.status is LpStatus.INFEASIBLE and first.pivots > 0
    assert first == again == other
    assert lpkernel._phase_one.cache_info()[:2] == (2, 1)


def test_remembered_phase_one_basis_is_read_only(monkeypatch):
    memo = lpkernel._phase_one
    results = []

    def recording(*key):
        result = memo(*key)
        results.append(result)
        return result

    monkeypatch.setattr(lpkernel, "_phase_one", recording)
    p = LpProblem(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    first, again = solve_lp(p), solve_lp(p)
    assert first == again and results[0] is results[1]
    ext, rhs, _, basis, _, tableau = results[0]
    for arr in (ext, rhs, basis, tableau):
        assert_frozen(arr)


# ---------- frozen arrays ----------


def test_a_program_its_siblings_and_its_form_hold_frozen_arrays():
    p = LpProblem([-1.0, 0.5], a_eq=[[1.0, 1.0]], b_eq=[1.5], a_ub=[[1.0, 0.0]], b_ub=[1.0],
                  bounds=[(0.0, 2.0), (None, None)])
    rhs_sibling, objective_sibling = p.with_rhs(b_eq=[1.0], b_ub=[0.5]), p.with_objective([1.0, 1.0])
    form = p._form
    arrays = [p.objective, p.a_eq, p.b_eq, p.a_ub, p.b_ub, rhs_sibling.b_eq, rhs_sibling.b_ub,
              rhs_sibling.a_ub, objective_sibling.objective, objective_sibling.a_eq]
    arrays += [form.full, form.shift, form.divisor, form.caps, form.s, form.t]
    for arr in arrays:
        assert_frozen(arr)


def test_no_caller_can_make_a_program_drift_from_its_standard_form():
    # a program's arrays were once read-only by flag alone: a caller could set
    # it back and write A, which the with_rhs sibling then read, while the
    # shared standard form still solved the old program
    p = LpProblem([-1.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        p.a_ub.setflags(write=True)
    assert p.with_rhs(b_ub=[1.0]).a_ub[0, 0] == 1.0
    np.testing.assert_array_equal(solve_lp(p).solution, [1.0])


def test_an_empty_constraint_block_freezes():
    p = LpProblem([1, 1], a_eq=[], b_eq=[])
    assert p.a_eq.shape == (0, 2) and p.b_eq.shape == (0,)
    for arr in (p.a_eq, p.b_eq, p._form.full):
        assert_frozen(arr)
    outcome = solve_lp(p)
    assert outcome.status is LpStatus.OPTIMAL and outcome.value == 0.0


def test_an_outcome_and_a_restart_are_frozen():
    # the compiled estimator's Restart is shared by every trial of its channel
    scenario = preset_curves("fig3a")["phi2"]
    restart, _ = detector._compile(scenario.uplink_matrix(), scenario.b, scenario.mu)
    for arr in (restart.ext, restart.cost, restart.inverse, restart.work, restart.basis):
        assert_frozen(arr)
    trial = detector._with_target(restart.problem, restart.problem.b_ub[: restart.problem.b_ub.size // 2])
    for outcome in (restart.optimum, solve_lp(trial, restart), solve_lp(trial)):
        assert outcome.status is LpStatus.OPTIMAL
        assert_frozen(outcome.basis)
        assert_frozen(outcome.solution)


# ---------- one factorization per basis ----------


def _refactorizing(honest_simplex):
    """The slow reference: each phase ignores its given start and factors its basis afresh."""

    def simplex(ext, rhs, c_vec, basis, start, max_iter, pin_start):
        start = lpkernel._tableau_for_basis(ext, rhs, c_vec, basis)
        return honest_simplex(ext, rhs, c_vec, basis, start, max_iter, pin_start)

    return simplex


def _certify_programs(monkeypatch, a, b):
    """Algorithm 1's LP and the witness LPs of channel (A, B), as certify builds them."""
    made = []

    def recording(p):
        made.append(p)
        return solve_lp(p)

    with monkeypatch.context() as patch:
        patch.setattr(manipulability, "solve_lp", recording)
        manipulability.check_algorithm1(a, b)
    return made + _witness_programs(a, b)


def _reference_channels(motivating_a, motivating_b, higher_a, higher_b, counter_b):
    """The three reference channels and 200 channels drawn as the certify benchmark draws them."""
    channels = [(motivating_a, motivating_b), (higher_a, higher_b), (higher_a, counter_b)]
    return channels + _sweep_channels(200, 20261018)


def test_phases_start_where_a_fresh_factorization_would(
    monkeypatch, motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    # phase 1 starts from [full | I | rhs] without a solve and phase 2 from
    # phase 1's last tableau; the reference factors both starts, and every
    # outcome (Algorithm 1's LP and each witness LP) must match it bit for bit
    channels = _reference_channels(motivating_a, motivating_b, higher_a, higher_b, counter_b)
    statuses = collections.Counter()
    for a, b in channels:
        programs = _certify_programs(monkeypatch, a, b)
        lpkernel._phase_one.cache_clear()
        fast = [_outcome_key(solve_lp(p)) for p in programs]
        with monkeypatch.context() as patch:
            patch.setattr(lpkernel, "_simplex", _refactorizing(lpkernel._simplex))
            patch.setattr(lpkernel, "_phase_one", lpkernel._phase_one.__wrapped__)
            assert [_outcome_key(solve_lp(p)) for p in programs] == fast
        statuses.update(key[0] for key in fast)
    assert statuses[LpStatus.OPTIMAL] == sum(statuses.values()) >= 5 * len(channels)


def test_a_cold_solve_factors_each_phase_once_at_its_end(monkeypatch, higher_a, higher_b):
    # fig5a's first witness LP: phase 1 and phase 2 each refactorize only to
    # confirm their stop decision, never at the artificial start basis or
    # where phase 1 handed over (4 factorizations when each start had one)
    p = _witness_programs(higher_a, higher_b)[0]
    honest = lpkernel._tableau_for_basis
    bases = []

    def counting(ext, rhs, c_vec, basis):
        bases.append(basis.copy())
        return honest(ext, rhs, c_vec, basis)

    monkeypatch.setattr(lpkernel, "_tableau_for_basis", counting)
    lpkernel._phase_one.cache_clear()
    out = solve_lp(p)
    assert (out.status, out.pivots) == (LpStatus.OPTIMAL, 22)
    m, n_real = lpkernel._StandardForm(p).full.shape
    assert len(bases) == 2
    assert not any(np.array_equal(basis, np.arange(n_real, n_real + m)) for basis in bases)
    assert np.array_equal(bases[-1], out.basis)
    # the witness LP of the next symbol reuses phase 1 and factors only its own end
    bases.clear()
    solve_lp(_witness_programs(higher_a, higher_b)[1])
    assert len(bases) == 1


# ---------- the pivot loops checked against their plain NumPy form ----------


def _plain_pivot(work, product, basis, row, col):
    """lpkernel._pivot by np.outer on the tableau, then the objective row apart."""
    tab, obj = work[:-1], work[-1]
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    tab -= np.outer(factor, tab[row])
    obj -= obj[col] * tab[row]
    basis[row] = col


def _plain_simplex(ext, rhs, c_vec, basis, work, max_iter, pin_start):
    """lpkernel._simplex written with NumPy's wrappers and one ratio array per pivot."""
    tab, obj = work[:-1], work[-1]
    n_enter = ext.shape[1] - ext.shape[0]
    if n_enter == 0:
        return "optimal", work, basis, 0
    pinning = pin_start < ext.shape[1]
    since_refresh = 0
    stall = 0
    bland = False
    pivots = 0
    for _ in range(max_iter):
        reduced = obj[:n_enter]
        j = int(np.argmax(reduced < -lpkernel._FEAS_TOL) if bland else np.argmin(reduced))
        if not reduced[j] < -lpkernel._FEAS_TOL:
            if since_refresh == 0:
                return "optimal", work, basis, pivots
            work = lpkernel._tableau_for_basis(ext, rhs, c_vec, basis)
            tab, obj = work[:-1], work[-1]
            since_refresh = 0
            continue
        col = tab[:, j]
        blocking = col > lpkernel._PIVOT_TOL
        ratios = np.divide(tab[:, -1], col, out=np.full(col.size, np.inf), where=blocking)
        if pinning:
            pinned = (basis >= pin_start) & (np.abs(col) > lpkernel._PIVOT_TOL)
            ratios[pinned] = 0.0
            blocking |= pinned
        if not blocking.any():
            if since_refresh == 0:
                return "unbounded", work, basis, pivots
            work = lpkernel._tableau_for_basis(ext, rhs, c_vec, basis)
            tab, obj = work[:-1], work[-1]
            since_refresh = 0
            continue
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-10 * (1.0 + abs(rmin)))[0]
        if bland:
            row = int(ties[np.argmin(basis[ties])])
        else:
            row = int(ties[np.argmax(np.abs(col[ties]))])
        before = obj[-1]
        _plain_pivot(work, None, basis, row, j)
        pivots += 1
        since_refresh += 1
        if since_refresh >= lpkernel._REFRESH_PERIOD:
            work = lpkernel._tableau_for_basis(ext, rhs, c_vec, basis)
            tab, obj = work[:-1], work[-1]
            since_refresh = 0
        if obj[-1] > before + 1e-12 * max(1.0, abs(before)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > lpkernel._STALL_LIMIT:
                bland = True
    raise LpFailure("simplex pivot budget exhausted (numerical breakdown)")


def _plain_dual_simplex(ext, rhs, c_vec, basis, work, n_real):
    """lpkernel._dual_simplex written with NumPy's wrappers."""
    tab, obj = work[:-1], work[-1]
    stall = 0
    bland = False
    pivots = 0
    for _ in range(lpkernel._max_iter((ext.shape[0], n_real))):
        values = tab[:, -1]
        if lpkernel._primal_feasible(values, basis, n_real):
            values = lpkernel._verified_optimum(ext, rhs, c_vec, basis, n_real)
            return ("dual" if values is not None else None), values, pivots
        excess = np.where(basis >= n_real, np.abs(values), -values)
        if bland:
            infeasible = np.flatnonzero(excess > lpkernel._PRIMAL_TOL)
            row = int(infeasible[np.argmin(basis[infeasible])])
        else:
            row = int(np.argmax(excess))
        entries = tab[row, :n_real] * np.sign(values[row])
        cand = np.flatnonzero(entries > lpkernel._PIVOT_TOL)
        if cand.size == 0:
            try:
                y = lpkernel._farkas_ray(ext, rhs, basis, row)
            except np.linalg.LinAlgError:
                return None, None, pivots
            verified = lpkernel._is_farkas(y, ext[:, :n_real], rhs)
            return ("farkas" if verified else None), None, pivots
        ratios = obj[cand] / entries[cand]
        rmin = ratios.min()
        ties = cand[ratios <= rmin + 1e-10 * (1.0 + abs(rmin))]
        col = ties[0] if bland else ties[np.argmax(entries[ties])]
        before = obj[-1]
        _plain_pivot(work, None, basis, row, int(col))
        pivots += 1
        if pivots % lpkernel._REFRESH_PERIOD == 0:
            try:
                work = lpkernel._tableau_for_basis(ext, rhs, c_vec, basis)
            except LpFailure:
                return None, None, pivots
            tab, obj = work[:-1], work[-1]
            if (obj[:n_real] < -lpkernel._FEAS_TOL).any():
                return None, None, pivots
        if obj[-1] < before - 1e-12 * max(1.0, abs(before)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > lpkernel._STALL_LIMIT:
                bland = True
    return None, None, pivots


def _both_loops(monkeypatch, solve):
    """(solve() with lpkernel's loops, solve() with the plain ones), phase 1 run afresh."""
    with monkeypatch.context() as patch:
        patch.setattr(lpkernel, "_phase_one", lpkernel._phase_one.__wrapped__)
        fast = solve()
        patch.setattr(lpkernel, "_pivot", _plain_pivot)
        patch.setattr(lpkernel, "_simplex", _plain_simplex)
        patch.setattr(lpkernel, "_dual_simplex", _plain_dual_simplex)
        return fast, solve()


def _loop_programs(monkeypatch, channels):
    """(programs, siblings) that reach both pivot loops.

    The programs are certify's on `channels` and the 200 random ones; the
    siblings are (program, restart) pairs answered by dual simplex: the
    random families, and fig5b's estimator LPs, whose dual ratio tests tie.
    """
    programs = [p for a, b in channels for p in _certify_programs(monkeypatch, a, b)]
    programs += [p for _, p, _ in _random_lps()]
    siblings = []
    for base, _, family in _families():
        restart = lpkernel.Restart(base)
        siblings += [(p, restart) for p in family]

    def recording(p, restart):
        siblings.append((p, restart))
        return solve_lp(p, restart)

    with monkeypatch.context() as patch:
        patch.setattr(detector, "solve_lp", recording)
        for scenario in preset_curves("fig5b").values():
            config = DetectorConfig(
                a=scenario.uplink_matrix(), b=scenario.b, mu=scenario.mu, delta=scenario.delta
            )
            for trial in range(10):
                detector.run_detection(config, *trial_traces(scenario, trial)[:2])
    return programs, siblings


def test_pivot_loops_decide_as_their_plain_form(
    monkeypatch, motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    # the loops trade NumPy's Python-level wrappers for ndarray methods and
    # ufunc reductions, take a lone ratio-test tie directly and pivot one
    # work array by a BLAS product: every outcome must be the plain form's
    # bit for bit, on certify's programs, on small random programs and on
    # restart siblings (dual simplex)
    channels = _reference_channels(motivating_a, motivating_b, higher_a, higher_b, counter_b)
    programs, siblings = _loop_programs(monkeypatch, channels)
    fast, plain = _both_loops(monkeypatch, lambda: [_outcome_key(solve_lp(p)) for p in programs])
    assert fast == plain and len(fast) >= 5 * len(channels) + 200
    fast, plain = _both_loops(
        monkeypatch, lambda: [_outcome_key(solve_lp(p, restart)) for p, restart in siblings]
    )
    assert fast == plain
    assert collections.Counter(key[1] for key in fast)["dual"] >= 100


def test_blands_rule_in_both_loops_decides_as_its_plain_form(monkeypatch, higher_a, higher_b):
    # with _STALL_LIMIT at 0 a single degenerate pivot turns Bland's rule on,
    # in the cold loop and in the dual loop, whose Bland branch no preset or
    # family otherwise reaches: every outcome must still be the plain form's
    monkeypatch.setattr(lpkernel, "_STALL_LIMIT", 0)
    programs, siblings = _loop_programs(monkeypatch, [(higher_a, higher_b)])
    fast, plain = _both_loops(
        monkeypatch,
        lambda: [_outcome_key(solve_lp(p)) for p in programs]
        + [_outcome_key(solve_lp(p, restart)) for p, restart in siblings],
    )
    assert fast == plain
    assert collections.Counter(key[1] for key in fast)["dual"] >= 100


def test_no_outcome_reads_the_sign_of_a_zero(
    monkeypatch, motivating_a, motivating_b, higher_a, higher_b, counter_b
):
    # the BLAS product leaves +0 where the broadcast one leaves -0, and
    # nothing may read that sign: a pivot that flips the sign of every exact
    # zero it leaves in the work array moves no outcome of either loop
    channels = _reference_channels(motivating_a, motivating_b, higher_a, higher_b, counter_b)
    programs, siblings = _loop_programs(monkeypatch, channels)
    honest_pivot = lpkernel._pivot
    flipped = []

    def flipping_pivot(work, product, basis, row, col):
        honest_pivot(work, product, basis, row, col)
        zeros = work == 0.0
        flipped.append(int(zeros.sum()))
        np.negative(work, out=work, where=zeros)

    def solve():
        return [_outcome_key(solve_lp(p)) for p in programs] + [
            _outcome_key(solve_lp(p, restart)) for p, restart in siblings
        ]

    with monkeypatch.context() as patch:
        patch.setattr(lpkernel, "_phase_one", lpkernel._phase_one.__wrapped__)
        honest = solve()
        patch.setattr(lpkernel, "_pivot", flipping_pivot)
        assert solve() == honest
    assert sum(flipped) > 0 and len(flipped) >= 5000


def test_pivot_matches_the_outer_product_form_but_for_the_sign_of_zeros():
    # one rank-1 BLAS product rounds each entry once, as np.outer does: on
    # random work arrays with exact zeros of both signs, _pivot's result
    # equals the plain form's under ==, bits differing only at zeros, in
    # the pivot row, the unit column and the objective row as well
    rng = np.random.default_rng(20261020)
    for _ in range(300):
        m, n = int(rng.integers(1, 40)), int(rng.integers(2, 120))
        work = rng.standard_normal((m + 1, n + 1))
        work[rng.random(work.shape) < 0.3] = 0.0
        work[rng.random(work.shape) < 0.15] = -0.0
        row, col = int(rng.integers(m)), int(rng.integers(n))
        work[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        fast, plain = work.copy(), work.copy()
        fast_basis, plain_basis = np.arange(m), np.arange(m)
        lpkernel._pivot(fast, np.empty_like(fast), fast_basis, row, col)
        _plain_pivot(plain, None, plain_basis, row, col)
        assert (fast == plain).all()
        differ = fast.view(np.uint64) != plain.view(np.uint64)
        assert (fast[differ] == 0.0).all()
        assert fast_basis[row] == plain_basis[row] == col
        prow = work[row] / work[row, col]
        assert (fast[row] == prow).all()
        unit = np.zeros(m + 1)
        unit[row] = 1.0
        assert (fast[:, col] == unit).all()
        assert (fast[-1] == work[-1] - work[-1, col] * prow).all()


def test_a_degenerate_dual_stall_ends_on_the_dual_path():
    # an 8 x 8 adder (|U| = 15) under the uniform attack: the restart's dual
    # pivots leave the objective unchanged for hundreds of pivots, and by
    # the largest violation alone they spent n_real + m of them, after which
    # the cold solve answered with D = 30.0 (to 4e-15). Bland's rule after
    # _STALL_LIMIT of them, with a cold phase's budget, ends on the dual
    # path at that optimum
    scenario = Scenario(
        p1=np.full(8, 1 / 8), p2=np.full(8, 1 / 8), mac=MacModel.adder(8, 8), b=np.eye(15),
        attack=AttackSpec(np.full((15, 15), 1 / 15)), n=10_000, mu=0.05, delta=0.07,
        trials=1, master_seed=20240501,
    )
    config = scenario.detector_config
    counts, _ = trial_counts(scenario, *trial_traces(scenario, 0))
    report = detector.run_detection_on_counts(config, counts)
    restart, _ = detector._compile(config.a, config.b, config.mu)
    assert report.lp_path == "dual" and report.feasible
    assert report.lp_pivots > restart.ext.shape[1]  # n_real + m
    assert abs(report.statistic - 30.0) <= 1e-9


def test_every_pivot_goes_through_pivot(monkeypatch, higher_a, higher_b):
    # _pivot is the one pivot of the cold loop and of the dual loop, so a
    # test that replaces it (as the tableau-drift test does) reaches both
    honest = lpkernel._pivot
    calls = []

    def counting(*args):
        calls.append(args)
        honest(*args)

    monkeypatch.setattr(lpkernel, "_pivot", counting)
    lpkernel._phase_one.cache_clear()
    cold = solve_lp(_witness_programs(higher_a, higher_b)[0])
    assert (cold.path, cold.pivots, len(calls)) == ("cold", 22, 22)
    scenario = preset_curves("fig5b")["clean"]
    config = DetectorConfig(
        a=scenario.uplink_matrix(), b=scenario.b, mu=scenario.mu, delta=scenario.delta
    )
    detector._compile(config.a, config.b, config.mu)  # the restart's own cold solve
    paths = collections.Counter()
    for trial in range(10):
        calls.clear()
        report = detector.run_detection(config, *trial_traces(scenario, trial)[:2])
        assert len(calls) == report.lp_pivots
        paths[report.lp_path] += 1
    assert paths["dual"] >= 5, paths


def test_standard_form_rows_are_the_product_with_s(monkeypatch, higher_a, higher_b):
    # _StandardForm's rows are m @ s (s maps each standard-form column to its
    # variable with sign +-1), each scaled to unit max-abs, byte for byte: a
    # witness LP's columns all carry sign -1, so its zero entries test signed
    # zeros, and Algorithm 1's free variables split into +- column pairs
    programs = _certify_programs(monkeypatch, higher_a, higher_b)
    for p in programs[:2]:  # Algorithm 1's LP and the first witness LP
        form = lpkernel._StandardForm(p)
        assert form.caps.size == 0  # no two-sided bound, so no box rows
        mat = np.vstack([m @ form.s for m in (p.a_eq, p.a_ub) if m is not None])
        scale = np.abs(mat).max(axis=1, initial=0.0)
        live = scale > 0.0
        mat[live] /= scale[live, None]
        assert form.full[:, : mat.shape[1]].tobytes() == mat.tobytes()
