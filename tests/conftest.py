"""Shared fixtures: reference channel matrices, hand-typed as independent oracles.

These constants are deliberately duplicated from the package sources so a
transcription error on either side fails loudly.
"""

import numpy as np
import pytest

from relay_sentinel.stochcore import DEFAULT_TOL


@pytest.fixture
def motivating_a():
    return np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])


@pytest.fixture
def motivating_b():
    return np.eye(3)


@pytest.fixture
def motivating_phis():
    return {
        1: np.eye(3),
        2: np.array(
            [[0.99, 0.005, 0.005], [0.005, 0.99, 0.005], [0.005, 0.005, 0.99]]
        ),
        3: np.array([[0.99, 0.005, 0.0], [0.01, 0.99, 0.01], [0.0, 0.005, 0.99]]),
        4: np.array([[0.99, 0.0, 0.0], [0.01, 1.0, 0.01], [0.0, 0.0, 0.99]]),
    }


@pytest.fixture
def higher_a():
    t = 1.0 / 3.0
    return np.array(
        [
            [t, 0.0, 0.0],
            [t, t, 0.0],
            [t, t, t],
            [0.0, t, t],
            [0.0, 0.0, t],
        ]
    )


@pytest.fixture
def higher_b():
    return np.array(
        [
            [1.0, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.7, 0.0, 0.0],
            [0.0, 0.0, 0.3, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.5, 1.0],
        ]
    )


@pytest.fixture
def higher_phis():
    q = 0.0025
    w = 0.01 / 3.0
    return {
        1: np.eye(5),
        2: np.array(
            [
                [0.99, q, q, q, q],
                [q, 0.99, q, q, q],
                [q, q, 0.99, q, q],
                [q, q, q, 0.99, q],
                [q, q, q, q, 0.99],
            ]
        ),
        3: np.array(
            [
                [0.99, w, q, 0.0, 0.0],
                [0.005, 0.99, q, w, 0.0],
                [0.005, w, 0.99, w, 0.005],
                [0.0, w, q, 0.99, 0.005],
                [0.0, 0.0, q, w, 0.99],
            ]
        ),
        4: np.array(
            [
                [0.985, 0.0, 0.0, 0.0, 0.0],
                [0.0075, 0.985, 0.0, 0.0, 0.0],
                [0.0075, 0.015, 1.0, 0.015, 0.0075],
                [0.0, 0.0, 0.0, 0.985, 0.0075],
                [0.0, 0.0, 0.0, 0.0, 0.985],
            ]
        ),
    }


@pytest.fixture
def counter_b():
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.3, 0.2],
            [0.0, 0.0, 0.5, 0.2, 0.3],
            [0.0, 0.3, 0.2, 0.5, 0.0],
            [0.0, 0.2, 0.3, 0.0, 0.5],
        ]
    )


def counter_upsilon(psi: float) -> np.ndarray:
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, psi, 0.0, 0.0, 0.0],
            [0.0, 0.0, psi, 0.0, -psi],
            [0.0, -psi, 0.0, 0.0, 0.0],
            [0.0, 0.0, -psi, 0.0, psi],
        ]
    )


@pytest.fixture
def counter_upsilon_1():
    return counter_upsilon(1.0)


@pytest.fixture
def counter_phi2():
    return np.eye(5) - counter_upsilon(1.0)


# ---------- clean-data floor witnesses ----------
#
# Balanced deviations Upsilon whose scaled channel
# I + mu * Upsilon / l1(B Upsilon A) lies in G_mu(BA). On a clean trace with
# projected histogram residual r, that channel scaled back to
# I + (mu - r) * Upsilon / l1(B Upsilon A) stays in G_mu, so the
# farthest-point estimator returns D >= kappa * (mu - r) with
# kappa = l1(Upsilon) / l1(B Upsilon A).


@pytest.fixture
def binary_floor_upsilon():
    # binary adder, B = I3: swaps 0<->1 and sends 2 -> 1; kappa = 6 / 1
    return np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 0.0, -1.0]])


@pytest.fixture
def ternary_floor_upsilon():
    # ternary adder with the 4x5 downlink (higher_a, higher_b): the
    # estimator's optimum on the exact channel at mu = 0.05 is
    # I + mu * Upsilon / 49; kappa = 1114 / 49
    return np.array(
        [
            [-42.0, 70.0, 0.0, 0.0, 0.0],
            [42.0, -245.0, 105.0, 0.0, 0.0],
            [0.0, 175.0, -105.0, 30.0, 0.0],
            [0.0, 0.0, 0.0, -60.0, 105.0],
            [0.0, 0.0, 0.0, 30.0, -105.0],
        ]
    )


# ---------- assertion helpers ----------


@pytest.fixture
def full_checks(monkeypatch):
    """The names of the full probability checks made while the test runs
    (each call of `stochcore._probabilities`), in order."""
    from relay_sentinel import stochcore

    names = []
    check = stochcore._probabilities

    def counting(value, name, *rest):
        names.append(name)
        return check(value, name, *rest)

    monkeypatch.setattr(stochcore, "_probabilities", counting)
    return names


def assert_frozen(arr):
    """arr rejects a write, and rejects being made writable again."""
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0
    with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
        arr.setflags(write=True)


def is_column_stochastic(m, tol: float = DEFAULT_TOL) -> bool:
    """Entries within [0, 1] and every column summing to 1, all within tol."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        return False
    if (m < -tol).any() or (m > 1.0 + tol).any():
        return False
    return bool(np.abs(m.sum(axis=0) - 1.0).max() <= tol)


# ---------- acceptance-criterion reporting ----------

_criterion_lines = []


def record_criterion(number: int, detail: str):
    _criterion_lines.append((number, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, detail in sorted(_criterion_lines):
        terminalreporter.write_line(f"criterion {number:2d}: {detail}")
