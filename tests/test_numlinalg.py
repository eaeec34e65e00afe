"""Oracle tests for rank/RREF/null-space/projector helpers."""

import numpy as np
import pytest

from relay_sentinel.numlinalg import (
    column_space_projector,
    left_nullspace_basis,
    rank,
    rref,
    row_space_projector,
    vec_operator,
)

UPS = np.array([0.0, 1.0, 1.0, -1.0, -1.0])  # right/left null vector of counter_b


# ---------- rank ----------


def test_rank_identity():
    assert rank(np.eye(3)) == 3


def test_rank_motivating_a(motivating_a):
    assert rank(motivating_a) == 2


def test_rank_counter_b(counter_b):
    # columns satisfy c2 + c3 - c4 - c5 = 0, so the rank drops to 4
    assert np.abs(counter_b @ UPS).max() < 1e-12
    assert rank(counter_b) == 4


# ---------- rref ----------


def test_rref_identity():
    res = rref(np.eye(4))
    assert res.rank == 4
    assert np.array_equal(res.reduced, np.eye(4))
    assert np.array_equal(res.column_permutation, np.arange(4))


def test_rref_row_vector_scaling():
    res = rref(np.array([[2.0, -2.0, 2.0]]))
    assert res.rank == 1
    assert np.allclose(res.reduced, [[1.0, -1.0, 1.0]])


def test_rref_pivot_block_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 6)))
        res = rref(m)
        r = res.rank
        assert np.allclose(res.reduced[:r, :r], np.eye(r), atol=1e-9)
        # permutation is a bijection and the reduction spans the same row space
        assert sorted(res.column_permutation.tolist()) == list(range(m.shape[1]))
        assert rank(res.reduced) == r


def test_rref_needs_column_swap():
    # leading column is zero: a pivot only exists after permuting columns
    m = np.array([[0.0, 2.0, 4.0]])
    res = rref(m)
    assert res.rank == 1
    assert res.reduced[0, 0] == 1.0
    assert res.column_permutation[0] != 0


# ---------- null spaces ----------


def test_left_null_motivating(motivating_a):
    basis = left_nullspace_basis(motivating_a)
    assert basis.shape == (1, 3)
    # proportional to (1, -1, 1); L1-normalized with positive leading entry
    assert np.allclose(basis[0], np.array([1.0, -1.0, 1.0]) / 3.0, atol=1e-10)
    assert np.abs(basis @ motivating_a).max() < 1e-10


def test_left_null_identity_empty():
    assert left_nullspace_basis(np.eye(2)).shape == (0, 2)


def test_left_null_higher_order(higher_a):
    basis = left_nullspace_basis(higher_a)
    assert basis.shape == (2, 5)
    assert np.abs(basis @ higher_a).max() < 1e-10
    for row in basis:
        assert abs(np.abs(row).sum() - 1.0) < 1e-12


def test_rank_nullity_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(500):
        m = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        if rng.random() < 0.3:  # force rank deficiency sometimes
            m[rng.integers(0, m.shape[0])] = m[0] * rng.normal()
        assert rank(m) + left_nullspace_basis(m).shape[0] == m.shape[0]


# ---------- projectors ----------


def _check_projector(p):
    assert np.abs(p - p.T).max() < 1e-8
    assert np.abs(p @ p - p).max() < 1e-8


def test_projector_motivating_a(motivating_a):
    pa = row_space_projector(motivating_a)
    assert pa.shape == (2, 2)
    assert np.allclose(pa, np.eye(2), atol=1e-10)


def test_projector_identity_b():
    assert np.allclose(column_space_projector(np.eye(3)), np.eye(3), atol=1e-12)


def test_projector_counter_b(counter_b):
    pb = column_space_projector(counter_b)
    expected = np.eye(5) - np.outer(UPS, UPS) / (UPS @ UPS)
    assert np.allclose(pb, expected, atol=1e-8)
    _check_projector(pb)


def test_projector_postconditions_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
        pa = row_space_projector(m)
        pb = column_space_projector(m)
        _check_projector(pa)
        _check_projector(pb)
        assert np.abs(m @ pa - m).max() < 1e-8
        assert np.abs(pb @ m - m).max() < 1e-8


def test_projectors_are_memoized_read_only_and_match_a_fresh_svd():
    m = np.random.default_rng(11).normal(size=(3, 4))
    pa, pb = row_space_projector(m), column_space_projector(m)
    for p in (pa, pb):
        with pytest.raises(ValueError):
            p[0, 0] = 1.0
    assert row_space_projector(m.copy()) is pa
    assert column_space_projector(np.asfortranarray(m)) is pb
    _, _, vt = np.linalg.svd(m)
    fresh = vt[:3].T @ vt[:3]
    assert np.array_equal(pa, (fresh + fresh.T) / 2.0)
    # the memo key tells the row space of a square matrix from its column space
    square = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert np.allclose(row_space_projector(square), 0.5)
    assert np.allclose(column_space_projector(square), [[1.0, 0.0], [0.0, 0.0]])


# ---------- vec_operator ----------


@pytest.mark.parametrize(
    "rows, inner, inner2, cols",
    [(1, 3, 2, 4), (3, 1, 4, 1), (4, 3, 1, 5), (1, 1, 1, 1), (5, 2, 3, 1), (2, 4, 4, 3)],
)
def test_vec_operator_is_kron_and_maps_row_major_vectors(rows, inner, inner2, cols):
    # one product per entry, as np.kron makes it: byte for byte, signed zeros included
    rng = np.random.default_rng(rows * 1000 + inner * 100 + inner2 * 10 + cols)
    left = rng.normal(size=(rows, inner))
    right = rng.normal(size=(inner2, cols))
    left[rng.random(left.shape) < 0.3] = 0.0
    right[rng.random(right.shape) < 0.3] = -0.0
    op = vec_operator(left, right)
    assert op.shape == (rows * cols, inner * inner2)
    assert op.tobytes() == np.kron(left, right.T).tobytes()
    x = rng.normal(size=(inner, inner2))
    assert np.allclose(op @ x.ravel(), (left @ x @ right).ravel(), rtol=1e-13, atol=1e-13)
