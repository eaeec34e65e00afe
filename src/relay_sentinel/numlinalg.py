"""Numerical rank, RREF, null-space bases, orthogonal projectors, and
vec_operator, the one row-major vectorization every LP here is built from.

One rank cutoff, DEFAULT_RANK_TOL, serves every function here. Null-space bases are L1-normalized (with a
positive leading entry) so the extremal-element bounds used elsewhere in the
package apply to them directly. Projectors are memoized by content
(`stochcore.content_memo`) and `frozen`, so a channel costs one SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stochcore import content_memo, frozen, value_eq

__all__ = [
    "RrefResult",
    "rank",
    "rref",
    "left_nullspace_basis",
    "row_space_projector",
    "column_space_projector",
    "vec_operator",
]

DEFAULT_RANK_TOL = 1e-10
# distinct matrices whose projectors are kept
_PROJECTOR_MEMO = 64


@dataclass(frozen=True)
class RrefResult:
    """Row-reduced echelon form with pivots moved to the leading columns.

    `reduced[:rank, :rank]` is the identity; `column_permutation[k]` is the
    original column index now sitting at position k.
    """

    reduced: np.ndarray
    column_permutation: np.ndarray
    rank: int

    __eq__ = value_eq


def rank(m: np.ndarray) -> int:
    """Number of singular values above DEFAULT_RANK_TOL * max(1, largest one)."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    return _svd_rank(np.linalg.svd(m, compute_uv=False))


def rref(m: np.ndarray) -> RrefResult:
    """Gauss-Jordan with partial row pivoting and column swaps.

    Columns are permuted (only when necessary) so that pivots occupy the
    leading columns; entries below the rank cutoff are zeroed in the result.
    """
    a = np.array(m, dtype=float)
    rows, cols = a.shape
    perm = np.arange(cols)
    cutoff = DEFAULT_RANK_TOL * max(1.0, float(np.abs(a).max(initial=0.0)))
    r = 0
    while r < rows and r < cols:
        pivot = None
        for c in range(r, cols):
            i = int(np.argmax(np.abs(a[r:, c]))) + r
            if abs(a[i, c]) > cutoff:
                pivot = (i, c)
                break
        if pivot is None:
            break
        i, c = pivot
        if c != r:
            a[:, [r, c]] = a[:, [c, r]]
            perm[[r, c]] = perm[[c, r]]
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] /= a[r, r]
        others = np.arange(rows) != r
        a[others] -= np.outer(a[others, r], a[r])
        r += 1
    a[np.abs(a) < cutoff] = 0.0
    return RrefResult(reduced=a, column_permutation=perm, rank=r)


def _normalize_sign_rows(basis: np.ndarray) -> np.ndarray:
    """L1-normalize each row and flip signs so the first sizable entry is positive."""
    out = np.array(basis, dtype=float)
    for i in range(out.shape[0]):
        norm = np.abs(out[i]).sum()
        if norm > 0:
            out[i] /= norm
        nz = np.nonzero(np.abs(out[i]) > DEFAULT_RANK_TOL)[0]
        if nz.size and out[i, nz[0]] < 0:
            out[i] = -out[i]
    return out


def left_nullspace_basis(a: np.ndarray) -> np.ndarray:
    """Rows spanning {v : v @ a = 0}; row count = rows(a) - rank(a)."""
    a = np.asarray(a, dtype=float)
    u, s, _ = np.linalg.svd(a)
    return _normalize_sign_rows(u[:, _svd_rank(s):].T)


def row_space_projector(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the row space of a (square, cols(a)-sized), frozen."""
    return _projector("row", np.asarray(a))


def column_space_projector(b: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column space of b (square, rows(b)-sized), frozen."""
    return _projector("column", np.asarray(b))


def vec_operator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The matrix of X -> left @ X @ right on row-major vectors, np.kron(left, right.T) to the bit.

    Entry ((i, j), (k, l)) is the one product left[i, k] * right[l, j].
    """
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    product = left[:, None, :, None] * right.T[None, :, None, :]
    return product.reshape(left.shape[0] * right.shape[1], left.shape[1] * right.shape[0])


def _svd_rank(s: np.ndarray) -> int:
    """Singular values (descending) above DEFAULT_RANK_TOL * max(1, largest)."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * max(1.0, float(s[0]))))


@content_memo(_PROJECTOR_MEMO)
def _projector(space: str, m: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(m)
    r = _svd_rank(s)
    basis = vt[:r].T if space == "row" else u[:, :r]
    p = basis @ basis.T
    return frozen((p + p.T) / 2.0)
