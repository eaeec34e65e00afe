"""Source, multiple-access, and broadcast channel models plus trace sampling.

Symbols are zero-based alphabet indices; for adder MACs the index equals the
integer symbol value. MAC tables flatten the input pair with column index
``x1_index * x2_size + x2_index``.

A trial's draw order is fixed (x1, then x2, then u, then the attack, then
y1) so traces are reproducible from a seeded generator. A deterministic
stage (`stochcore.point_masses`), a MAC's u or a broadcast marginal B's y1,
is looked up and consumes no draws; B = I (every column's point mass on its
own row) is a copy of the relay outputs. The attack always draws, even for a
permutation phi: its draws sit between u and y1, so skipping them would
shift every later draw and move the pinned stream digests. y1 is the last
draw of a trial, so a looked-up y1 leaves every trace as it was.

Each stage draws its stream in consecutive ``trace_blocks``: consecutive
``rng.random(k)`` calls return exactly the doubles of one ``rng.random(n)``,
so a trace is bitwise the one a single draw gives, and it comes back in the
smallest unsigned dtype of its alphabet (``symbol_dtype``). A stage's
columns, such as the uplink's (x1, x2) keys from `stochcore.flat_key`, are
one array per trace. The downlink checks its B and relay outputs by the
`stochcore` rules, as the uplink checks its sources; a validator hands back
an array it issued (a Scenario's sources and B) without checking it again,
so a trial makes no full probability check. A matrix's cumulative table and
point masses are one `stochcore.content_memo` entry, `frozen`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stochcore import (
    AlphabetReductionError,
    content_memo,
    flat_key,
    frozen,
    point_masses,
    symbol_dtype,
    trace_blocks,
    validate_column_stochastic,
    validate_count,
    validate_source,
    validate_trace,
    validate_uplink,
    value_eq,
)

__all__ = [
    "AlphabetReductionError",
    "MacModel",
    "marginalize_mac",
    "gamma_from",
    "stationary_u_pmf",
    "sample_trace",
    "simulate_uplink",
    "simulate_downlink",
]


@dataclass(frozen=True)
class MacModel:
    """Multiple-access channel p(u | x1, x2) in flattened-table form, its
    table validated at construction. Simulation looks up u of a table of
    point masses (an adder's) and draws nothing for it (`_cdf_table`)."""

    table: np.ndarray
    x1_size: int
    x2_size: int

    __eq__ = value_eq

    def __post_init__(self):
        columns = validate_count(self.x1_size, "x1_size") * validate_count(self.x2_size, "x2_size")
        table = validate_column_stochastic(self.table, "table")
        if table.shape[1] != columns:
            raise ValueError(f"table has {table.shape[1]} columns, expected {columns}")
        object.__setattr__(self, "table", table)

    @property
    def u_size(self) -> int:
        return self.table.shape[0]

    @staticmethod
    def adder(x1_size: int, x2_size: int) -> "MacModel":
        """Deterministic u = x1 + x2 over integer alphabets {0, 1, ...}."""
        u_size = x1_size + x2_size - 1
        table = np.zeros((u_size, x1_size * x2_size))
        for j in range(x1_size):
            for k in range(x2_size):
                table[j + k, j * x2_size + k] = 1.0
        return MacModel(table, x1_size, x2_size)


def marginalize_mac(mac: MacModel, p2: np.ndarray) -> np.ndarray:
    """The |U| x |X1| uplink matrix A with A[i, j] = sum_k p(u_i|x1_j, x2_k) p2[k].

    Raises AlphabetReductionError if some u symbol has zero probability under
    every x1 (the caller should prune that symbol from U).
    """
    p2 = validate_source(p2, "p2", mac.x2_size)
    a = np.zeros((mac.u_size, mac.x1_size))
    for j in range(mac.x1_size):
        cols = mac.table[:, j * mac.x2_size : (j + 1) * mac.x2_size]
        a[:, j] = cols @ p2
    return validate_uplink(a)


def gamma_from(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """End-to-end observation channel B @ phi @ A."""
    return np.asarray(b, dtype=float) @ np.asarray(phi, dtype=float) @ np.asarray(
        a, dtype=float
    )


def stationary_u_pmf(mac: MacModel, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Marginal pmf of the relay input u under independent sources.

    Point-mass sources are accepted here; strict positivity of p(x1) only
    matters to the detection pipeline, which checks it separately.
    """
    p1 = validate_source(p1, "p1", mac.x1_size)
    p2 = validate_source(p2, "p2", mac.x2_size)
    pair = np.outer(p1, p2).ravel()
    return mac.table @ pair


# distinct matrices whose cumulative tables are kept
_CDF_MEMO = 64


@content_memo(_CDF_MEMO)
def _cdf_table(matrix: np.ndarray) -> tuple[tuple, np.dtype, np.ndarray | None, bool]:
    """The running-maximum cumulative sum of ``matrix``'s columns, last row
    left out, as a tuple of frozen rows, the symbol dtype of its rows, a
    matrix's `point_masses` (None for a pmf), and whether those point
    masses map every column to its own row; built once per matrix, not per
    trial."""
    rows = frozen(np.maximum.accumulate(np.cumsum(matrix, axis=0), axis=0)[:-1])
    points = point_masses(matrix) if matrix.ndim == 2 else None
    identity = points is not None and np.array_equal(points, np.arange(points.size))
    return tuple(rows), symbol_dtype(matrix.shape[0]), points, identity


def _inverse_cdf(rows: tuple, columns, draws: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Writes into ``index`` the number of ``rows`` each draw is >= to."""
    if not rows:  # a one-symbol alphabet
        index.fill(0)
        return index
    if columns is not None:
        columns = np.asarray(columns).astype(np.intp, copy=False)
    # the first comparison is written, not added; a uint8 trace takes it as bool
    np.greater_equal(
        draws,
        rows[0] if columns is None else rows[0].take(columns),
        out=index.view(bool) if index.itemsize == 1 else index,
    )
    for row in rows[1:]:
        index += draws >= (row if columns is None else row.take(columns))
    return index


def sample_trace(matrix: np.ndarray, n: int, rng: np.random.Generator, columns=None) -> np.ndarray:
    """n symbols drawn by inverse-CDF sampling, one of ``trace_blocks(n)`` at a time.

    ``matrix`` is a matrix of column pmfs and ``columns``, an integer array
    of n entries, gives the column of each symbol; without it every symbol
    is drawn from the one pmf ``matrix``. The draws of the blocks are those
    of one ``rng.random(n)``. Each symbol is the first row whose cumulative
    sum exceeds its draw: the number of rows of the running-maximum
    cumulative sum that the draw is >= to. The running maximum keeps this
    the first exceeding row where tolerated negative entries dip the sum;
    leaving out the last row treats it as 1.0, so a float undersum cannot
    push a draw past the alphabet.
    """
    if columns is not None and np.shape(columns) != (n,):
        raise ValueError(f"columns has shape {np.shape(columns)} for a trace of {n} symbols")
    rows, dtype, _, _ = _cdf_table(np.asarray(matrix))
    trace = np.empty(n, dtype)
    for block in trace_blocks(n):
        draws = rng.random(block.stop - block.start)
        _inverse_cdf(rows, None if columns is None else columns[block], draws, trace[block])
    return trace


def _channel_trace(matrix: np.ndarray, rng: np.random.Generator, columns: np.ndarray) -> np.ndarray:
    """One symbol through the channel ``matrix`` from each entry of ``columns``.

    A matrix of point masses is a lookup, block by block, and draws
    nothing; one that maps every column to its own row (B = I) is a copy of
    ``columns`` in the output dtype. Any other matrix is sampled by
    `sample_trace`.
    """
    _, dtype, points, identity = _cdf_table(matrix)
    if identity:
        return columns.astype(dtype)
    if points is None:
        return sample_trace(matrix, columns.size, rng, columns)
    trace = np.empty(columns.size, dtype)
    for block in trace_blocks(columns.size):
        points.take(columns[block], out=trace[block])
    return trace


def simulate_uplink(
    mac: MacModel,
    p1: np.ndarray,
    p2: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw N i.i.d. source symbols and the induced relay inputs."""
    validate_count(n, "n")
    p1 = validate_source(p1, "p1", mac.x1_size)
    p2 = validate_source(p2, "p2", mac.x2_size)
    x1 = sample_trace(p1, n, rng)
    x2 = sample_trace(p2, n, rng)
    return x1, x2, _channel_trace(mac.table, rng, flat_key((x1, x2), (mac.x1_size, mac.x2_size)))


def simulate_downlink(
    b: np.ndarray, v_trace: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Pass the relay outputs through the memoryless broadcast marginal B.

    B is checked by `validate_column_stochastic`, which hands back a B it
    issued unchecked, and the relay outputs by `validate_trace` against B's
    columns. A B of point masses is a lookup of each relay output's column
    and never calls ``rng``; B = I (every fig3 preset) is a copy of the
    relay outputs. Any other B is sampled.
    """
    b = validate_column_stochastic(b, "B")
    return _channel_trace(b, rng, validate_trace(v_trace, "v", b.shape[1]))
