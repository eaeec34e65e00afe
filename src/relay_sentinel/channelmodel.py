"""Source, multiple-access, and broadcast channel models plus trace sampling.

Symbols are zero-based alphabet indices; for adder MACs the index equals the
integer symbol value. MAC tables flatten the input pair with column index
``x1_index * x2_size + x2_index``.

Sampling draw order inside `simulate_uplink` is fixed (x1 block, then x2
block, then — for non-deterministic MACs only — the u block) so traces are
reproducible from a seeded generator. Deterministic MACs consume no draws
for u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stochcore import validate_column_stochastic, validate_count, validate_pmf

__all__ = [
    "AlphabetReductionError",
    "MacModel",
    "marginalize_mac",
    "gamma_from",
    "stationary_u_pmf",
    "sample_columns",
    "simulate_uplink",
    "simulate_downlink",
]


class AlphabetReductionError(ValueError):
    """A relay-input symbol is unreachable; prune U and rebuild the models."""


@dataclass(frozen=True)
class MacModel:
    """Multiple-access channel p(u | x1, x2) in flattened-table form.

    ``deterministic`` is derived from the table, validated at construction:
    it marks point-mass columns (adders), for which simulation computes u
    directly and consumes no random draws for it.
    """

    table: np.ndarray
    x1_size: int
    x2_size: int
    deterministic: bool = field(init=False)

    def __post_init__(self):
        columns = validate_count(self.x1_size, "x1_size") * validate_count(self.x2_size, "x2_size")
        table = validate_column_stochastic(self.table, "table")
        if table.shape[1] != columns:
            raise ValueError(f"table has {table.shape[1]} columns, expected {columns}")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "deterministic", bool(np.isclose(table, np.round(table)).all()))

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
    p2 = validate_pmf(p2, "p2")
    if p2.size != mac.x2_size:
        raise ValueError("p2 length does not match the MAC's x2 alphabet")
    a = np.zeros((mac.u_size, mac.x1_size))
    for j in range(mac.x1_size):
        cols = mac.table[:, j * mac.x2_size : (j + 1) * mac.x2_size]
        a[:, j] = cols @ p2
    dead = np.nonzero(a.sum(axis=1) <= 0.0)[0]
    if dead.size:
        raise AlphabetReductionError(
            f"relay-input symbols {dead.tolist()} are unreachable; prune U"
        )
    return a


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
    p1 = validate_pmf(p1, "p1")
    p2 = validate_pmf(p2, "p2")
    pair = np.outer(p1, p2).ravel()
    return mac.table @ pair


def sample_columns(
    matrix: np.ndarray, columns: np.ndarray | None, draws: np.ndarray
) -> np.ndarray:
    """Inverse-CDF sampling: per draw, the first row whose cumulative sum exceeds it.

    ``matrix`` is a matrix of column pmfs indexed per draw by ``columns``,
    or one pmf when ``columns`` is None. The index is the number of rows of
    the running-maximum cumulative sum that the draw is >= to. The running
    maximum keeps this the first exceeding row where tolerated negative
    entries dip the sum; leaving out the last row treats it as 1.0, so a
    float undersum cannot push a draw past the alphabet.
    """
    draws = np.asarray(draws)
    cum = np.cumsum(np.asarray(matrix, dtype=float), axis=0)
    cum = np.maximum.accumulate(cum, axis=0)
    index = np.zeros(draws.size, dtype=np.intp)
    for row in cum[:-1]:
        index += draws >= (row if columns is None else row[columns])
    return index


def simulate_uplink(
    mac: MacModel,
    p1: np.ndarray,
    p2: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw N i.i.d. source symbols and the induced relay inputs."""
    validate_count(n, "n")
    p1 = validate_pmf(p1, "p1")
    p2 = validate_pmf(p2, "p2")
    x1 = sample_columns(p1, None, rng.random(n))
    x2 = sample_columns(p2, None, rng.random(n))
    if mac.deterministic:
        u = mac.table.argmax(axis=0)[x1 * mac.x2_size + x2]
    else:
        u = sample_columns(mac.table, x1 * mac.x2_size + x2, rng.random(n))
    return x1, x2, u


def simulate_downlink(
    b: np.ndarray, v_trace: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Pass the relay outputs through the memoryless broadcast marginal B."""
    v_trace = np.asarray(v_trace)
    return sample_columns(b, v_trace, rng.random(v_trace.size))
