"""Stochastic-matrix and vector primitives, and the input validators.

Conventions used throughout the package:

- every stochastic matrix is COLUMN-stochastic: entry (i, j) is the
  conditional probability P(output_i | input_j), so each column sums to 1;
- vector/matrix norms written ``l1`` are entrywise sums of absolute values;
- all indices are zero-based;
- `validate_pmf` and `validate_column_stochastic` are the only judges of
  whether an input is a probability object, always at ``DEFAULT_TOL``;
  `validate_source`, `validate_uplink`, `validate_channel`, `validate_positive`,
  `validate_count` and `validate_count_table` alone decide a source's
  alphabet, the reachable relay symbols, the channel pair, the real
  parameters (mu, delta), the counts and the count tables. A bool is never a
  number or a count here;
- the probability validators (`validate_pmf`, `validate_column_stochastic`,
  `validate_uplink`, and through them `validate_source` and
  `validate_channel`) *issue* what they pass: an immutable float view of a
  bytes buffer, which NumPy refuses to make writable, recorded by identity
  with the rules it passed. Handed back an array it issued under its own
  rule, a validator returns that very object, since it can never change,
  and makes only the checks its other arguments ask for (an alphabet size,
  the relay alphabet of a pair); any other array, equal content included,
  is checked in full;
- `validate_trace` alone decides whether a symbol trace is one: 1-D,
  integer (not bool), every symbol inside its alphabet; `joint_counts`
  alone counts paired symbol traces, of equal non-zero lengths, into one
  table;
- symbol traces are stored in the smallest unsigned dtype of their alphabet
  (`symbol_dtype`), and so are their keys: one builder, `flat_key`, turns
  paired symbols into one key, in the smallest unsigned dtype of the
  tuples, once per trace, for `simulate_uplink` and `joint_counts` alike.
  Every 8-byte temporary (draws, intp indices, gathered thresholds,
  `bincount`'s copy) lives one `trace_blocks` block at a time, so none
  grows with the trace length;
- `point_masses` alone decides whether a matrix is deterministic: every
  entry within ``DEFAULT_TOL`` of 0 or 1;
- every array the package keeps or shares is `frozen`, which no holder can
  make writable again, and every memo by array content is a `content_memo`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "AlphabetReductionError",
    "ChannelConstants",
    "l1_norm",
    "validate_pmf",
    "validate_column_stochastic",
    "validate_source",
    "validate_uplink",
    "validate_channel",
    "validate_positive",
    "validate_count",
    "validate_count_table",
    "validate_trace",
    "symbol_dtype",
    "point_masses",
    "trace_blocks",
    "flat_key",
    "joint_counts",
    "channel_constants",
    "value_eq",
    "frozen",
    "content_memo",
]

DEFAULT_TOL = 1e-9

# symbols per block of a per-symbol pass: each stage makes its NumPy calls
# (draw, gather, compare, count) once per block, and 8 192 reads 3.5
# reference ms per long_block trial at p50 (4.4 at 4 096) with a 693 KiB
# tracemalloc peak per fig5a trial (594). 16 384 read 7 % faster again but
# peaks at 892 KiB, near the 1 MiB test bound, and faults at glibc's default
# trim threshold in every heap layout tried; 4 096 and 8 192 fault in some
BLOCK_SIZE = 8192


def frozen(arr) -> np.ndarray:
    """arr as an immutable, aligned C-order copy: an array over bytes, which
    NumPy refuses to make writable."""
    arr = np.asarray(arr)
    return np.ndarray(arr.shape, arr.dtype, arr.tobytes())


_MEMOS: list = []  # every content_memo, for reports of their traffic


def content_memo(maxsize: int):
    """An ``lru_cache`` keyed by content: each ndarray argument by its shape and
    float bytes (a copy, a Fortran-order or int array of equal values meet one
    entry), which the function receives `frozen`. No other argument is a tuple."""
    def decorate(func):
        ndarray, f64 = np.ndarray, np.dtype(float)  # cells read faster than globals

        @functools.lru_cache(maxsize)
        def cached(*key):
            return func(*(np.ndarray(k[0], float, k[1]) if type(k) is tuple else k for k in key))

        @functools.wraps(func)
        def memo(*args):
            key = []
            for arg in args:  # a plain loop: a comprehension's frame costs more
                if isinstance(arg, ndarray):  # any dtype object but f64 itself converts
                    arg = (arg.shape, (arg if arg.dtype is f64 else arg.astype(f64)).tobytes())
                key.append(arg)
            return cached(*key)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        _MEMOS.append(memo)
        return memo

    return decorate


class AlphabetReductionError(ValueError):
    """A relay-input symbol is unreachable; prune U and rebuild the models."""


def value_eq(self, other) -> bool:
    """``__eq__`` for a dataclass with ndarray fields: those by np.array_equal.

    The generated ``__eq__`` compares the fields as tuples, and an ndarray
    field makes that raise. Assign it in the class body as ``__eq__ = value_eq``.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for field in dataclasses.fields(self):
        if not field.compare:
            continue
        mine, theirs = getattr(self, field.name), getattr(other, field.name)
        if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
            if not np.array_equal(mine, theirs):  # None against an array too
                return False
        elif mine != theirs:
            return False
    return True


@dataclass(frozen=True)
class ChannelConstants:
    """Scalar constants attached to an uplink channel matrix.

    ``a_big_min`` is the smallest row sum of the channel matrix; ``a_min``
    and ``b_min`` are the derived floor constants used by the detection
    guarantees (both strictly inside (0, 1)).
    """

    a_big_min: float
    a_min: float
    b_min: float


def l1_norm(m: np.ndarray) -> float:
    """Sum of absolute values of all entries (works for vectors too)."""
    return float(np.abs(np.asarray(m, dtype=float)).sum())


# id -> (weak reference, rules passed) of every array a probability
# validator issued; a collected array leaves through its reference's callback
_ISSUED: dict[int, tuple[weakref.ref, set]] = {}


def _issued(value, rule: str) -> bool:
    """Whether value is an array a validator issued under ``rule``."""
    entry = _ISSUED.get(id(value))
    return entry is not None and entry[0]() is value and rule in entry[1]


def _issue(arr: np.ndarray, rule: str) -> np.ndarray:
    """arr, an immutable `_probabilities` array, recorded as passing ``rule``."""
    key = id(arr)
    if key not in _ISSUED:
        _ISSUED[key] = (weakref.ref(arr, lambda _ref: _ISSUED.pop(key, None)), set())
    _ISSUED[key][1].add(rule)
    return arr


def _probabilities(value, name: str, ndim: int, expected: str) -> np.ndarray:
    """value as a float array of the given rank, every entry a non-negative number.

    Non-numeric, NaN and infinite entries are rejected before any sum is taken.
    The array is a `frozen` copy, which no write by caller or callee changes.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name}: expected {expected}")
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name}: entries must be numbers")
    arr = frozen(arr.astype(float, copy=False))
    if not np.isfinite(arr).all():
        _reject(name, arr, ~np.isfinite(arr), "is not finite")
    if arr.min() < -DEFAULT_TOL:
        _reject(name, arr, arr < -DEFAULT_TOL, "is negative")
    return arr


def _reject(name: str, arr: np.ndarray, mask: np.ndarray, problem: str):
    index = tuple(np.argwhere(mask)[0])
    path = "".join(f"[{i}]" for i in index)
    raise ValueError(f"{name}{path}: entry {arr[index]} {problem}")


def validate_pmf(p, name: str = "p") -> np.ndarray:
    """p as an issued 1-D float copy (p itself if issued as a pmf), or
    ValueError naming ``name`` and the bad entry."""
    if _issued(p, "pmf"):
        return p
    p = _probabilities(p, name, 1, "a non-empty list of probabilities")
    total = p.sum()
    if abs(total - 1.0) > DEFAULT_TOL:
        raise ValueError(f"{name}: entries sum to {total}, expected 1")
    return _issue(p, "pmf")


def validate_column_stochastic(m, name: str) -> np.ndarray:
    """m as an issued 2-D float copy (m itself if issued as column-stochastic),
    or ValueError naming ``name`` and the bad entry.

    A column that does not sum to 1 is named as ``{name}[.][j]``.
    """
    if _issued(m, "column-stochastic"):
        return m
    m = _probabilities(m, name, 2, "a non-empty list of equal-length rows")
    sums = m.sum(axis=0)
    off = np.abs(sums - 1.0) > DEFAULT_TOL
    if off.any():
        j = off.argmax()
        raise ValueError(f"{name}[.][{j}]: column sums to {sums[j]}, expected 1")
    return _issue(m, "column-stochastic")


def validate_source(p, name: str, size: int) -> np.ndarray:
    """p as `validate_pmf` returns it, or ValueError unless it has ``size`` entries."""
    p = validate_pmf(p, name)
    if p.size != size:
        raise ValueError(f"{name}: has {p.size} entries for an alphabet of {size} symbols")
    return p


def validate_uplink(a) -> np.ndarray:
    """A by `validate_column_stochastic`, issued as an uplink (a itself if it
    was); AlphabetReductionError names its rows without mass."""
    if _issued(a, "uplink"):
        return a
    a = validate_column_stochastic(a, "A")
    dead = a.sum(axis=1) <= 0.0
    if dead.any():
        symbols = dead.nonzero()[0].tolist()
        raise AlphabetReductionError(f"relay-input symbols {symbols} are unreachable; prune U")
    return _issue(a, "uplink")


def validate_channel(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) by `validate_uplink` and `validate_column_stochastic`, on one relay alphabet."""
    a = validate_uplink(a)
    b = validate_column_stochastic(b, "B")
    if b.shape[1] != a.shape[0]:
        raise ValueError("A and B disagree on the relay alphabet size")
    return a, b


def validate_positive(value, name: str, zero_allowed: bool = False) -> float:
    """value as a float, or ValueError naming ``name``.

    value must be a real number other than a bool, finite, and positive
    (nonnegative when ``zero_allowed``).
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    number = float(value) if real else math.nan
    if not (0 <= number if zero_allowed else 0 < number) or not number < math.inf:
        sign = "nonnegative" if zero_allowed else "positive"
        shown = number if real else repr(value)
        raise ValueError(f"{name} must be {sign} and finite, got {shown}")
    return number


def validate_count(value, name: str, minimum: int = 1) -> int:
    """value, or ValueError naming ``name`` unless it is an int >= minimum (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def validate_count_table(counts, shape: tuple) -> np.ndarray:
    """counts as an array (the very object when it is one), or ValueError unless
    it holds ``shape`` integer counts (not bools), none negative, not all zero."""
    table = np.asarray(counts)
    if table.shape != shape:
        raise ValueError(f"counts have shape {table.shape}, expected {shape}")
    if table.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {table.dtype}")
    if (table < 0).any():
        _reject("counts", table, table < 0, "is negative")
    if not table.any():
        raise ValueError("counts hold no observation")
    return table


def validate_trace(trace, name: str, size: int) -> np.ndarray:
    """trace as an array (the very object when it is one), or ValueError
    naming ``name`` unless it is one-dimensional, of an integer dtype (not
    bool or float), and every symbol lies in {0, ..., size - 1}."""
    trace = np.asarray(trace)
    if trace.ndim != 1:
        raise ValueError(f"{name} trace must be one-dimensional, got shape {trace.shape}")
    if trace.dtype.kind not in "iu":
        raise ValueError(f"{name} symbols must be integers, got dtype {trace.dtype}")
    if trace.size:
        # an unsigned trace (every sampled one) holds no negative symbol
        low, high = trace.min() if trace.dtype.kind == "i" else 0, trace.max()
        if low < 0 or high >= size:
            raise ValueError(
                f"{name} symbol {low if low < 0 else high} is outside the alphabet of size {size}"
            )
    return trace


def symbol_dtype(size: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds the symbols 0, ..., size - 1."""
    return np.min_scalar_type(size - 1)


def point_masses(matrix) -> np.ndarray | None:
    """The row of each column's point mass, `frozen` in `symbol_dtype`, or None.

    A matrix is deterministic when every entry is within ``DEFAULT_TOL`` of
    0 or 1; a tolerated stray mass beside a column's unit entry is dropped.
    """
    matrix = np.asarray(matrix, dtype=float)
    if np.abs(matrix - np.round(matrix)).max() > DEFAULT_TOL:
        return None
    return frozen(matrix.argmax(axis=0).astype(symbol_dtype(matrix.shape[0])))


def trace_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_SIZE symbols that cover range(n)."""
    return [slice(start, min(start + BLOCK_SIZE, n)) for start in range(0, n, BLOCK_SIZE)]


def flat_key(traces, sizes) -> np.ndarray:
    """The row-major flattened keys of paired symbol traces, in the smallest
    unsigned dtype of their prod(sizes) keys (``symbol_dtype``).

    The symbols must lie inside their alphabets (the caller checks), so
    every key fits that dtype whatever the inputs' integer dtype: the
    arithmetic runs in it, in place on the one key array, cast unsafely
    from int64 or uint64 columns. A one-symbol leading alphabet is all
    zeros, so a later size past the dtype may wrap.
    """
    dtype = symbol_dtype(math.prod(sizes))
    # Horner's rule in place, ((t0 * s1 + t1) * s2 + t2) ..., whose first
    # multiply also casts t0 into the key (s1 is 1 for a lone trace)
    key = np.multiply(traces[0], np.intp(math.prod(sizes[1:2])), dtype=dtype, casting="unsafe")
    for index in range(1, len(traces)):
        np.add(key, traces[index], out=key, dtype=dtype, casting="unsafe")
        if index + 1 < len(traces):
            np.multiply(key, np.intp(sizes[index + 1]), out=key, dtype=dtype, casting="unsafe")
    return key


def joint_counts(traces, sizes, names) -> np.ndarray:
    """counts[i, j, ...] = #(traces[0] = i, traces[1] = j, ...) over paired
    symbol traces, an intp array of shape ``sizes``.

    ``names`` labels the traces in the messages. Traces of different or
    zero length, and any trace `validate_trace` rejects, are rejected, the
    last trace's faults first (a table counts (observed, given), and given
    is checked first); no symbol is ever folded into another cell. The
    traces become one key array, counted one block at a time.
    """
    traces = [np.asarray(trace) for trace in traces]
    if any(trace.size != traces[0].size for trace in traces):
        raise ValueError("trace lengths differ")
    if traces[0].size == 0:
        raise ValueError("empty traces")
    for trace, name, size in reversed(list(zip(traces, names, sizes))):
        validate_trace(trace, name, size)
    keys = flat_key(traces, sizes)
    cells = math.prod(sizes)
    first, *rest = trace_blocks(keys.size)  # bincount counts an intp copy
    counts = np.bincount(keys[first], minlength=cells)
    for block in rest:
        counts += np.bincount(keys[block], minlength=cells)
    return counts.reshape(sizes)


def channel_constants(a: np.ndarray, y1_size: int) -> ChannelConstants:
    """Floor constants for an uplink channel matrix (checked by `validate_uplink`)."""
    a = validate_uplink(a)
    u_size, x1_size = a.shape
    a_big_min = float(a.sum(axis=1).min())
    a_min = a_big_min / (u_size * (x1_size + a_big_min))
    b_min = 1.0 / (u_size * (y1_size + 1))
    return ChannelConstants(a_big_min=a_big_min, a_min=a_min, b_min=b_min)
