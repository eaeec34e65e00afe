"""A fixed reference computation, the unit every benchmark time is given in.

The machine this benchmark was built on is a shared 2-core VM. There, CPU
time per unit of work swung by up to 1.75x for tens of seconds at a time,
and the kernel below and the workloads moved together. The benchmark runs
the kernel between ops and reports CPU time multiplied by
``REFERENCE_S / kernel time``: the time the work would take on a machine
where the kernel takes ``REFERENCE_S``. The kernel shares no code with the
package, so a change to the package cannot move it. This module imports
nothing of the package, so it can also time the package's import.
"""

import statistics
from time import process_time

import numpy as np

# CPU seconds of the kernel on the reference machine
REFERENCE_S = 0.01

_TABLE = np.random.default_rng(0).random((30, 60))
_COLUMNS = np.cumsum(np.random.default_rng(1).dirichlet(np.ones(5), size=5), axis=1).T
_SYMBOLS = np.random.default_rng(2).integers(0, 5, size=20_000)


def kernel() -> float:
    """CPU seconds of one run of the reference computation.

    It is shaped like the package's two kinds of work: a Python loop of
    small dense row operations (pivots on a 30 x 60 table, as in the LP
    solver) and per-symbol sampling over long arrays, kept to 2 x 10^4
    symbols so that it adds under 1 MiB to the peak resident set.
    """
    start = process_time()
    for _ in range(4):
        table = _TABLE.copy()
        for _ in range(60):
            col = int(np.argmax(table[0, 1:])) + 1
            row = int(np.argmin(table[1:, 0] / (np.abs(table[1:, col]) + 1e-3))) + 1
            table[row] /= table[row, col] + 1.0
            table -= np.outer(table[:, col], table[row]) * 1e-3
    rng = np.random.default_rng(3)
    for _ in range(3):
        sampled = (_COLUMNS[:, _SYMBOLS] > rng.random(_SYMBOLS.size)).argmax(axis=0)
        np.bincount(sampled * 5 + _SYMBOLS, minlength=25)
    return process_time() - start


def scale(repeats: int = 3) -> float:
    """Reference seconds per CPU second now, from the median of ``repeats`` kernel runs."""
    return REFERENCE_S / statistics.median(kernel() for _ in range(repeats))
