"""A fixed reference computation: the yardstick for the box's speed.

The sandbox this benchmark runs on is a few cores of a shared host, and the
whole box changes speed for minutes at a time (neighbours, frequency): the
same program, the same requests, 40 requests/s in one run and 56 in the
next, with CPU time per request moving just as much.  No statistic taken
inside one run can remove that, so every run times this reference
computation between its rounds and reports its timings **in reference
milliseconds**: measured time x ``NOMINAL_S`` / (the reference's time then
and there).  On a quiet box the reference takes about ``NOMINAL_S`` and the
numbers read as plain milliseconds.

The reference is made of what the program is made of -- interpreter work
(arithmetic, dict and list stores, calls) and NumPy kernels over arrays
larger than a core's L2 cache (mask, gather, reduce, group) -- and of nothing the
program contains, so no change to the program can move it.  It allocates no
containers, so it does not advance the garbage collector's counters.
"""

from __future__ import annotations

import time
from typing import Tuple

try:
    import numpy as _np
except ImportError:  # the program runs without NumPy too
    _np = None

#: The reference's time on the quiet 2-core box the benchmark was defined on
#: (with NumPy; without it only the interpreter half runs, about 10 ms, and
#: this is then just the constant that fixes the unit).
NOMINAL_S = 0.0137

#: Two columns of 2 MiB: past a core's L2 cache, small beside the program's data.
_ROWS = 1 << 18
_SLOTS = 1024


def _step(i: int, total: int) -> int:
    return (total + i * i) % 1_000_003


class Reference:
    """``sample()`` runs the reference once: (seconds, CPU seconds) it took."""

    def __init__(self) -> None:
        self._table = dict.fromkeys(range(_SLOTS), 0)
        self._cells = [0] * _SLOTS
        if _np is not None:
            self._values = _np.arange(_ROWS, dtype=_np.float64)
            self._keys = (_np.arange(_ROWS, dtype=_np.int64) * 2654435761) % 4096
        self.sample()  # first touch of the arrays is not part of any sample

    def sample(self) -> Tuple[float, float]:
        table, cells, step = self._table, self._cells, _step
        cpu0, t0 = time.thread_time(), time.perf_counter()
        total = 0
        for i in range(45_000):
            total = step(i, total)
            slot = i & (_SLOTS - 1)
            table[slot] = total
            cells[slot] = table[(slot * 7) & (_SLOTS - 1)] + i
        if _np is not None:
            values, keys = self._values, self._keys
            for bound in (1024, 3072):
                picked = values[keys < bound]
                total += int(picked.sum())
                total += int(_np.bincount(keys, weights=values)[7])
                total += int(values[keys[:65536] * 60].sum())
        self._cells[0] = total
        return time.perf_counter() - t0, time.thread_time() - cpu0
