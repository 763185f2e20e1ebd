"""Host-speed calibration kernel shared by the runner and the workers."""
from __future__ import annotations

import gc
import time
from fractions import Fraction


def calibration_ms():
    """Time of a fixed pure-Python kernel (tuple building, dict counting,
    Fraction sums), about 1 ms on an idle 2-vCPU host: the host's speed at
    this moment.  The garbage collector is off while it runs, so that a
    collection made due by the measured code is not paid here."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        p = tuple(range(8))
        for i in range(600):
            p = tuple(p[(j * 3 + i) % 8] for j in range(8))
            seen[p] = seen.get(p, 0) + 1
        f = Fraction(0)
        for i in range(1, 60):
            f += Fraction(i, i + 7)
        return (time.perf_counter() - start) * 1000.0
    finally:
        if was_enabled:
            gc.enable()
