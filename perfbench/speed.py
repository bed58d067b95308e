"""Host speed, tracked by a fixed reference kernel timed between operations.

On a shared host, other tenants slow whole stretches of a run by 10-70 %,
and CPU time slows with wall time, so neither can be read as the
program's own cost. The benchmark therefore interleaves a reference unit,
which does not use toruslab, with the operations. After each operation,
it times reference units for 15 % of that operation's time, so the
units sample the host throughout the run, in proportion to where the
time goes. The ratio of
the reference's nominal unit time to its mean over the run rescales the
run's times. A rescaled time is the time on a host where one unit takes
``NOMINAL_UNIT_S``. That is this benchmark's 2-core Xeon host at its
quieter times. It moves with the program's cost and hardly with the
host's load.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_UNIT_S = 3.0e-3
SHARE = 0.15  # reference time per second of operation time

_SMALL = np.linspace(0.0, 1.0, 6)
_BIG = np.linspace(0.0, 1.0, 4096 * 6).reshape(4096, 6)


def _unit() -> None:
    # thirds of interpreter work, small-array dispatch and large ufuncs,
    # the three costs the workloads are bound by
    s = 0
    for i in range(12_000):
        s += i * i
    for _ in range(300):
        np.sin(_SMALL) * 2.0 + _SMALL
    for _ in range(7):
        np.sin(_BIG)


class Speed:
    """Accumulated reference units and their summed time."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def sample(self, after_s: float) -> None:
        """Time reference units for ``SHARE`` of ``after_s``, at least one."""
        budget = SHARE * after_s
        t0 = perf_counter()
        while True:
            _unit()
            self.units += 1
            spent = perf_counter() - t0
            if spent >= budget:
                break
        self.seconds += spent

    def factor(self) -> float:
        """Multiplier from this run's seconds to seconds at nominal speed."""
        return NOMINAL_UNIT_S * self.units / self.seconds
