"""Time measured at a reference host speed.

The benchmark shares a host whose CPU speed drifts by up to 2x, both
within a second and over minutes, and ``process_time`` drifts with it.
A raw op time therefore says as much about the host as about the
program.  ``HostClock`` takes that out: it runs a short reference
kernel at the start and end of every op and, from a timer signal, every
``INTERVAL_S`` while the op runs.  Each stretch of op time between two
kernel rounds is scaled by the kernel's reference time over the mean of
the two rounds' measured times, and kernel time is not op time.  The
scaled sum no longer depends on how fast the host ran at the moment,
because the kernel and the stretch ran close together in time on the
same core.

How much a slow spell slows code depends on what the code does, so each
workload has a kernel of its own kind (``workloads.KERNEL``):

- ``sturm``: a Sturm-count recurrence over a small float array, the
  loop of Sturm bisection;
- ``lu``: element-wise updates of complex numpy arrays, the loops of
  a tridiagonal LU factorisation and solve;
- ``csv``: ``%.16e`` formatting of numpy floats into joined CSV rows.

The kernels never touch xspectra, so a change to the program cannot
change them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# one round of each kernel takes about this long at the host's typical
# speed; reported times are "seconds at this reference speed"
REFERENCE_S = {"sturm": 0.03, "lu": 0.03, "csv": 0.03}
# a kernel round runs this often while an op runs
INTERVAL_S = 0.25

_D = np.linspace(1.0, 2.0, 400)
_E2 = np.full(399, 0.01)
_SIGMAS = np.linspace(0.5, 1.5, 12)
_M = np.linspace(0.1, 0.2, 3000) + 0.01j
_COLUMNS = [np.linspace(-5.0, 5.0, 1000) * (j + 1.1) for j in range(4)]


def _sturm() -> None:
    for _ in range(9):
        q = _D[0] - _SIGMAS
        cnt = (q < 0.0).astype(int)
        for i in range(1, len(_D)):
            q = (_D[i] - _SIGMAS) - _E2[i - 1] / q
            q = np.where(np.abs(q) < 1e-290, -1e-290, q)
            cnt += q < 0.0


def _lu() -> None:
    for _ in range(10):
        y = np.ones(len(_M), dtype=complex)
        for i in range(len(_M) - 1):
            y[i + 1] = y[i + 1] - _M[i] * y[i]
        for i in range(len(_M) - 2, -1, -1):
            y[i] = (y[i] - _M[i] * y[i + 1]) / (_M[i] + 2.0)


def _csv() -> None:
    for _ in range(6):
        lines = [",".join("%.16e" % col[i] for col in _COLUMNS) for i in range(len(_COLUMNS[0]))]
        "\n".join(lines)


_KERNELS = {"sturm": _sturm, "lu": _lu, "csv": _csv}


def measure(kind: str) -> tuple:
    """(wall seconds, process CPU seconds) of one round of a kernel."""
    kernel = _KERNELS[kind]
    w0, c0 = time.perf_counter(), time.process_time()
    # the round may run inside the program's own numpy error state
    with np.errstate(all="ignore"):
        kernel()
    return time.perf_counter() - w0, time.process_time() - c0


class HostClock:
    """Op time, raw and at the reference speed of one kernel.

    Use from the main thread only (the timer is a signal)::

        clock = HostClock("lu")
        clock.start_op()
        ...                     # the op
        clock.end_op()          # -> (wall, cpu, wall_ref, cpu_ref)

    ``last`` is the most recent kernel round; the first ``start_op``
    measures one, and each later op starts from the round that ended
    the op before it.
    """

    def __init__(self, kind: str, sampling: bool = True):
        self.kind = kind
        self.sampling = sampling
        self.last = None
        self.rounds = 0
        self._in_op = False
        self._busy = False

    def round(self) -> tuple:
        """Run one kernel round now; it becomes ``last``."""
        self.last = measure(self.kind)
        self.rounds += 1
        return self.last

    def start_op(self) -> None:
        if self.last is None:
            self.round()
        self._totals = [0.0, 0.0, 0.0, 0.0]
        self._mark = (time.perf_counter(), time.process_time())
        self._in_op = True
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end_op(self) -> tuple:
        self._in_op = False
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._checkpoint()
        return tuple(self._totals)

    def _on_timer(self, signum, frame) -> None:
        if self._in_op and not self._busy:
            self._checkpoint()

    def _checkpoint(self) -> None:
        self._busy = True
        try:
            wall = time.perf_counter() - self._mark[0]
            cpu = time.process_time() - self._mark[1]
            before = self.last
            self.round()
            ref = REFERENCE_S[self.kind]
            self._totals[0] += wall
            self._totals[1] += cpu
            self._totals[2] += wall * ref / (0.5 * (before[0] + self.last[0]))
            self._totals[3] += cpu * ref / (0.5 * (before[1] + self.last[1]))
            self._mark = (time.perf_counter(), time.process_time())
        finally:
            self._busy = False
