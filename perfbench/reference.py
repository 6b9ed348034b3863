"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the interpreter's speed changes by up to 2x from one
second to the next, independently on each core, as other tenants come and
go, and every timing changes with it.  The benchmark therefore times this
kernel -- a small discrete-event loop over a binary heap and ``__slots__``
objects, the same kind of work the simulator does -- next to each timed
operation, and reports the operation's wall time scaled by ``REFERENCE_S
/ kernel time``: seconds on a host that runs the kernel in
``REFERENCE_S``.  A faster program lowers the scaled time; a slower host
does not raise it.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
from statistics import mean, median
from typing import Optional

__all__ = ["REFERENCE_S", "Speedometer", "kernel", "kernel_seconds", "pool_kernel_seconds"]

#: Nominal wall of one kernel pass: its time on a 2-core x86-64 host with
#: CPython 3.11 when no other tenant competes for the core.
REFERENCE_S = 0.015


class _Event:
    __slots__ = ("count", "sink")

    def __init__(self, sink: dict) -> None:
        self.count = 0
        self.sink = sink

    def fire(self, now: float) -> None:
        self.count += 1
        self.sink[self.count & 63] = now


def kernel(steps: int = 20000) -> int:
    """Pop, fire and re-push ``steps`` events; returns a checksum."""
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    sink: dict = {}
    seq = 0
    for _ in range(32):
        seq += 1
        push(heap, (0.0, seq, _Event(sink)))
    for _ in range(steps):
        now, _, event = pop(heap)
        event.fire(now)
        seq += 1
        push(heap, (now + ((seq * 7919) % 997) * 1e-6, seq, event))
    return len(sink)


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall of ``repeats`` kernel passes."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        walls.append(time.perf_counter() - start)
    return median(walls)


def _pinned_kernel_seconds(cpu: Optional[int]) -> float:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    return kernel_seconds(5)


def pool_kernel_seconds(processes: int) -> float:
    """Mean kernel time of ``processes`` forked processes timing it at once,
    each pinned to its own core where the platform allows.

    This tracks the host's speed for work spread over several cores, such
    as a campaign's worker pool.  The pool is closed and joined on return.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        targets: list[Optional[int]] = [cpus[index % len(cpus)] for index in range(processes)]
    else:
        targets = [None] * processes
    pool = multiprocessing.get_context("fork").Pool(processes)
    try:
        return mean(pool.map(_pinned_kernel_seconds, targets))
    finally:
        pool.close()
        pool.join()


class Speedometer:
    """Scales the wall of consecutive operations to reference seconds.

    The kernel is timed once up front and again at each :meth:`factor`
    call; the work between two timings is scaled by their mean.
    """

    def __init__(self) -> None:
        self.restart()

    def restart(self) -> None:
        """Time the kernel now; the next :meth:`factor` covers work from here."""
        self._last = kernel_seconds()

    def factor(self) -> float:
        """Reference seconds per wall second since the previous call."""
        current = kernel_seconds()
        factor = REFERENCE_S / ((self._last + current) / 2.0)
        self._last = current
        return factor
