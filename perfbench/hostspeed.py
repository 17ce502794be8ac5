"""Host-speed sampler: rescales wall times to a fixed reference speed.

On a shared host the CPU speed seen by one process switches by up to 2x,
often within a second (other tenants' load on shared cores, caches and
memory bandwidth), so a wall time says as much about the neighbours as
about the program. While the benchmark runs, a SIGALRM timer runs a fixed
probe every PROBE_PERIOD_S in the main thread. The probe uses numpy only,
never memattn, so a change to the program cannot move it. It is built
from the parts a workload's own work looks like:

  interp  a chain of small-array numpy ops that makes Python objects, the
          per-node pattern of a tape-based autograd
  blas    a 256x512 by 512x256 matmul

`seconds(start, end)` is the wall time of an interval minus the probe time
inside it, times the probe's reference time over its mean time within
WINDOW_PAD_S of the interval: the time the interval would have taken on a
host where the probe takes its reference time. The mean, not the median,
because an interval's duration adds up its slow and fast stretches.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_PERIOD_S = 0.1
WINDOW_PAD_S = 0.25
# Each part's time on an idle 2.0 GHz Xeon vCPU with two BLAS threads
# (about the 5th percentile of 4000 runs).
REFERENCE_S = {"interp": 0.0008, "blas": 0.0013}


class _Node:
    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.grad = None
        self.parents = parents


class HostSpeed:
    def __init__(self, parts):
        rng = np.random.default_rng(0)
        self.grid = rng.normal(size=(49, 32))
        self.weights = rng.normal(size=(32, 32))
        self.state = rng.normal(size=32)
        self.left = rng.normal(size=(256, 512))
        self.right = rng.normal(size=(512, 256))
        self.parts = [getattr(self, "_" + p) for p in parts]
        self.reference_s = sum(REFERENCE_S[p] for p in parts)
        self.starts = []   # probe start times, ascending
        self.ends = []
        self.took = []     # probe durations, seconds
        self._previous = None

    def _interp(self):
        nodes = []
        h = self.state
        for _ in range(40):
            z = self.grid @ self.weights
            e = np.exp(z[:, 0] - z[:, 0].max())
            a = e / e.sum()
            h = np.tanh(a @ self.grid + 0.5 * h)
            nodes.append(_Node(h, (_Node(z), _Node(a))))
        for node in reversed(nodes):
            node.grad = 1.0 - node.value * node.value

    def _blas(self):
        self.left @ self.right

    def probe(self):
        for part in self.parts:
            part()

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.took.append(end - start)

    def start(self):
        self.probe()  # warm up caches and BLAS threads before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, start, end):
        """Mean probe time near [start, end] over the reference time."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_PAD_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_PAD_S)
        if lo == hi:  # no sample near the interval: use the nearest one
            lo = min(lo, len(self.took) - 1)
            hi = lo + 1
        return statistics.fmean(self.took[lo:hi]) / self.reference_s

    def seconds(self, start, end):
        """The interval's wall time without probes, at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        busy = sum(self.took[lo:hi]) if hi > lo else 0.0
        return (end - start - busy) / self.factor(start, end)
