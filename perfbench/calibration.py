"""Host speed calibration.

The host's speed drifts with other tenants' load, by up to 1.75x over a
few minutes, and a tracker scan slows with it.  ``Calibration`` is fixed
reference work, run between the timed scans; each scan's wall time is
scaled by the calls around it to what it would have been at reference
speed.  Import ``bench`` first: it pins BLAS threads before numpy loads.
"""

import array
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Reference host speed: a time at reference speed is a wall time scaled
# as if the ``Calibration.run`` calls around it had taken this long.  It
# is about their median between scans on the host the baseline was
# recorded on (2-CPU Xeon, Sapphire Rapids, KVM guest), in seconds.
REFERENCE_S = 8.0e-3

_F = np.eye(4)
_F[0, 1] = _F[2, 3] = 1.0
_Q = np.diag([0.25, 1.0, 0.25, 1.0])
_H = np.zeros((2, 4))
_H[0, 0] = _H[1, 2] = 1.0
_R = 100.0 * np.eye(2)


@dataclass(eq=False)
class _Component:
    weight: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.weight = float(self.weight)
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.cov = 0.5 * (self.cov + self.cov.T)


def _kalman_steps(steps):
    components = [_Component(1.0, np.arange(4.0), 10.0 * np.eye(4))]
    for i in range(steps):
        c = components[-1]
        m = _F @ c.mean
        P = _F @ c.cov @ _F.T + _Q
        S = _H @ P @ _H.T + _R
        L = np.linalg.cholesky(S)
        K = np.linalg.solve(S, _H @ P).T
        z = np.array([0.1 * i, -0.1 * i])
        y = np.linalg.solve(L, z - _H @ m)
        components.append(_Component(np.exp(-0.5 * float(y @ y)),
                                     m + K @ (z - _H @ m),
                                     (np.eye(4) - K @ _H) @ P))


def _object_churn(items):
    table = {}
    for i in range(items):
        key = (i % 97, i % 89, i % 13)
        table[key] = table.get(key, ()) + (i,)
    sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    [{"a": i, "b": (i, i + 1), "c": [i]} for i in range(items)]


def _interpreter_loop(steps):
    x = 0
    for i in range(steps):
        x = (x * 31 + i) & 0xFFFF


class Calibration:
    """Fixed reference work whose time measures the host's current speed.

    ``poll`` runs the work at most once per ``PERIOD_S`` of wall time,
    between the timed scans, which costs 5-8% of a run.  The work shares
    no code with ``almbtrack``, so a change to the tracker cannot move
    it.  It mixes, in about equal parts, what a scan spends its time on:
    4x4 numpy Kalman steps, small Python objects in dicts and sorts,
    plain interpreter work, and reads scattered over 8 MB, which feel
    cache contention from other tenants.
    """

    PERIOD_S = 0.1
    LOCAL_CALLS = 3

    def __init__(self):
        n = 1 << 20
        order = np.random.default_rng(0).permutation(n)
        successor = np.empty(n, dtype=np.int64)
        successor[order] = np.roll(order, -1)
        # One cycle through all n slots, so every read misses nearby.
        self._chase = array.array("q", successor.tobytes())
        self.samples = []
        self._due = 0.0

    def run(self):
        """One call of the reference work; returns its seconds."""
        start = time.perf_counter()
        _kalman_steps(35)
        _object_churn(800)
        _interpreter_loop(22000)
        chase, j = self._chase, 0
        for _ in range(12000):
            j = chase[j]
        return time.perf_counter() - start

    def poll(self):
        """Run the reference work if ``PERIOD_S`` has passed since the
        last call."""
        if time.perf_counter() >= self._due:
            self.samples.append(self.run())
            self._due = time.perf_counter() + self.PERIOD_S

    def speed(self):
        """Host speed relative to the reference host (above 1: faster)."""
        return REFERENCE_S / statistics.median(self.samples)

    def scale(self, times, marks):
        """``times`` at reference speed.  Each is scaled by the median of
        the ``LOCAL_CALLS`` calls before its scan and as many after it,
        which follows the host through drift within a run."""
        samples, n = self.samples, self.LOCAL_CALLS
        return np.array([t * REFERENCE_S
                         / statistics.median(samples[max(0, m - n): m + n])
                         for t, m in zip(times, marks)])
