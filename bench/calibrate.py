"""A fixed numpy kernel that tells how fast the machine runs at the moment.

On a small share of a busy host the same round of the same simulation takes
anywhere from 1.0 to 1.8 times its usual wall time, in phases of seconds to
minutes that follow other tenants' load, not the program. A kernel of the
same kind of work (mini-batch gathers, small matmuls and element-wise steps,
a small SVD and a sort), timed right before and right after each timed
interval, slows down with it. The benchmark divides each interval by the
kernel's time around it and multiplies by ``REFERENCE_S``: the interval as it
would read on a machine where the kernel takes ``REFERENCE_S``. The kernel
does not call horus, so a change to the program moves the scaled figure
exactly as much as the wall time it saves at a given machine speed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.006  # about the kernel's time in a 2-vCPU x86-64 VM's fast phases

_SAMPLES, _FEATURES, _WIDTH, _CLASSES, _BATCH = 2048, 64, 48, 10, 256


class Kernel:
    """Call it to run the kernel once; it returns the wall time in seconds."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.x = rng.standard_normal((_SAMPLES, _FEATURES))
        self.y = rng.integers(0, _CLASSES, _SAMPLES)
        self.w1 = 0.1 * rng.standard_normal((_WIDTH, _FEATURES))
        self.w2 = 0.1 * rng.standard_normal((_CLASSES, _WIDTH))
        self.stack = rng.standard_normal((40, _FEATURES * 8))
        self.perm = rng.permutation(_SAMPLES)
        self()  # the first call pays for page faults and lazy set-up

    def __call__(self) -> float:
        t0 = time.perf_counter()
        w1, w2 = self.w1.copy(), self.w2.copy()
        rows = np.arange(_BATCH)
        for _ in range(4):
            for start in range(0, _SAMPLES, _BATCH):
                idx = self.perm[start : start + _BATCH]
                x, y = self.x[idx], self.y[idx]
                z1 = x @ w1.T
                h = np.maximum(z1, 0.0)
                logits = h @ w2.T
                logits -= logits.max(axis=1, keepdims=True)
                p = np.exp(logits)
                p /= p.sum(axis=1, keepdims=True)
                p[rows, y] -= 1.0
                p /= _BATCH
                dw2 = p.T @ h
                dw1 = ((p @ w2) * (z1 > 0.0)).T @ x
                w1 -= 0.01 * dw1
                w2 -= 0.01 * dw2
        np.linalg.svd(self.stack[:, :_FEATURES], full_matrices=False)
        np.sort(self.stack, axis=0)
        return time.perf_counter() - t0
