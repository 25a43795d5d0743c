"""Machine-speed calibration for the reported times.

On a shared machine the CPU speed drifts: the same run with the same seed
has taken anywhere from 21 s to 29 s of command time, with a fixed kernel
slowing by the same factor.  So a fixed reference kernel that uses no
krdecomp code (a Python loop over tuples and a dict, plus a small HiGHS
transport LP solved through scipy) runs before every timed command, and a
time is reported at reference speed:

    raw seconds * REF_S / (median kernel time over the nearest samples)

A reported millisecond is a millisecond on a machine where the kernel
takes REF_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

REF_S = 0.004  # kernel time that defines reference speed
WINDOW = 10  # samples on each side used to estimate the speed at a command
_SIDE = 12  # atoms per side of the kernel's transport LP


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        src, snk = rng.random((_SIDE, 2)), rng.random((_SIDE, 2))
        self.cost = np.sqrt(((src[:, None, :] - snk[None, :, :]) ** 2).sum(-1)).ravel()
        n = _SIDE * _SIDE
        rows = np.r_[np.repeat(np.arange(_SIDE), _SIDE), _SIDE + np.tile(np.arange(_SIDE), _SIDE)]
        cols = np.r_[np.arange(n), np.arange(n)]
        self.a_eq = sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(2 * _SIDE, n))
        self.b_eq = np.full(2 * _SIDE, 1.0 / _SIDE)

    def _kernel(self) -> None:
        acc, table = 0.0, {}
        for i in range(2000):
            key = (i * 0.5, i + 1.0)
            acc += key[0] * key[1]
            table[key] = acc
        res = linprog(self.cost, A_eq=self.a_eq, b_eq=self.b_eq, bounds=(0, None),
                      method="highs-ds")
        if res.status != 0:
            raise RuntimeError(f"calibration LP failed: {res.message}")

    def sample(self) -> float:
        """Seconds the reference kernel takes now."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start


def at_reference_speed(raw: list[float], kernel: list[float]) -> list[float]:
    """Scale each raw time by REF_S over the median kernel time of the
    2*WINDOW+1 samples centred on it."""
    out = []
    for i, t in enumerate(raw):
        near = kernel[max(0, i - WINDOW) : i + WINDOW + 1]
        out.append(t * REF_S / statistics.median(near))
    return out
