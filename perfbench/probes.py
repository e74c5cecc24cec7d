"""Speed probes: fixed pieces of work that call no varsel code.

On the 2-vCPU VM the benchmark was first measured on, the same work ran up
to a third slower for minutes at a time, with CPU time tracking wall time,
and different kinds of work slowed down by different amounts.  Each workload therefore names a probe that
is a frozen miniature of its own dominant work; a run times its probe
between operations and scales its end-to-end times by
``reference_s / median probe time``, so they read in seconds of a machine
on which the probe takes ``reference_s``.  The probes never change with
the package, so a faster package still reads faster.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from itertools import combinations, islice
from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def _blas_work():
    """Power iterations and rank-one deflations over a tall matrix plus a
    Cholesky inverse of a square block (the selectors' matvecs, NIPALS,
    deflation and ITFS inverse)."""
    rng = np.random.default_rng(20210304)
    tall = rng.standard_normal((2000, 150))
    block = rng.standard_normal((300, 300))
    spd = block @ block.T + 300.0 * np.eye(300)
    eye = np.eye(300)

    def work():
        residual = tall.copy()
        scores = residual[:, 0].copy()
        for _ in range(30):
            loadings = residual.T @ scores
            loadings /= np.linalg.norm(loadings)
            scores = residual @ loadings
        for j in range(4):
            pivot = residual[:, j].copy()
            residual -= np.outer(pivot, (pivot @ residual) / (pivot @ pivot))
        cho_solve(cho_factor(spd, lower=True, check_finite=False), eye, check_finite=False)

    return work


def _interp_work():
    """Gaussian mutual information of 300 six-subsets of a 16-variable
    covariance, one Python iteration each (the oracle's inner loop)."""
    rng = np.random.default_rng(20210304)
    mixing = rng.standard_normal((16, 16))
    cov = mixing @ mixing.T / 16.0
    subsets = [np.array(c) for c in islice(combinations(range(16), 6), 300)]

    def work():
        for sel in subsets:
            mask = np.ones(16, dtype=bool)
            mask[sel] = False
            unsel = np.nonzero(mask)[0]
            prior = cov[np.ix_(unsel, unsel)] + 1e-4 * np.eye(unsel.size)
            cross = cov[np.ix_(sel, unsel)]
            sel_block = cov[np.ix_(sel, sel)] + 1e-4 * np.eye(sel.size)
            factor = cho_factor(sel_block, lower=True, check_finite=False)
            posterior = prior - cross.T @ cho_solve(factor, cross, check_finite=False)
            cho_factor(prior, lower=True, check_finite=False)
            cho_factor(posterior, lower=True, check_finite=False)

    return work


_STARTUP_SCRIPT = """
import csv, io, json, argparse
import numpy as np
text = "\\n".join(",".join(repr(0.001 * (i * 37 + j)) for j in range(100)) for i in range(300))
rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(text))]
np.array(rows).mean(axis=0)
"""


def _startup_work():
    """A fresh interpreter that imports numpy and parses 30,000 floats from
    CSV text (the command-line path)."""
    cmd = [sys.executable, "-c", _STARTUP_SCRIPT]

    def work():
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)

    return work


#: Probe kind -> (work factory, reference seconds).
PROBES = {
    "blas": (_blas_work, 0.02),
    "interp": (_interp_work, 0.03),
    "startup": (_startup_work, 0.2),
}


class SpeedProbe:
    """Times one kind of probe work and turns the median into a scale factor."""

    def __init__(self, kind: str):
        factory, self.reference_s = PROBES[kind]
        self._work = factory()
        self.samples: list[float] = []

    def run(self) -> None:
        t0 = perf_counter()
        self._work()
        self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        return self.reference_s / statistics.median(self.samples)
