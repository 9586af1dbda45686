"""A fixed piece of work, independent of pefem, that measures host speed.

The benchmark's host is a shared machine whose speed drifts by 15-30%
over minutes: every instruction gets slower, so process CPU time drifts
with wall time.  A run's median pass cannot remove a slow phase that lasts
the whole run.  `run` times kinds of work that a pefem pass does (a
pure-Python loop, a sparse COO-to-CSR conversion, a SuperLU factorization
and solve) on inputs fixed here, so that the benchmark can express each
pass in units of it, taken around that pass.  NumPy kernels are left out:
in 300 s runs of repeated passes their times varied more than the passes
did and tracked them worst of the parts tried.  The inputs are small and
the sparse parts repeated instead, so that a calibration adds under 10 MB
to the process: it runs in the process whose peak RSS the benchmark
reports, and must stay below the peak of the passes.

`NOMINAL_S` is the time of one calibration before and one after a pass
on a quiet host (about 0.26 s each, 2 vCPUs, Python 3.11, SciPy 1.17).  A
pass's normalised time is its wall time times `NOMINAL_S` over the time
of its two calibrations: the seconds the pass would take on that quiet
host.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_S = 0.5
REPEATS = 8


class Calibration:
    """The inputs, built once; `run` does the work and returns seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 70
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.laplacian = (sp.kron(t, sp.eye(n)) + sp.kron(sp.eye(n), t)).tocsc()
        self.rows = rng.integers(0, 20000, 60000)
        self.cols = rng.integers(0, 20000, 60000)
        self.vals = rng.random(60000)

    def _python(self):
        s = 0
        for i in range(300000):
            s += i * i % 7
        counts = {}
        for i in range(50000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        return s + len(counts)

    def _sparse(self):
        coo = sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(20000, 20000))
        return float(coo.tocsr().sum())

    def _factorize(self):
        b = np.ones(self.laplacian.shape[0])
        return float(spla.splu(self.laplacian).solve(b).sum())

    def run(self):
        t0 = time.perf_counter()
        self._python()
        for _ in range(REPEATS):
            self._sparse()
            self._factorize()
        return time.perf_counter() - t0


def normalised(pass_s, calibration_s):
    """A pass's wall time in seconds of the quiet host `NOMINAL_S` is taken on."""
    return pass_s * NOMINAL_S / calibration_s
