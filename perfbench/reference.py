"""A fixed numpy/scipy task timed next to every op, as a machine-speed yardstick.

On a shared host the speed of one core drifts by up to 1.7x, in phases that
last from seconds to minutes, so raw op times of one run and the next differ
by 15-25% with no change to the code. The reference task slows down with the
op it brackets: dividing op time by reference time cancels most of the drift.
It shares no code with qvipen, so no change to the package moves it.

The task mixes the three kinds of work the workloads do: small numpy
operations in a Python loop (the oracle march, the Newton drivers), assembly
and SuperLU factorization of small sparse systems (the N=100 tables), and one
fill-heavy factorization (the fine meshes).
"""
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu  # bound before any tracer wraps it


def _laplacian(m: int) -> sp.csc_matrix:
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()


class Reference:
    def __init__(self):
        self._grid = _laplacian(40)
        self._grid_rhs = np.ones(self._grid.shape[0])
        n = 300
        self._band = [np.full(n - 1, -1.0), np.full(n, 3.0), np.full(n - 1, -1.0)]
        self._rhs = np.ones(n)
        self.run()

    def run(self) -> float:
        """Run the task once; returns its wall time in seconds."""
        start = time.perf_counter()
        x = np.linspace(0.0, 1.0, 8)
        for _ in range(1500):
            x = np.maximum(x - 0.5 * (x - 0.25), 0.0)
        for k in range(12):
            band = [self._band[0], self._band[1] + 0.01 * k, self._band[2]]
            matrix = sp.diags(band, [-1, 0, 1], format="csr")
            splu(sp.csc_matrix(matrix + matrix.T)).solve(self._rhs)
        splu(self._grid).solve(self._grid_rhs)
        return time.perf_counter() - start
