"""How fast the host runs right now, measured between ops.

On a shared host the speed of a core changes by up to 2x over seconds to
minutes, as neighbours come and go, and interpreted code slows more than
vectorized code. A run's median op time follows those swings, so two runs
of the same code can differ by a third. A calibration unit is a fixed piece
of work of the kind an op spends its time on, and uses no funkreg code, so
a change to the program cannot move it:

- `interpreted`: small NumPy calls on 101-point rows, Philox normal draws
  and a small kernel sum, the shape of a query, a `ci` command or a Monte
  Carlo replication;
- `vectorized`: quadratic-kernel weights on a 165 x 165 distance matrix
  and matrix-vector products, the shape of the bootstrap refit.

The benchmark times units right after each op. The op's time divided by
the unit's time is the op's cost in calibration units (cal), which the
host's load moves much less than the op's time alone.
"""

import time

import numpy as np


class Calibration:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self._rows = rng.random((20, 101))
        self._points = np.linspace(-1.0, 1.0, 101)
        self._small = rng.random((120, 120))
        self._d = rng.random((165, 165))
        self._y = rng.random(165)
        self._m = rng.random((100, 165))
        self.unit = {"interpreted": self._interpreted,
                     "vectorized": self._vectorized}[kind]

    def _interpreted(self) -> float:
        total = 0.0
        for row in self._rows:
            total += float(np.dot(np.gradient(row, self._points, edge_order=2),
                                  row))
        gen = np.random.Generator(
            np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
        total += float(gen.standard_normal(1000).sum())
        u = self._small / 0.7
        w = np.where(u <= 1.0, 1.0 - u * u, 0.0)
        return total + float(w @ self._y[:120] @ self._y[:120])

    def _vectorized(self) -> float:
        total = 0.0
        for h in (0.3, 0.5, 0.7, 0.9):
            u = self._d / h
            w = np.where((u >= 0.0) & (u <= 1.0), 1.0 - u * u, 0.0)
            fit = (w @ self._y) / w.sum(axis=1)
            total += float((self._m @ (w[0] * fit)).sum())
        return total

    def seconds_per_unit(self, op_seconds: float) -> float:
        """Time per unit over whole units run for at least a tenth of
        `op_seconds`, at least one."""
        units = 0
        start = time.perf_counter()
        while True:
            self.unit()
            units += 1
            spent = time.perf_counter() - start
            if spent >= 0.1 * op_seconds:
                return spent / units
