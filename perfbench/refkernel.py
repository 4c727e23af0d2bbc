"""Fixed reference kernel used to cancel host speed drift.

The kernel mixes the same kinds of work as a training step: small numpy
calls on length-8 vectors, Python loops, dict lookups and argsorts. Its
code and data are fixed and it never imports ``routedkl``, so no change to
the library can move its time; only the host can. Dividing a step time by
a nearby kernel time gives a cost in reference units that stays put while
the host speeds up and slows down.
"""

from __future__ import annotations

import time

import numpy as np

_N_ROWS = 8
_VOCAB = 8

# Median time of one call on the reference machine (see README.md).
NOMINAL_S = 0.14e-3


def _make_data() -> tuple[np.ndarray, list[tuple[int, ...]]]:
    rng = np.random.default_rng(20260517)
    logits = rng.normal(size=(_N_ROWS, _VOCAB))
    keys = [tuple(int(x) for x in rng.integers(0, _VOCAB, size=3)) for _ in range(_N_ROWS)]
    return logits, keys


class ReferenceKernel:
    """Callable that runs the fixed kernel once and returns its wall time."""

    def __init__(self) -> None:
        self._logits, self._keys = _make_data()
        self.checksum = self._body()

    def _body(self) -> float:
        table = {}
        acc = 0.0
        for key, row in zip(self._keys, self._logits):
            if not np.all(np.isfinite(row)):
                raise ValueError("reference data must be finite")
            shifted = row - row.max()
            expd = np.exp(shifted)
            p = expd / expd.sum()
            if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
                raise ValueError("reference softmax left the simplex")
            order = np.argsort(-p, kind="stable")
            prev = table.get(key)
            table[key] = p if prev is None else prev + p
            acc += float(p[order[0]]) - float((p * np.log(p)).sum())
        return acc

    def __call__(self) -> float:
        t0 = time.perf_counter()
        value = self._body()
        elapsed = time.perf_counter() - t0
        if value != self.checksum:
            raise RuntimeError("reference kernel result changed between calls")
        return elapsed


if __name__ == "__main__":
    kernel = ReferenceKernel()
    times = sorted(kernel() for _ in range(200))
    print(f"reference kernel: median {times[100] * 1e3:.3f} ms over 200 calls")
