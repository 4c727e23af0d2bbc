"""Time ``import routedkl`` in a fresh interpreter, in reference units.

    python3 perfbench/probe.py        # from the checkout root

Prints two numbers: the import time, and the median time of a pure-Python
reference kernel run just before and just after the import. The kernel
imports nothing, so it can run first without loading numpy early, and
the ratio of the two follows the import's cost rather than the host's
speed at that moment.
"""

import sys
import time

# Median time of one kernel call on the reference machine (see README.md).
NOMINAL_S = 1.0e-3


def python_kernel() -> float:
    """Fixed dict, tuple, list and float work; returns its own wall time."""
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(400):
        key = (i % 7, i % 5, i % 3)
        row = [((i * 31 + j * 17) % 97) / 97.0 for j in range(8)]
        table[key] = table.get(key, 0.0) + sum(row) - max(row)
        acc += sorted(row)[4]
    if acc != 219.79381443298968:
        raise RuntimeError(f"reference kernel result changed: {acc!r}")
    return time.perf_counter() - t0


def median_kernel(n: int = 11) -> float:
    return sorted(python_kernel() for _ in range(n))[n // 2]


def main() -> None:
    before = median_kernel()
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import routedkl.cli  # noqa: F401
    import routedkl.runner  # noqa: F401
    import routedkl.studies  # noqa: F401

    elapsed = time.perf_counter() - t0
    print(repr(elapsed), repr((before + median_kernel()) / 2))


if __name__ == "__main__":
    main()
