"""Check that the speed scaling holds for both shapes of work.

Alternates two kernels in a closed loop while the speed probe runs, as in
a pass: an interpreted per-point kernel (``linalg.eig_biorthogonal`` on
300 single 2x2 matrices, the shape of tdnh's per-point code) and a
batched kernel (eigensystem, products and inverses of a (4000, 2, 2)
stack, the shape a grid-batched version would take).  Groups the calls
into windows and prints, per kernel, how far the window medians of wall,
CPU and scaled time range (scaled as in a pass: CPU time net of probe
time, over the probe's CPU time), and how far the ratio of the two
kernels' CPU times ranges.  That ratio does not depend on the probe, so
its range is the floor of the error when a change turns one shape of
work into the other.  Run from the checkout root::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/scaling_check.py --seconds 120
"""

from __future__ import annotations

import argparse
import statistics
import time
from time import perf_counter, process_time

import numpy as np

import speed
from tdnh import linalg

WINDOW_S = 6.0

_STACK = (np.random.default_rng(0).normal(size=(4000, 2, 2))
          + 1j * np.random.default_rng(1).normal(size=(4000, 2, 2)))
_SINGLES = list(_STACK[:300])


def interpreted() -> None:
    for matrix in _SINGLES:
        linalg.eig_biorthogonal(matrix)


def batched() -> float:
    values, vectors = np.linalg.eig(_STACK)
    gram = _STACK @ _STACK.conj().transpose(0, 2, 1)
    inverse = np.linalg.inv(gram + 3.0 * np.eye(2))
    return float(np.abs(gram @ vectors).sum() + np.abs(inverse).sum() + np.abs(values).sum())


def _range(values: list[float]) -> str:
    return f"{min(values):.4g}-{max(values):.4g} s (max/min {max(values) / min(values):.3f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=120.0)
    args = parser.parse_args()
    kernels = {"interpreted": interpreted, "batched": batched}
    calls = []   # (kernel, start, wall seconds, CPU seconds, scaled seconds)
    with speed.Sampler() as sampler:
        time.sleep(0.2)   # the first window needs probe samples
        begin = perf_counter()
        while perf_counter() - begin < args.seconds:
            for name, kernel in kernels.items():
                start, cpu = perf_counter(), process_time()
                kernel()
                end, cpu = perf_counter(), process_time() - cpu
                w = sampler.window(start, end)
                calls.append((name, start - begin, end - start, cpu,
                              speed.scale(cpu - w["in_cpu_s"], w["probe_cpu_s"])))
    windows = []
    for k in range(int(args.seconds // WINDOW_S) + 1):
        inside = [c for c in calls if k * WINDOW_S <= c[1] < (k + 1) * WINDOW_S]
        per = {name: [c for c in inside if c[0] == name] for name in kernels}
        if all(len(v) >= 5 for v in per.values()):
            windows.append({name: [statistics.median(c[j] for c in v) for j in (2, 3, 4)]
                            for name, v in per.items()})
    if not windows:
        print("too short: no full window")
        return 1
    print(f"{len(windows)} windows of {WINDOW_S:g} s")
    for name in kernels:
        print(f"{name}: wall {_range([w[name][0] for w in windows])}, "
              f"CPU {_range([w[name][1] for w in windows])}, "
              f"scaled {_range([w[name][2] for w in windows])}")
    ratios = [w["batched"][1] / w["interpreted"][1] for w in windows]
    print(f"batched/interpreted CPU ratio {min(ratios):.3f}-{max(ratios):.3f} "
          f"(max/min {max(ratios) / min(ratios):.3f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
