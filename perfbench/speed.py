"""Host speed probe, for scaling measured times to a reference speed.

The machines this benchmark runs on share their hosts.  Two things move
a run's wall time there, by up to 3x between runs: the process waits for
a CPU for stretches (much of it shows as steal time), and while it runs,
it runs up to about 2x slower in some host states than in others.
Process CPU time leaves out the waiting; a speed probe measures the
slowdown.

The probe is fixed work: an interpreted float loop, small-object calls
and 2x2 numpy algebra, the mix tdnh's per-point code spends its time in,
plus batched numpy algebra on a stack of 2x2 matrices, the shape a
grid-batched version of that code would take.  The pass runs it on a
20 ms interval timer while invocations run and keeps its wall and CPU
time.  An invocation that used ``c`` CPU seconds, during which the probe
used ``p`` CPU seconds (harmonic mean), is reported as
``c * REFERENCE_PROBE_S / p``: the time the work would take at the speed
where the probe takes ``REFERENCE_PROBE_S``.  Raw wall and CPU times are
kept next to the scaled ones in the result files.

Set-up time (process start, imports, file reads) hardly follows that
probe, but it follows the start of a bare interpreter closely: over
20-second windows the ratio of the two moved by 2% while each moved by
18%.  So each set-up sample is scaled by a bare ``python3 -c pass`` start
timed just before it, to ``REFERENCE_START_S``.
"""

from __future__ import annotations

import cmath
import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

# The probe's duration in the faster of the two states on the 2-core Xeon
# the benchmark was written on; any fixed value works, this one makes the
# scaled times read close to that machine's fast-state wall times.
REFERENCE_PROBE_S = 4.32e-4
# A bare interpreter start in the same fast state.
REFERENCE_START_S = 0.06
INTERVAL_S = 0.02
MIN_WINDOW_SAMPLES = 5
_M = np.array([[1.0, 0.2j], [0.1, 0.9]])
_STACK = (np.random.default_rng(0).normal(size=(32, 2, 2))
          + 1j * np.random.default_rng(1).normal(size=(32, 2, 2)))


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    @property
    def value(self) -> complex:
        return complex(self.a, self.b)


def _pair(x: float, *, scale: float = 1.0) -> _Pair:
    return _Pair(math.sin(x) * scale, math.exp(-x))


def probe() -> float:
    """Seconds one run of the fixed probe work takes now: a float loop,
    small-object calls, 2x2 numpy algebra, and batched (32, 2, 2) numpy
    algebra."""
    start = perf_counter()
    acc = 0.0
    for i in range(500):
        acc += (i * 0.5) % 7.0
    z, table = 0j, {}
    for i in range(60):
        p = _pair(i * 0.01, scale=2.0)
        table[i % 7] = p
        z += p.value * cmath.exp(1j * p.a)
    a = _M
    for i in range(10):
        a = np.linalg.inv(a) @ _M + 0.5 * a
        m = np.array([[1.0 + i, 0.5], [0.5j, 2.0]], dtype=complex)
        acc += float(np.max(np.abs(m @ m - m.conj().T)))
    values, vectors = np.linalg.eig(_STACK)
    gram = _STACK @ _STACK.conj().transpose(0, 2, 1) + 3.0 * np.eye(2)
    acc += float(np.abs(np.linalg.inv(gram) @ vectors).sum() + np.abs(values).sum())
    return perf_counter() - start


def scale(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s


def scale_setup(seconds: float, start_s: float) -> float:
    return seconds * REFERENCE_START_S / start_s


class Sampler:
    """Runs :func:`probe` from a SIGALRM interval timer while active.

    The handler runs in the main thread between bytecodes, so the probe
    interleaves with the measured work.  Each sample keeps the probe's
    wall and process CPU seconds; :meth:`window` reports how much probe
    time fell inside an interval, so callers can take it out, and
    :meth:`clock` is a CPU timer that does not advance while the probe runs.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, wall_s, cpu_s)
        self.spent_cpu = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start, cpu = perf_counter(), process_time()
        probe()
        cpu = process_time() - cpu
        self.samples.append((start, perf_counter() - start, cpu))
        self.spent_cpu += cpu

    def clock(self) -> float:
        """Process CPU seconds net of all probe time so far."""
        return process_time() - self.spent_cpu

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> dict:
        """Probe wall and CPU seconds inside [start, end] (``in_s``,
        ``in_cpu_s``) and the effective probe wall and CPU time there
        (``probe_s``, ``probe_cpu_s``).

        Work done in an interval is its integral of speed, 1/probe time, so
        the effective probe time is the harmonic mean of the samples, which
        the timer spaces evenly in time.  Intervals with few samples borrow
        the samples nearest their middle.
        """
        inside = [s for s in self.samples if start <= s[0] <= end]
        spent = {"in_s": sum(s[1] for s in inside), "in_cpu_s": sum(s[2] for s in inside)}
        if len(inside) < MIN_WINDOW_SAMPLES:
            middle = 0.5 * (start + end)
            inside = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_WINDOW_SAMPLES]
        if not inside:
            raise RuntimeError("no speed probe samples were taken")
        return {**spent, "probe_s": statistics.harmonic_mean([s[1] for s in inside]),
                "probe_cpu_s": statistics.harmonic_mean([s[2] for s in inside])}
