"""Wall times corrected for the speed of a shared, noisy machine.

On a host shared with other tenants the same pure-Python job can take twice
as long from one second to the next, with CPU time tracking wall time, so
neither longer runs nor CPU time remove the drift.  The meter therefore
times a fixed probe that shares no code with turanlab once before and once
after a measured region and every ``PROBE_INTERVAL_S`` inside it from a
SIGALRM handler.  A region's time is its wall time minus the probes run
inside it, scaled by the probe's reference duration over its mean duration:
seconds on a machine where the probe takes its reference duration.  The
probes cost about 5% of the region's wall time.

Code slows down unevenly under contention, so there are two probes.
``loop`` is flat integer and dict work; it tracks the oracle and the labeled
filter.  ``search`` is deep generator backtracking over bitmasks; it tracks
subgraph search on large hosts, which slows down more than ``loop`` does.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.025


def probe_loop() -> int:
    acc = 0
    table = {}
    for i in range(4000):
        m = (i * 2654435761) & 0xFFFFF
        acc ^= m & -m
        table[m & 1023] = acc
    return acc


def _random_graph(n: int, p: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


_PROBE_GRAPH = _random_graph(18, 0.45, 7)


def probe_search() -> int:
    """Count the paths on four vertices starting at vertices 0, 1 and 2."""
    rows = _PROBE_GRAPH

    def extend(depth, last, used):
        if depth == 4:
            yield 1
            return
        cand = rows[last] & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            yield from extend(depth + 1, low.bit_length() - 1, used | low)

    return sum(sum(extend(1, a, 1 << a)) for a in range(3))


# probe -> (function, reference duration): about the fastest each probe ran
# on a 2.0 GHz Intel Xeon guest under Python 3.11, where their medians
# ranged up to 1.6 ms.  The reference fixes the unit, not the ratios.
PROBES = {
    "loop": (probe_loop, 0.0008),
    "search": (probe_search, 0.0008),
}


def scale(probe: str = "loop") -> float:
    """Reference seconds per wall second, from a few probes now."""
    fn, ref = PROBES[probe]
    took = []
    for _ in range(5):
        t = perf_counter()
        fn()
        took.append(perf_counter() - t)
    return ref / statistics.median(took)


class SpeedMeter:
    """Measures callables in reference seconds; installs a SIGALRM handler."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._probe = probe_loop
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum=None, _frame=None) -> None:
        t = perf_counter()
        self._probe()
        self._samples.append((t, perf_counter() - t))

    def measure(self, fn, probe: str = "loop"):
        """Run ``fn``; returns (ok, result or exception, wall seconds,
        reference seconds), both times without the probes run inside."""
        self._probe, ref = PROBES[probe]
        self._samples = []
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            ok, result = True, fn()
        except Exception as exc:  # reported by the caller as a failed job
            ok, result = False, exc
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        inside = sum(d for t, d in self._samples if start <= t < end)
        mean = statistics.fmean(d for _, d in self._samples)
        wall = end - start - inside
        return ok, result, wall, wall * ref / mean
