"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed changes by tens of
percent for minutes at a time (other tenants on the same cores and
caches). Such a phase slows every pass of a run alike, so no estimator
over the passes of one run removes it. The benchmark therefore runs a fixed
piece of pure-Python reference work right before and after every timed
pass and set-up, and scales the CPU work of that span by its speed,
REF_CPU_S / (CPU seconds the reference work took). A time is then reported
in reference seconds: what it would have been had the reference work cost
REF_CPU_S.

The reference work depends on nothing in `src/` and on no seed, so a change
to the program moves the scaled times and a change in machine speed does
not. It uses the interpreter operations a projection pass spends its time
in: string building, splitting and searching, dict lookups, Unicode
category lookups, JSON and sorting.
"""

from __future__ import annotations

import json
import time
import unicodedata

REF_CPU_S = 0.025
"""About the reference work's CPU time on an uncontended core of the
machine the baseline in README.md was measured on."""
SAMPLE_SHARE = 0.1


def _reference_work() -> int:
    words = [f"tok{i % 211}{chr(0x4E00 + i % 50)}" for i in range(3000)]
    table = {w: w[::-1] for w in words}
    n = 0
    for _ in range(8):
        text = " ".join(words)
        out = []
        for tok in text.split(" "):
            t = table[tok]
            if unicodedata.category(t[0])[0] == "L":
                out.append(t.upper())
            n += text.find(t[:3], 0, 200)
        n += len(json.loads(json.dumps(out)))
        n += sorted((len(a), a) for a in out[:500])[0][0]
    return n


def _sample(min_cpu_s: float) -> float:
    """Mean CPU seconds of one run of the reference work, repeated until the
    runs took `min_cpu_s`, so that a long span's speed is not read from one
    short burst."""
    runs, c0 = 0, time.process_time()
    while True:
        _reference_work()
        runs += 1
        total = time.process_time() - c0
        if total >= min_cpu_s:
            return total / runs


class SpeedProbe:
    """Machine speed around consecutive timed spans: REF_CPU_S over the mean
    CPU time of the reference work just before and just after a span. Each
    sample runs the reference work for at least SAMPLE_SHARE of the CPU time
    of the span it follows."""

    def __init__(self):
        self.before = _sample(0.0)

    def next(self, span_cpu_s: float) -> float:
        """Speed around the span that ended just now."""
        after = _sample(SAMPLE_SHARE * span_cpu_s)
        speed = 2 * REF_CPU_S / (self.before + after)
        self.before = after
        return speed
