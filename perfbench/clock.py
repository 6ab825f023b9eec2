"""Timed regions scaled to a reference machine speed.

On a shared machine the speed available to one process drifts by 20% and
more over seconds, and that drift, not the parser, dominated the spread
of plain wall-clock figures of parsing and training between runs.  Timed
work is therefore cut into segments of about LAP_S seconds, and each
segment is bracketed by a fixed probe task that never touches the parser
(CRC32 over formatted strings, dict stores, and numpy calls on 64-element
arrays: interpreter-bound work, like parsing and training).  A segment's
time is divided by ``mean(probe before, probe after) / NOMINAL_S``, so
the reported figures are seconds of a machine on which the probe takes
NOMINAL_S.  Probe time is never inside a segment.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

# Reference probe duration: a fixed unit, not a measurement.  It is close
# to the probe time seen in isolation on a 2-core x86-64 VM with Python
# 3.11 and numpy 2.4, where the factors still ranged over about 0.7-1.6
# as the host's speed drifted; each run's report lists the factors it
# applied.
NOMINAL_S = 0.0045
LAP_S = 0.1

_rng = np.random.default_rng(20151023)
_LOW = np.empty(16)
_SMALL = [(_rng.random(64), _rng.integers(0, 16, size=64)) for _ in range(8)]

# every speed factor applied in this process, for the run's report
FACTORS: list = []


def _task() -> None:
    acc = 0
    table = {}
    for i in range(3000):
        acc ^= zlib.crc32(f"bg{i % 7}:w{i}|p{i % 13}&R|{i % 5}".encode("utf-8"))
        table[(i % 97, i % 13)] = i
    for k in range(120):
        values, keys = _SMALL[k % len(_SMALL)]
        _LOW.fill(np.inf)
        np.minimum.at(_LOW, keys, values)
        np.unique(keys, return_index=True)
        np.nonzero(values > 0.5)[0]


def probe(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` runs of the probe task."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor_summary() -> dict:
    """Mean, minimum, maximum and count of the factors applied."""
    if not FACTORS:
        return {}
    return {"mean": statistics.fmean(FACTORS), "min": min(FACTORS),
            "max": max(FACTORS), "n": len(FACTORS)}


class Stopwatch:
    """Accumulates segments of work, each scaled by the probes around it.

    Create it right before the work starts and call :meth:`lap` at the
    end of each segment (``due()`` says when one has lasted LAP_S).  Work
    that cannot be cut takes more probe repeats at its two ends.
    """

    def __init__(self, repeats: int = 1):
        self.repeats = repeats
        self.scaled_s = 0.0
        self._probe = probe(repeats)
        self._t0 = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._t0 >= LAP_S

    def lap(self) -> float:
        """Close the current segment and return its speed factor (the
        multiple of NOMINAL_S that the probes took)."""
        elapsed = time.perf_counter() - self._t0
        after = probe(self.repeats)
        factor = (self._probe + after) / (2.0 * NOMINAL_S)
        FACTORS.append(factor)
        self.scaled_s += elapsed / factor
        self._probe = after
        self._t0 = time.perf_counter()
        return factor


class LappingCorpus(list):
    """A sentence list that closes a stopwatch segment whenever one is due
    as the code under test reads sentences from it.

    Training is one long call; this is how its time gets cut into
    segments without any hook in the parser.
    """

    def __init__(self, sentences, watch: Stopwatch):
        super().__init__(sentences)
        self.watch = watch

    def __getitem__(self, index):
        if self.watch.due():
            self.watch.lap()
        return list.__getitem__(self, index)

    def __iter__(self):
        for item in list.__iter__(self):
            if self.watch.due():
                self.watch.lap()
            yield item
