"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same pure-Python work can take twice as long from one second to the
next, and the slow and fast spells last from a fraction of a second to
minutes.  Wall and CPU time move together, so neither removes the drift.

A :class:`Calibrator` runs a fixed block of reference work (the same kinds
of operation the library spends its time on: a token-list LCS table in
pure Python, regex tokenizing, and numpy means and cosines of 50-dim
vectors) between the measured steps, about one block per ``INTERVAL``
seconds of measured time, and times it.  A measured time is scaled by
``REFERENCE_S / block time``, the block time being the median of the
``WINDOW`` blocks just before the measurement and the ``WINDOW`` just
after it.  This turns it into the time the step would take on a machine
that runs the reference block in ``REFERENCE_S`` seconds.  The reference
work never calls perfquant and its inputs are fixed, so a change to the
library cannot move it.  The blocks must run on the CPU the measured work
runs on; the caller pins its process to one CPU.
"""

from __future__ import annotations

import random
import re
import statistics
import time
from array import array

import numpy as np

# seconds one block takes on a 2-vCPU VM in a typical state; scaled times
# are in seconds of that machine
REFERENCE_S = 2.0e-3
INTERVAL = 0.02
WINDOW = 5

_rng = random.Random(20251103)
_VOCAB = [f"w{i}" for i in range(40)]
_PAIRS = [
    ([_rng.choice(_VOCAB) for _ in range(_rng.randint(3, 8))],
     [_rng.choice(_VOCAB) for _ in range(_rng.randint(8, 30))])
    for _ in range(24)
]
_VECTORS = {w: v for w, v in zip(_VOCAB, np.random.default_rng(0).standard_normal((40, 50)))}
_TOKEN = re.compile(r"[a-z0-9]+")
_SENTENCE = " ".join(_VOCAB).upper()


def reference_block() -> float:
    """A fixed amount of work; returns a value so that none of it is skipped."""
    total = 0.0
    for a, b in _PAIRS:
        prev = [0] * (len(b) + 1)
        for x in a:
            cur = [0] * (len(b) + 1)
            for j, y in enumerate(b):
                cur[j + 1] = prev[j] + 1 if x == y else max(prev[j + 1], cur[j])
            prev = cur
        total += prev[-1] + len(_TOKEN.findall(_SENTENCE.lower()))
        u = np.mean([_VECTORS[t] for t in a], axis=0)
        v = np.mean([_VECTORS[t] for t in b], axis=0)
        total += float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return total


class Calibrator:
    """Reference blocks run between measured steps, and the scale they give."""

    def __init__(self) -> None:
        self.blocks = array("d")  # seconds of every block, in run order
        self.last = -float("inf")
        self.refresh()

    def _block(self) -> None:
        start = time.perf_counter()
        reference_block()
        self.last = time.perf_counter()
        self.blocks.append(self.last - start)

    def tick(self) -> None:
        """Before a measured step: one block per ``INTERVAL`` since the last
        block, at most ``WINDOW``, so that a long step has blocks right
        before and right after it."""
        due = int((time.perf_counter() - self.last) / INTERVAL)
        for _ in range(min(due, WINDOW)):
            self._block()

    def refresh(self) -> None:
        """A full window of blocks now: after a step in another process,
        and at the end of a run, so that the last steps have blocks after
        them."""
        for _ in range(WINDOW):
            self._block()

    def scale_at(self, mark: int) -> float:
        """Factor that turns a time measured when ``mark`` blocks had run
        into reference seconds."""
        return REFERENCE_S / statistics.median(self.blocks[max(0, mark - WINDOW): mark + WINDOW])

    def summary(self) -> dict:
        q1, q2, q3 = statistics.quantiles(self.blocks, n=4)
        return {"blocks": len(self.blocks), "block_s_q1": q1, "block_s_median": q2,
                "block_s_q3": q3, "reference_s": REFERENCE_S}


class Timings:
    """Measured seconds, each with the number of blocks run before it was
    taken; scaled once the blocks after the last one have run."""

    def __init__(self, cal: Calibrator) -> None:
        self.cal = cal
        # arrays of numbers keep the samples from adding to peak_rss_mb as
        # a run gets faster
        self.raw = array("d")
        self.marks = array("q")

    def __len__(self) -> int:
        return len(self.raw)

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.marks.append(len(self.cal.blocks))

    def scaled(self) -> list[float]:
        return [s * self.cal.scale_at(m) for s, m in zip(self.raw, self.marks)]
