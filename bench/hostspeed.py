"""Host-speed reference for rescaling timings.

The machines this benchmark runs on are shared: over tens of seconds
the same code runs up to 1.7 times slower or faster, far beyond any
bound a regression check could use. Each repeat of a workload is
therefore interleaved with samples of a fixed reference workload (dict,
string and regex work plus small numpy kernels, like the package's hot
paths), taken between its segments, and the repeat's timings are
rescaled to the host speed at which the reference takes NOMINAL_S:

    reported time = measured time * NOMINAL_S / median(samples)

Rates are divided by the same factor, and set-up times, too short to
carry samples of their own, by the median factor of the run's repeats.
On a quiet host the two agree; the raw figures are printed and kept
beside the rescaled ones. The samples are taken on the CPU the measured
processes are pinned to.
"""

from __future__ import annotations

import re
import time
from statistics import median

import numpy as np

NOMINAL_S = 0.010
_A = np.random.default_rng(0).random((51, 32))


_WORDS = [f"e{i}" for i in range(3000)]
_LINKER = re.compile(
    "|".join(re.escape(w) for w in sorted(_WORDS, key=lambda w: (-len(w), w))), re.IGNORECASE
)
_TEXT = " ".join(f"i think e{i} comes after e{i * 7 % 3000} ." for i in range(30))


def _work() -> None:
    counts: dict[str, int] = {}
    for i in range(6000):
        word = "w%d" % (i % 997)
        counts[word] = counts.get(word, 0) + 1
    "|".join(re.escape(w) for w in sorted(_WORDS[:1500], key=lambda w: (-len(w), w.lower())))
    _LINKER.findall(_TEXT)
    for _ in range(200):
        np.einsum("ij,ij,ij->i", _A, _A, _A).max()


def sample() -> float:
    """Seconds the reference takes now: the median of five timings."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return median(times)


class Meter:
    """Raw per-stage totals of timed segments, with reference samples between them."""

    def __init__(self) -> None:
        self.samples = [sample()]
        self.times: dict[str, float] = {}

    def add(self, **parts: float) -> None:
        """Record the parts of a segment that just ended, then sample the reference."""
        for stage, seconds in parts.items():
            self.times[stage] = self.times.get(stage, 0.0) + seconds
        self.samples.append(sample())

    def factor(self) -> float:
        """Multiplier that rescales this meter's timings to the nominal host speed."""
        return NOMINAL_S / median(self.samples)
