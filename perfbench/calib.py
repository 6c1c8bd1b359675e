"""Drift correction: every timed unit is scaled to reference speed.

The host's speed drifts by up to 2x within a minute, switching between a
fast and a slow mode, and the drift on its two vCPUs is only weakly
correlated. So a fixed calibration kernel runs in the same thread right
before and right after each timed unit, and the unit's wall time is
multiplied by ``KERNEL_REFERENCE_S`` over the mean of those two kernel
times. A training run, which lasts seconds, is also sampled from inside
(see ``Sampler``). The kernel mixes the kinds of work the program does:
integer hashing, string slicing and small-tuple building in the
interpreter, dict lookups, a regular expression, and numpy gathers and
small array operations.

``KERNEL_REFERENCE_S`` is a fixed constant, not a measurement: changing
it, or the kernel, changes every reported time.
"""

from __future__ import annotations

import re
import signal
import statistics
import time

import numpy as np

KERNEL_REFERENCE_S = 0.004

_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
_WORDS = tuple(f"ord{i * 7919 % 1000:03d}sæt" for i in range(30))
_TABLE = np.random.default_rng(0).standard_normal((1 << 17, 8)).astype(np.float32)
_IDS = np.random.default_rng(1).integers(0, 1 << 17, size=3000)
_W = np.random.default_rng(2).standard_normal((64, 8))
_HASHES = tuple(int(x) for x in np.random.default_rng(3).integers(0, 1 << 62, size=100))
_TEXT = "Ordet 42 står her og 1 234 der, og så www.x.dk igjen"
_NUM_RE = re.compile(r"(?<![\w-])[+-]?\d+(?:[ .,]\d+)*(?![\w-])")


def kernel() -> int:
    """A fixed piece of work; returns a checksum so nothing is skipped."""
    acc = 0
    seen: dict[str, int] = {}
    for rep in range(2):
        for word in _WORDS:
            wrapped = f"<{word}>"
            grams = []
            for n in (1, 2, 3, 4):
                for i in range(len(wrapped) - n + 1):
                    h = 0xCBF29CE484222325
                    for byte in wrapped[i : i + n].encode("utf-8"):
                        h = ((h ^ byte) * _PRIME) & _MASK
                    grams.append(h)
            key = word[rep:]
            seen[key] = seen.get(key, 0) + len(grams)
            acc ^= tuple(grams)[-1]
    for i in range(6):
        e = _TABLE[_IDS[i * 400 : i * 400 + 600]].mean(axis=0, dtype=np.float64)
        acc ^= int(np.maximum(_W @ e, 0.0).argmax())
    for i in range(60):
        text = _NUM_RE.sub("#", _TEXT[i % 7 :]).lower()
        ids = np.fromiter((h & 0xFFFF for h in _HASHES[i : i + 40]), dtype=np.int64, count=40)
        z = _W[:4] @ _TABLE[ids].mean(axis=0, dtype=np.float64)
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
        acc ^= len(text) + int((p >= 0.5).sum())
    return acc + len(seen)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrated:
    """The kernel timings of a run; ``tick()`` right before and right
    after each unit."""

    def __init__(self) -> None:
        self.kernels: list[float] = []

    def tick(self) -> float:
        k = time_kernel()
        self.kernels.append(k)
        return k

    def spread(self) -> tuple[float, float, float]:
        """Kernel median with its first and third quartiles, in seconds."""
        q1, med, q3 = statistics.quantiles(self.kernels, n=4)
        return med, q1, q3


def scale(wall: float, k_before: float, k_after: float) -> float:
    """Wall time at reference speed."""
    return wall * KERNEL_REFERENCE_S / ((k_before + k_after) / 2.0)


class Sampler:
    """Runs the kernel from a SIGALRM handler every ``period`` seconds
    while a long unit runs, so the unit's own thread is sampled during
    the unit, not only beside it. Main thread only. The handler's time
    is reported, to be taken out of the unit's wall time.

    Use it only around work done in this thread: while the thread waits
    on another process, the handler's time would not delay the unit.
    On the same training runs, scaling by the mean of all samples gave a
    run-to-run spread of 4 to 5 %, scaling by the kernel before and after
    alone 26 to 35 % (README.md, "Drift correction").
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[float] = []

    def _handler(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
