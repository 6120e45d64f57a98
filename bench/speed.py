"""Host speed, sampled while the work runs, so that timings from a shared
host compare across runs.

The host this benchmark was written on slows each vCPU on its own by about
1.8x for stretches of a second to several seconds: a fixed loop takes
either about REF_CHUNK_S or nearly twice that, in CPU time as well as in wall
time, and the share of slow stretches drifts over minutes.  Raw seconds from
runs minutes apart differ by more than any useful bound.

So a fixed loop, ``chunk``, is timed on an interval timer inside every
bcjcalc interpreter while it works (``Sampler``).  ``scale`` turns those
chunk times into the share of its nominal speed the host gave; a timing
multiplied by it reads as seconds on a host on which a chunk always takes
REF_CHUNK_S.  A change to bcjcalc moves scaled timings as it moves raw ones,
while a slow stretch slows the command and the chunks alike.

Starting an interpreter and importing is not pure interpreter work, and the
host slows it by another factor than it slows a chunk.  Set-up times are
therefore scaled by the start of a bare interpreter timed right before
(``bare_start_s``), against REF_START_S.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

# A chunk's time on this machine's vCPUs when the host does not slow them
# (Xeon at 2.0 GHz, Python 3.11).
REF_CHUNK_S = 0.0008
# One chunk per period costs a bcjcalc command about 1.5 % of its time at
# full speed, and it gives 20 samples a second.
PERIOD_S = 0.05
# ``python3 -c pass`` on this machine when the host does not slow it.
REF_START_S = 0.05


def chunk() -> int:
    """A fixed piece of the interpreter work bcjcalc does: big-integer
    shifts and XORs, as in SpanBasis rows, and small-dict updates."""
    counts: dict[int, int] = {}
    x = acc = 0x9E3779B97F4A7C15
    for i in range(2000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc ^= x << (i % 1400)
        counts[x & 0xFFFF] = counts.get(x & 0xFFFF, 0) + 1
    return acc ^ len(counts)


def time_chunk() -> float:
    began = time.perf_counter()
    chunk()
    return time.perf_counter() - began


def time_chunks(n: int) -> list[float]:
    return [time_chunk() for _ in range(n)]


def scale(chunk_times: list[float]) -> float:
    """REF_CHUNK_S times the mean rate 1/t over the chunk times.

    Samples taken at even intervals of wall time weight each stretch by its
    length, so the mean rate is the work the host allowed per second, and
    a timing times this scale is the time the same work would take at
    REF_CHUNK_S per chunk.  One long-delayed chunk barely moves the mean
    rate.
    """
    return REF_CHUNK_S * sum(1.0 / t for t in chunk_times) / len(chunk_times)


def bare_start_s(env: dict[str, str]) -> float:
    """Wall time to start and end an interpreter that does nothing."""
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - began


class Sampler:
    """Times one chunk now, every PERIOD_S of wall time on SIGALRM, and once
    more at stop().  The handler runs between bytecodes of the main thread,
    inside whatever bcjcalc is doing."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.times.append(time_chunk())

    def start(self) -> None:
        self.times.append(time_chunk())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.times.append(time_chunk())
        return self.times
