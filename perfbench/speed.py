"""Host speed probe: how fast the CPU a run uses is at each moment.

On the shared virtual host this benchmark was built on, the CPU a run
is pinned to switches between two speeds every few seconds to tens of
seconds, as other tenants' load comes and goes: the same fixed Python
work took 1.8 ms or 3.1-3.4 ms, and a whole 25 s run could fall in the
slow state.  CPU steal does not show it, and it moved the server's CPU
time per operation as much as its latency.  Across runs of one
workload the median latency spread by 0.27-0.32 of its value.

A probe process on the same CPU runs a fixed piece of work (JSON encode
and decode of 300 small rows, the kind of work a read does) every
:data:`INTERVAL_S` and records the thread CPU time it took.  Its
duration over the reference time :data:`REFERENCE_S` is the host's
*slowdown* at that moment.  ``run.py`` divides each block's timings by
the slowdown of the same stretch, which reports them at the host's full
speed: over six seeds, this cut the spread of the median latency from
0.27-0.32 to 0.05-0.06 of its value.  The probe is not part of the
program under test, so a change to the store moves a scaled timing
exactly as it moves the measured one.

Run as ``python3 perfbench/speed.py``: it probes until its standard
input closes, then prints its samples as JSON.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
import time

#: Seconds between the ends of two probes.  At full speed a probe takes
#: about 1.2 ms, so the probe costs its CPU about 1 %.
INTERVAL_S = 0.1
#: The probe's thread CPU time on the reference host (2-vCPU virtual
#: machine, Python 3.11) at full speed: the 10th percentile of about
#: 2600 probes over 12 runs of both workloads.  It is a fixed constant,
#: so scaled timings from two builds on one host compare directly.
REFERENCE_S = 0.00116

_ROWS = [{"pname": f"p{i}", "dept": f"d{i % 7}", "n": i} for i in range(300)]


def _work() -> int:
    size = 0
    for _ in range(3):
        text = json.dumps(_ROWS)
        size += len(text) + sum(len(row) for row in json.loads(text))
    return size


def probe() -> list[tuple[float, float]]:
    """Probe until standard input is closed; returns ``(start, CPU
    seconds)`` per probe, ``start`` on the system-wide monotonic
    clock."""
    samples = []
    while True:
        cpu0, start = time.thread_time(), time.monotonic()
        _work()
        samples.append((start, time.thread_time() - cpu0))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            return samples


class SpeedProbe:
    """The probe process of one run.  It inherits the caller's CPU
    affinity, so it measures the CPU the run uses."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.samples: list | None = None

    def stop(self) -> None:
        """End the probe and collect its samples."""
        if self.samples is not None:
            return
        try:
            out, _ = self.proc.communicate(timeout=30)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed probe exited {self.proc.returncode}")
        self.samples = json.loads(out)
        self._starts = [s[0] for s in self.samples]
        if not self.samples:
            raise RuntimeError("speed probe took no samples")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()

    def slowdown(self, t0: float, t1: float) -> float:
        """The median probe duration over :data:`REFERENCE_S` between
        ``t0`` and ``t1``; the nearest probe's when none started in
        between."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._starts, t1)
        if lo == hi:
            lo = min(lo, len(self.samples) - 1)
            if lo > 0 and t0 - self._starts[lo - 1] \
                    < self._starts[lo] - t1:
                lo -= 1
            hi = lo + 1
        return statistics.median(
            s[1] for s in self.samples[lo:hi]) / REFERENCE_S


if __name__ == "__main__":
    json.dump(probe(), sys.stdout)
