"""Machine-speed calibration of the benchmark's timings.

On the shared 2-core host where the benchmark was built, the speed of the
same code drifts by up to 2x over seconds to minutes: a fixed kernel
alternates between two speeds, and the process's CPU time rises with its
wall time, so the cause is contention for the core, not descheduling.  Raw
medians of the same short call then spread by about 30 % from run to run.

Around every timed call the run takes a *reading*: the median time of
`REPS` runs of a fixed kernel that does no netstab work.  While an
in-process call runs, a probe thread also runs the kernel once every
`PROBE_S` seconds; the call waits for the GIL meanwhile, so the probes'
time is taken out of the call's.  A call is rescaled to the speed at which
the kernel takes `REF_S`:

    calibrated = measured * REF_S / mean(reading before, probes, reading after)

The speed changes about once a second, so a call of a second or more needs
the probes: with the two readings alone, paper8's `reproduce-paper` call
(1.3 s) spread by 0.10 from run to run, with probes by 0.006.  On
corridor64's 14-20 s `analyze` calls the two readings alone did not
correlate with the call's duration (r = 0.02 over 19 calls), while the
mean of the probes did (r = 0.93, slope 0.91 in log-log, over 15 calls),
and the run-to-run spread fell from 0.12 raw to 0.023.  Every timed call
is calibrated the same way.

The import of netstab runs in a child process (see run.py), where no probe
can pause it; it is rescaled by the two readings only.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Kernel time in the faster of the host's two states, on the 2-core host
# where the baseline was recorded; only a scale: calibrated times are raw
# times at this kernel speed.
REF_S = 0.0020
REPS = 4         # kernel runs per reading
REUSE_S = 0.05   # a reading this recent also serves as the next call's "before"
PROBE_S = 0.1    # interval of the single-kernel probes taken during a timed call
SWITCH_S = 0.02  # interpreter switch interval while probing, above a kernel's time

_SMALL = np.arange(8.0)
_EYE = np.eye(8)


def kernel() -> float:
    """Wall time of one fixed unit of work.

    Only small-array numpy calls, which keep the GIL: a probe taken while
    the timed call waits for the GIL then times the kernel alone.
    """
    t0 = time.perf_counter()
    x, acc = _SMALL.copy(), 0.0
    for _ in range(300):
        y = np.minimum(x * 0.5 + 1.0, 3.0) @ _EYE
        acc += float(y.sum())
        x = np.clip(y, 0.0, 5.0)
    return time.perf_counter() - t0


class Calibrator:
    """Kernel readings of one run and the durations of its timed calls.

    A reading taken less than `REUSE_S` before a call serves as its
    "before", so consecutive calls share the reading between them.  While
    a calibrated call runs, a probe thread runs one kernel every `PROBE_S`
    seconds; the time the probes take is subtracted from the call, and
    their kernel times join the readings that rescale it.  Disabled, there
    is no probe thread, every reading is `REF_S` and calibrated times
    equal raw ones.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spent = 0.0
        self._last: tuple[float, float] | None = None
        # group -> [(seconds, reading before, reading after, probe kernel times)]
        self.calls: dict[str, list[tuple]] = defaultdict(list)
        self._probes: list[tuple[float, float, float]] = []  # (start, end, kernel)
        self._active = 0
        self._stop = threading.Event()
        self._thread = None
        self._switch = sys.getswitchinterval()
        if enabled:
            sys.setswitchinterval(SWITCH_S)
            self._thread = threading.Thread(target=self._probe_loop, daemon=True)
            self._thread.start()

    def _probe_loop(self) -> None:
        while not self._stop.wait(PROBE_S):
            if self._active:
                start = time.perf_counter()
                k = kernel()
                self._probes.append((start, time.perf_counter(), k))

    def close(self) -> None:
        """Stop the probe thread and wait for it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            sys.setswitchinterval(self._switch)

    def reading(self, reuse: bool = False) -> float:
        if not self.enabled:
            return REF_S
        now = time.perf_counter()
        if reuse and self._last is not None and now - self._last[0] < REUSE_S:
            return self._last[1]
        ks = [kernel() for _ in range(REPS)]
        end = time.perf_counter()
        self.spent += end - now
        self._last = (end, statistics.median(ks))
        return self._last[1]

    def time(self, group: str, fn):
        """fn() timed into `group`, minus kernel time spent inside it."""
        def timed():
            spent, first, t0 = self.spent, len(self._probes), time.perf_counter()
            out = fn()
            t1 = time.perf_counter()
            probed = sum(max(0.0, min(end, t1) - max(start, t0))
                         for start, end, _ in self._probes[first:])
            return out, t1 - t0 - (self.spent - spent) - probed
        return self.measure(group, timed, probe=True)

    def measure(self, group: str, fn, probe: bool = False):
        """fn() returns (output, seconds): seconds go into `group` between readings.

        Probes are for calls made in this process: they pause the call
        while they run, and see the speed it would see.
        """
        before = self.reading(reuse=True)
        probe = probe and self.enabled
        first = len(self._probes)
        self._active += probe
        try:
            out, raw = fn()
        finally:
            self._active -= probe
        ks = tuple(k for _, _, k in self._probes[first:]) if probe else ()
        self.calls[group].append((raw, before, self.reading(), ks))
        return out

    def raw(self, group: str) -> list[float]:
        return [c[0] for c in self.calls[group]]

    def calibrated(self, group: str) -> list[float]:
        """Each call rescaled by the mean of its readings and probes."""
        return [raw * REF_S / statistics.mean((before, *ks, after))
                for raw, before, after, ks in self.calls[group]]
