"""Host-speed probe: converts host seconds into reference seconds.

On a shared host the speed of one core drifts by up to 1.7x over seconds to
minutes, as other tenants load the machine.  Time alone cannot tell a slower
program from a slower host, so every timed call runs under a ``HostSpeed``
probe: every ``INTERVAL_S`` a timer signal interrupts the call and times a
fixed pure-Python reference kernel with a working set of a few hundred
bytes.  The kernel's time, against ``KERNEL_REF_S``, gives the host's speed
at that moment.  A call's reference time is its host time scaled by the mean
speed over the call: the time it would have taken on a host where the kernel
takes ``KERNEL_REF_S``.  The program cannot change the kernel, so a slower
program still reads slower; the kernel costs about 1% of the call.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02

# Kernel time on the 2-core host the benchmark was written on, when that
# host ran at its usual undisturbed speed.
KERNEL_REF_S = 230e-6


def kernel() -> float:
    """Seconds taken by a fixed mix of dict, tuple and string work."""
    table: dict = {}
    started = perf_counter()
    for i in range(1500):
        table[i & 63] = (i, str(i & 7))
    return perf_counter() - started


class HostSpeed:
    """Samples the reference kernel while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "HostSpeed":
        self.samples = [kernel()]
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())

    def speed(self) -> float:
        """Mean host speed over the block, relative to the reference host."""
        return sum(KERNEL_REF_S / k for k in self.samples) / len(self.samples)
