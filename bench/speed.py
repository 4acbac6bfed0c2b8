"""Host-speed probe: rescales measured times to a fixed reference speed.

On a shared host the speed of the same single-threaded Python code
drifts by up to 2x over tens of seconds, because other tenants contend
for the core and its caches; CPU time slows as much as wall time. The
probe measures that speed from inside the worker, over the same
interval as the work it rescales, as the CPU time a fixed kernel takes.
A SIGALRM timer interrupts the main thread every INTERVAL_S of wall
time and runs the kernel: dict, frozenset, tuple and Fraction work, the
kinds of objects ehrmat spends its time on. The kernel does not touch
ehrmat, so a change to the program reaches the probe only through the
cache state it leaves.

For the timed region of a pass:

    net      = region time - time spent in the kernel
    rescaled = net * REFERENCE_KERNEL_S / mean kernel CPU time in the region

that is, seconds at a speed where one kernel call takes
REFERENCE_KERNEL_S of CPU time. Wall and CPU time are rescaled by the
same factor, so time the worker spends descheduled still shows as a gap
between them. (Rescaling wall time by the kernel's wall time instead
spread more across runs: a kernel call that is descheduled counts many
times over.) The kernel costs about 3% of the region and is subtracted;
its cache footprint is not.

Set-up is too short, and too full of imports, for samples taken during
it to be steady, so it runs without the timer and is rescaled by
CALIBRATION_CALLS back-to-back kernel calls made right after it.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_KERNEL_S = 0.0005     # nominal; any fixed value compares alike
MIN_REGION_SAMPLES = 5          # fewer: use every sample of the pass
CALIBRATION_CALLS = 200


def kernel():
    d = {}
    s = Fraction(0)
    for i in range(1, 120):
        t = (i % 5, i % 7, i)
        d[frozenset(t)] = [i, t]
        s += Fraction(i, 1 + i % 9)
    return len(d), s


class Probe:
    def __init__(self):
        self.wall = []      # kernel wall time per sample
        self.cpu = []       # kernel CPU time per sample
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.cpu.append(time.process_time() - c0)
        self.wall.append(time.perf_counter() - w0)
        self._busy = False

    def rescale_setup(self, setup):
        """Rescaled set-up time; call right after set-up, before start."""
        kernel()                # warm-up, not recorded
        start = time.process_time()
        for _ in range(CALIBRATION_CALLS):
            kernel()
        mean = (time.process_time() - start) / CALIBRATION_CALLS
        return setup * REFERENCE_KERNEL_S / mean

    def start(self):
        for _ in range(3):      # so that even a tiny pass has samples
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.wall)

    def rescale(self, wall, cpu, first, last):
        """Rescaled (wall, cpu) of a region that ran between marks
        `first` and `last`, with raw times `wall` and `cpu` that include
        the kernel calls made in it."""
        kc = self.cpu[first:last]
        net_wall = wall - sum(self.wall[first:last])
        net_cpu = cpu - sum(kc)
        if len(kc) < MIN_REGION_SAMPLES:
            kc = self.cpu
        factor = REFERENCE_KERNEL_S * len(kc) / sum(kc)
        return net_wall * factor, net_cpu * factor


def quantiles(samples):
    """Deciles of kernel times, for the detail file."""
    if len(samples) < 2:
        return list(samples)
    return statistics.quantiles(samples, n=10)
