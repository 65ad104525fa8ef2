"""In-process probe of the machine's speed while the commands run.

On a shared host the same round of commands can take 20% longer from one
minute to the next, and a run's median moves with it (measured in
``README.md``). Every ``INTERVAL_S`` a SIGALRM handler in the benchmark's own
main thread times a fixed kernel: one input gradient of the reference MLP on
a 64-row batch, the core of a PGD step. Each command's time, minus the time
the handler took, is then rescaled by ``K_REF_S / median kernel time`` over
the command: it reads as the time at a fixed machine speed.

The handler runs between the program's bytecodes and never beside them.
While the process has a child process, a tick records nothing, since the
kernel would then compete with the program's own workers for the cores; a
command with fewer than ``MIN_TICKS`` ticks uses the run's median instead.
Set-up runs in child processes, so each set-up is rescaled by kernel times
taken right before and after it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

import reference as ref

INTERVAL_S = 0.1
K_REF_S = 2.6e-3  # the kernel's median time on the development machine: sets the scale only
MIN_TICKS = 3


def _has_children() -> bool:
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children", encoding="ascii") as f:
            if f.read().strip():
                return True
    return False


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        widths = (16, 256, 256, 4)
        self.layers = tuple((rng.standard_normal((a, b)) / np.sqrt(a), np.zeros(b))
                            for a, b in zip(widths, widths[1:]))
        self.x = rng.standard_normal((256, 16))
        self.y = rng.integers(0, 4, 256)
        self.kernel_s = []  # one entry per tick that ran the kernel
        self.spent_s = 0.0  # time inside the handler, kernel or not
        self.skipped = 0

    def kernel(self) -> float:
        t0 = time.perf_counter()
        ref.ce_input_grad(self.layers, self.x, self.y)
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if _has_children():
            self.skipped += 1
        else:
            self.kernel_s.append(self.kernel())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(MIN_TICKS):  # so that a first short command has a speed to use
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.kernel_s), self.spent_s

    def at_reference(self, seconds, kernel_s) -> float:
        return seconds * K_REF_S / kernel_s

    def measure(self, mark, wall_s):
        """(program seconds, seconds at the reference speed) since ``mark``."""
        first, spent = mark
        ticks = self.kernel_s[first:]
        if len(ticks) < MIN_TICKS:
            ticks = self.kernel_s
        program_s = wall_s - (self.spent_s - spent)
        return program_s, self.at_reference(program_s, statistics.median(ticks))
