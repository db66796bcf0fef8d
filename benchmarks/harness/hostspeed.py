"""Time a block of code at a fixed reference host speed.

The benchmark runs on shared virtual machines whose CPU speed changes
under it: on the 2-vCPU VM it was built on, a fixed pure-Python loop
switches between a fast and a 1.6x slower state every few to few hundred
milliseconds, and the share of slow time drifts over minutes.  The guest
cannot see this: wall time and CPU time both stretch.  An op of a few
seconds averages over a share of slow time that differs from op to op, so
raw op times per unit of work spread 6-28% between the quartiles of ten
runs.

:func:`sampled` therefore samples the host's speed while a block runs:
every :data:`INTERVAL_S` of wall time a ``SIGALRM`` handler runs a fixed
calibration kernel and records its thread CPU time, which the host's
state stretches but the guest's scheduling of other processes does not.
Processes the block forks (the fleet's workers) sample themselves the same
way and send their samples back through a pipe.  The block's own time --
its wall time minus the kernel runs of the calling process -- is scaled by
``REFERENCE_KERNEL_S / mean kernel time``: the time the block would take
on a host that runs the kernel in :data:`REFERENCE_KERNEL_S` throughout.
The forked workers' kernel runs (about 2% of their time) stay in it.

Signal handlers run in the main thread, so only a block run by the main
thread is sampled.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import struct
import time
from dataclasses import dataclass, field

__all__ = ["INTERVAL_S", "REFERENCE_KERNEL_S", "Window", "sampled"]

#: Wall seconds between two speed samples.
INTERVAL_S = 0.025
#: Loop iterations of one kernel run.
KERNEL_LOOPS = 6000
#: The kernel's thread CPU time in the reference state: its fast-state
#: time on the VM the benchmark was built on (0.51 ms, 5th percentile).
REFERENCE_KERNEL_S = 0.0005
_SAMPLE = struct.Struct("d")


def _kernel() -> tuple[float, float]:
    """Run the calibration kernel once: (thread CPU seconds, wall seconds).

    Dict reads and writes on small ints, like the program's hot loops.
    """
    wall, cpu = time.perf_counter(), time.thread_time()
    counts: dict[int, int] = {}
    for i in range(KERNEL_LOOPS):
        counts[i & 127] = counts.get(i & 127, 0) + i
    return time.thread_time() - cpu, time.perf_counter() - wall


@dataclass
class Window:
    """One sampled block: its wall time and the kernel runs inside it."""

    wall_s: float = 0.0
    kernel_cpu_s: list[float] = field(default_factory=list)
    kernel_wall_s: float = 0.0  # wall time this process's kernel runs took
    child_samples: int = 0
    _pipe: tuple[int, int] | None = None  # (read, write): forked children's samples
    _pending: bytearray = field(default_factory=bytearray)

    def sample(self, *_signal) -> None:
        cpu, wall = _kernel()
        self.kernel_cpu_s.append(cpu)
        self.kernel_wall_s += wall
        self._drain()

    def _drain(self) -> None:
        try:
            while chunk := os.read(self._pipe[0], 65536):
                self._pending += chunk
        except BlockingIOError:
            pass
        whole = len(self._pending) - len(self._pending) % _SAMPLE.size
        for (cpu,) in _SAMPLE.iter_unpack(self._pending[:whole]):
            self.kernel_cpu_s.append(cpu)
            self.child_samples += 1
        del self._pending[:whole]

    @property
    def own_s(self) -> float:
        """The block's wall time without this process's kernel runs."""
        return self.wall_s - self.kernel_wall_s

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran the kernel."""
        return statistics.fmean(self.kernel_cpu_s) / REFERENCE_KERNEL_S

    @property
    def scaled_s(self) -> float:
        """The block's own time at the reference host speed."""
        return self.own_s / self.slowdown


#: The window a process forked now reports to.  Fork hooks cannot be
#: unregistered, so one hook reads this instead of one hook per window.
_open_window: Window | None = None
_fork_hook_registered = False


def _sample_in_child() -> None:
    """After a fork inside a window: sample this child until it exits."""
    global _open_window
    if _open_window is None:
        return
    read_fd, write_fd = _open_window._pipe
    _open_window = None  # the child's own forks are not sampled
    os.close(read_fd)  # a child outliving the window then fails to write, not blocks

    def sample(*_signal) -> None:
        try:
            os.write(write_fd, _SAMPLE.pack(_kernel()[0]))
        except OSError:  # the window closed while this child lives on
            signal.setitimer(signal.ITIMER_REAL, 0)

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


@contextlib.contextmanager
def sampled():
    """Sample the host's speed while the ``with`` block runs.

    Yields a :class:`Window` whose ``wall_s`` is set when the block exits
    (normally or not).  One kernel runs before the clock starts, so even a
    block shorter than :data:`INTERVAL_S` has a sample.  Windows do not
    nest.
    """
    global _open_window, _fork_hook_registered
    if _open_window is not None:
        raise RuntimeError("host-speed windows do not nest")
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_sample_in_child)
        _fork_hook_registered = True
    window = Window(_pipe=os.pipe())
    os.set_blocking(window._pipe[0], False)
    previous = signal.signal(signal.SIGALRM, window.sample)
    _open_window = window
    try:
        window.kernel_cpu_s.append(_kernel()[0])
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            window.wall_s = time.perf_counter() - start
    finally:
        _open_window = None
        signal.signal(signal.SIGALRM, previous)
        window._drain()
        os.close(window._pipe[0])
        os.close(window._pipe[1])
