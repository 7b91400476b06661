"""Wall times scaled to a fixed machine speed by an interleaved reference loop.

The shared machines this benchmark runs on change speed by up to about 1.9x,
in spells from under a second to several minutes, and CPU time slows with
wall time (the slowdown is contention inside the host, not waiting).  So
neither the fastest of several runs nor CPU time removes it.  A fixed piece
of pure-Python work, :func:`reference_loop`, slows by nearly the same
factor.  It is timed after a measured call, at most once every
``MIN_GAP_S``, and every ``TICK_S`` inside a long one.  When the run is over, each call's wall time is scaled by
``REF_S`` over the median reference time in a window of ``WINDOW_S`` on
either side of the call.  A scaled time is therefore the wall time the call
would take on a machine where the reference loop takes ``REF_S``: on a
steady machine at that speed it equals the wall time.  The window holds
tens of samples around a short call and follows the switches of speed that
happen within a second.

How much a slow spell slows code depends on the code.  The reference loop
does the kind of work the program's time goes to: it builds a tree of
frozen dataclasses, hashes every node into a dict and compares the tree
with a prebuilt copy, as the formula kernel does.  Measured within runs,
the items' times follow the reference time to a power of about 0.8 to 0.9
on all three workloads, so a scaled time drifts by several percent between
a fast and a slow spell where a wall time moves by up to 1.9x.  The loop
uses no proofbench code, so no change to the program can move it, and it
runs with the garbage collector paused, so no collection whose cost depends
on the program's heap lands in it.

Run as a script, this file is the reference process: it runs the loop
``PROCESS_LOOPS`` times and exits.  The benchmark scales the fresh
processes it times by the reference processes run next to them, because a
fresh process may run on another CPU than the benchmark's own samples.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

#: the reference loop's wall time, in seconds, at the speed every scaled time
#: is reported at: about its time on a quiet 2.1 GHz Xeon VM under Python 3.11
REF_S = 0.0007
#: reference samples this many seconds either side of a call set its scale
WINDOW_S = 0.25
#: the least time between two reference samples after calls
MIN_GAP_S = 0.01
#: the interval of reference samples inside a long call
TICK_S = 0.05
_DEPTH = 7  # 255 nodes
#: reference loops run by ``python3 speed.py``, the reference process
PROCESS_LOOPS = 30
#: the reference process's wall time at the reference speed
PROCESS_REF_S = 0.08


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _tree(depth: int, i: int = 0) -> _Node:
    if depth == 0:
        return _Node(f"x{i % 5}", ())
    return _Node(f"op{depth % 3}", (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


_TREE = _tree(_DEPTH)


def reference_loop() -> bool:
    """Build a tree, hash each node into a dict, compare it with ``_TREE``.

    A frozen dataclass rehashes its whole subtree on each ``hash()``, as the
    formula kernel's nodes do.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = _tree(_DEPTH)
        seen: dict[_Node, int] = {}
        stack = [tree]
        while stack:
            node = stack.pop()
            seen[node] = len(seen)
            stack.extend(node.kids)
        return tree == _TREE
    finally:
        if enabled:
            gc.enable()


class Timing(NamedTuple):
    """Start and end (``perf_counter``) of one measured call.

    ``paused`` is the time the reference loop ran inside the call.
    """

    start: float
    end: float
    paused: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start - self.paused


class Speed:
    """Times calls and scales their wall times; see the module docstring."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each reference sample
        self.samples: list[float] = []  # its duration
        self._paused = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2.0)
        self.samples.append(t1 - t0)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.sample()
        self._paused += perf_counter() - t0

    def timed(self, call):
        """(result, timing, exception) of ``call()``, then a reference sample.

        No sample is taken after the call if the last one is less than
        ``MIN_GAP_S`` old.  A call that runs longer than ``TICK_S`` is
        sampled inside as well: an interval timer interrupts it every
        ``TICK_S`` to run the reference loop, whose time is then taken out
        of the call's.  So a long call is scaled by the speed while it ran,
        not only at its ends.
        """
        self._paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            out, exc = call(), None
        except Exception as e:  # noqa: BLE001 - a raising item counts as failed
            out, exc = None, e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
            signal.signal(signal.SIGALRM, previous)
        if not self.times or t1 - self.times[-1] >= MIN_GAP_S:
            self.sample()
        return out, Timing(t0, t1, self._paused), exc

    def scaled(self, t: Timing) -> float:
        """``t``'s wall seconds at the reference speed.

        The window always holds a sample: the one taken right after the
        call, or one less than ``MIN_GAP_S`` before its end.
        """
        lo = bisect_left(self.times, t.start - WINDOW_S)
        hi = bisect_right(self.times, t.end + WINDOW_S)
        return t.wall * REF_S / statistics.median(self.samples[lo:hi])


SPEED = Speed()


if __name__ == "__main__":
    for _ in range(PROCESS_LOOPS):
        reference_loop()
