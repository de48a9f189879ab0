"""A fixed-work, pure-Python reference kernel.

Timings on a shared 2-vCPU host drift by 10-70% between processes and
over hours (a busy neighbour on the core slows every pure-Python workload),
so the benchmark times this kernel between its blocks of requests, in the
same process and the same tenth of a second, and reports latency and
throughput also in units of the kernel's time.

What matters is that the kernel slows by the same factor as the detector
when the host slows.  Measured on a 2-vCPU host under a busy neighbour, an
allocation-heavy kernel slowed more than the detector (1.8x against 1.5x),
and a memory-bound one (attribute reads along a random chain of 200,000
objects, lookups in a 100,000-entry dict) slowed less (1.2x against 1.4x):
the detector both computes and waits on memory, allocating fresh objects
all over the heap for every binary.  The kernel therefore runs a compute
part (calls, small-int arithmetic, set algebra and sorting) and the
memory-bound part in about equal time, plus a small allocation and
dict-insert part.  Normalised by it, ``detect-cold`` latency spread 4-7%
across five seeds, against 11-15% with the memory-bound part alone.  It
imports nothing from ``repro``, so no change to the program can change it.

Set-up is different work: a fresh interpreter spends it almost all on
imports (unmarshalling and running module bodies), which slow by about the
compute part's factor when the host slows, while the memory-bound part
slows twice as much.  So an in-process set-up is rescaled by the compute
part alone (:func:`compute_ms`, :func:`host_seconds`), timed in the same
process right before and after.  A server's set-up (its spawn and the
prefill's detections, spread over both CPUs) is rescaled by the median
:class:`PairedKernel` sample of the run that follows it: each CPU flips
between fast and slow every few seconds, so only a run's hundreds of
samples follow the host's slower phase changes without adding noise.
"""

from __future__ import annotations

import gc
import random
import time
from pathlib import Path

_NODES = 200_000
_STEPS = 6_000
#: seconds of compute-part passes in one :func:`compute_ms` window
WINDOW_S = 0.05
#: one compute-part pass and one :class:`PairedKernel` sample on the host
#: speed set-up times are quoted at (an undisturbed 2-vCPU cloud VM)
COMPUTE_REF_MS = 1.2
KERNEL_REF_MS = 3.0
_SET_VALUES = random.Random(2021).sample(range(1 << 20), 1500)


class _Node:
    __slots__ = ("next", "value")


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _step(x: int) -> int:
    return _mix(x, x >> 3) ^ _mix(x >> 1, 7)


def _compute(left_values: list[int], right_values: list[int]) -> int:
    """The compute part: calls, small-int arithmetic, set algebra, sorting."""
    total = 0
    for i in range(3000):
        total = _step(total + i)
    left = set(left_values)
    right = set(right_values)
    return total + len(sorted(left | right)) + len(left & right) + len(left - right)


def compute_ms(window_s: float = WINDOW_S) -> float:
    """Mean wall time in ms of one compute-part pass, over ``window_s``
    seconds of back-to-back passes with the collector off."""
    left, right = _SET_VALUES[:1000], _SET_VALUES[500:]
    expected = _compute(left, right)
    enabled = gc.isenabled()
    gc.disable()
    try:
        passes = 0
        start = time.perf_counter()
        while True:
            if _compute(left, right) != expected:
                raise RuntimeError("compute kernel returned a different checksum")
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= window_s:
                return elapsed * 1e3 / passes
    finally:
        if enabled:
            gc.enable()


def host_seconds(wall_s: float, measured_ms: float, reference_ms: float) -> float:
    """``wall_s``, measured while a kernel took ``measured_ms``, rescaled to
    the host speed at which it takes ``reference_ms``."""
    return wall_s * reference_ms / measured_ms


def _rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


class Kernel:
    """The kernel and its data, built once per process (about 0.3 s)."""

    def __init__(self) -> None:
        before = _rss_mb()
        rng = random.Random(2021)
        self._head = self._chain(rng)
        self._table = {(i * 2654435761) % (1 << 32): i & 255 for i in range(_NODES // 2)}
        self._keys = list(self._table)[::74]
        values = rng.sample(range(1 << 20), 1500)
        self._left = values[:1000]
        self._right = values[500:]
        self._expected = self._run()
        #: resident memory the kernel's data adds to this process
        self.rss_mb = _rss_mb() - before

    @staticmethod
    def _chain(rng: random.Random) -> _Node:
        """A cycle through all nodes in random order (temporaries die here,
        before :attr:`rss_mb` is measured)."""
        nodes = [_Node() for _ in range(_NODES)]
        order = list(range(_NODES))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            nodes[a].next = nodes[b]
            nodes[a].value = a & 255
        return nodes[0]

    def _run(self) -> int:
        total = _compute(self._left, self._right)
        node = self._head
        for _ in range(_STEPS):
            total += node.value
            node = node.next
        table = self._table
        for key in self._keys:
            total += table[key]
        fresh: dict[int, _Node] = {}
        for i in range(150):
            entry = _Node()
            entry.value = i
            fresh[i * 7919] = entry
        return total + sum(entry.value for entry in fresh.values())

    def sample_ms(self) -> float:
        """Run the kernel once; returns its wall time in milliseconds.

        The collector is off while the kernel runs: its objects die by
        reference counting, and a collection it triggered would otherwise
        walk whatever garbage the workload left, making the kernel's time
        depend on the workload it is meant to normalise.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = self._run()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if result != self._expected:
            raise RuntimeError("reference kernel returned a different checksum")
        return elapsed * 1e3


class PairedKernel:
    """The kernel on both CPUs at once, for workloads that use both.

    The ``serve-*`` workloads keep two processes busy (the server and the
    load generator), so losing either CPU to a neighbour slows them, while
    a sample in the load generator alone sees only its own CPU.  A helper
    process runs the kernel at the same moment as the load generator does;
    a sample is the mean of the two times.  The helper holds no program
    code and never runs inside the server.
    """

    def __init__(self) -> None:
        import subprocess
        import sys

        self.own = Kernel()
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._helper.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference kernel helper did not start")

    def sample_ms(self) -> float:
        self._helper.stdin.write("go\n")
        self._helper.stdin.flush()
        own = self.own.sample_ms()
        return (own + float(self._helper.stdout.readline())) / 2

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=30)
        self._helper.stdout.close()


def _helper_main() -> None:
    """Helper side of :class:`PairedKernel`: one sample per stdin line."""
    import sys

    kernel = Kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(kernel.sample_ms(), flush=True)


if __name__ == "__main__":
    _helper_main()
