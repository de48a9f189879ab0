"""The four benchmark workloads and the block loop that times them.

Every workload first warms up for :data:`WARMUP_S` seconds (a fresh
process is slower while its heap grows), then runs *blocks* of about
:data:`BLOCK_S` seconds of closed-loop requests.  Before and after every
block the load generator times one sample of the reference kernel
(:mod:`refkernel`), and each request's latency is normalised by the mean of
its block's two samples: host speed is measured in the same tenth of a
second as the requests.  In a traced run, odd blocks run with the
:class:`layers.Tracer` wrappers installed and even blocks without; the
latency difference between the two is the tracing overhead.

In-process workloads (``detect-cold``, ``compare-tools``) make one request
at a time.  The ``serve-*`` workloads drive a ``fetch-detect serve --tcp``
subprocess from two :class:`repro.service.ServiceClient` connections, one
thread each, both paused between blocks.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import corpus
import layers
import refkernel

PERF = time.perf_counter

#: seconds of requests between two reference-kernel samples
BLOCK_S = 0.1
#: seconds of unrecorded requests before the first block
WARMUP_S = 2.0
#: block modes
WARMUP, PLAIN, TRACED = "warmup", "plain", "traced"
#: binaries per ``run_tool_comparison`` request on ``compare-tools``
BATCH = 2
#: service worker threads and client connections on ``serve-*`` (nproc = 2)
WORKERS = 2
CONNECTIONS = 2
#: server starts per ``serve-*`` run (``setup_s`` is their median); the
#: last one serves the run
SPAWNS = 5
#: store prefills per ``serve-warm`` run (``setup_s`` includes their median)
PREFILLS = 3
#: ``serve-warm`` serves this many binaries (each one is prefilled by a
#: detection), warming up on a quarter of them and measuring on the rest, so
#: the measured window still makes each binary's first read from the store
WARM_BINARIES = 96
#: FETCH may miss or invent at most this share of true starts, summed over
#: the corpus, before the output counts as wrong
MAX_ERROR_SHARE = 0.05

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


@dataclass
class Outcome:
    """What one measured run produced, before metrics are derived."""

    latencies_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)
    #: untraced blocks: (index of the kernel sample before it, first and
    #: end index into ``latencies_ms``, wall seconds)
    blocks: list[tuple[int, int, int, float]] = field(default_factory=list)
    results: int = 0
    traced_results: int = 0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    #: exact per-seed counts over one pass of the inputs
    false_positives: int = 0
    false_negatives: int = 0
    raw_decodes: float = 0.0
    snapshot: dict[str, Any] = field(default_factory=dict)
    layer_extra: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def record(self, mode: str, elapsed_ms: float, results: int) -> None:
        if mode == TRACED:
            self.traced_ms.append(elapsed_ms)
            self.traced_results += results
        else:
            self.latencies_ms.append(elapsed_ms)
            self.results += results

    def normalised(self) -> tuple[list[float], float]:
        """Latencies in kernel units, and untraced run time in kernel units."""
        latencies: list[float] = []
        ref_time = 0.0
        for sample, first, end, seconds in self.blocks:
            ref = (self.ref_ms[sample] + self.ref_ms[sample + 1]) / 2
            latencies.extend(ms / ref for ms in self.latencies_ms[first:end])
            ref_time += seconds * 1e3 / ref
        return latencies, ref_time


def run_blocks(
    seconds: float,
    kernel: refkernel.Kernel,
    run_block: Callable[[float, str], None],
    outcome: Outcome,
    toggle: Callable[[bool], None] | None = None,
) -> None:
    """Alternate kernel samples with blocks of requests for ``seconds``.

    ``run_block(block_end, mode)`` makes requests until ``block_end``.
    With ``toggle``, every second block is traced.
    """
    deadline = PERF() + seconds
    block = 0
    while True:
        outcome.ref_ms.append(kernel.sample_ms())
        if PERF() >= deadline:
            return
        traced = toggle is not None and block % 2 == 1
        if traced:
            toggle(True)
        first = len(outcome.latencies_ms)
        start = PERF()
        run_block(start + BLOCK_S, TRACED if traced else PLAIN)
        elapsed = PERF() - start
        if traced:
            toggle(False)
        else:
            outcome.blocks.append(
                (len(outcome.ref_ms) - 1, first, len(outcome.latencies_ms), elapsed)
            )
        block += 1


def warm_up(kernel: refkernel.Kernel, run_block: Callable[[float, str], None]) -> None:
    """Unrecorded requests, then freeze everything alive so far (inputs,
    kernel data, imports) out of the collector's full passes."""
    for _ in range(5):
        kernel.sample_ms()
    run_block(PERF() + WARMUP_S, WARMUP)
    gc.collect()
    gc.freeze()


def _accuracy(outcome: Outcome, starts_by_truth: list[tuple[frozenset, frozenset]]) -> None:
    """Exact FP/FN over one pass, and whether they stay under the bound."""
    functions = 0
    for starts, truth in starts_by_truth:
        outcome.false_positives += len(starts - truth)
        outcome.false_negatives += len(truth - starts)
        functions += len(truth)
    outcome.checks["accuracy"] = (
        outcome.false_positives + outcome.false_negatives <= MAX_ERROR_SHARE * functions
    )


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------

class _InProcess:
    """Closed-loop single caller over a cycle of keyed requests.

    ``request(key)`` returns ``(results, signature)``.  A key's signature
    and raw decode count must repeat exactly every time it runs; after the
    window, keys it never reached run once unrecorded so the per-pass counts
    always cover every input.
    """

    def __init__(self, keys: list[Any], request: Callable[[Any], tuple[int, Any]]):
        from repro.x86.disassembler import DECODE_STATS

        self._stats = DECODE_STATS
        self.keys = keys
        self.request = request
        self.position = 0
        self.signatures: dict[Any, Any] = {}
        self.decodes: dict[Any, int] = {}
        self.repeat_ok = True
        self.outcome = Outcome()

    def one(self, key: Any, mode: str) -> None:
        outcome = self.outcome
        decodes_before = self._stats.raw_decodes
        start = PERF()
        try:
            results, signature = self.request(key)
        except Exception as error:  # noqa: BLE001 - a failed request is counted
            outcome.attempted += 1
            outcome.failed += 1
            print(f"request {key!r} failed: {type(error).__name__}: {error}", file=sys.stderr)
            return
        elapsed_ms = (PERF() - start) * 1e3
        decodes = self._stats.raw_decodes - decodes_before
        if self.signatures.setdefault(key, signature) != signature or (
            self.decodes.setdefault(key, decodes) != decodes
        ):
            self.repeat_ok = False
            outcome.failed += 1
        if mode != WARMUP:
            outcome.attempted += 1
            outcome.record(mode, elapsed_ms, results)

    def run_block(self, block_end: float, mode: str) -> None:
        keys = self.keys
        while PERF() < block_end:
            key = keys[self.position % len(keys)]
            self.position += 1
            self.one(key, mode)

    def measure(self, seconds: float, tracer: layers.Tracer | None) -> Outcome:
        kernel = refkernel.Kernel()
        warm_up(kernel, self.run_block)
        toggle = None
        if tracer is not None:
            toggle = lambda on: tracer.install() if on else tracer.uninstall()  # noqa: E731
        run_blocks(seconds, kernel, self.run_block, self.outcome, toggle)
        for key in self.keys:
            if key not in self.signatures:
                self.one(key, WARMUP)
        outcome = self.outcome
        outcome.checks["repeat_exact"] = self.repeat_ok
        outcome.raw_decodes = sum(self.decodes.values())
        if tracer is not None:
            outcome.snapshot = tracer.snapshot()
        # the program's peak, without the kernel's data held by this process
        outcome.peak_rss_mb = _peak_rss_mb("self") - kernel.rss_mb
        return outcome


def detect_cold(
    binaries: list[corpus.Binary], seconds: float, seed: int, tracer: layers.Tracer | None
) -> Outcome:
    """One in-process caller: parse fresh bytes, detect with a fresh context."""
    from repro.core.context import AnalysisContext
    from repro.core.pipeline import FetchDetector
    from repro.elf.image import BinaryImage

    by_index = {binary.index: binary for binary in binaries}

    def request(index: int) -> tuple[int, frozenset]:
        binary = by_index[index]
        image = BinaryImage.from_bytes(binary.data, name=binary.name)
        result = FetchDetector().detect(image, AnalysisContext(image))
        return 1, frozenset(result.function_starts)

    load = _InProcess(random.Random(seed).sample(sorted(by_index), len(by_index)), request)
    outcome = load.measure(seconds, tracer)
    _accuracy(
        outcome,
        [(starts, by_index[i].truth.function_starts) for i, starts in load.signatures.items()],
    )
    outcome.raw_decodes /= len(binaries)
    return outcome


def comparison_input(binary: corpus.Binary, image: Any) -> SimpleNamespace:
    """The corpus-entry fields ``run_tool_comparison`` reads, over a fresh image."""
    level = SimpleNamespace(value=binary.opt_level)
    return SimpleNamespace(
        name=binary.name,
        image=image,
        ground_truth=binary.truth,
        plan=SimpleNamespace(profile=SimpleNamespace(opt_level=level)),
    )


def compare_tools(
    binaries: list[corpus.Binary], seconds: float, seed: int, tracer: layers.Tracer | None
) -> Outcome:
    """One in-process caller: Table III over a batch, fresh evaluator and images."""
    from repro.elf.image import BinaryImage
    from repro.eval.runner import CorpusEvaluator, run_tool_comparison

    # batches group grid slots a fixed stride apart, so every seed has the
    # same mix of batch sizes; the seed picks the content and the order
    count = -(-len(binaries) // BATCH)
    batches = {i: tuple(binaries[i::count]) for i in range(count)}

    def request(key: int) -> tuple[int, tuple]:
        batch = batches[key]
        entries = [
            comparison_input(b, BinaryImage.from_bytes(b.data, name=b.name)) for b in batch
        ]
        table = run_tool_comparison(entries, evaluator=CorpusEvaluator(entries))
        return len(batch), tuple(
            (name, cell.false_positives, cell.false_negatives, cell.functions)
            for name, cell in sorted(table["Avg."].items())
        )

    load = _InProcess(random.Random(seed).sample(list(batches), count), request)
    outcome = load.measure(seconds, tracer)
    fetch_errors = fetch_functions = 0
    for signature in load.signatures.values():
        for name, fp, fn, functions in signature:
            outcome.false_positives += fp
            outcome.false_negatives += fn
            if name == "fetch":
                fetch_errors += fp + fn
                fetch_functions += functions
    outcome.checks["all_tools"] = all(
        len(signature) == len(layers.TOOLS) for signature in load.signatures.values()
    )
    outcome.checks["accuracy"] = fetch_errors <= MAX_ERROR_SHARE * fetch_functions
    outcome.raw_decodes /= len(binaries)
    return outcome


# ----------------------------------------------------------------------
# Server workloads
# ----------------------------------------------------------------------

def _peak_rss_mb(pid: int | str) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


class Server:
    """A ``fetch-detect serve --tcp`` subprocess, started through the
    benchmark's launcher (which adds a tracing control channel when asked)."""

    def __init__(self, store: Path, *, trace: bool):
        command = [sys.executable, str(LAUNCHER)]
        if trace:
            command.append("--trace")
        command += [
            "serve", "--tcp", "127.0.0.1:0", "--workers", str(WORKERS), "--store", str(store),
        ]
        start = PERF()
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=corpus.child_env(),
        )
        line = self.process.stdout.readline()
        self.spawn_s = PERF() - start
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.address = (host, int(port))

    def control(self, command: str) -> str:
        """One request/answer on the launcher's tracing control channel."""
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline().strip()

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the server drains and exits 0), then wait for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def reference_starts(binaries: list[corpus.Binary]) -> dict[int, frozenset]:
    """Each binary's ``detect-cold`` start set: what ``serve-*`` must return."""
    from repro.core.pipeline import FetchDetector
    from repro.elf.image import BinaryImage

    return {
        b.index: frozenset(
            FetchDetector().detect(BinaryImage.from_bytes(b.data, name=b.name)).function_starts
        )
        for b in binaries
    }


def prefill(binaries: list[corpus.Binary], store: Path) -> float:
    """Fill ``store`` through a separate setup server; returns its seconds."""
    from repro.service import ServiceClient

    start = PERF()
    server = Server(store, trace=False)
    try:
        client = ServiceClient.connect(*server.address)
        job = client.submit([b.path for b in binaries])
        events = list(client.results(job))
        client.shutdown()
    finally:
        server.stop()
    if len(events) != len(binaries) or any("error" in event for event in events):
        raise RuntimeError("store prefill failed")
    return PERF() - start


def _variant(data: bytes, number: int) -> bytes:
    """``data`` with a unique ``e_ident`` padding (bytes 9-15, ignored by
    ELF readers): a new digest, the same program."""
    return data[:9] + number.to_bytes(7, "little") + data[16:]


class _Connection(threading.Thread):
    """One closed-loop client connection, paused between blocks."""

    def __init__(self, number: int, load: "_ServeLoad"):
        super().__init__(name=f"bench-conn-{number}", daemon=True)
        from repro.service import ServiceClient

        self.number = number
        self.load = load
        self.client = ServiceClient.connect(*load.server.address)
        self.sent = 0

    def run(self) -> None:
        load = self.load
        try:
            while True:
                load.start_barrier.wait()
                if load.stopping:
                    return
                block_end, mode = load.block_end, load.mode
                while PERF() < block_end:
                    self.request(mode)
                load.end_barrier.wait()
        except threading.BrokenBarrierError:
            return  # the run was aborted

    def request(self, mode: str) -> None:
        load = self.load
        outcome = load.outcome
        order = load.orders[mode == WARMUP][self.number]
        binary = order[self.sent % len(order)]
        self.sent += 1
        if load.cold:
            path = load.work / f"c{self.number}-{self.sent}.elf"
            path.write_bytes(_variant(binary.data, self.number << 40 | self.sent))
            path = str(path)
        else:
            path = binary.path
        ok = False
        start = PERF()
        try:
            job = self.client.submit([path])
            events = list(self.client.results(job))
            elapsed_ms = (PERF() - start) * 1e3
            ok = (
                len(events) == 1
                and events[0]["name"] == path
                and "error" not in events[0]
                and frozenset(events[0]["function_starts"]) == load.expected[binary.index]
                and (self.client.summary(job) or {}).get("ok") == 1
            )
        except Exception as error:  # noqa: BLE001 - a failed request is counted
            print(f"request {path} failed: {type(error).__name__}: {error}", file=sys.stderr)
        with load.lock:
            if mode == WARMUP:
                load.warmup_ok = load.warmup_ok and ok
                return
            outcome.attempted += 1
            if not ok:
                outcome.failed += 1
                return
            outcome.record(mode, elapsed_ms, 1)
            if mode == PLAIN:
                load.unit_ms.append(events[0]["seconds"] * 1e3)


class _ServeLoad:
    """Runs blocks on every connection at once; each connection walks its
    own seeded order of the inputs (``orders[True]`` during warm-up)."""

    def __init__(self, server: Server, measured, warmup, expected, seed: int, cold: bool,
                 work: Path):
        self.server = server
        self.expected = expected
        self.cold = cold
        self.work = work
        self.outcome = Outcome()
        self.lock = threading.Lock()
        self.unit_ms: list[float] = []
        self.warmup_ok = True
        rng = random.Random(seed)
        self.orders = {
            flag: [rng.sample(inputs, len(inputs)) for _ in range(CONNECTIONS)]
            for flag, inputs in ((False, measured), (True, warmup))
        }
        self.block_end = 0.0
        self.mode = PLAIN
        self.stopping = False
        self.start_barrier = threading.Barrier(CONNECTIONS + 1)
        self.end_barrier = threading.Barrier(CONNECTIONS + 1)
        self.connections = [_Connection(i, self) for i in range(CONNECTIONS)]
        for connection in self.connections:
            connection.start()

    def run_block(self, block_end: float, mode: str) -> None:
        self.block_end, self.mode = block_end, mode
        self.start_barrier.wait()
        self.end_barrier.wait()

    def stop(self) -> None:
        self.stopping = True
        self.start_barrier.wait()
        for connection in self.connections:
            connection.join()

    def abort(self) -> None:
        self.start_barrier.abort()
        self.end_barrier.abort()

    def close_clients(self) -> None:
        for connection in self.connections:
            # the shutdown op makes the server close the socket first, so
            # the client's reader thread ends at once instead of stalling
            # in ServiceClient.close()
            connection.client.shutdown()


def serve(
    binaries: list[corpus.Binary],
    seconds: float,
    seed: int,
    trace: bool,
    *,
    warm: bool,
    work: Path,
) -> tuple[Outcome, list[tuple[float, float]]]:
    """``serve-cold`` / ``serve-warm``; returns the outcome and the set-up
    times (spawn-to-listening per start, plus the median prefill on
    ``serve-warm``), each as wall seconds and as seconds rescaled to the
    reference host speed by the run's median kernel sample."""
    if warm:
        # evenly spaced grid slots, so every seed serves (and prefills) the
        # same mix of sizes; the seed gives their content and the orders
        count = min(WARM_BINARIES, len(binaries))
        binaries = [binaries[i * len(binaries) // count] for i in range(count)]
        warmup = binaries[::4]
        measured = [binary for i, binary in enumerate(binaries) if i % 4]
    else:
        warmup = measured = binaries
    expected = reference_starts(binaries)
    store = work / "store"
    prefill_s = 0.0
    if warm:
        # fill a fresh store PREFILLS times; the last one serves the run
        times = []
        for _ in range(PREFILLS):
            shutil.rmtree(store, ignore_errors=True)
            times.append(prefill(binaries, store))
        prefill_s = statistics.median(times)
    walls: list[float] = []
    # start the server SPAWNS times; the last one serves the run
    for attempt in range(SPAWNS):
        server = Server(store, trace=trace)
        walls.append(server.spawn_s + prefill_s)
        if attempt < SPAWNS - 1:
            server.stop()
    try:
        load = _ServeLoad(server, measured, warmup, expected, seed, not warm, work)
        stats = load.connections[0].client.stats
        toggle = None
        if trace:
            def toggle(on: bool) -> None:
                answer = server.control("on" if on else "off")
                if answer != ("on" if on else "off"):
                    raise RuntimeError(f"tracing control answered {answer!r}")

        kernel = refkernel.PairedKernel()
        try:
            warm_up(kernel, load.run_block)
            before = stats()
            run_blocks(seconds, kernel, load.run_block, load.outcome, toggle)
            load.stop()
            after = stats()
            snapshot = json.loads(server.control("dump")) if trace else {}
            load.outcome.peak_rss_mb = server.peak_rss_mb()
        except BaseException:
            load.abort()
            raise
        finally:
            kernel.close()
        load.close_clients()
    finally:
        server.stop()
    sample_ms = statistics.median(load.outcome.ref_ms)
    setups = [
        (wall, refkernel.host_seconds(wall, sample_ms, refkernel.KERNEL_REF_MS)) for wall in walls
    ]
    outcome = load.outcome
    outcome.checks["warmup_ok"] = load.warmup_ok
    _serve_accounting(outcome, before, after, snapshot, load.unit_ms, warm)
    _accuracy(outcome, [(expected[b.index], b.truth.function_starts) for b in binaries])
    return outcome, setups


def _serve_accounting(outcome, before, after, snapshot, unit_ms, warm) -> None:
    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    results = outcome.results + outcome.traced_results
    runs = delta("detector_runs")
    hits = delta("cache_hits")
    reads_hit = delta("store", "detection_hits")
    reads_miss = delta("store", "detection_misses")
    outcome.checks["results_delivered"] = results > 0 and outcome.failed == 0
    # every attempted request is one unit: detected once or served cached
    outcome.checks["units_accounted"] = runs + hits == outcome.attempted
    if warm:
        outcome.checks["warm_no_detection"] = after["detector_runs"] == 0
    per = 1.0 / results if results else 0.0
    unit_mean = sum(unit_ms) / len(unit_ms) if unit_ms else 0.0
    latencies = outcome.latencies_ms
    outcome.layer_extra = {
        "service.unit_ms": unit_mean,
        "service.overhead_ms": (sum(latencies) / len(latencies) if latencies else 0.0) - unit_mean,
        "service.detector_runs": runs * per,
        "service.cache_hits": hits * per,
        "store.hit_ratio": reads_hit / (reads_hit + reads_miss) if reads_hit + reads_miss else 0.0,
        "store.lock_wait_ms": delta("store_info", "lock", "wait_seconds_total") * 1e3 * per,
        "resilience.retries": delta("resilience", "detector_retries")
        + delta("resilience", "store_retries"),
        "resilience.degraded_units": delta("resilience", "degraded_units"),
    }
    outcome.snapshot = snapshot
    if snapshot and outcome.traced_results:
        traced = outcome.traced_results
        outcome.raw_decodes = snapshot["counts"].get("x86.raw_decodes", 0) / traced
        outcome.layer_extra["service.detect_ms"] = (
            snapshot["incl"].get("detect.fetch", 0.0) * 1e3 / traced
        )
