"""Command-line interface: ``fetch-detect``.

Analyses one or more x86-64 ELF binaries with any registered detector
(FETCH by default) and prints the detected function starts, optionally
comparing them against each binary's symbol table.  With several binaries,
``--workers N`` analyses them in N worker processes; output stays in
argument order.  ``--json`` switches to machine-readable output (per-binary
starts, per-stage attribution, timings); the default text output is
unchanged.  With a store (``--store`` or ``REPRO_STORE_DIR``), detection
runs are cached by file content and reused.

``fetch-detect corpus build|info`` manages the content-addressed corpus
store used by the evaluation stack, and ``fetch-detect store gc|stats``
maintains the store itself: size/age-budgeted garbage collection and
per-namespace statistics, each from one walk of the store tree.
``fetch-detect serve`` runs the persistent detection service over a
stdin/stdout JSON-lines protocol (see :mod:`repro.service.protocol`), and
``fetch-detect submit`` is its one-shot batch client: it submits paths
through a :class:`DetectionService`, streams results as they complete and
reports the run's cache hit/miss counters — a warm re-submission of an
already-evaluated corpus performs zero detector invocations.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from repro.core import FetchOptions
from repro.core.registry import create_detector, detector_info, detectors
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage
from repro.eval.executor import parallel_map
from repro.eval.unit import Entry, detect_entry
from repro.store import ArtifactStore, blob_digest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetch-detect",
        description=(
            "Detect function starts in an x86-64 System-V ELF binary using "
            "exception-handling information (FETCH, DSN 2021)."
        ),
        epilog=(
            "corpus store management: 'fetch-detect corpus build|info'; "
            "store maintenance: 'fetch-detect store gc|stats'; "
            "persistent detection service: 'fetch-detect serve' (JSON-lines "
            "protocol) and 'fetch-detect submit' (one-shot batch client)"
        ),
    )
    parser.add_argument(
        "binary", nargs="?", help="path to the ELF binary to analyse"
    )
    parser.add_argument(
        "more_binaries",
        nargs="*",
        metavar="binary",
        help="additional binaries to analyse (see --workers)",
    )
    parser.add_argument(
        "--detector",
        default="fetch",
        metavar="NAME",
        help="registered detector to run (default: fetch; see --list-detectors)",
    )
    parser.add_argument(
        "--list-detectors",
        action="store_true",
        help="list the registered detectors and exit",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="analyse up to N binaries in parallel worker processes (default: serial)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )
    parser.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "cache detection results in an artifact store (default directory "
            "from REPRO_STORE_DIR, else .repro-store)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the artifact store even when REPRO_STORE_DIR is set",
    )
    parser.add_argument(
        "--no-recursion",
        action="store_true",
        help="only report FDE PC-Begin addresses (the paper's Q1 baseline)",
    )
    parser.add_argument(
        "--no-xref",
        action="store_true",
        help="skip function-pointer collection and validation",
    )
    parser.add_argument(
        "--no-tailcall",
        action="store_true",
        help="skip Algorithm 1 (tail-call detection and part merging)",
    )
    parser.add_argument(
        "--use-symbols",
        action="store_true",
        help="also seed detection from function symbols when present",
    )
    parser.add_argument(
        "--compare-symbols",
        action="store_true",
        help="report agreement between detected starts and function symbols",
    )
    parser.add_argument(
        "--stages",
        action="store_true",
        help="show which pipeline stage contributed each detection",
    )
    _add_faults_argument(parser)
    return parser


def _add_faults_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "install a deterministic fault-injection plan, e.g. "
            "'seed=7;detect:raise:rate=0.2,max=5;worker:kill:rate=0.1' "
            "(also honoured from REPRO_FAULTS; see repro.resilience.faults)"
        ),
    )


def _apply_faults(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Install the ``--faults`` plan (validated; bad specs are usage errors)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return
    from repro.resilience import faults

    try:
        faults.install(spec)
    except ValueError as error:
        parser.error(f"--faults: {error}")


def _make_detector(args: argparse.Namespace):
    """Instantiate the requested detector (FETCH honours the stage flags)."""
    if args.detector == "fetch":
        options = FetchOptions(
            use_symbols=args.use_symbols,
            use_recursion=not args.no_recursion,
            use_pointer_validation=not args.no_xref,
            use_tail_call_analysis=not args.no_tailcall,
        )
        return create_detector("fetch", options)
    return create_detector(args.detector)


def _resolve_store(args: argparse.Namespace) -> ArtifactStore | None:
    """The artifact store selected by ``--store``/``--no-store``/environment."""
    if args.no_store:
        return None
    if args.store is not None:
        return ArtifactStore(args.store or None)
    if os.environ.get("REPRO_STORE_DIR"):
        return ArtifactStore()
    return None


def _analyse_one(path: str, args: argparse.Namespace) -> tuple[int, list[str], list[str], dict]:
    """Analyse ``path``; returns (exit code, stdout lines, stderr lines, record)."""
    out: list[str] = []
    err: list[str] = []
    record: dict = {"path": path, "detector": args.detector}
    timings: dict[str, float] = {}
    record["timings_seconds"] = timings

    start = time.perf_counter()
    try:
        with open(path, "rb") as stream:
            data = stream.read()
        image = BinaryImage.from_bytes(data, name=path)
    except (OSError, ValueError) as error:
        err.append(f"error: cannot load {path}: {error}")
        record["error"] = str(error)
        return 1, out, err, record
    timings["load"] = time.perf_counter() - start

    warnings: list[str] = []
    if not image.has_eh_frame:
        warnings.append(
            "warning: binary has no .eh_frame section; FDE-based detection "
            "will find nothing"
        )
    err.extend(warnings)
    record["warnings"] = warnings

    start = time.perf_counter()
    # the detection service runs the same unit under the same store key: a
    # corpus analysed here is warm for `fetch-detect submit` and vice versa
    detection = detect_entry(
        Entry(path, blob_digest(data), data, image),
        _make_detector(args),
        store=_resolve_store(args),
    )
    timings["detect"] = time.perf_counter() - start
    if detection.error is not None:
        err.append(f"error: cannot analyse {path}: {detection.error}")
        record["error"] = detection.error
        return 1, out, err, record
    if detection.failure is not None:
        err.append(
            f"warning: {path}: {detection.failure['site']} degraded: "
            f"{detection.failure['kind']}: {detection.failure['message']}"
        )

    result = detection.result
    record.update(result.to_record(), cached=detection.cached, count=len(result.function_starts))
    record["merged_parts"] = {
        hex(part): hex(parent) for part, parent in sorted(result.merged_parts.items())
    }
    symbol_comparison: dict[str, int] | None = None
    if args.compare_symbols and image.has_symbols:
        symbol_starts = {s.address for s in image.function_symbols}
        detected = result.function_starts
        symbol_comparison = {
            "symbol_count": len(symbol_starts),
            "detected_count": len(detected),
            "symbols_not_detected": len(symbol_starts - detected),
            "detected_not_in_symbols": len(detected - symbol_starts),
        }
        record["symbols"] = symbol_comparison

    if not args.json:
        out.extend(_render_text(path, result, args, symbol_comparison))
    return 0, out, err, record


def _render_text(
    path: str,
    result: DetectionResult,
    args: argparse.Namespace,
    symbol_comparison: dict[str, int] | None,
) -> list[str]:
    lines: list[str] = []
    lines.append(f"# {len(result.function_starts)} function starts detected in {path}")
    stage_of: dict[int, str] = {}
    if args.stages:
        for stage, added in result.added_by_stage.items():
            for address in added:
                stage_of.setdefault(address, stage)
    for address in sorted(result.function_starts):
        if args.stages:
            lines.append(f"{address:#x}\t{stage_of.get(address, '?')}")
        else:
            lines.append(f"{address:#x}")

    if result.merged_parts:
        lines.append(f"# merged {len(result.merged_parts)} non-contiguous part(s):")
        for part, parent in sorted(result.merged_parts.items()):
            lines.append(f"#   {part:#x} -> part of function {parent:#x}")

    if symbol_comparison is not None:
        lines.append(
            f"# symbols: {symbol_comparison['symbol_count']}, "
            f"detected: {symbol_comparison['detected_count']}"
        )
        lines.append(
            f"#   symbols not detected : {symbol_comparison['symbols_not_detected']}"
        )
        lines.append(
            f"#   detected not in symbols: {symbol_comparison['detected_not_in_symbols']}"
        )
    return lines


def _render_detector_list() -> list[str]:
    lines = [f"{'name':<12} {'options':<16} {'eh_frame':>8} {'cet':>4}  description"]
    for info in detectors():
        options = info.options_cls.__name__ if info.options_cls else "-"
        lines.append(
            f"{info.name:<12} {options:<16} "
            f"{'yes' if info.needs_eh_frame else 'no':>8} "
            f"{'yes' if info.cet_aware else 'no':>4}  {info.description}"
        )
    return lines


#: second-level words that route a two-word subcommand family
_SUBCOMMAND_WORDS = {
    "corpus": ("build", "info", "-h", "--help"),
    "store": ("gc", "stats", "-h", "--help"),
}


def _subcommand(argv: list[str]) -> str | None:
    """The subcommand ``argv`` invokes
    (``corpus``/``store``/``serve``/``submit``), if any.

    A binary that happens to be *named* like a subcommand can still be
    analysed: an existing file of that name wins, the subcommand routes
    only otherwise.  For ``corpus`` and ``store``, additionally only a
    recognised subcommand word after it routes there.
    """
    if not argv or argv[0] not in ("corpus", "store", "serve", "submit"):
        return None
    word, rest = argv[0], argv[1:]
    if word in _SUBCOMMAND_WORDS:
        if rest and rest[0] in _SUBCOMMAND_WORDS[word]:
            return word
        # bare "fetch-detect corpus|store": prefer an existing file of that
        # name, otherwise show the subcommand usage error
        return word if not rest and not os.path.exists(word) else None
    return word if not os.path.exists(word) else None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    subcommand = _subcommand(argv)
    if subcommand == "corpus":
        return corpus_main(argv[1:])
    if subcommand == "store":
        return store_main(argv[1:])
    if subcommand == "serve":
        return serve_main(argv[1:])
    if subcommand == "submit":
        return submit_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_faults(args, parser)

    if args.list_detectors:
        for line in _render_detector_list():
            print(line)
        return 0
    if args.binary is None:
        parser.error("the following arguments are required: binary")
    try:
        detector_info(args.detector)
    except KeyError as error:
        parser.error(str(error))

    paths = [args.binary, *args.more_binaries]
    analyse = functools.partial(_analyse_one, args=args)
    outcomes = parallel_map(analyse, paths, workers=args.workers)

    status = 0
    records = []
    for code, out, err, record in outcomes:
        status = max(status, code)
        records.append(record)
        for line in err:
            print(line, file=sys.stderr)
        if not args.json:
            for line in out:
                print(line)
    if args.json:
        print(json.dumps({"binaries": records, "status": status}, indent=2, sort_keys=True))
    return status


# ----------------------------------------------------------------------
# fetch-detect corpus build|info
# ----------------------------------------------------------------------

def build_corpus_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetch-detect corpus",
        description="Build and inspect the content-addressed corpus store.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser(
        "build", help="build a corpus and persist it in the store"
    )
    build.add_argument(
        "--kind",
        choices=("scenario-matrix", "selfbuilt", "wild"),
        default="scenario-matrix",
        help="which corpus to build (default: scenario-matrix)",
    )
    build.add_argument("--seed", type=int, default=2021)
    build.add_argument("--scale", type=float, default=1.0)
    build.add_argument(
        "--programs", type=int, default=4, help="binaries per scenario row"
    )
    build.add_argument(
        "--max-binaries", type=int, default=None, help="cap the corpus size"
    )
    build.add_argument("--store", default=None, metavar="DIR")

    info = subparsers.add_parser("info", help="list the corpora in the store")
    info.add_argument("--store", default=None, metavar="DIR")
    return parser


def corpus_main(argv: list[str]) -> int:
    args = build_corpus_parser().parse_args(argv)
    store = ArtifactStore(args.store) if args.store else ArtifactStore()

    if args.command == "info":
        manifests = store.corpus_manifests()
        print(f"# store {store.root} — {len(manifests)} corpus manifest(s)")
        for manifest in manifests:
            binaries = manifest.get("binaries", [])
            functions = sum(
                len(row["ground_truth"]["functions"]) for row in binaries
            )
            params = manifest.get("params", {})
            brief = ", ".join(
                f"{key}={params[key]}"
                for key in ("scenario", "seed", "scale", "programs", "max_binaries")
                if key in params and params[key] is not None
            )
            print(
                f"{manifest['key'][:12]}  {manifest.get('kind', '?'):<16} "
                f"{len(binaries):>4} binaries {functions:>6} functions  [{brief}]"
            )
        return 0

    from repro.synth import (
        build_scenario_matrix_corpora,
        build_selfbuilt_corpus,
        build_wild_corpus,
    )

    before = store.stats_snapshot()
    if args.kind == "scenario-matrix":
        corpora = build_scenario_matrix_corpora(
            seed=args.seed, scale=args.scale, programs=args.programs, store=store
        )
        rows = {name: len(binaries) for name, binaries in corpora.items()}
    elif args.kind == "selfbuilt":
        corpus = build_selfbuilt_corpus(
            seed=args.seed, scale=args.scale, max_binaries=args.max_binaries, store=store
        )
        rows = {"selfbuilt": len(corpus)}
    else:
        corpus = build_wild_corpus(
            seed=args.seed, scale=args.scale, max_binaries=args.max_binaries, store=store
        )
        rows = {"wild": len(corpus)}
    after = store.stats_snapshot()

    reused = after["corpus_hits"] - before["corpus_hits"]
    built = after["corpus_misses"] - before["corpus_misses"]
    for name, count in rows.items():
        print(f"{name}: {count} binaries")
    print(f"# store {store.root}: {reused} corpus manifest(s) reused, {built} built")
    return 0


# ----------------------------------------------------------------------
# fetch-detect store gc|stats
# ----------------------------------------------------------------------

def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetch-detect store",
        description=(
            "Maintain an artifact store: garbage-collect by age/size budget "
            "and count its entries."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gc = subparsers.add_parser(
        "gc", help="evict derived artifacts by age and/or size budget"
    )
    gc.add_argument("--store", default=None, metavar="DIR")
    gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict oldest evictable entries until the footprint fits N bytes",
    )
    gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="D",
        help="evict evictable entries not written for more than D days",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    gc.add_argument("--json", action="store_true")

    stats = subparsers.add_parser(
        "stats", help="count entries and bytes per namespace (one tree walk)"
    )
    stats.add_argument("--store", default=None, metavar="DIR")
    stats.add_argument("--json", action="store_true")
    return parser


def store_main(argv: list[str]) -> int:
    args = build_store_parser().parse_args(argv)
    store = ArtifactStore(args.store) if args.store else ArtifactStore()

    if args.command == "stats":
        namespaces: dict[str, dict[str, int]] = {}
        for namespace, _key, size, _mtime in store.backend.iter_entries():
            bucket = namespaces.setdefault(namespace, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        counts = {
            "root": str(store.root),
            "entries": sum(bucket["entries"] for bucket in namespaces.values()),
            "bytes": sum(bucket["bytes"] for bucket in namespaces.values()),
            "namespaces": namespaces,
        }
        if args.json:
            print(json.dumps(counts, indent=2, sort_keys=True))
            return 0
        print(
            f"# store {store.root}: "
            f"{counts['entries']} entries, {counts['bytes']} bytes"
        )
        for namespace, bucket in sorted(namespaces.items()):
            print(
                f"{namespace:<12} {bucket['entries']:>8} entries "
                f"{bucket['bytes']:>12} bytes"
            )
        return 0

    max_age_seconds = (
        args.max_age_days * 86400.0 if args.max_age_days is not None else None
    )
    report = store.gc(
        max_bytes=args.max_bytes,
        max_age_seconds=max_age_seconds,
        dry_run=args.dry_run,
    )
    record = report.as_dict()
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    verb = "would evict" if args.dry_run else "evicted"
    print(
        f"# store {store.root}: {verb} {record['evicted']} entries "
        f"({record['evicted_bytes']} bytes), kept {record['kept']} "
        f"({record['kept_bytes']} bytes)"
    )
    for namespace, bucket in sorted(record["by_namespace"].items()):
        print(
            f"{namespace:<12} {verb} {bucket['evicted']:>6} "
            f"({bucket['evicted_bytes']} bytes), kept {bucket['kept']}"
        )
    return 0


# ----------------------------------------------------------------------
# fetch-detect serve / submit — the persistent detection service
# ----------------------------------------------------------------------

def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """The service knobs shared by ``serve`` and ``submit``."""
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help=(
            "service shards: each a worker thread whose named detections run "
            "in its own child process, so N shards use N cores (default: 2)"
        ),
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        metavar="N",
        help="max binaries queued or running at once; 0 = unbounded (default: 256)",
    )
    parser.add_argument(
        "--backpressure",
        choices=("block", "reject"),
        default="block",
        help=(
            "what a full queue does to a submission: admit entries as "
            "capacity frees (block) or refuse the whole batch (reject)"
        ),
    )
    parser.add_argument("--store", nargs="?", const="", default=None, metavar="DIR")
    parser.add_argument("--no-store", action="store_true")
    _add_faults_argument(parser)


def _make_service(args: argparse.Namespace):
    from repro.service import DetectionService

    return DetectionService(
        workers=max(1, args.workers),
        queue_limit=max(0, args.queue_limit),
        backpressure=args.backpressure,
        store=_resolve_store(args),
    )


def _parse_endpoint(value: str, parser: argparse.ArgumentParser, flag: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"{flag} expects HOST:PORT, got {value!r}")
    return host, int(port)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetch-detect serve",
        description=(
            "Run the persistent detection service over a stdin/stdout "
            "JSON-lines protocol (one request per input line, one event per "
            "output line; see repro.service.protocol for the schema), or — "
            "with --tcp HOST:PORT — as a multi-client network server "
            "(one session per connection, same protocol on every line)."
        ),
    )
    parser.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="serve many concurrent clients on a TCP socket (PORT 0 = ephemeral)",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="require a shared-token handshake ({'op': 'auth', ...}) per connection",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close a TCP connection after this long without a request",
    )
    parser.add_argument(
        "--submit-quota",
        type=int,
        default=0,
        metavar="N",
        help="max submissions per connection; 0 = unlimited (default)",
    )
    parser.add_argument(
        "--max-line-bytes",
        type=int,
        default=None,
        metavar="N",
        help="reject request lines longer than this (default: 1 MiB)",
    )
    _add_service_arguments(parser)
    return parser


def serve_main(argv: list[str]) -> int:
    from repro.service import DEFAULT_MAX_LINE_BYTES, DetectionServer, ServeSession

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    _apply_faults(args, parser)
    if args.tcp is None:
        with _make_service(args) as service:
            return ServeSession(service, sys.stdin, sys.stdout).run()

    host, port = _parse_endpoint(args.tcp, parser, "--tcp")
    with _make_service(args) as service:
        server = DetectionServer(
            service,
            host,
            port,
            auth_token=args.token,
            idle_timeout=args.idle_timeout,
            submit_quota=max(0, args.submit_quota),
            max_line_bytes=args.max_line_bytes or DEFAULT_MAX_LINE_BYTES,
        )
        try:
            host, port = server.start()
            print(f"listening on {host}:{port}", flush=True)
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            print("draining: in-flight jobs finish, new submissions refused",
                  file=sys.stderr)
        finally:
            server.shutdown(drain=True)
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetch-detect submit",
        description=(
            "Submit a batch of binaries through the detection service and "
            "stream results as they complete.  The summary reports the "
            "run's cache hit/miss counters: a warm re-submission of an "
            "already-evaluated corpus performs zero detector invocations."
        ),
    )
    parser.add_argument("paths", nargs="+", metavar="binary", help="ELF binaries to analyse")
    parser.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="NAME",
        help="detector(s) to run, repeatable (default: fetch)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "submit to a running 'fetch-detect serve --tcp' server instead "
            "of an in-process service (the service knobs are then ignored)"
        ),
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="shared auth token for --connect",
    )
    _add_service_arguments(parser)
    return parser


def _submit_remote(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``fetch-detect submit --connect``: drive a running TCP server."""
    from repro.service import ServerError, ServiceClient

    host, port = _parse_endpoint(args.connect, parser, "--connect")
    records: list[dict] = []
    errors = 0
    try:
        with ServiceClient.connect(host, port, token=args.token) as client:
            job = client.submit(args.paths, detectors=args.detector)
            for event in client.results(job):
                records.append({key: event[key] for key in event if key != "event"})
                if "error" in event:
                    errors += 1
                    print(
                        f"error: {event['name']} [{event['detector']}]: "
                        f"{event['error']}",
                        file=sys.stderr,
                    )
                elif not args.json:
                    cached = " (cached)" if event.get("cached") else ""
                    print(f"{event['name']}\t{event['detector']}\t"
                          f"{event['count']} starts{cached}")
            stats = {
                key: value
                for key, value in client.stats().items()
                if key != "event"
            }
            summary = client.summary(job) or {}
    except (ConnectionError, TimeoutError, ServerError, OSError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1

    status = 1 if errors else 0
    if args.json:
        print(json.dumps(
            {"results": records, "stats": stats, "status": status},
            indent=2, sort_keys=True,
        ))
        return status
    print(
        f"# job {job}: {summary.get('ok', 0)}/{summary.get('ok', 0) + summary.get('errors', 0)} "
        f"units ok, {sum(1 for r in records if r.get('cached'))} cached (this batch)"
    )
    return status


def submit_main(argv: list[str]) -> int:
    parser = build_submit_parser()
    args = parser.parse_args(argv)
    _apply_faults(args, parser)
    for name in args.detector or ():
        try:
            detector_info(name)
        except KeyError as error:
            parser.error(str(error))
    if args.connect is not None:
        return _submit_remote(args, parser)

    records: list[dict] = []
    errors = 0
    with _make_service(args) as service:
        job = service.submit(args.paths, detectors=args.detector)
        for result in job.results():
            record = {
                "name": result.name,
                "detector": result.detector,
                "cached": result.cached,
                "count": len(result.function_starts),
                "function_starts": list(result.function_starts),
                "seconds": round(result.seconds, 6),
                "error": result.error,
            }
            records.append(record)
            if not result.ok:
                errors += 1
                print(f"error: {result.name} [{result.detector}]: {result.error}",
                      file=sys.stderr)
            elif not args.json:
                cached = " (cached)" if result.cached else ""
                print(
                    f"{result.name}\t{result.detector}\t"
                    f"{len(result.function_starts)} starts{cached}"
                )
        stats = service.stats()

    status = 1 if errors else 0
    if args.json:
        print(json.dumps(
            {"results": records, "stats": stats, "status": status},
            indent=2, sort_keys=True,
        ))
        return status

    done, total = job.progress()
    print(
        f"# job {job.job_id}: {done - errors}/{total} units ok, "
        f"{stats['cache_hits']} cached, {stats['detector_runs']} detector runs"
    )
    store_stats = stats.get("store")
    if store_stats is not None:
        print(
            "# store: "
            f"{store_stats.get('detection_hits', 0)} detection hits, "
            f"{store_stats.get('detection_misses', 0)} misses"
        )
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
