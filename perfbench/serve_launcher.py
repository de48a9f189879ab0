"""Run the public ``fetch-detect`` entry point, optionally under tracing.

    python3 perfbench/serve_launcher.py [--trace] serve --tcp HOST:PORT ...

With ``--trace``, a daemon thread reads one command per stdin line before
the server starts: ``on``/``off`` install/remove the :class:`layers.Tracer`
wrappers (answering ``on``/``off``), and ``dump`` answers one JSON line with
the tracer snapshot plus the raw decodes made while tracing was on.  The
load generator switches tracing only between blocks, while the server is
idle, so each snapshot covers exactly the traced blocks.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402


def _control(tracer: layers.Tracer) -> None:
    from repro.x86.disassembler import DECODE_STATS

    decodes = 0
    mark = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "on":
            tracer.install()
            mark = DECODE_STATS.raw_decodes
        elif command == "off":
            tracer.uninstall()
            decodes += DECODE_STATS.raw_decodes - mark
        elif command == "dump":
            snapshot = tracer.snapshot()
            snapshot["counts"]["x86.raw_decodes"] = decodes
            command = json.dumps(snapshot)
        print(command, flush=True)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        threading.Thread(
            target=_control, args=(layers.Tracer(),), name="trace-control", daemon=True
        ).start()
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
