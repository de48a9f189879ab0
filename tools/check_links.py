#!/usr/bin/env python3
"""Markdown link checker for the docs CI job.

Scans markdown files for inline links and validates, without any network
access:

* relative file links resolve to an existing file (relative to the file
  containing the link);
* intra-document anchors (``#section``) and anchors on relative links
  (``OTHER.md#section``) match a heading in the target document, using
  GitHub's heading→anchor slug rules;
* absolute ``http(s)``/``mailto`` links are accepted without fetching;
* every backticked dotted ``repro.…`` code name resolves by import plus
  ``getattr`` against the repository's own ``src/`` tree, which the
  checker puts on ``sys.path`` itself, so it runs before the package is
  installed.

Usage::

    python tools/check_links.py README.md EXPERIMENTS.md docs/*.md

Exits non-zero listing every broken link or unresolved name, so doc
snippets referencing moved or renamed files or modules fail loudly in CI.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: inline markdown links: [text](target) — images share the syntax
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_CODE_FENCE = re.compile(r"^(```|~~~)")
#: a backticked dotted name in the package's namespace: `repro.core.pipeline`
_CODE_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def _slugify(heading: str) -> str:
    """GitHub's heading → anchor rule: lowercase, strip punctuation, dashes."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            anchors.add(_slugify(match.group(1)))
    return anchors


def _matches(path: Path, pattern: re.Pattern) -> list[tuple[int, str]]:
    """(line number, first group) of every match outside code fences."""
    found: list[tuple[int, str]] = []
    in_fence = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        found.extend((number, match.group(1)) for match in pattern.finditer(line))
    return found


def _resolves(name: str) -> bool:
    """Whether a dotted name is a module or an attribute reachable from one."""
    parts = name.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for depth, part in enumerate(parts[1:], 2):
            if hasattr(obj, part):
                obj = getattr(obj, part)
            else:
                obj = importlib.import_module(".".join(parts[:depth]))
    except ImportError:
        return False
    return True


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    for line_number, target in _matches(path, _LINK):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        resolved = path if not base else (path.parent / base).resolve()
        if base and not resolved.exists():
            problems.append(f"{path}:{line_number}: broken link target {target!r}")
            continue
        if fragment and resolved.suffix.lower() in (".md", ""):
            if resolved.is_file() and fragment not in _anchors(resolved):
                problems.append(
                    f"{path}:{line_number}: no heading for anchor {target!r}"
                )
    for line_number, name in _matches(path, _CODE_NAME):
        if not _resolves(name):
            problems.append(f"{path}:{line_number}: unresolved code name {name!r}")
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    problems: list[str] = []
    checked = 0
    for name in argv:
        path = Path(name)
        if not path.is_file():
            problems.append(f"{path}: no such file")
            continue
        checked += 1
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {checked} file(s): {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
