"""``tools/check_links.py``: docs must name code that exists."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_links.py"


def _check(tmp_path: Path, text: str) -> subprocess.CompletedProcess:
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    # No PYTHONPATH: the checker must find the source tree itself.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(CHECKER), str(doc)],
        capture_output=True, text=True, cwd=tmp_path, env=env, check=False,
    )


def test_real_code_names_pass(tmp_path):
    result = _check(
        tmp_path,
        "`repro.core.pipeline.extract_fde_starts` reads `repro.dwarf.CfaTable` rows.\n",
    )
    assert result.returncode == 0, result.stderr


def test_missing_module_and_attribute_fail(tmp_path):
    result = _check(
        tmp_path,
        "See `repro.no_such_module` and `repro.dwarf.cfa_table.NoSuchName`.\n"
        "```\n`repro.inside_a_fence` is not checked\n```\n",
    )
    assert result.returncode == 1
    assert "'repro.no_such_module'" in result.stderr
    assert "'repro.dwarf.cfa_table.NoSuchName'" in result.stderr
    assert "inside_a_fence" not in result.stderr
