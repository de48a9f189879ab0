"""The runtime imports only the standard library.

``import repro.cli`` runs in a fresh interpreter, and every top-level module
it loaded must be ``repro`` itself, a standard-library module, or one a bare
interpreter already had loaded (site ``.pth`` hooks such as
``_distutils_hack``).  A third-party import would cost every CLI, server and
evaluator process its import time and memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: top-level names in ``sys.modules``, leaving out ``multiprocessing``'s
#: ``__mp_main__`` alias of ``__main__``
_TOP_LEVEL = (
    "import json, sys; main = sys.modules['__main__']; "
    "print(json.dumps(sorted({n.partition('.')[0] for n, m in sys.modules.items() "
    "if m is not main or n == '__main__'})))"
)


def _top_level_modules(prelude: str) -> set[str]:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    output = subprocess.run(
        [sys.executable, "-c", prelude + _TOP_LEVEL],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return set(json.loads(output))


def test_cli_import_loads_no_third_party_module():
    bare = _top_level_modules("")
    loaded = _top_level_modules("import repro.cli; ")
    foreign = loaded - bare - set(sys.stdlib_module_names) - {"repro"}
    assert not foreign, f"import repro.cli loaded non-stdlib modules: {sorted(foreign)}"
