"""What each entry point imports, checked in a fresh interpreter.

``import repro.cli`` must load only ``repro`` itself, standard-library
modules, or ones a bare interpreter already had loaded (site ``.pth`` hooks
such as ``_distutils_hack``): a third-party import would cost every CLI,
server and evaluator process its import time and memory.

Each entry point also loads only the ``repro`` modules it runs.  A FETCH
detection never touches the store, the service, the evaluation stack, the
synthesizer or the baseline models; Table III never loads the synthesizer;
the CLI and the server load no baseline model.  And no first import happens
on a worker or session thread: two threads importing at once can deadlock
on the import locks.
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
#: the loaded ``repro`` modules, as one JSON line
_REPRO_MODULES = (
    "import json, sys; "
    "print(json.dumps(sorted(n for n in sys.modules if n.partition('.')[0] == 'repro')))"
)

#: the three imports of the detect-cold set-up in ``perfbench/setup_probe.py``
_DETECTION_IMPORTS = (
    "from repro.elf.image import BinaryImage; "
    "from repro.core.context import AnalysisContext; "
    "from repro.core.pipeline import FetchDetector; "
)


def _run(code: str, *args: str):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    output = subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return json.loads(output)


def _under(modules, *packages: str) -> list[str]:
    return sorted(
        name for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    )


def test_cli_import_loads_no_third_party_module():
    bare = set(_run(_TOP_LEVEL))
    loaded = set(_run("import repro.cli; " + _TOP_LEVEL))
    foreign = loaded - bare - set(sys.stdlib_module_names) - {"repro"}
    assert not foreign, f"import repro.cli loaded non-stdlib modules: {sorted(foreign)}"


def test_fetch_detection_loads_only_the_detection_layers(tmp_path, plain_binary):
    path = tmp_path / "plain.elf"
    path.write_bytes(plain_binary.elf_bytes)
    loaded = _run(
        _DETECTION_IMPORTS
        + "import sys; image = BinaryImage.from_bytes(open(sys.argv[1], 'rb').read()); "
        "FetchDetector().detect(image, AnalysisContext(image)); "
        + _REPRO_MODULES,
        str(path),
    )
    unused = _under(
        loaded,
        "repro.store", "repro.resilience", "repro.service", "repro.eval",
        "repro.synth", "repro.baselines", "repro.unwind",
        "repro.x86.assembler", "repro.dwarf.encoder", "repro.elf.writer",
    )
    assert not unused, f"a FETCH detection loaded {unused}"


def test_table3_runner_loads_no_synthesizer_or_service():
    loaded = _run("import repro.eval.runner; " + _REPRO_MODULES)
    unused = _under(loaded, "repro.synth", "repro.service")
    assert not unused, f"import repro.eval.runner loaded {unused}"


def test_cli_import_loads_no_baselines_synthesizer_service_or_runner():
    loaded = _run("import repro.cli; " + _REPRO_MODULES)
    unused = _under(
        loaded, "repro.baselines", "repro.synth", "repro.service", "repro.eval.runner"
    )
    assert not unused, f"import repro.cli loaded {unused}"


_SERVICE_UNIT = """
import json, sys
from repro.service.service import DetectionService

service = DetectionService(workers=1)
built = sorted(n for n in sys.modules if n.partition('.')[0] == 'repro')
results = list(service.submit([sys.argv[1]]).results(timeout=60))
service.close()
print(json.dumps({
    "built": built,
    "later": sorted(n for n in sys.modules if n.partition('.')[0] == 'repro' and n not in built),
    "errors": [result.error for result in results],
    "starts": [len(result.function_starts) for result in results],
}))
"""


def test_detection_service_imports_its_request_path_before_its_threads(
    tmp_path, plain_binary
):
    path = tmp_path / "plain.elf"
    path.write_bytes(plain_binary.elf_bytes)
    outcome = _run(_SERVICE_UNIT, str(path))
    assert outcome["errors"] == [None] and outcome["starts"][0] > 0
    unused = _under(outcome["built"], "repro.baselines", "repro.synth", "repro.eval.runner")
    assert not unused, f"DetectionService loaded {unused}"
    # the unit ran on a shard thread: every module it needed was already loaded
    assert outcome["later"] == [], f"first imports after construction: {outcome['later']}"
