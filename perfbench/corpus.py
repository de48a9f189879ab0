"""Seeded benchmark inputs: ELF files plus their ground truth.

Run as a script, this builds the self-built corpus for one seed and writes
one ``<index>.elf`` per binary and a ``manifest.json`` next to them::

    PYTHONPATH=src python3 perfbench/corpus.py --seed 7 --scale 0.35 --out DIR

Generation runs in its own process so that neither its peak memory nor its
objects end up in the measuring process.  The measuring side loads the
manifest with :func:`load`, which returns plain bytes and frozensets only:
no parsed corpus objects stay alive to be walked by full GC passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: programs per project, relative to the paper's Table II mix: more distinct
#: binaries per seed make a seed's median latency closer to every other's
PROGRAMS_FACTOR = 4


@dataclass(frozen=True)
class Truth:
    """The ground truth fields ``repro.eval.metrics.compute_metrics`` reads."""

    name: str
    function_starts: frozenset
    cold_part_starts: frozenset


@dataclass(frozen=True)
class Binary:
    """One generated input: its file, bytes, ground truth and opt level."""

    index: int
    name: str
    path: str
    data: bytes
    truth: Truth
    opt_level: str


def _plans(seed: int, scale: float):
    """The self-built corpus grid (Table II projects x 2 compilers x 4 opt
    levels), with :data:`PROGRAMS_FACTOR` times the programs per project.

    As in ``repro.synth.corpus.build_selfbuilt_corpus``, ``scale`` shrinks
    program counts and function counts.  Unlike it, each program's function
    count is fixed by its place in the grid (evenly spaced quantiles of the
    planner's own +-25% normal spread), and only the program content comes
    from ``seed``: every seed then has the same mix of sizes, so a seed's
    median latency differs from another's by content, not by luck of size.
    """
    from dataclasses import replace
    from statistics import NormalDist

    from repro.synth.corpus import SELFBUILT_PROJECTS
    from repro.synth.profiles import CompilerFamily, OptLevel, default_profile
    from repro.synth.workloads import plan_program

    spread = NormalDist(1.0, 0.25)
    for project in SELFBUILT_PROJECTS:
        programs = max(1, round(project.programs * PROGRAMS_FACTOR * scale))
        traits = replace(
            project.traits, mean_functions=max(20, int(project.traits.mean_functions * scale))
        )
        for index in range(programs):
            count = max(
                12, round(traits.mean_functions * spread.inv_cdf((index + 0.5) / programs))
            )
            for compiler in CompilerFamily:
                for level in OptLevel:
                    name = f"{project.name}-{index}:{compiler.value}:{level.value}"
                    yield plan_program(
                        name,
                        default_profile(compiler, level),
                        seed=f"{seed}:{name}",
                        traits=traits,
                        function_count=count,
                    )


def generate(seed: int, scale: float, out: Path, limit: int | None) -> None:
    from repro.synth.compiler import compile_program

    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for index, plan in enumerate(_plans(seed, scale)):
        if limit is not None and index >= limit:
            break
        binary = compile_program(plan, keep_elf_bytes=True)
        path = out / f"{index}.elf"
        path.write_bytes(binary.elf_bytes)
        truth = binary.ground_truth
        entries.append(
            {
                "name": binary.name,
                "file": path.name,
                "opt_level": plan.profile.opt_level.value,
                "starts": sorted(truth.function_starts),
                "cold": sorted(truth.cold_part_starts),
            }
        )
    (out / "manifest.json").write_text(json.dumps(entries))


def build(seed: int, scale: float, out: Path, limit: int | None = None) -> list[Binary]:
    """Generate the corpus for ``seed`` in a child process and load it."""
    import subprocess

    command = [
        sys.executable, str(Path(__file__)), "--seed", str(seed),
        "--scale", str(scale), "--out", str(out),
    ]
    if limit is not None:
        command += ["--limit", str(limit)]
    subprocess.run(command, check=True, env=child_env())
    return load(out)


def load(directory: Path) -> list[Binary]:
    entries = json.loads((directory / "manifest.json").read_text())
    binaries = []
    for index, entry in enumerate(entries):
        path = directory / entry["file"]
        binaries.append(
            Binary(
                index=index,
                name=entry["name"],
                path=str(path),
                data=path.read_bytes(),
                truth=Truth(
                    entry["name"], frozenset(entry["starts"]), frozenset(entry["cold"])
                ),
                opt_level=entry["opt_level"],
            )
        )
    return binaries


def child_env() -> dict[str, str]:
    """The environment for child processes: the repository's ``src`` first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args()
    generate(args.seed, args.scale, args.out, args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
