"""Corpus builders: the Dataset-1 and Dataset-2 analogues.

``build_selfbuilt_corpus`` mirrors the paper's Dataset 2 (Table II): a set of
projects with distinct traits, each compiled with two compiler profiles at
four optimisation levels.  ``build_wild_corpus`` mirrors Dataset 1 (Table I):
43 software packages, mostly stripped, always carrying ``.eh_frame``.

The corpora are deterministic functions of the seed, so experiments are
reproducible, and scalable via the ``scale`` parameter so tests can run on a
handful of binaries while benchmarks use larger sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.synth.compiler import SyntheticBinary, compile_program
from repro.synth.profiles import (
    CompilerFamily,
    OptLevel,
    WildProfile,
    default_profile,
)
from repro.synth.workloads import SCENARIO_NAMES, WorkloadTraits, plan_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore

#: Version of the synthetic generator pipeline (planner + compiler).  Part of
#: every store corpus key: bump it whenever plan or code generation changes
#: shape, so stale cached corpora are rebuilt instead of reused.
GENERATOR_VERSION = "1"

#: Human-readable descriptions of the scenario matrix rows.
SCENARIO_DESCRIPTIONS: dict[str, str] = {
    "vanilla": "plain ET_EXEC executable with symbols and .eh_frame",
    "pie": "position-independent executable (ET_DYN) with lazy-binding PLT stubs",
    "cet": "CET/IBT instrumented: endbr64 landing pad on every function entry",
    "icf": "identical-code folding: multiple symbols aliasing one body",
    "padded": "-fpatchable-function-entry style NOP-padded function entries",
    "stripped-noeh": "stripped binary with the .eh_frame section removed",
}


@dataclass(frozen=True)
class ProjectSpec:
    """One project of the self-built dataset (a Table II row analogue)."""

    name: str
    category: str
    language: str
    programs: int
    traits: WorkloadTraits


#: Scaled-down analogue of the paper's Table II project list.  Projects that
#: carry hand-written assembly in reality (OpenSSL, glibc, Nginx) are the ones
#: flagged ``has_assembly`` so that FDE coverage gaps concentrate there, as in
#: the paper.
SELFBUILT_PROJECTS: tuple[ProjectSpec, ...] = (
    ProjectSpec("coreutils-like", "Utilities", "C", 4,
                WorkloadTraits(cold_split_multiplier=0.3, mean_functions=60)),
    ProjectSpec("findutils-like", "Utilities", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.3, mean_functions=70)),
    ProjectSpec("binutils-like", "Utilities", "C/C++", 2,
                WorkloadTraits(cold_split_multiplier=1.2, is_cpp=True, mean_functions=140)),
    ProjectSpec("openssl-like", "Client", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.5, has_assembly=True, mean_functions=150)),
    ProjectSpec("busybox-like", "Client", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.4, mean_functions=120)),
    ProjectSpec("zsh-like", "Client", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.5, mean_functions=100)),
    ProjectSpec("openssh-like", "Client", "C", 2,
                WorkloadTraits(cold_split_multiplier=0.4, mean_functions=90)),
    ProjectSpec("git-like", "Client", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.6, mean_functions=130)),
    ProjectSpec("d8-like", "Client", "C++", 1,
                WorkloadTraits(cold_split_multiplier=3.0, is_cpp=True, mean_functions=160)),
    ProjectSpec("mysqld-like", "Server", "C++", 1,
                WorkloadTraits(cold_split_multiplier=3.5, is_cpp=True, mean_functions=170)),
    ProjectSpec("nginx-like", "Server", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.8, has_assembly=True, mean_functions=120)),
    ProjectSpec("lighttpd-like", "Server", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.4, mean_functions=80)),
    ProjectSpec("glibc-like", "Library", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.5, has_assembly=True, mean_functions=150)),
    ProjectSpec("libpcap-like", "Library", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.3, mean_functions=70)),
    ProjectSpec("libxml2-like", "Library", "C", 1,
                WorkloadTraits(cold_split_multiplier=0.5, mean_functions=110)),
    ProjectSpec("libprotobuf-like", "Library", "C++", 1,
                WorkloadTraits(cold_split_multiplier=1.5, is_cpp=True, mean_functions=100)),
    ProjectSpec("spec-cpu-like", "Benchmark", "C/C++", 2,
                WorkloadTraits(cold_split_multiplier=1.0, is_cpp=True, mean_functions=130)),
)


#: Analogue of the paper's Table I (wild binaries).  ``has_symbols`` follows
#: the paper: only 11 of the 43 binaries come with usable symbols.
WILD_SOFTWARE: tuple[WildProfile, ...] = tuple(
    WildProfile(software=name, open_source=open_source, language=lang,
                compiler_note=note, has_eh_frame=True, has_symbols=symbols,
                function_count=count)
    for name, open_source, lang, note, symbols, count in (
        ("Atom-1.49.0", True, "c++", "gcc-7.3.0", False, 260),
        ("Simplenote-1.4.13", True, "c++", "gcc-4.6.3", False, 180),
        ("OpenShot-2.4.4", True, "c", "gcc-4.8.4", False, 140),
        ("seamonkey-2.49.5", True, "c++", "gcc-4.8.5", False, 300),
        ("mupdf-1.16.1", True, "c", "gcc-7.4.0", False, 220),
        ("laverna-0.7.1", True, "c++", "gcc-4.6.3", False, 150),
        ("franz-5.4.0", True, "c++", "gcc-4.6.3", False, 150),
        ("Nightingale-1.12.1", True, "c", "gcc-4.7.2", False, 170),
        ("palemoon-28.8.0", True, "c++", "", False, 280),
        ("evince-3.34.3", True, "c", "", False, 160),
        ("amarok-2.9.0", True, "c", "", False, 190),
        ("deadbeef-1.8.2", True, "c", "", False, 150),
        ("qBittorrent-4.2.5", True, "c++", "", False, 230),
        ("pdftex-3.14159265", True, "c", "", False, 200),
        ("eclipse-4.11", True, "c", "gcc-4.8.5", False, 180),
        ("VS Code-1.40.2", True, "c++", "gcc-7.3.0", False, 260),
        ("VirtualBox-5.2.34", True, "c++", "", True, 280),
        ("gv-3.7.4", True, "c", "", True, 90),
        ("okular-1.3.3", True, "c++", "", True, 210),
        ("gcc-7.5", True, "c", "", True, 320),
        ("wkhtmltopdf-0.12.4", True, "c", "", True, 200),
        ("firefox-78.0.2", True, "c++", "", True, 340),
        ("qemu-system-2.11.1", True, "c", "", True, 300),
        ("ThunderBird-68.10.0", True, "c++", "gcc-6.4.0", True, 320),
        ("Smuxi-Server", True, "c", "gcc-5.3.1", True, 120),
        ("TeamViewer-15.0.8397", False, "c++", "gcc-7.2.0", False, 240),
        ("skype-8.55.0.141", False, "c++", "gcc-7.3.0", False, 260),
        ("trillian-6.1.0.5", False, "c++", "", False, 200),
        ("opera-65.0.3467.69", False, "c++", "gcc-7.3.0", False, 300),
        ("yandex-browser-19.12.3", False, "c++", "gcc-7.3.0", False, 300),
        ("SpiderOakONE-7.5.01", False, "c", "gcc-4.1.2", False, 170),
        ("slack-4.2.0", False, "c++", "gcc-7.3.0", False, 220),
        ("rainlendar2-2.15.2", False, "c++", "gcc-5.4.0", False, 140),
        ("sublime-3211", False, "c++", "gcc-6.3.0", False, 230),
        ("netease-cloud-music-1.2.1", False, "c++", "", False, 210),
        ("wps-11.1.0.8865", False, "c++", "", False, 260),
        ("wpp-11.1.0.8865", False, "c++", "", False, 240),
        ("wpspdf-11.1.0.8865", False, "c++", "", False, 220),
        ("wpsoffice-11.1.0.8865", False, "c++", "", False, 250),
        ("ida64-7.2", False, "c++", "gcc-4.8.2", False, 280),
        ("zoom-7.19.2020", False, "c++", "gcc-4.8.5", False, 260),
        ("binaryninja-1.2", False, "c++", "gcc-5.4.0", True, 270),
        ("FoxitReader-4.4.0911", False, "c++", "gcc-4.8.4", True, 230),
    )
)


def _cached_build(
    store: "ArtifactStore | None",
    kind: str,
    params: dict[str, Any],
    build: Any,
) -> list:
    """Reload the corpus for (``kind``, ``params``) or build and persist it.

    Concurrent processes racing to build the same corpus arbitrate on the
    store's per-key build lock: the loser waits, re-checks the store and
    reloads the winner's corpus instead of rebuilding it.
    """
    if store is None:
        return build()
    params = {**params, "generator_version": GENERATOR_VERSION}
    key = store.corpus_key(kind, params)
    cached = store.load_corpus(key)
    if cached is not None:
        return cached
    with store.build_lock(key):
        if store.has_corpus(key):  # another process built it while we waited
            cached = store.load_corpus(key)
            if cached is not None:
                return cached
        entries = build()
        store.save_corpus(key, kind, params, entries)
    return entries


def build_selfbuilt_corpus(
    *,
    seed: int = 2021,
    scale: float = 1.0,
    compilers: tuple[CompilerFamily, ...] = (CompilerFamily.GCC, CompilerFamily.CLANG),
    opt_levels: tuple[OptLevel, ...] = (OptLevel.O2, OptLevel.O3, OptLevel.OS, OptLevel.OFAST),
    max_binaries: int | None = None,
    projects: tuple[ProjectSpec, ...] = SELFBUILT_PROJECTS,
    store: "ArtifactStore | None" = None,
) -> list[SyntheticBinary]:
    """Build the self-built (Dataset 2) corpus.

    ``scale`` shrinks both the number of programs per project and the mean
    function count, which keeps unit tests fast; the benchmarks use the
    default scale.

    With a ``store``, the built corpus (ELF images, ground truth, plans) is
    persisted under a digest of every build parameter and the generator
    version, and later calls with identical parameters reload it instead of
    re-planning and re-compiling.
    """
    params: dict[str, Any] = {
        "seed": seed,
        "scale": scale,
        "compilers": [compiler.value for compiler in compilers],
        "opt_levels": [level.value for level in opt_levels],
        "max_binaries": max_binaries,
        "projects": projects,
    }

    def build() -> list[SyntheticBinary]:
        binaries: list[SyntheticBinary] = []
        for project in projects:
            program_count = max(1, round(project.programs * scale))
            for program_index in range(program_count):
                traits = project.traits
                if scale < 1.0:
                    traits = WorkloadTraits(
                        cold_split_multiplier=traits.cold_split_multiplier,
                        has_assembly=traits.has_assembly,
                        uses_function_pointers=traits.uses_function_pointers,
                        is_cpp=traits.is_cpp,
                        mean_functions=max(20, int(traits.mean_functions * scale)),
                    )
                for compiler in compilers:
                    for opt_level in opt_levels:
                        profile = default_profile(compiler, opt_level)
                        name = (
                            f"{project.name}-{program_index}:{compiler.value}:{opt_level.value}"
                        )
                        plan = plan_program(
                            name,
                            profile,
                            seed=f"{seed}:{name}",
                            traits=traits,
                        )
                        binaries.append(compile_program(plan, keep_elf_bytes=False))
                        if max_binaries is not None and len(binaries) >= max_binaries:
                            return binaries
        return binaries

    return _cached_build(store, "selfbuilt", params, build)


def build_scenario_corpus(
    scenario: str,
    *,
    seed: int = 2021,
    scale: float = 1.0,
    programs: int = 4,
    compilers: tuple[CompilerFamily, ...] = (CompilerFamily.GCC, CompilerFamily.CLANG),
    opt_levels: tuple[OptLevel, ...] = (OptLevel.O2, OptLevel.O3),
    store: "ArtifactStore | None" = None,
) -> list[SyntheticBinary]:
    """Build one row of the scenario matrix: ``programs`` binaries of one scenario.

    Programs rotate deterministically through the compiler/opt-level grid so
    even a small row mixes toolchain idioms.  ``scale`` shrinks the mean
    function count, as in :func:`build_selfbuilt_corpus`; ``store`` reuses a
    previously built row with identical parameters.
    """
    if scenario not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIO_NAMES}")
    params: dict[str, Any] = {
        "scenario": scenario,
        "seed": seed,
        "scale": scale,
        "programs": programs,
        "compilers": [compiler.value for compiler in compilers],
        "opt_levels": [level.value for level in opt_levels],
    }

    def build() -> list[SyntheticBinary]:
        binaries: list[SyntheticBinary] = []
        for index in range(programs):
            compiler = compilers[index % len(compilers)]
            opt_level = opt_levels[(index // len(compilers)) % len(opt_levels)]
            profile = default_profile(compiler, opt_level)
            traits = WorkloadTraits(
                cold_split_multiplier=1.0,
                uses_function_pointers=True,
                mean_functions=max(20, int(90 * scale)),
            )
            name = f"{scenario}-{index}:{compiler.value}:{opt_level.value}"
            plan = plan_program(
                name,
                profile,
                seed=f"{seed}:scenario:{name}",
                traits=traits,
                scenario=scenario,
            )
            binaries.append(compile_program(plan, keep_elf_bytes=False))
        return binaries

    return _cached_build(store, "scenario", params, build)


def build_scenario_matrix_corpora(
    *,
    seed: int = 2021,
    scale: float = 1.0,
    programs: int = 4,
    scenarios: tuple[str, ...] = SCENARIO_NAMES,
    store: "ArtifactStore | None" = None,
) -> dict[str, list[SyntheticBinary]]:
    """Build the full scenario matrix: ``{scenario: [binaries]}``.

    Each scenario row is cached independently in the ``store``, so widening
    the scenario set only builds the new rows.
    """
    return {
        scenario: build_scenario_corpus(
            scenario, seed=seed, scale=scale, programs=programs, store=store
        )
        for scenario in scenarios
    }


def build_wild_corpus(
    *,
    seed: int = 2021,
    scale: float = 1.0,
    max_binaries: int | None = None,
    store: "ArtifactStore | None" = None,
) -> list[tuple[WildProfile, SyntheticBinary]]:
    """Build the wild (Dataset 1) corpus.

    Returns pairs of the wild profile (Table I row) and the synthetic binary
    standing in for it.  Binaries without symbols are stripped.
    """
    params: dict[str, Any] = {
        "seed": seed,
        "scale": scale,
        "max_binaries": max_binaries,
    }

    def build() -> list[tuple[WildProfile, SyntheticBinary]]:
        results: list[tuple[WildProfile, SyntheticBinary]] = []
        for wild in WILD_SOFTWARE:
            profile = default_profile(CompilerFamily.GCC, OptLevel.O2)
            traits = WorkloadTraits(
                cold_split_multiplier=1.5 if wild.language == "c++" else 0.5,
                is_cpp=wild.language == "c++",
                mean_functions=max(30, int(wild.function_count * scale)),
            )
            plan = plan_program(
                wild.software.replace(" ", "_"),
                profile,
                seed=f"{seed}:wild:{wild.software}",
                traits=traits,
                stripped=not wild.has_symbols,
            )
            results.append((wild, compile_program(plan, keep_elf_bytes=False)))
            if max_binaries is not None and len(results) >= max_binaries:
                break
        return results

    return _cached_build(store, "wild", params, build)
