"""FETCH reproduction: function detection from exception-handling information.

This library reproduces "Towards Optimal Use of Exception Handling
Information for Function Detection" (Pang et al., DSN 2021).  The most common
entry points:

* :class:`repro.core.FetchDetector` — detect function starts in an x86-64 ELF
  binary using ``.eh_frame`` call frames, safe recursive disassembly,
  function-pointer validation and Algorithm 1.
* :class:`repro.elf.BinaryImage` — load a binary for analysis.
* :mod:`repro.synth` — generate synthetic evaluation corpora with ground
  truth.
* :mod:`repro.baselines` — strategy models of the tools the paper compares
  against.
* :mod:`repro.eval` — runners and renderers for every table and figure of the
  paper's evaluation.
* :mod:`repro.core.registry` — the declarative detector registry every
  consumer looks detectors up in.
* :mod:`repro.store` — the content-addressed artifact store that makes warm
  re-runs of corpora, detections and scenario matrices near-instant.
* :mod:`repro.service` — the persistent detection service: batch submission
  over a long-lived, digest-sharded worker pool with store-backed dedupe.

See ``docs/ARCHITECTURE.md`` for the module-by-module guide and
``docs/EXTENDING.md`` for worked extension examples.
"""

__version__ = "1.1.0"

__all__ = ["FetchDetector", "FetchOptions", "BinaryImage", "ArtifactStore", "__version__"]

#: top-level names loaded on first use, so ``import repro.store`` (or any
#: other subpackage) does not pay for the detection pipeline
_LAZY = {
    "FetchDetector": "repro.core",
    "FetchOptions": "repro.core",
    "BinaryImage": "repro.elf",
    "ArtifactStore": "repro.store",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
