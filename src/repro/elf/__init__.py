"""ELF-64 reading and writing substrate.

Provides a writer (:func:`~repro.elf.writer.write_elf`) used by the synthetic
compiler, a reader (:func:`~repro.elf.reader.read_elf`), and the
:class:`~repro.elf.image.BinaryImage` facade that the detection and analysis
layers consume.
"""

from repro.elf.structs import ElfFile, Section, Symbol
from repro.elf.reader import ElfParseError, read_elf, read_elf_file
from repro.elf.image import BinaryImage

__all__ = [
    "ElfFile",
    "Section",
    "Symbol",
    "ElfParseError",
    "read_elf",
    "read_elf_file",
    "BinaryImage",
]
