"""x86-64 instruction decoder.

The decoder understands the instruction subset produced by
:class:`repro.x86.assembler.Assembler` plus the most common encodings found in
compiler output, and fails loudly (:class:`DecodeError`) on anything else.
That failure mode is load-bearing: the function-pointer validation of the
FETCH pipeline (§IV-E of the paper) treats "invalid opcode" as evidence that a
candidate pointer is not a function start.

Decoding is table-driven: a flat 256-entry dispatch table (plus a second one
for the ``0F`` two-byte map) is built once at import, and each entry is a
closure that reads its operands directly off the buffer with
``int.from_bytes`` — no cursor object, no per-byte method calls — and
returns through one instruction builder, :func:`_new`.  The batch entry
point :func:`decode_block` holds the only prefix scan: it decodes a run of
sequential instructions in one call and fills the shared per-address cache
in bulk, and :func:`decode_instruction` is a one-instruction
``decode_block`` behind a cache probe.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping

from repro.x86.instruction import (
    _F_CALL,
    _F_INDIRECT,
    _F_NOP,
    _F_PADDING,
    _F_TERMINATOR,
    _F_UNCOND_JUMP,
    _MNEMONIC_FLAGS,
    CONDITION_CODES,
    Instruction,
)
from repro.x86.operands import Imm, Mem
from repro.x86.registers import GPR64, Register

_MAX_INSTRUCTION_LENGTH = 15

#: Cache type accepted by the decode entry points: address -> decoded
#: instruction, or ``None`` for a remembered decode failure.
DecodeCacheMap = MutableMapping[int, "Instruction | None"]


class _DecodeStats:
    """Process-wide decode-work counter (see :data:`DECODE_STATS`)."""

    __slots__ = ("raw_decodes",)

    def __init__(self) -> None:
        self.raw_decodes = 0


#: Counts every raw (non-memoized) instruction decode performed in this
#: process.  Deterministic, unlike wall-clock time, which makes it the
#: benchmark-grade measure of how much decode work a cache actually saved.
#: The increment is unsynchronized, so readings taken around multi-threaded
#: regions (the detection service's workers) are approximate;
#: :class:`repro.eval.executor.ProcessPool` folds each child's per-task count
#: back into the parent, so readings around process-pool work are exact.
DECODE_STATS = _DecodeStats()

_GROUP1_MNEMONICS = {0: "add", 1: "or", 2: "adc", 3: "sbb", 4: "and", 5: "sub", 6: "xor", 7: "cmp"}
_SHIFT_MNEMONICS = {0: "rol", 1: "ror", 2: "rcl", 3: "rcr", 4: "shl", 5: "shr", 7: "sar"}

#: Registers indexed by their 4-bit encoding number (REX extension folded in).
_REG = GPR64

_from_bytes = int.from_bytes


class DecodeError(ValueError):
    """Raised when bytes cannot be decoded as a supported instruction."""

    def __init__(self, message: str, address: int = 0):
        super().__init__(f"{message} at {address:#x}")
        self.address = address


def _parse_modrm(
    code, pos: int, address: int, rex: int
) -> tuple[int, Register | Mem, int]:
    """Parse a ModRM byte (and SIB/displacement) starting at ``code[pos]``.

    Returns ``(reg_field, rm_operand, next_pos)``.
    """
    n = len(code)
    if pos >= n:
        raise DecodeError("truncated instruction", address)
    modrm = code[pos]
    pos += 1
    mod = modrm >> 6
    reg = ((modrm >> 3) & 0b111) | ((rex & 0b100) << 1)
    rm = modrm & 0b111

    if mod == 0b11:
        return reg, _REG[rm | ((rex & 1) << 3)], pos

    # Mem objects are built through ``__new__`` + direct slot stores: every
    # field combination produced here is valid by construction (the scale is
    # always ``1 << bits`` and the RIP form never carries base/index), so the
    # constructor's validation would only re-check invariants of this parser.
    if rm == 0b101 and mod == 0b00:
        end = pos + 4
        if end > n:
            raise DecodeError("truncated instruction", address)
        mem = Mem.__new__(Mem)
        mem.base = None
        mem.index = None
        mem.scale = 1
        mem.disp = _from_bytes(code[pos:end], "little", signed=True)
        mem.rip_relative = True
        mem.size = 8
        return reg, mem, end

    index: Register | None = None
    scale = 1

    if rm == 0b100:
        if pos >= n:
            raise DecodeError("truncated instruction", address)
        sib = code[pos]
        pos += 1
        scale = 1 << (sib >> 6)
        index_bits = ((sib >> 3) & 0b111) | ((rex & 0b10) << 2)
        if index_bits != 0b100:
            index = _REG[index_bits]
        if (sib & 0b111) == 0b101 and mod == 0b00:
            end = pos + 4
            if end > n:
                raise DecodeError("truncated instruction", address)
            mem = Mem.__new__(Mem)
            mem.base = None
            mem.index = index
            mem.scale = scale
            mem.disp = _from_bytes(code[pos:end], "little", signed=True)
            mem.rip_relative = False
            mem.size = 8
            return reg, mem, end
        base = _REG[(sib & 0b111) | ((rex & 1) << 3)]
    else:
        base = _REG[rm | ((rex & 1) << 3)]

    if mod == 0b00:
        disp = 0
    elif mod == 0b01:
        if pos >= n:
            raise DecodeError("truncated instruction", address)
        disp = code[pos]
        if disp >= 128:
            disp -= 256
        pos += 1
    else:
        end = pos + 4
        if end > n:
            raise DecodeError("truncated instruction", address)
        disp = _from_bytes(code[pos:end], "little", signed=True)
        pos = end
    mem = Mem.__new__(Mem)
    mem.base = base
    mem.index = index
    mem.scale = scale
    mem.disp = disp
    mem.rip_relative = False
    mem.size = 8
    return reg, mem, pos


def _read_i8(code, pos: int, address: int) -> tuple[int, int]:
    if pos >= len(code):
        raise DecodeError("truncated instruction", address)
    value = code[pos]
    return (value - 256 if value >= 128 else value), pos + 1


def _read_i16(code, pos: int, address: int) -> tuple[int, int]:
    end = pos + 2
    if end > len(code):
        raise DecodeError("truncated instruction", address)
    return _from_bytes(code[pos:end], "little", signed=True), end


def _read_i32(code, pos: int, address: int) -> tuple[int, int]:
    end = pos + 4
    if end > len(code):
        raise DecodeError("truncated instruction", address)
    return _from_bytes(code[pos:end], "little", signed=True), end


# ---------------------------------------------------------------------------
# Dispatch tables.  Each handler is called as
#     handler(code, pos, start, address, rex, prefix_66, prefix_f3)
# with ``pos`` just past the opcode byte and ``start`` at the first prefix
# byte; it returns the finished Instruction (whose data spans start..end).
# ``decode_block`` scans the prefixes and resolves the ``0F`` escape itself,
# so ``_DISPATCH[0x0F]`` stays empty.
#
# Every handler returns through :func:`_new`, which fills the slots directly
# instead of running the constructor: each handler statically knows its
# mnemonic's classification flags, which operand (if any) can be a memory
# operand and which immediate (if any) is a code constant, so the
# constructor's flag lookup and operand scan would only recompute them.
# ``tests/test_x86_roundtrip.py`` checks the slots against the constructor.
# ---------------------------------------------------------------------------
_DISPATCH: list = [None] * 256
_DISPATCH_0F: list = [None] * 256

_INSN_NEW = Instruction.__new__


def _new(mnemonic, operands, address, data, osize=8, flags=0, rm=None, const=None, target=None):
    """Build a decoded instruction: the decoder's one construction site.

    ``rm`` is the ModRM operand (a :class:`Mem` sets the memory operand and,
    when RIP-relative, ``rip_target``), ``const`` the 4/8-byte immediate of a
    non-branch instruction and ``target`` a direct branch's destination.
    The decode entry points guarantee ``code`` is ``bytes``, so the
    ``code[start:pos]`` that handlers pass as ``data`` is already final.
    """
    insn = _INSN_NEW(Instruction)
    insn.mnemonic = mnemonic
    insn.operands = operands
    insn.address = address
    insn.data = data
    insn.operand_size = osize
    insn.end = end = address + len(data)
    insn._flags = flags
    insn.branch_target = target
    if rm.__class__ is Mem:
        insn._memory_operand = rm
        if rm.rip_relative:
            rip = insn.rip_target = end + rm.disp
            insn._consts = rip if const is None else (const, rip)
            return insn
    else:
        insn._memory_operand = None
    insn.rip_target = None
    insn._consts = const
    return insn


def _m_simple(mnemonic):
    flags = _MNEMONIC_FLAGS.get(mnemonic, 0)

    def handler(code, pos, start, address, rex, p66, pf3):
        return _new(mnemonic, (), address, code[start:pos], 8, flags)

    return handler


def _m_push_pop_reg(mnemonic, low):
    def handler(code, pos, start, address, rex, p66, pf3):
        return _new(mnemonic, (_REG[low | ((rex & 1) << 3)],), address, code[start:pos])

    return handler


def _m_push_imm(imm_size):
    read = _read_i8 if imm_size == 1 else _read_i32

    def handler(code, pos, start, address, rex, p66, pf3):
        value, pos = read(code, pos, address)
        return _new(
            "push", (Imm(value, imm_size),), address, code[start:pos], 8, 0, None,
            value if imm_size == 4 else None,
        )

    return handler


def _m_alu(mnemonic, load):
    """ALU ``r/m, r`` forms, or ``r, r/m`` forms when ``load``."""

    def handler(code, pos, start, address, rex, p66, pf3):
        # Register-form ModRM (mod == 0b11) is the dominant shape in compiler
        # output and needs none of the SIB/displacement parsing.
        if pos < len(code) and code[pos] >= 0xC0:
            modrm = code[pos]
            pos += 1
            reg = _REG[((modrm >> 3) & 0b111) | ((rex & 0b100) << 1)]
            rm = _REG[(modrm & 0b111) | ((rex & 1) << 3)]
        else:
            reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
            reg = _REG[reg_field]
        return _new(
            mnemonic, (reg, rm) if load else (rm, reg), address, code[start:pos],
            8 if rex & 8 else 4, 0, rm,
        )

    return handler


def _h_lea(code, pos, start, address, rex, p66, pf3):
    reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
    if rm.__class__ is not Mem:
        raise DecodeError("lea with register operand", address)
    return _new("lea", (_REG[reg_field], rm), address, code[start:pos], 8 if rex & 8 else 4, 0, rm)


def _m_group1(imm_size):
    read = _read_i8 if imm_size == 1 else _read_i32

    def handler(code, pos, start, address, rex, p66, pf3):
        if pos < len(code) and code[pos] >= 0xC0:
            modrm = code[pos]
            reg_field = (modrm >> 3) & 0b111
            rm = _REG[(modrm & 0b111) | ((rex & 1) << 3)]
            pos += 1
        else:
            reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
        if p66 and imm_size == 4 and not rex & 8:
            # ``66 81 /r iw``: a 16-bit operation with a 2-byte immediate
            value, pos = _read_i16(code, pos, address)
            return _new(
                _GROUP1_MNEMONICS[reg_field & 0b111], (rm, Imm(value, 2)), address,
                code[start:pos], 2, 0, rm,
            )
        value, pos = read(code, pos, address)
        return _new(
            _GROUP1_MNEMONICS[reg_field & 0b111], (rm, Imm(value, imm_size)), address,
            code[start:pos], 8 if rex & 8 else 4, 0, rm, value if imm_size == 4 else None,
        )

    return handler


def _m_mov_imm(low):
    def handler(code, pos, start, address, rex, p66, pf3):
        if rex & 8:
            pos += 8
            if pos > len(code):
                raise DecodeError("truncated instruction", address)
            value = _from_bytes(code[pos - 8 : pos], "little", signed=True)
            osize = 8
        elif p66:
            # ``66 B8+r iw``: a 16-bit register load with a 2-byte immediate
            value, pos = _read_i16(code, pos, address)
            return _new(
                "mov", (_REG[low | ((rex & 1) << 3)], Imm(value, 2)), address,
                code[start:pos], 2,
            )
        else:
            value, pos = _read_i32(code, pos, address)
            osize = 4
        return _new(
            "mov", (_REG[low | ((rex & 1) << 3)], Imm(value, osize)), address,
            code[start:pos], osize, 0, None, value,
        )

    return handler


def _m_mov_rm_imm(imm_size, error):
    def handler(code, pos, start, address, rex, p66, pf3):
        reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
        if (reg_field & 0b111) != 0:
            raise DecodeError(error, address)
        if imm_size == 1:
            value, pos = _read_i8(code, pos, address)
            size = osize = 1
            const = None
        elif p66 and not rex & 8:
            # ``66 C7 /0 iw``: a 16-bit store with a 2-byte immediate
            value, pos = _read_i16(code, pos, address)
            size = osize = 2
            const = None
        else:
            value, pos = _read_i32(code, pos, address)
            size = 4
            osize = 8 if rex & 8 else 4
            const = value
        return _new("mov", (rm, Imm(value, size)), address, code[start:pos], osize, 0, rm, const)

    return handler


def _h_shift(code, pos, start, address, rex, p66, pf3):
    reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
    mnemonic = _SHIFT_MNEMONICS.get(reg_field & 0b111)
    if mnemonic is None:
        raise DecodeError("unsupported shift extension", address)
    value, pos = _read_i8(code, pos, address)
    return _new(mnemonic, (rm, Imm(value, 1)), address, code[start:pos], 8 if rex & 8 else 4, 0, rm)


def _m_rel(mnemonic, width):
    """Direct branch with a ``width``-byte (1 or 4) relative displacement."""
    flags = _MNEMONIC_FLAGS.get(mnemonic, 0)
    read = _read_i8 if width == 1 else _read_i32

    def handler(code, pos, start, address, rex, p66, pf3):
        rel, pos = read(code, pos, address)
        target = address + (pos - start) + rel
        data = code[start:pos]
        return _new(mnemonic, (Imm(target, 8),), address, data, 8, flags, None, None, target)

    return handler


_RET_FLAGS = _MNEMONIC_FLAGS["ret"]


def _h_ret_imm(code, pos, start, address, rex, p66, pf3):
    end = pos + 2
    if end > len(code):
        raise DecodeError("truncated instruction", address)
    imm = Imm(code[pos] | (code[pos + 1] << 8), 2)
    return _new("ret", (imm,), address, code[start:end], 8, _RET_FLAGS)


#: ``FF /n`` forms: extension -> (mnemonic, uses operand size, flags).  The
#: ``call``/``jmp`` forms always take a register or memory operand, so their
#: flags carry ``_F_INDIRECT`` statically.
_FF_GROUP = {
    0: ("inc", True, 0),
    1: ("dec", True, 0),
    2: ("call", False, _F_CALL | _F_INDIRECT),
    4: ("jmp", False, _F_UNCOND_JUMP | _F_TERMINATOR | _F_INDIRECT),
    6: ("push", False, 0),
}


def _h_group_ff(code, pos, start, address, rex, p66, pf3):
    reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
    entry = _FF_GROUP.get(reg_field & 0b111)
    if entry is None:
        raise DecodeError("unsupported FF extension", address)
    mnemonic, uses_osize, flags = entry
    osize = (8 if rex & 8 else 4) if uses_osize else 8
    return _new(mnemonic, (rm,), address, code[start:pos], osize, flags, rm)


#: ``F3 0F 1E`` ModRM byte -> mnemonic.
_ENDBR = {0xFA: "endbr64", 0xFB: "endbr32"}


def _h_endbr(code, pos, start, address, rex, p66, pf3):
    if not pf3:
        # Without the F3 prefix this is not an ENDBR encoding at all.
        raise DecodeError("unsupported opcode 0f 0x1e", address)
    if pos >= len(code):
        raise DecodeError("truncated instruction", address)
    mnemonic = _ENDBR.get(code[pos])
    if mnemonic is None:
        raise DecodeError("unsupported F3 0F 1E form", address)
    return _new(mnemonic, (), address, code[start : pos + 1], 8, _MNEMONIC_FLAGS.get(mnemonic, 0))


_NOP_FLAGS = _F_NOP | _F_PADDING


def _h_long_nop(code, pos, start, address, rex, p66, pf3):
    pos = _parse_modrm(code, pos, address, rex)[2]
    return _new("nop", (), address, code[start:pos], 8, _NOP_FLAGS)


def _build_dispatch() -> None:
    for op in range(0x50, 0x58):
        _DISPATCH[op] = _m_push_pop_reg("push", op - 0x50)
    for op in range(0x58, 0x60):
        _DISPATCH[op] = _m_push_pop_reg("pop", op - 0x58)
    _DISPATCH[0x68] = _m_push_imm(4)
    _DISPATCH[0x6A] = _m_push_imm(1)
    for op, name in {
        0x01: "add", 0x09: "or", 0x21: "and", 0x29: "sub",
        0x31: "xor", 0x39: "cmp", 0x85: "test", 0x89: "mov",
    }.items():
        _DISPATCH[op] = _m_alu(name, load=False)
    for op, name in {0x03: "add", 0x2B: "sub", 0x33: "xor", 0x3B: "cmp", 0x8B: "mov"}.items():
        _DISPATCH[op] = _m_alu(name, load=True)
    _DISPATCH[0x8D] = _h_lea
    _DISPATCH[0x63] = _m_alu("movsxd", load=True)
    _DISPATCH[0x81] = _m_group1(4)
    _DISPATCH[0x83] = _m_group1(1)
    for op in range(0xB8, 0xC0):
        _DISPATCH[op] = _m_mov_imm(op - 0xB8)
    _DISPATCH[0xC7] = _m_mov_rm_imm(4, "unsupported C7 extension")
    _DISPATCH[0xC6] = _m_mov_rm_imm(1, "unsupported C6 extension")
    _DISPATCH[0xC1] = _h_shift
    _DISPATCH[0xE8] = _m_rel("call", 4)
    _DISPATCH[0xE9] = _m_rel("jmp", 4)
    _DISPATCH[0xEB] = _m_rel("jmp", 1)
    for op in range(0x70, 0x80):
        _DISPATCH[op] = _m_rel(CONDITION_CODES[op - 0x70], 1)
    _DISPATCH[0xC3] = _m_simple("ret")
    _DISPATCH[0xC2] = _h_ret_imm
    _DISPATCH[0xFF] = _h_group_ff
    _DISPATCH[0x90] = _m_simple("nop")
    _DISPATCH[0xC9] = _m_simple("leave")
    _DISPATCH[0xCC] = _m_simple("int3")
    _DISPATCH[0xF4] = _m_simple("hlt")

    _DISPATCH_0F[0x05] = _m_simple("syscall")
    _DISPATCH_0F[0x0B] = _m_simple("ud2")
    _DISPATCH_0F[0x1E] = _h_endbr
    _DISPATCH_0F[0x1F] = _h_long_nop
    for op in range(0x80, 0x90):
        _DISPATCH_0F[op] = _m_rel(CONDITION_CODES[op - 0x80], 4)
    _DISPATCH_0F[0xAF] = _m_alu("imul", load=True)
    for op in (0xB6, 0xB7):
        _DISPATCH_0F[op] = _m_alu("movzx", load=True)
    for op in (0xBE, 0xBF):
        _DISPATCH_0F[op] = _m_alu("movsx", load=True)


_build_dispatch()

_MISSING = object()


def decode_instruction(
    code,
    offset: int = 0,
    address: int = 0,
    cache: DecodeCacheMap | None = None,
) -> Instruction:
    """Decode a single instruction starting at ``code[offset]``.

    ``address`` is the virtual address of the instruction and is used to
    compute absolute targets of relative branches.

    ``cache`` memoizes decodes by virtual address: decoding the same address
    twice (from the same image, which every caller guarantees) returns the
    stored :class:`Instruction`, and a stored ``None`` raises
    :class:`DecodeError` again.  A shared cache — typically owned by a
    :class:`repro.core.context.AnalysisContext` — is what lets many detectors
    run over one binary without re-decoding every byte.  A miss is a
    one-instruction :func:`decode_block`.

    Raises:
        DecodeError: for unsupported opcodes or truncated input; its
            ``address`` names the instruction, its message no specific cause.
    """
    if cache is not None:
        hit = cache.get(address, _MISSING)
        if hit is not _MISSING:
            if hit is None:
                raise DecodeError("undecodable bytes", address)
            return hit
    block, _failed = decode_block(code, offset, address, 1, cache=cache)
    if not block:
        raise DecodeError("undecodable bytes", address)
    return block[0]


def decode_block(
    code,
    offset: int = 0,
    address: int = 0,
    count: int = 64,
    *,
    cache: DecodeCacheMap | None = None,
    stop_flags: int = 0,
) -> tuple[list[Instruction], bool]:
    """Decode up to ``count`` sequential instructions starting at
    ``code[offset]``.

    ``address`` is the virtual address of ``code[offset]``.  This is the batch
    entry point for cold-path cache filling: one call decodes a run of
    instructions and stores each into ``cache`` (failures are remembered as
    ``None``, exactly as :func:`decode_instruction` would), without the
    per-instruction call and cache-probe overhead of the single-instruction
    API.  ``code`` may be any buffer (``bytes`` or ``memoryview``).

    Decoding stops at the first undecodable address (fresh failure or cached
    one), at a previously-cached failure, at the end of the buffer, after
    ``count`` instructions, or after an instruction whose classification bits
    intersect ``stop_flags``; the span cache passes ``_F_TERMINATOR |
    _F_CALL`` so spans end wherever the recursive traversal can break a
    fall-through run.

    Returns ``(instructions, stopped_on_error)``; the flag distinguishes a
    stop caused by an undecodable address from the other stop conditions so
    callers like :func:`decode_range` can act on the failure without a second
    decode attempt.
    """
    if code.__class__ is not bytes:
        # Handlers slice instruction bytes straight out of ``code``, so it
        # must be ``bytes`` (the conversion is free for the common case).
        code = bytes(code)
    out: list[Instruction] = []
    n = len(code)
    base = address - offset
    pos = offset
    stats = DECODE_STATS
    dispatch = _DISPATCH
    dispatch_0f = _DISPATCH_0F
    get = cache.get if cache is not None else None
    while count > 0 and pos < n:
        va = base + pos
        if get is not None:
            hit = get(va, _MISSING)
            if hit is None:
                return out, True
        else:
            hit = _MISSING
        if hit is _MISSING:
            stats.raw_decodes += 1
            try:
                # The decoder's one prefix scan, inline: a per-instruction
                # call frame is measurable at this volume.
                ipos = pos
                rex = 0
                p66 = False
                pf3 = False
                while True:
                    if ipos >= n:
                        raise DecodeError("empty input", va)
                    byte = code[ipos]
                    if byte == 0x66:
                        p66 = True
                        ipos += 1
                    elif byte == 0xF2 or byte == 0xF3:
                        pf3 = byte == 0xF3
                        ipos += 1
                    elif 0x40 <= byte <= 0x4F:
                        rex = byte
                        ipos += 1
                        if ipos >= n:
                            raise DecodeError("truncated instruction", va)
                        break
                    else:
                        break
                    if ipos - pos > 4:
                        raise DecodeError("too many prefixes", va)
                opcode = code[ipos]
                if opcode == 0x0F:
                    ipos += 1
                    if ipos >= n:
                        raise DecodeError("truncated instruction", va)
                    opcode2 = code[ipos]
                    handler = dispatch_0f[opcode2]
                    if handler is None:
                        raise DecodeError(f"unsupported opcode 0f {opcode2:#04x}", va)
                else:
                    handler = dispatch[opcode]
                    if handler is None:
                        raise DecodeError(f"unsupported opcode {opcode:#04x}", va)
                insn = handler(code, ipos + 1, pos, va, rex, p66, pf3)
                if len(insn.data) > _MAX_INSTRUCTION_LENGTH:
                    raise DecodeError("instruction exceeds 15 bytes", va)
            except DecodeError:
                if cache is not None:
                    cache[va] = None
                return out, True
            if cache is not None:
                cache[va] = insn
        else:
            insn = hit
        out.append(insn)
        pos = insn.end - base
        count -= 1
        if stop_flags and insn._flags & stop_flags:
            break
    return out, False


def decode_range(
    code,
    address: int,
    start: int = 0,
    end: int | None = None,
    *,
    stop_on_error: bool = True,
    cache: DecodeCacheMap | None = None,
) -> Iterator[Instruction]:
    """Linearly decode instructions from ``code[start:end]``.

    ``address`` is the virtual address of ``code[0]``.  With
    ``stop_on_error=False`` an undecodable byte is emitted as a one-byte
    ``(bad)`` instruction and decoding continues at the next byte, which is
    the behaviour linear-sweep style baselines rely on.  ``cache`` memoizes
    per-address decodes exactly as in :func:`decode_instruction`; the
    synthetic ``(bad)`` placeholders are never cached.  Decoding proceeds in
    :func:`decode_block` batches.
    """
    if code.__class__ is not bytes:
        code = bytes(code)
    limit = len(code) if end is None else min(end, len(code))
    pos = start
    while pos < limit:
        block, errored = decode_block(code, pos, address + pos, 64, cache=cache)
        bad = False
        for insn in block:
            if pos >= limit:
                # Window exhausted mid-block; later block entries (and any
                # trailing decode failure) lie outside the requested range.
                break
            if insn.end - address > limit:
                # Instruction spills past the requested window.
                bad = True
                break
            yield insn
            pos = insn.end - address
        if not bad:
            bad = errored and pos < limit
        if bad:
            if stop_on_error:
                return
            yield Instruction("(bad)", (), address + pos, bytes(code[pos : pos + 1]))
            pos += 1
