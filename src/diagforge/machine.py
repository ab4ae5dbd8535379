"""A minimal register machine with a quine instruction.

Programs are the coded procedure space of this package: deterministic,
fuel-bounded, and carrying a canonical injective serialization so that every
program is a number and every number decodes back (or fails loudly).

The instruction set is stated once, in `OP_SPECS`: each op's opcode byte,
operand kinds and assembly mnemonic.  `Instruction`, `serialize`,
`deserialize`, `parse_asm` and `format_asm` all read it.

Semantics notes:

- Arithmetic is modulo 2**word_bits; memory addresses are taken modulo
  memory_cells.
- Memory: the input bytes at address 0, every other cell 0, and the cells
  written by STORE and SELF over both.  The interpreter keeps it as that base
  under a dict of writes, so a run allocates nothing of size memory_cells.
- `run` and `run_recording_reads` return `RunOutcome(tag, steps_used)` with
  no final memory or registers; iterating `step` from `initial_config` gives
  every full configuration.
- `SELF(ar, lr)` writes the program's own canonical serialization into memory
  starting at the address held in register ar and puts its length into
  register lr.  This is the operational form of the recursion theorem: the
  serialization is a compile-time constant, so no interpreter trickery is
  needed.
- Running past the final instruction rejects (an implicit reject halt).
- One interpreter: every execution, including `step` and the encoder's
  static walk over known register values, goes through `_execute`; nothing
  else dispatches on an instruction's op to update registers or memory.
- A classifier program answers by halting: accept means SAT, reject means
  UNSAT.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from .errors import DecodeError, InputError, ParseError

MAX_REGISTERS = 8
SERIAL_VERSION = 1

ACCEPT = "ACCEPT"
REJECT = "REJECT"
OUT_OF_FUEL = "OUT_OF_FUEL"

# The instruction set, every op once: op -> (opcode byte, operand kinds,
# assembly mnemonic); operand kinds: "reg" (u8), "const"/"target" (u16)
OP_SPECS: dict[str, tuple[int, tuple[str, ...], str]] = {
    "LOADI": (1, ("reg", "const"), "loadi"),
    "MOV": (2, ("reg", "reg"), "mov"),
    "ADD": (3, ("reg", "reg"), "add"),
    "SUB": (4, ("reg", "reg"), "sub"),
    "LOAD": (5, ("reg", "reg"), "load"),
    "STORE": (6, ("reg", "reg"), "store"),
    "JZ": (7, ("reg", "target"), "jz"),
    "JMP": (8, ("target",), "jmp"),
    "SELF": (9, ("reg", "reg"), "self"),
    "HALT_ACCEPT": (10, (), "accept"),
    "HALT_REJECT": (11, (), "reject"),
}

_OPCODE_TO_OP = {spec[0]: op for op, spec in OP_SPECS.items()}

REGISTER_OPS = ("LOADI", "MOV", "ADD", "SUB")  # no control flow, no memory


@dataclass(frozen=True)
class Instruction:
    op: str
    args: tuple[int, ...] = ()

    def __post_init__(self):
        if self.op not in OP_SPECS:
            raise InputError(f"unknown instruction {self.op!r}")
        kinds = OP_SPECS[self.op][1]
        if len(self.args) != len(kinds):
            raise InputError(
                f"{self.op} takes {len(kinds)} operands, got {len(self.args)}"
            )
        for a in self.args:
            if a < 0:
                raise InputError(f"{self.op}: negative operand {a}")


def LOADI(r, const):
    return Instruction("LOADI", (r, const))


def MOV(r, r2):
    return Instruction("MOV", (r, r2))


def ADD(r, r2):
    return Instruction("ADD", (r, r2))


def SUB(r, r2):
    return Instruction("SUB", (r, r2))


def LOAD(r, addr_reg):
    return Instruction("LOAD", (r, addr_reg))


def STORE(addr_reg, r):
    return Instruction("STORE", (addr_reg, r))


def JZ(r, target):
    return Instruction("JZ", (r, target))


def JMP(target):
    return Instruction("JMP", (target,))


def SELF(dest_addr_reg, len_reg):
    return Instruction("SELF", (dest_addr_reg, len_reg))


HALT_ACCEPT = Instruction("HALT_ACCEPT")
HALT_REJECT = Instruction("HALT_REJECT")


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...]
    register_count: int = 4
    word_bits: int = 16
    memory_cells: int = 65536

    def __post_init__(self):
        # serialize writes the instruction count as a u16 and memory_cells as a u32
        if not 1 <= len(self.instructions) <= 0xFFFF:
            raise InputError(f"program needs 1..65535 instructions, got {len(self.instructions)}")
        if not 1 <= self.register_count <= MAX_REGISTERS:
            raise InputError(f"register_count must be 1..{MAX_REGISTERS}")
        if not 1 <= self.word_bits <= 16:
            raise InputError("word_bits must be 1..16")
        if not 1 <= self.memory_cells <= 0xFFFFFFFF:
            raise InputError(f"memory_cells must be 1..{0xFFFFFFFF}, got {self.memory_cells}")
        limit = 1 << self.word_bits
        n = len(self.instructions)
        for idx, ins in enumerate(self.instructions):
            kinds = OP_SPECS[ins.op][1]
            for kind, a in zip(kinds, ins.args):
                if kind == "reg" and a >= self.register_count:
                    raise InputError(
                        f"instruction {idx}: register r{a} out of range "
                        f"(register_count={self.register_count})"
                    )
                if kind == "const" and a >= limit:
                    raise InputError(
                        f"instruction {idx}: constant {a} exceeds word size"
                    )
                if kind == "target" and a >= n:
                    raise InputError(
                        f"instruction {idx}: jump target {a} outside program"
                    )

    @property
    def word_mask(self) -> int:
        return (1 << self.word_bits) - 1

    @cached_property
    def _decoded(self) -> tuple[tuple[tuple[str, int, int], ...], bytes]:
        """What `_execute` reads, decoded once per program: (code, SELF bytes).

        code[pc] is (op, a, b), the operands padded with 0; one more entry,
        code[len(instructions)], is a HALT_REJECT, because running past the
        last instruction rejects.  The SELF bytes are `serialize(self)`.
        """
        code = tuple(
            (ins.op, *ins.args, *(0,) * (2 - len(ins.args))) for ins in self.instructions
        )
        return code + (("HALT_REJECT", 0, 0),), serialize(self)


@dataclass(frozen=True)
class Config:
    pc: int
    registers: tuple[int, ...]
    memory: tuple[int, ...]


@dataclass(frozen=True)
class Halt:
    accept: bool


@dataclass(frozen=True)
class RunOutcome:
    tag: str
    steps_used: int


def initial_config(program: Program, input_bytes: bytes = b"") -> Config:
    if len(input_bytes) > program.memory_cells:
        raise InputError(
            f"input of {len(input_bytes)} bytes exceeds {program.memory_cells} memory cells"
        )
    memory = list(input_bytes) + [0] * (program.memory_cells - len(input_bytes))
    return Config(0, (0,) * program.register_count, tuple(memory))


def step(program: Program, config: Config) -> Config | Halt:
    """One deterministic step; returns the successor config or a halt signal.

    A step that writes no memory returns `config.memory` itself.  Raises
    InputError on a malformed config, including a register outside
    0..2**word_bits - 1; memory values are not range-checked.
    """
    n = len(program.instructions)
    if not 0 <= config.pc <= n:
        raise InputError(f"pc {config.pc} outside program of {n} instructions")
    if len(config.registers) != program.register_count:
        raise InputError(
            f"{len(config.registers)} registers, program has {program.register_count}"
        )
    if len(config.memory) != program.memory_cells:
        raise InputError(
            f"{len(config.memory)} memory cells, program has {program.memory_cells}"
        )
    mask = program.word_mask
    for r, value in enumerate(config.registers):
        if not 0 <= value <= mask:
            raise InputError(f"register {r} holds {value}, outside 0..{mask}")
    regs = list(config.registers)
    tag, _, pc, writes, _ = _execute(program, config.pc, regs, config.memory, 1)
    if tag != OUT_OF_FUEL:
        return Halt(accept=tag == ACCEPT)
    memory = config.memory
    if writes:
        memory = list(memory)
        for addr, value in writes.items():
            memory[addr] = value
        memory = tuple(memory)
    return Config(pc, tuple(regs), memory)


def run(program: Program, input_bytes: bytes, fuel: int) -> RunOutcome:
    """Simulate up to `fuel` steps with the input loaded at memory address 0.

    Returns (tag, steps_used) only; `step` gives the full configuration.
    """
    outcome, _ = run_recording_reads(program, input_bytes, fuel)
    return outcome


def run_recording_reads(
    program: Program, input_bytes: bytes, fuel: int
) -> tuple[RunOutcome, dict[int, int]]:
    """Like `run`, also returning the initial-memory cells the run read.

    The returned map covers LOAD addresses that were never written earlier in
    the run (by STORE or SELF) mapped to the value observed; exactly the cells
    a CNF encoding must pin for the run to be reproduced.
    """
    if len(input_bytes) > program.memory_cells:
        raise InputError(
            f"input of {len(input_bytes)} bytes exceeds {program.memory_cells} memory cells"
        )
    if fuel < 0:
        raise InputError("fuel must be nonnegative")
    regs = [0] * program.register_count
    tag, steps, _, _, init_reads = _execute(program, 0, regs, input_bytes, fuel)
    return RunOutcome(tag, steps), init_reads


def _execute(
    program: Program, pc: int, regs: list[int], base, fuel: int
) -> tuple[str, int, int, dict[int, int], dict[int, int]]:
    """The interpreter: run from `pc` (at most len(instructions)) for at most `fuel` steps.

    Memory is `base` (a sequence of at most memory_cells values, read-only)
    with cells past its end reading 0, under a dict of the cells written.
    Updates `regs` in place.  Returns (tag, steps_used, pc, writes,
    init_reads): the halt tag or OUT_OF_FUEL, the steps taken (falling off
    the end counts as one), the final pc, the cells STORE and SELF wrote
    mapped to their last value, and the cells LOAD read before any write,
    mapped to the value observed.
    """
    code, self_data = program._decoded
    mask = program.word_mask
    cells = program.memory_cells
    size = len(base)
    writes: dict[int, int] = {}
    init_reads: dict[int, int] = {}

    # loop-body ops first, halts last: they run once per run
    steps = 0
    for steps in range(1, fuel + 1):
        op, a, b = code[pc]
        if op == "JZ":
            pc = b if regs[a] == 0 else pc + 1
        elif op == "LOAD":
            addr = regs[b] % cells
            if addr in writes:
                regs[a] = writes[addr]
            else:
                regs[a] = init_reads[addr] = base[addr] if addr < size else 0
            pc += 1
        elif op == "ADD":
            regs[a] = (regs[a] + regs[b]) & mask
            pc += 1
        elif op == "SUB":
            regs[a] = (regs[a] - regs[b]) & mask
            pc += 1
        elif op == "JMP":
            pc = a
        elif op == "LOADI":
            regs[a] = b & mask
            pc += 1
        elif op == "MOV":
            regs[a] = regs[b]
            pc += 1
        elif op == "STORE":
            writes[regs[a] % cells] = regs[b]
            pc += 1
        elif op == "SELF":
            start = regs[a]
            for j, byte in enumerate(self_data):
                writes[(start + j) % cells] = byte
            regs[b] = len(self_data) & mask
            pc += 1
        elif op == "HALT_ACCEPT":
            return ACCEPT, steps, pc, writes, init_reads
        else:  # HALT_REJECT, or ran past the last instruction
            return REJECT, steps, pc, writes, init_reads
    return OUT_OF_FUEL, steps, pc, writes, init_reads


# Canonical serialization: version u8, register_count u8, word_bits u8,
# memory_cells u32le, instruction count u16le, then per instruction the
# opcode byte followed by operands (registers u8, constants/targets u16le).
# Fixed-width fields make the encoding canonical and self-delimiting.


def serialize(program: Program) -> bytes:
    out = bytearray()
    out.append(SERIAL_VERSION)
    out.append(program.register_count)
    out.append(program.word_bits)
    out += struct.pack("<I", program.memory_cells)
    out += struct.pack("<H", len(program.instructions))
    for ins in program.instructions:
        opcode, kinds, _ = OP_SPECS[ins.op]
        out.append(opcode)
        for kind, a in zip(kinds, ins.args):
            if kind == "reg":
                out.append(a)
            else:
                out += struct.pack("<H", a)
    return bytes(out)


def deserialize(data: bytes) -> Program:
    def need(offset: int, count: int) -> None:
        if offset + count > len(data):
            raise DecodeError(
                f"truncated: need {count} more byte(s)", offset=len(data)
            )

    need(0, 9)
    if data[0] != SERIAL_VERSION:
        raise DecodeError(f"unsupported serialization version {data[0]}", offset=0)
    register_count = data[1]
    word_bits = data[2]
    memory_cells = struct.unpack_from("<I", data, 3)[0]
    count = struct.unpack_from("<H", data, 7)[0]
    pos = 9
    instructions = []
    for _ in range(count):
        need(pos, 1)
        opcode = data[pos]
        op = _OPCODE_TO_OP.get(opcode)
        if op is None:
            raise DecodeError(f"unknown opcode {opcode}", offset=pos)
        pos += 1
        args = []
        for kind in OP_SPECS[op][1]:
            if kind == "reg":
                need(pos, 1)
                args.append(data[pos])
                pos += 1
            else:
                need(pos, 2)
                args.append(struct.unpack_from("<H", data, pos)[0])
                pos += 2
        instructions.append(Instruction(op, tuple(args)))
    if pos != len(data):
        raise DecodeError("trailing bytes after program", offset=pos)
    try:
        return Program(tuple(instructions), register_count, word_bits, memory_cells)
    except InputError as exc:
        raise DecodeError(f"decoded program is ill-formed: {exc}", offset=pos) from exc


# Assembly: one instruction per line, `;` comments, optional `label:` lines,
# directives `.registers N`, `.wordbits N`, `.memory N` before the code.
# Jump targets may be labels or absolute instruction indices.

_MNEMONIC_TO_OP = {spec[2]: op for op, spec in OP_SPECS.items()}


def parse_asm(text: str) -> Program:
    register_count = 4
    word_bits = 16
    memory_cells = 65536
    labels: dict[str, int] = {}
    lines: list[tuple[int, str]] = []

    index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.split(";", 1)[0].strip()
        if not s:
            continue
        if s.startswith("."):
            parts = s.split()
            if len(parts) != 2:
                raise ParseError(f"malformed directive {s!r}", lineno)
            try:
                value = int(parts[1], 0)
            except ValueError:
                raise ParseError(f"malformed directive {s!r}", lineno) from None
            if parts[0] == ".registers":
                register_count = value
            elif parts[0] == ".wordbits":
                word_bits = value
            elif parts[0] == ".memory":
                memory_cells = value
            else:
                raise ParseError(f"unknown directive {parts[0]!r}", lineno)
            continue
        if s.endswith(":"):
            name = s[:-1].strip()
            if not name.isidentifier():
                raise ParseError(f"bad label {name!r}", lineno)
            if name in labels:
                raise ParseError(f"duplicate label {name!r}", lineno)
            labels[name] = index
            continue
        lines.append((lineno, s))
        index += 1

    def operand(tok: str, kind: str, lineno: int) -> int:
        tok = tok.strip()
        if kind == "reg":
            if not tok.startswith("r"):
                raise ParseError(f"expected register, got {tok!r}", lineno)
            try:
                return int(tok[1:])
            except ValueError:
                raise ParseError(f"expected register, got {tok!r}", lineno) from None
        if kind == "target" and tok in labels:
            return labels[tok]
        try:
            return int(tok, 0)
        except ValueError:
            if kind == "target":
                raise ParseError(f"unknown label {tok!r}", lineno) from None
            raise ParseError(f"expected number, got {tok!r}", lineno) from None

    instructions = []
    for lineno, s in lines:
        parts = s.split(None, 1)
        mnemonic = parts[0].lower()
        op = _MNEMONIC_TO_OP.get(mnemonic)
        if op is None:
            raise ParseError(f"unknown mnemonic {parts[0]!r}", lineno)
        kinds = OP_SPECS[op][1]
        raw_args = [a for a in (parts[1].split(",") if len(parts) > 1 else []) if a.strip()]
        if len(raw_args) != len(kinds):
            raise ParseError(
                f"{mnemonic} takes {len(kinds)} operand(s), got {len(raw_args)}", lineno
            )
        args = tuple(operand(a, k, lineno) for a, k in zip(raw_args, kinds))
        try:
            instructions.append(Instruction(op, args))
        except InputError as exc:
            raise ParseError(str(exc), lineno) from None

    try:
        return Program(tuple(instructions), register_count, word_bits, memory_cells)
    except InputError as exc:
        raise ParseError(f"ill-formed program: {exc}") from None


def format_asm(program: Program) -> str:
    """Canonical assembly text (numeric jump targets); parses back to `program`."""
    lines = [
        f".registers {program.register_count}",
        f".wordbits {program.word_bits}",
        f".memory {program.memory_cells}",
    ]
    for ins in program.instructions:
        _, kinds, mnemonic = OP_SPECS[ins.op]
        rendered = [f"r{a}" if k == "reg" else str(a) for k, a in zip(kinds, ins.args)]
        lines.append(("    " + mnemonic + " " + ", ".join(rendered)).rstrip())
    return "\n".join(lines) + "\n"
