"""A minimal register machine with a quine instruction.

Programs are the coded procedure space of this package: deterministic,
fuel-bounded, and carrying a canonical injective serialization so that every
program is a number and every number decodes back (or fails loudly).  A
program compares and hashes as that serialization.

The instruction set is stated once, in `OP_SPECS`: each op's opcode byte,
operand kinds and assembly mnemonic.  `Instruction`, `serialize`,
`deserialize`, `parse_asm` and `format_asm` all read it.

Semantics notes:

- Arithmetic is modulo 2**word_bits; memory addresses are taken modulo
  memory_cells.  LOAD takes a cell's value modulo 2**word_bits too.  A cell
  holds a byte or a word STORE wrote, so only a word narrower than 8 bits
  cuts it, and LOAD masks only then; `step` refuses to load a hand-built
  Config cell past both ranges.
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
  static walk over known register values, goes through `_execute`, which
  runs the program as compiled Python, a region of REGION_PCS pcs at a time,
  each compiled on first entry with its registers in local variables.
  `_effect` and `_exit` state what each op does, once, as the statements
  they emit, and `_successors` where control may go after it; nothing else
  dispatches on an instruction's op to update registers or memory.
- A region emits only the memory bookkeeping its run can observe.  It keeps
  a log of the initial-memory cells LOAD read only in the variant that
  `run_recording_reads`, `step` and the encoder's walk enter, not in the one
  `run` enters; and a LOAD looks for a written cell only in a program whose
  text has a STORE or a SELF.
- A classifier program answers by halting: accept means SAT, reject means
  UNSAT.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DecodeError, InputError, ParseError

MAX_REGISTERS = 8
MAX_INSTRUCTIONS = 0xFFFF  # the u16 count of a program's serialization
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
        if type(self.args) is not tuple:  # a list could change after the checks
            raise InputError(f"{self.op}: operands must be a tuple, got {self.args!r}")
        kinds = OP_SPECS[self.op][1]
        if len(self.args) != len(kinds):
            raise InputError(
                f"{self.op} takes {len(kinds)} operands, got {len(self.args)}"
            )
        for a in self.args:
            # operands are written into compiled source (see `_region`)
            if type(a) is not int:
                raise InputError(f"{self.op}: operand {a!r} is not an int")
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
        # a program is its serialization, cached on first use: nothing may change after it
        if type(self.instructions) is not tuple:
            raise InputError(
                f"instructions must be a tuple, got {type(self.instructions).__name__}"
            )
        for name in ("register_count", "word_bits", "memory_cells"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InputError(f"{name} must be an int, got {value!r}")
        # serialize writes the instruction count as a u16 and memory_cells as a u32
        if not 1 <= len(self.instructions) <= MAX_INSTRUCTIONS:
            raise InputError(
                f"program needs 1..{MAX_INSTRUCTIONS} instructions, got {len(self.instructions)}"
            )
        if not 1 <= self.register_count <= MAX_REGISTERS:
            raise InputError(f"register_count must be 1..{MAX_REGISTERS}")
        if not 1 <= self.word_bits <= 16:
            raise InputError("word_bits must be 1..16")
        if not 1 <= self.memory_cells <= 0xFFFFFFFF:
            raise InputError(f"memory_cells must be 1..{0xFFFFFFFF}, got {self.memory_cells}")
        limit = 1 << self.word_bits
        n = len(self.instructions)
        for idx, ins in enumerate(self.instructions):
            if type(ins) is not Instruction:
                raise InputError(f"instruction {idx}: {ins!r} is not an Instruction")
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
    def _leaders(self) -> frozenset[int]:
        """pc 0, every jump target and every JZ fall-through: where blocks start."""
        leaders = {0}
        for k, ins in enumerate(self.instructions):
            if ins.op == "JZ":
                leaders.add(k + 1)
            if ins.op in ("JZ", "JMP"):
                leaders.add(ins.args[-1])
        return frozenset(leaders)

    @cached_property
    def _serial(self) -> bytes:
        return serialize(self)

    def __eq__(self, other):  # serialization is injective on valid programs
        return self._serial == other._serial if other.__class__ is Program else NotImplemented

    def __hash__(self):
        return hash(self._serial)

    @cached_property
    def _writes_memory(self) -> bool:
        """Whether any instruction writes memory: a STORE or a SELF."""
        return any(ins.op in ("STORE", "SELF") for ins in self.instructions)


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


def _check_input(program: Program, input_bytes: bytes, fuel: int = 0) -> None:
    """Refuse an input that is not bytes or is longer than memory, and fuel
    that is not a nonnegative int: the regions count it down to exactly 0, so
    2.5 would never stop."""
    if type(input_bytes) is not bytes:  # a str or list would run on cells no byte holds
        raise InputError(f"input must be bytes, got {type(input_bytes).__name__}")
    if len(input_bytes) > program.memory_cells:
        raise InputError(
            f"input of {len(input_bytes)} bytes exceeds {program.memory_cells} memory cells"
        )
    if type(fuel) is not int:
        raise InputError(f"fuel must be an int, got {fuel!r}")
    if fuel < 0:
        raise InputError("fuel must be nonnegative")


def initial_config(program: Program, input_bytes: bytes = b"") -> Config:
    _check_input(program, input_bytes)
    memory = list(input_bytes) + [0] * (program.memory_cells - len(input_bytes))
    return Config(0, (0,) * program.register_count, tuple(memory))


def step(program: Program, config: Config) -> Config | Halt:
    """One deterministic step; returns the successor config or a halt signal.

    A step that writes no memory returns `config.memory` itself.  Raises
    InputError on a malformed config, including a register outside
    0..2**word_bits - 1, and on a LOAD of a cell outside 0..max(2**word_bits
    - 1, 255), which no run can hold; only the cell a step loads is checked.
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
    tag, _, pc, writes, init_reads = _execute(program, config.pc, regs, config.memory, 1, True)
    top = max(mask, 0xFF)
    for addr, value in init_reads.items():  # the one cell a LOAD read, if any
        if not 0 <= value <= top:
            raise InputError(f"memory cell {addr} holds {value}, outside 0..{top}")
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
    _check_input(program, input_bytes, fuel)
    regs = [0] * program.register_count
    tag, steps, _, _, _ = _execute(program, 0, regs, input_bytes, fuel, False)
    return RunOutcome(tag, steps)


def run_recording_reads(
    program: Program, input_bytes: bytes, fuel: int
) -> tuple[RunOutcome, dict[int, int]]:
    """Like `run`, also returning the initial-memory cells the run read.

    The returned map covers LOAD addresses that were never written earlier in
    the run (by STORE or SELF) mapped to the value observed; exactly the cells
    a CNF encoding must pin for the run to be reproduced.
    """
    _check_input(program, input_bytes, fuel)
    regs = [0] * program.register_count
    tag, steps, _, _, init_reads = _execute(program, 0, regs, input_bytes, fuel, True)
    return RunOutcome(tag, steps), init_reads


def _execute(
    program: Program, pc: int, regs: list[int], base, fuel: int, record: bool
) -> tuple[str, int, int, dict[int, int], dict[int, int]]:
    """The interpreter: run from `pc` (at most len(instructions)) for at most `fuel` steps.

    Memory is `base` (a sequence of at most memory_cells values, read-only)
    with cells past its end reading 0, under a dict of the cells written.
    Updates `regs` in place.  Returns (tag, steps_used, pc, writes,
    init_reads): the halt tag or OUT_OF_FUEL, the steps taken (falling off
    the end counts as one), the final pc, the cells STORE and SELF wrote
    mapped to their last value, and, when `record` holds, the cells LOAD
    read before any write, mapped to the value observed; without `record`
    that map stays empty.

    The program runs as compiled Python, one region of REGION_PCS pcs at a
    time (see `_region`); this loop only moves between regions.  A region
    compiled with `record` logs its reads, one compiled without it does not,
    and one of a program with no STORE and no SELF never looks up a write.
    """
    size = len(base)
    writes: dict[int, int] = {}
    init_reads: dict[int, int] = {}
    tag, left = None, fuel
    while left > 0 and tag is None:
        region = _region(program, pc // REGION_PCS, record)
        tag, pc, left = region(pc, left, regs, writes, init_reads, base, size)
    return tag or OUT_OF_FUEL, fuel - left, pc, writes, init_reads


# Compiled regions.  A program's pcs 0..len(instructions) are cut into
# regions of REGION_PCS pcs; the last pc is an implicit HALT_REJECT.  A
# region compiles, on first entry, into one function whose registers are
# local variables:
#
#     def region(pc, left, regs, writes, init_reads, base, size):
#         r0, r1 = regs
#         tag = None
#         while left:
#             <binary search on pc down to the pc's own statements>
#         regs[:] = r0, r1
#         return tag, pc, left
#
# At a block's leader, a basic block runs whole when `left`, the fuel left,
# covers it; otherwise, and at every other pc, one instruction runs.  At a
# leader whose blocks lead back to it inside the region, a cycle, a loop
# runs whole iterations of the cycle first, with no search on pc, charging
# an iteration's fuel once:
#
#     while left > <steps of one iteration>:
#         left -= <steps of one iteration>
#         <the first block's statements; a JZ arm off the cycle gives back
#          the steps of the blocks after it, sets pc and breaks>
#         ...
#     else:
#         <the leader's block or one instruction, as above>
#
# A halt, or an exit out of the region, returns from the function, and
# `_execute` enters the next region.
#
# A LOAD emits only what its run can observe.  Each region compiles in two
# variants: one records the initial-memory cells LOAD reads into
# `init_reads`, for `run_recording_reads`, `step` and the encoder's walk,
# and one, for `run`, records nothing.  In a program whose text has no STORE
# and no SELF, `writes` stays empty, so its LOADs read `base` without
# looking there.  Compiling costs far more per instruction than running
# one, so regions are compiled only where a run goes, into `_region`'s one
# cache: equal programs share a region, which keeps its program until evicted.

REGION_PCS = 64
CACHED_REGIONS = 1024  # the one store of compiled regions; each keeps its program


def _effect(ins: Instruction, mask: int, cells: int, record: bool, written: bool) -> list[str]:
    """The statements that do what `ins` does to registers and memory.  A
    LOAD logs the cell it reads into `init_reads` only when `record` holds,
    and looks in `writes` only when `written`, when the program has an
    instruction that writes memory."""
    op, args = ins.op, ins.args
    if op == "LOADI":
        return [f"r{args[0]} = {args[1] & mask}"]
    if op == "MOV":
        return [f"r{args[0]} = r{args[1]}"]
    if op in ("ADD", "SUB"):
        sign = "+" if op == "ADD" else "-"
        return [f"r{args[0]} = (r{args[0]} {sign} r{args[1]}) & {mask}"]
    if op == "LOAD":
        a, b = args
        read = "base[m] if m < size else 0"
        if record:
            read = "init_reads[m] = " + read
        load = [f"m = r{b} % {cells}"]
        if written:
            load += ["if m in writes:", f" r{a} = writes[m]", "else:", f" r{a} = {read}"]
        else:
            load.append(f"r{a} = {read}")
        if mask < 0xFF:  # a cell holds a byte, which only a narrower word cuts
            load.append(f"r{a} &= {mask}")
        return load
    if op == "STORE":
        return [f"writes[r{args[0]} % {cells}] = r{args[1]}"]
    if op == "SELF":
        a, b = args
        return [
            f"for m, byte in enumerate(SELF_DATA, r{a}):",
            f" writes[m % {cells}] = byte",
            f"r{b} = len(SELF_DATA) & {mask}",
        ]
    return []  # control flow: see _exit


def _successors(ins: Instruction, k: int) -> tuple[int, ...]:
    """The pcs that may follow `ins` at pc k; for JZ, its nonzero arm first."""
    if ins.op == "JZ":
        return (k + 1, ins.args[1])
    if ins.op == "JMP":
        return (ins.args[0],)
    if ins.op in ("HALT_ACCEPT", "HALT_REJECT"):
        return ()
    return (k + 1,)


def _exit(
    ins: Instruction,
    k: int,
    lo: int,
    hi: int,
    leave: list[str],
    stay: int | None = None,
    unrun: int = 0,
) -> list[str]:
    """The statements that set pc after `ins` at pc k; when it halts, or its
    successor lies outside the region lo..hi - 1, they go on with `leave`,
    which returns from the region.

    In a cycle's loop, the arm to `stay` continues the loop and emits
    nothing, and any other arm gives back the `unrun` steps its iteration
    was charged for and did not run; inside the region it breaks out of
    the loop.
    """

    def goto(target: int, pad: str = "") -> list[str]:
        if target == stay:
            return []
        lines = [f"{pad}left += {unrun}"] if unrun else []
        lines.append(f"{pad}pc = {target}")
        if not lo <= target < hi:
            return lines + [pad + line for line in leave]
        return lines + ([f"{pad}break"] if stay is not None else [])

    if ins.op in ("HALT_ACCEPT", "HALT_REJECT"):
        tag = ACCEPT if ins.op == "HALT_ACCEPT" else REJECT
        return [f"pc = {k}", f"tag = {tag!r}", *leave]
    arms = _successors(ins, k)
    if len(arms) == 1:
        return goto(arms[0])
    reg, nonzero, zero = f"r{ins.args[0]}", goto(arms[0], " "), goto(arms[1], " ")
    if not nonzero:  # it continues a cycle
        return [f"if not {reg}:", *zero] if zero else []
    return [f"if {reg}:", *nonzero] + (["else:", *zero] if zero else [])


class _Source:
    """The source of one region's function (see above), built line by line.

    Plain methods, not nested closures, build it: a recursive closure is a
    reference cycle, which a compile would leave to the collector.
    """

    def __init__(self, program: Program, index: int, record: bool):
        self.mask, self.cells = program.word_mask, program.memory_cells
        self.record, self.written = record, program._writes_memory
        self.lo = lo = index * REGION_PCS
        code = program.instructions[lo : lo + REGION_PCS]
        if lo + len(code) == len(program.instructions):
            code += (HALT_REJECT,)  # running past the last instruction rejects
        self.code, self.hi = code, lo + len(code)
        names = "".join(f"r{i}, " for i in range(program.register_count))
        self.leave = [f"regs[:] = {names}", "return tag, pc, left"]
        # each block's leader -> its last pc
        self.ends = {}
        for k in range(lo, self.hi):
            if k in program._leaders or k == lo:
                end = k
                while (
                    _successors(code[end - lo], end) == (end + 1,)
                    and end + 1 < self.hi
                    and end + 1 not in program._leaders
                ):
                    end += 1
                self.ends[k] = end
        self.lines = [
            "def region(pc, left, regs, writes, init_reads, base, size):",
            f" {names}= regs",
            " tag = None",
            " while left:",
        ]
        self.search(lo, self.hi, "  ")
        self.lines += [" " + line for line in self.leave]

    def run(self, k: int, count: int, pad: str, stay: int | None = None, unrun: int = 0) -> None:
        """Emit `count` instructions from pc k, run as one unit; in a cycle's
        loop, which charged them already, with `_exit`'s `stay` and `unrun`."""
        last = k + count - 1
        if stay is None:
            self.lines.append(f"{pad}left -= {count}")
        for ins in self.code[k - self.lo : last - self.lo + 1]:
            effect = _effect(ins, self.mask, self.cells, self.record, self.written)
            self.lines.extend(pad + line for line in effect)
        exit_ = _exit(self.code[last - self.lo], last, self.lo, self.hi, self.leave, stay, unrun)
        self.lines.extend(pad + line for line in exit_)

    def cycle(self, h: int) -> list[int]:
        """The leaders of a shortest cycle of blocks from leader h back to h
        inside the region, h first; empty if there is none.  A breadth-first
        search with parent links: each block is reached once."""
        parent = {h: h}
        queue = [h]
        for b in queue:  # read as it grows
            end = self.ends[b]
            for s in _successors(self.code[end - self.lo], end):
                if s == h:
                    path = [b]
                    while path[-1] != h:
                        path.append(parent[path[-1]])
                    return path[::-1]
                if self.lo <= s < self.hi and s not in parent:
                    parent[s] = b
                    queue.append(s)
        return []

    def leaf(self, k: int, pad: str) -> None:
        """Emit what runs at pc k: its cycle's loop, if it heads one, then its
        block when fuel covers it, else pc k alone."""
        end = self.ends.get(k, k)
        cycle = self.cycle(k) if k in self.ends else []
        if cycle:
            lengths = [self.ends[b] - b + 1 for b in cycle]
            unrun = sum(lengths)
            # while the fuel left is more than an iteration's, so that the
            # code after the loop always has a step to run
            self.lines += [f"{pad}while left > {unrun}:", f"{pad} left -= {unrun}"]
            for b, count, stay in zip(cycle, lengths, cycle[1:] + cycle[:1]):
                unrun -= count
                self.run(b, count, pad + " ", stay, unrun)
            self.lines.append(f"{pad}else:")
            pad += " "
        if end == k:
            return self.run(k, 1, pad)
        self.lines.append(f"{pad}if left >= {end - k + 1}:")
        self.run(k, end - k + 1, pad + " ")
        self.lines.append(f"{pad}else:")
        self.run(k, 1, pad + " ")

    def search(self, a: int, b: int, pad: str) -> None:
        """Emit a binary search on pc over a..b - 1, down to each pc's leaf."""
        if b - a == 1:
            return self.leaf(a, pad)
        mid = (a + b) // 2
        self.lines.append(f"{pad}if pc < {mid}:")
        self.search(a, mid, pad + " ")
        self.lines.append(f"{pad}else:")
        self.search(mid, b, pad + " ")


@lru_cache(maxsize=CACHED_REGIONS)
def _region(program: Program, index: int, record: bool):
    """Region `index` of `program`, compiled (see above), logging its reads
    when `record` holds."""
    source = "\n".join(_Source(program, index, record).lines)
    namespace = {"SELF_DATA": program._serial}
    exec(compile(source, f"<diagforge region {index}>", "exec"), namespace)
    # not left in its own globals, so an evicted region is no cycle either
    return namespace.pop("region")


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
# Jump targets may be labels or absolute instruction indices.  A number is
# unsigned ASCII: decimal without leading zeros (or all zeros), or 0x, 0o or
# 0b and digits of that base, with no `_`: the unsigned forms `int(tok, 0)`
# reads, less the underscores and the non-ASCII digits it also takes.

_MNEMONIC_TO_OP = {spec[2]: op for op, spec in OP_SPECS.items()}
_NUMBER = re.compile(r"[1-9][0-9]*|0+|0[xX][0-9a-fA-F]+|0[oO][0-7]+|0[bB][01]+")


def _number(tok: str) -> int:
    """The value of a number of the assembly grammar; ValueError for any other text."""
    if not _NUMBER.fullmatch(tok):
        raise ValueError(f"not a number: {tok!r}")
    return int(tok, 0)


def parse_asm(text: str) -> Program:
    settings: dict[str, int] = {}  # directive -> value
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
                value = _number(parts[1])
            except ValueError:
                raise ParseError(f"malformed directive {s!r}", lineno) from None
            if parts[0] not in (".registers", ".wordbits", ".memory"):
                raise ParseError(f"unknown directive {parts[0]!r}", lineno)
            if index:
                raise ParseError(f"directive {parts[0]!r} after the first instruction", lineno)
            if parts[0] in settings:
                raise ParseError(f"repeated directive {parts[0]!r}", lineno)
            settings[parts[0]] = value
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
            digits = tok[1:]
            if tok[:1] != "r" or not (digits.isascii() and digits.isdigit()):
                raise ParseError(f"expected register, got {tok!r}", lineno)
            return int(digits)
        if kind == "target" and tok in labels:
            return labels[tok]
        try:
            return _number(tok)
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
        raw_args = parts[1].split(",") if len(parts) > 1 else []
        if not all(a.strip() for a in raw_args):
            raise ParseError(f"empty operand in {s!r}", lineno)
        if len(raw_args) != len(kinds):
            raise ParseError(
                f"{mnemonic} takes {len(kinds)} operand(s), got {len(raw_args)}", lineno
            )
        # operands are unsigned ints of the right count, so Instruction takes them
        instructions.append(Instruction(op, tuple(operand(a, k, lineno) for a, k in zip(raw_args, kinds))))

    try:
        return Program(
            tuple(instructions),
            settings.get(".registers", 4),
            settings.get(".wordbits", 16),
            settings.get(".memory", 65536),
        )
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
