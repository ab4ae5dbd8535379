"""Compile bounded register-machine acceptance into CNF.

`encode(p, pinned, t)` produces a formula satisfiable exactly when there is an
initial memory agreeing with the pinned (address, byte) list, all other cells
existentially free, under which `p` reaches an accepting halt within `t`
steps.  A satisfying assignment decodes back to an execution trace that
replays step-exactly on the simulator.

Design notes:

- Memory is never materialized as per-step columns.  Each step carries one
  access record (read/write flags, address bits, value bits) and
  read-over-write consistency constraints relate records pairwise, so formula
  size is independent of memory_cells.
- Post-halt steps stutter (state frozen), which makes satisfiability monotone
  in t.
- A SELF instruction is supported when it can be resolved statically: at most
  one SELF, preceded only by register-to-register instructions, with no jump
  into or before it.  Its deposited bytes are then compile-time constants and
  enter the consistency constraints as constant write events.
- One walk over control flow, `reachable_pcs`, gives the static facts that
  decide the formula's shape: the pcs reachable at each step and the steps
  at which a LOAD, and a STORE, may execute.  A constant analysis over the
  same walk, `known_registers`, gives the register values fixed at each
  (step, pc).  Both read the program text only, never memory or pin values,
  so pins can never change the shape: known values come from LOADI, MOV,
  ADD, SUB and SELF's length, and every LOAD result is unknown.
- State is held as vectors of variables, allocated time-major: pc[i],
  ha[i], hr[i] and reg[i][r] for each time i, plus one (rd, wr, addr, val)
  access record per step at which a LOAD or STORE may execute.  Constraints
  take their literals from these lists, never by looking components up.
- Clauses come from four gates on the builder: `same` (bitwise equality
  under guard literals), `fix` (bits hold a constant under guard literals),
  `xor`, and `match` (a flag <-> bits hold a constant and some literals are
  false).  Each gate appends its clauses as one batch through the single
  size-budget check.  Only one-off clauses and the adders' sum and carry
  clauses are written out directly.
- ADD and SUB are priced by what the analysis knows at their (step, pc).
  A result it knows (`sub r, r`, or both operands known) is a `fix`;
  `add r, r` is a left shift (`fix` bit 0, `same` for the rest); one known
  operand gives an incrementer, whose carry is 0 up to the constant's lowest
  set bit and gets variables only above it; otherwise a full ripple-carry
  adder.
- Variable numbering (documented in TableauLayout) and clause order are a
  determinism contract: the DIMACS image of an encode is reproducible byte
  for byte, and forged certificates depend on it.  A change to either shows
  up in test_tableau.py's encoder lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cnf import Assignment, CnfFormula
from .errors import ContractViolation, EncodeUnsupported, InputError, ResourceError
from .machine import (
    ACCEPT,
    HALT_REJECT,
    Config,
    Halt,
    Instruction,
    OP_SPECS,
    Program,
    REGISTER_OPS,
    _execute,
    serialize,
    step,
)

# Documented constant for the size-bound property:
# clause count <= SIZE_BOUND_C * (t^2 * word_bits + t * len(instructions)).
SIZE_BOUND_C = 256


@dataclass(frozen=True)
class SelfInfo:
    index: int  # instruction index; executes exactly at step `index` if reached
    base: int  # concrete destination address at execution time
    data: bytes  # the program's own serialization


@dataclass(frozen=True)
class TableauLayout:
    """Map from (time, state component) to CNF variable index.

    Components, in allocation order: for each time 0..t the pc bits
    ("pc", i, b), halt flags ("halt_acc", i) / ("halt_rej", i), register bits
    ("reg", i, r, b); then per transition the control aux vars, access
    records and instruction-local aux; then memory-consistency aux.
    """

    program: Program
    t: int
    pinned_inputs: tuple[tuple[int, int], ...]
    num_vars: int
    var_of: dict[tuple, int]


class _Builder:
    """Variable allocator and clause sink, with the encoder's clause gates.

    A gate's `pre` is a tuple of literals prepended to each of its clauses, so
    the gate binds only where every literal of `pre` is false.  Each gate
    appends its clauses as one batch through `extend`, the one budget check.
    """

    def __init__(self, max_size: int | None):
        self.var_of: dict[tuple, int] = {}
        self.count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.max_size = max_size
        self.size = 0

    def var(self, *component) -> int:
        if component in self.var_of:
            raise ContractViolation(f"duplicate component {component}")
        self.count += 1
        self.var_of[component] = self.count
        return self.count

    def extend(self, clauses: list[tuple[int, ...]]) -> None:
        if self.max_size is not None:
            self.size += len(clauses) + sum(map(len, clauses))
            if self.size > self.max_size:
                raise ResourceError(f"encoding exceeds the size budget of {self.max_size}")
        self.clauses += clauses

    def add(self, *lits: int) -> None:
        self.extend([lits])

    def same(self, pre: tuple[int, ...], xs, ys) -> None:
        """Unless a literal of `pre` holds, xs equals ys bit by bit."""
        out = []
        for x, y in zip(xs, ys):
            out.append((*pre, -x, y))
            out.append((*pre, x, -y))
        self.extend(out)

    def fix(self, pre: tuple[int, ...], xs, value: int) -> None:
        """Unless a literal of `pre` holds, the bits xs spell `value`."""
        self.extend([(*pre, lit) for lit in _spell(xs, value)])

    def xor(self, d: int, x: int, y: int) -> None:
        """d <-> x xor y."""
        self.extend([(-d, x, y), (-d, -x, -y), (d, x, -y), (d, -x, y)])

    def match(self, g: int, xs, value: int, off: tuple[int, ...]) -> None:
        """g <-> (xs spell `value` and every literal in `off` is false)."""
        lits = _spell(xs, value)
        self.extend(
            [(-g, lit) for lit in lits]
            + [(-g, -o) for o in off]
            + [(g, *off, *(-lit for lit in lits))]
        )


def _spell(xs, value: int) -> list[int]:
    """The literals that hold exactly when the bits xs spell `value`."""
    return [x if (value >> bit) & 1 else -x for bit, x in enumerate(xs)]


def resolve_self(program: Program) -> SelfInfo | None:
    """Statically resolve the SELF instruction, or reject the program.

    Requires: at most one SELF; everything before it is a register-only
    instruction; no jump in the whole program targets the SELF index or
    earlier.  Under these conditions SELF executes at most once, exactly at
    step `index`, with a compile-time-known destination address.
    """
    selfs = [i for i, ins in enumerate(program.instructions) if ins.op == "SELF"]
    if not selfs:
        return None
    if len(selfs) > 1:
        raise EncodeUnsupported("the encoder supports at most one SELF instruction")
    k = selfs[0]
    for idx, ins in enumerate(program.instructions[:k]):
        if ins.op not in REGISTER_OPS:
            raise EncodeUnsupported(
                f"SELF at index {k} needs a register-only prefix; "
                f"found {ins.op} at index {idx}"
            )
    for idx, ins in enumerate(program.instructions):
        for kind, a in zip(OP_SPECS[ins.op][1], ins.args):
            if kind == "target" and a <= k:
                raise EncodeUnsupported(
                    f"jump at index {idx} targets {a}, inside or before the SELF prefix"
                )
    regs = [0] * program.register_count
    _execute(program, 0, regs, [], k)  # the register-only prefix touches no memory
    base = regs[program.instructions[k].args[0]]
    return SelfInfo(index=k, base=base, data=serialize(program))


def _successors(ins: Instruction, k: int) -> tuple[int, ...]:
    """The pcs that can follow pc k, where `ins` runs; a halt stays put."""
    if ins.op in ("HALT_ACCEPT", "HALT_REJECT"):
        return (k,)
    if ins.op == "JMP":
        return (ins.args[0],)
    if ins.op == "JZ":
        return (k + 1, ins.args[1])
    return (k + 1,)


def reachable_pcs(program: Program, t: int) -> tuple[list[set[int]], list[int], list[int]]:
    """The encoder's one walk over control flow: (reach, read_steps, write_steps).

    reach[i] holds the pcs possible at time i; pc len(instructions), reached
    by running past the last instruction, is a HALT_REJECT.  read_steps and
    write_steps are the steps before t at which a LOAD, and a STORE, may
    execute.
    """
    instrs = program.instructions + (HALT_REJECT,)
    reach, read_steps, write_steps = [{0}], [], []
    for i in range(t):
        ops = {instrs[v].op for v in reach[i]}
        if "LOAD" in ops:
            read_steps.append(i)
        if "STORE" in ops:
            write_steps.append(i)
        reach.append({m for v in reach[i] for m in _successors(instrs[v], v)})
    return reach, read_steps, write_steps


Known = tuple[int | None, ...]  # per register: its value, or None where unknown


def known_registers(program: Program, t: int) -> list[dict[int, Known]]:
    """A forward constant analysis over the walk (Kildall, POPL 1973).

    known[i] maps each pc of reach[i] to the register values every run holds
    at time i with that pc, None marking a register the program text does
    not fix.  Registers start at 0; every LOAD result is unknown; values
    reaching one (time, pc) from several predecessors are joined.  Like
    reachable_pcs it reads program text only, never memory or pin values.
    """
    instrs = program.instructions + (HALT_REJECT,)
    known = [{0: (0,) * program.register_count}]
    for i in range(t):
        nxt: dict[int, Known] = {}
        for k, regs in known[i].items():
            after = _known_after(program, k, regs)
            for m in _successors(instrs[k], k):
                old = nxt.get(m, after)
                nxt[m] = tuple(x if x == y else None for x, y in zip(old, after))
        known.append(nxt)
    return known


def _known_after(program: Program, k: int, regs: Known) -> Known:
    """The known register values after pc k runs from `regs`.

    A written value is known when the op reads no unknown register (`sub r,
    r` reads none: it is 0) and is not a LOAD; the interpreter computes it.
    """
    ins = program.instructions[k] if k < len(program.instructions) else HALT_REJECT
    w = _written_register(ins)
    if w is None:
        return regs
    reads = {"MOV": ins.args[1:], "ADD": ins.args, "SUB": ins.args}.get(ins.op, ())
    if ins.op == "SUB" and ins.args[0] == ins.args[1]:
        reads = ()
    out = list(regs)
    if ins.op == "LOAD" or any(regs[r] is None for r in reads):
        out[w] = None
    else:
        concrete = [x or 0 for x in regs]
        _execute(program, k, concrete, (), 1)
        out[w] = concrete[w]
    return tuple(out)


def _written_register(ins: Instruction) -> int | None:
    """The register `ins` writes, if any."""
    if ins.op == "SELF":
        return ins.args[1]
    return ins.args[0] if ins.op in REGISTER_OPS or ins.op == "LOAD" else None


def _dims(program: Program) -> tuple[int, int, int, int]:
    """(addr_bits, P, R, W): address bits, pc bits, registers, word bits."""
    if program.word_bits < 8:
        raise EncodeUnsupported(
            f"encoding needs word_bits >= 8, got {program.word_bits}: memory cells hold bytes"
        )
    cells = program.memory_cells
    if cells & (cells - 1):
        raise EncodeUnsupported(
            f"memory_cells must be a power of two for encoding, got {cells}"
        )
    addr_bits = cells.bit_length() - 1
    if addr_bits > program.word_bits:
        raise EncodeUnsupported(
            f"memory_cells {cells} exceeds the {program.word_bits}-bit address space"
        )
    P = max(1, len(program.instructions).bit_length())
    return addr_bits, P, program.register_count, program.word_bits


def _check_pins(program: Program, pinned) -> tuple[tuple[int, int], ...]:
    pins = tuple((int(a), int(v)) for a, v in pinned)
    seen = set()
    for a, v in pins:
        if a in seen:
            raise InputError(f"pinned address {a} repeated")
        seen.add(a)
        if not 0 <= a < program.memory_cells:
            raise InputError(f"pinned address {a} outside memory")
        if not 0 <= v <= 255:
            raise InputError(f"pinned value {v} is not a byte")
    return pins


def encode(
    program: Program,
    pinned,
    t: int,
    max_size: int | None = None,
) -> tuple[CnfFormula, TableauLayout]:
    """Encode "program accepts within t steps, initial memory ⊇ pinned" as CNF.

    With `max_size`, raise ResourceError once the formula's size, counted as
    clauses plus literals, would exceed it.  That count is the payload word
    count of the CNF memory image, so a budget just below the image's payload
    cap fires exactly when the image would overflow.
    """
    if t < 1:
        raise InputError(f"step bound must be at least 1, got {t}")
    pins = _check_pins(program, pinned)
    addr_bits, P, R, W = _dims(program)
    # Every state variable occurs in some clause, so the state block alone
    # bounds the size from below; checking it first keeps huge t cheap.
    if max_size is not None and (t + 1) * (P + 2 + R * W) > max_size:
        raise ResourceError(f"state variables alone exceed the size budget of {max_size}")
    self_info = resolve_self(program)
    reach, read_steps, write_steps = reachable_pcs(program, t)
    known = known_registers(program, t)
    stores = set(write_steps)
    accessing = stores.union(read_steps)
    instrs = program.instructions + (HALT_REJECT,)  # running past the end rejects

    b = _Builder(max_size)

    # State variables, time-major.
    pc: list[list[int]] = []
    ha: list[int] = []
    hr: list[int] = []
    reg: list[list[list[int]]] = []
    for i in range(t + 1):
        pc.append([b.var("pc", i, bit) for bit in range(P)])
        ha.append(b.var("halt_acc", i))
        hr.append(b.var("halt_rej", i))
        reg.append([[b.var("reg", i, r, bit) for bit in range(W)] for r in range(R)])

    # Transition blocks.
    records: dict[int, tuple[int, int, list[int], list[int]]] = {}  # (rd, wr, addr, val)
    for i in range(t):
        h = b.var("halted", i)
        guards = {k: b.var("exec", i, k) for k in sorted(reach[i])}
        ch = [b.var("reg_changed", i, r) for r in range(R)]
        rw: list[int] = []
        if i in accessing:
            rd = b.var("mem_read", i)
            wr = b.var("mem_write", i)
            addr = [b.var("mem_addr", i, bit) for bit in range(addr_bits)]
            val = [b.var("mem_val", i, bit) for bit in range(W)]
            records[i] = (rd, wr, addr, val)
            rw = [rd, wr]
        is_zero = {k: b.var("is_zero", i, k) for k in guards if instrs[k].op == "JZ"}
        pc0, pc1, reg0, reg1 = pc[i], pc[i + 1], reg[i], reg[i + 1]

        # halted flag definition, latches and halt-flag limits
        b.add(-ha[i], h)
        b.add(-hr[i], h)
        b.add(-h, ha[i], hr[i])
        b.add(-ha[i], ha[i + 1])
        b.add(-hr[i], hr[i + 1])
        accept_guards = [g for k, g in guards.items() if instrs[k].op == "HALT_ACCEPT"]
        reject_guards = [g for k, g in guards.items() if instrs[k].op == "HALT_REJECT"]
        b.add(-ha[i + 1], ha[i], *accept_guards)
        b.add(-hr[i + 1], hr[i], *reject_guards)

        # stutter while halted
        b.same((-h,), pc0, pc1)
        b.fix((-h,), ch + rw, 0)

        # guard definitions
        for k, g in guards.items():
            b.match(g, pc0, k, (ha[i], hr[i]))

        # register frame: a register keeps its value unless a writer runs
        for r in range(R):
            b.same((ch[r],), reg0[r], reg1[r])
            b.add(-ch[r], *(g for k, g in guards.items() if _written_register(instrs[k]) == r))

        for k, g in guards.items():
            op, a = instrs[k].op, instrs[k].args
            if op == "LOADI":
                b.fix((-g,), reg1[a[0]], a[1] & program.word_mask)
            elif op == "MOV":
                b.same((-g,), reg0[a[1]], reg1[a[0]])
            elif op in ("ADD", "SUB"):
                _arithmetic(b, program, (i, k), g, known[i][k], reg0, reg1[a[0]])
            elif op == "LOAD":
                b.fix((-g,), rw, 0b01)  # read, no write
                b.same((-g,), reg0[a[1]][:addr_bits], addr)
                b.same((-g,), val, reg1[a[0]])
            elif op == "STORE":
                b.fix((-g,), (wr, rd), 0b01)  # write, no read
                b.same((-g,), reg0[a[0]][:addr_bits], addr)
                b.same((-g,), reg0[a[1]], val)
            elif op == "JZ":
                z = is_zero[k]
                b.match(z, reg0[a[0]], 0, ())
                for bit, x in enumerate(pc1):
                    b.fix((-g, -z), (x,), a[1] >> bit)
                    b.fix((-g, z), (x,), (k + 1) >> bit)
            elif op == "SELF":
                b.fix((-g,), reg1[a[1]], len(self_info.data) & program.word_mask)
            elif op == "HALT_ACCEPT":
                b.add(-g, ha[i + 1])
                b.same((-g,), pc0, pc1)
            elif op == "HALT_REJECT":
                b.add(-g, hr[i + 1])
                b.same((-g,), pc0, pc1)
            if op not in ("JZ", "HALT_ACCEPT", "HALT_REJECT"):
                b.fix((-g,), pc1, a[0] if op == "JMP" else k + 1)
            if op not in ("LOAD", "STORE"):
                b.fix((-g,), rw, 0)  # no memory access

    # Memory consistency: serve each potential read from the most recent write
    # to the same address (constant SELF deposits included), else from the
    # pinned-or-free initial memory.
    any_hit: dict[int, list[int]] = {}  # read step -> [any_hit var], or [] with no prior write
    for i in read_steps:
        rd_i, _, addr_i, val_i = records[i]
        # per prior write event, in temporal order: its hit variable, and the
        # value it wrote (value bits, or a constant byte for a SELF deposit)
        hits: list[int] = []
        written: list[int | list[int]] = []
        for j in range(i):
            if self_info is not None and j == self_info.index:
                for m, byte in enumerate(self_info.data):
                    hvar = b.var("hit", i, "self", m)
                    b.match(hvar, addr_i, (self_info.base + m) % program.memory_cells, ())
                    hits.append(hvar)
                    written.append(byte)
            if j in stores:
                _, wr_j, addr_j, val_j = records[j]
                hvar = b.var("hit", i, "dyn", j)
                diffs = [b.var("addr_diff", i, j, bit) for bit in range(addr_bits)]
                b.add(-hvar, wr_j)
                for x, y, d in zip(addr_i, addr_j, diffs):
                    b.same((-hvar,), (x,), (y,))
                    b.xor(d, x, y)
                b.add(hvar, -wr_j, *diffs)
                hits.append(hvar)
                written.append(val_j)

        # later-hit chain: later[p] = [v] with v <-> some hit at position > p
        later: list[list[int]] = [[] for _ in hits]
        for p in range(len(hits) - 2, -1, -1):
            v = b.var("later_hit", i, p)
            nxt = [hits[p + 1], *later[p + 1]]
            b.add(-v, *nxt)
            b.fix((v,), nxt, 0)
            later[p] = [v]

        # serve from the most recent hitting write
        for p, value in enumerate(written):
            pre = (-rd_i, -hits[p], *later[p])
            if isinstance(value, int):
                b.fix(pre, val_i, value)
            else:
                b.same(pre, value, val_i)

        # any-hit marker, for init-served reads
        any_hit[i] = []
        if hits:
            avar = b.var("any_hit", i)
            first = [hits[0], *later[0]]
            b.add(-avar, *first)
            b.fix((avar,), first, 0)
            any_hit[i] = [avar]

        # pinned initial cells
        for a, v in pins:
            mismatch = [-lit for lit in _spell(addr_i, a)]
            b.fix((-rd_i, *any_hit[i], *mismatch), val_i, v)

    # two init-served reads of one address must agree
    for x, i1 in enumerate(read_steps):
        for i2 in read_steps[x + 1 :]:
            rd1, _, a1, v1 = records[i1]
            rd2, _, a2, v2 = records[i2]
            diffs = [b.var("init_addr_diff", i1, i2, bit) for bit in range(addr_bits)]
            for d, y1, y2 in zip(diffs, a1, a2):
                b.xor(d, y1, y2)
            differs = b.var("init_addrs_differ", i1, i2)
            b.add(-differs, *diffs)
            b.fix((differs,), diffs, 0)
            b.same((-rd1, *any_hit[i1], -rd2, *any_hit[i2], differs), v1, v2)

    # initial state and acceptance goal
    b.fix((), [*pc[0], ha[0], hr[0], *(x for bits in reg[0] for x in bits)], 0)
    b.add(ha[t])

    formula = CnfFormula(b.count, tuple(b.clauses))
    layout = TableauLayout(
        program=program,
        t=t,
        pinned_inputs=pins,
        num_vars=b.count,
        var_of=b.var_of,
    )
    return formula, layout


def _arithmetic(b: _Builder, program: Program, at: tuple[int, int], g: int,
                known: Known, reg0: list[list[int]], ss: list[int]) -> None:
    """ss := the ADD or SUB at pc at[1], guarded by g, in the cheapest exact
    form that the register values `known` at step at[0] allow."""
    i, k = at
    ins = program.instructions[k]
    r, r2 = ins.args
    sub = ins.op == "SUB"
    x, y = known[r], known[r2]
    result = _known_after(program, k, known)[r]
    if result is not None:  # sub r, r, or both operands known
        b.fix((-g,), ss, result)
    elif r == r2:  # add r, r: a left shift
        b.fix((-g,), ss[:1], 0)
        b.same((-g,), reg0[r][:-1], ss[1:])
    elif y is not None:  # a known addend: x + y, or x - y = x + (-y)
        _constant_adder(b, at, g, reg0[r], (-y if sub else y) & program.word_mask, ss)
    elif x is not None:  # a known augend: y + x, or x - y = ~y + (x + 1)
        ys = [-v for v in reg0[r2]] if sub else reg0[r2]
        _constant_adder(b, at, g, ys, (x + sub) & program.word_mask, ss)
    else:
        carries = [b.var("carry", i, k, bit) for bit in range(1, len(ss))]
        _adder(b, g, reg0[r], reg0[r2], ss, carries, sub)


def _constant_adder(b: _Builder, at: tuple[int, int], g: int, xs, c: int, ss) -> None:
    """ss := xs + c for a constant c, guarded by g; xs are literals.

    Below c's lowest set bit the carry is 0 and ss copies xs; at that bit
    ss flips and the carry out is the bit itself.  Only the bits above get
    carry variables ("carry", step, pc, bit), defined unguarded.
    """
    carry = None  # the literal carried into this bit, None while it is 0
    for bit, (x, s) in enumerate(zip(xs, ss)):
        cb = (c >> bit) & 1
        if carry is None:
            b.same((-g,), (-x if cb else x,), (s,))
            if cb:
                carry = x
            continue
        # s = x xor carry xor cb, one clause per assignment of (x, carry)
        b.extend([
            (-g, -x if u else x, -carry if v else carry, s if (u + v + cb) & 1 else -s)
            for u, v in product((0, 1), repeat=2)
        ])
        if bit == len(xs) - 1:
            break
        cout = b.var("carry", *at, bit + 1)
        if cb:  # cout <-> x or carry
            b.extend([(cout, -x), (cout, -carry), (-cout, x, carry)])
        else:  # cout <-> x and carry
            b.extend([(-cout, x), (-cout, carry), (cout, -x, -carry)])
        carry = cout


def _adder(b: _Builder, g: int, xs, ys, ss, carries: list[int], sub: bool) -> None:
    """ss := xs + ys (SUB: xs + ~ys + 1), guarded by g; carries defined unguarded."""
    for bit in range(len(xs)):
        x, y, s = xs[bit], ys[bit], ss[bit]
        yp = -y if sub else y  # the addend bit actually summed
        ins = [x, y] if bit == 0 else [x, y, carries[bit - 1]]
        # sum bit s = x xor y' xor carry-in, one clause per assignment of the
        # inputs; y' = y xor sub, and bit 0's carry-in is the constant sub
        for vs in product((0, 1), repeat=len(ins)):
            parity = (sum(vs) + (sub if bit else 0)) & 1
            b.add(-g, *(-v if u else v for v, u in zip(ins, vs)), s if parity else -s)
        if bit == len(xs) - 1:
            continue
        cout = carries[bit]
        if bit:
            cin = carries[bit - 1]
            # cout <-> majority(x, y', cin)
            b.extend([(-cout, x, yp), (-cout, x, cin), (-cout, yp, cin),
                      (cout, -x, -yp), (cout, -x, -cin), (cout, -yp, -cin)])
        elif sub:
            b.extend([(cout, -x), (cout, -yp), (-cout, x, yp)])  # cout <-> x or y'
        else:
            b.extend([(-cout, x), (-cout, yp), (cout, -x, -yp)])  # cout <-> x and y'


@dataclass(frozen=True)
class Trace:
    configs: tuple[Config, ...]
    outcome: str
    halt_step: int  # steps_used of the accepting run


def decode_witness(layout: TableauLayout, assignment: Assignment) -> Trace:
    """Turn a satisfying assignment into the execution trace it encodes.

    The committed initial memory is read off the formula's init-served reads
    (a read record whose any_hit flag is clear or absent) with the pins laid
    over them; every other cell is zero.  The program is then replayed with
    machine.step, the one interpreter, and each time's pc, registers and halt
    bits are checked as the replay reaches it, so a read that contradicts the
    memory semantics shows up as a register that does not replay.  Any
    inconsistency raises ContractViolation; the returned trace always replays
    step-exactly.
    """
    program = layout.program
    t = layout.t
    if len(assignment.values) != layout.num_vars:
        raise InputError(
            f"assignment covers {len(assignment.values)} variables, "
            f"layout has {layout.num_vars}"
        )
    vals = assignment.values
    var_of = layout.var_of
    addr_bits, P, R, W = _dims(program)

    def bit(*comp) -> bool:
        return comp in var_of and vals[var_of[comp] - 1]

    def word(prefix: tuple, width: int) -> int:
        return sum(1 << k for k in range(width) if vals[var_of[prefix + (k,)] - 1])

    memory = [0] * program.memory_cells
    for i in range(t):
        if bit("mem_read", i) and not bit("any_hit", i):
            memory[word(("mem_addr", i), addr_bits)] = word(("mem_val", i), W)
    for a, v in layout.pinned_inputs:
        memory[a] = v

    config = Config(0, (0,) * R, tuple(memory))
    configs = []
    halted: tuple[int, bool] | None = None  # (step, accept) once the replay halts
    for i in range(t + 1):
        if i and halted is None:
            res = step(program, config)
            if isinstance(res, Halt):
                halted = (i - 1, res.accept)
            else:
                config = res
        configs.append(config)
        pc = word(("pc", i), P)
        if pc != config.pc:
            raise ContractViolation(f"time {i}: pc {pc} does not replay (got {config.pc})")
        for r, got in enumerate(config.registers):
            value = word(("reg", i, r), W)
            if value != got:
                raise ContractViolation(
                    f"time {i}: register r{r}={value} does not replay (got {got})"
                )
        replay_ha = halted is not None and halted[1]
        replay_hr = halted is not None and not halted[1]
        if bit("halt_acc", i) != replay_ha or bit("halt_rej", i) != replay_hr:
            raise ContractViolation(f"time {i}: halt flags do not replay")

    if halted is None or not halted[1]:
        raise ContractViolation("decoded run does not accept within the bound")
    return Trace(configs=tuple(configs), outcome=ACCEPT, halt_step=halted[0] + 1)


def estimate_encode(program: Program, n_pins: int, t: int) -> tuple[int, int]:
    """(vars, clauses) of encode(program, pins, t) for any n_pins distinct pins.

    Exact, because pins never change the shape: their values enter only as
    constants, and each pin's clauses carry one mismatch literal per address
    bit whatever the address.  Only the benchmark's
    tableau.estimate_over_actual probe calls this.
    """
    formula, _ = encode(program, [(a, 0) for a in range(n_pins)], t)
    return formula.num_vars, len(formula.clauses)


def render_component(component: tuple) -> str:
    kind = component[0]
    rest = component[1:]
    return kind + "[" + ",".join(str(x) for x in rest) + "]"


def write_layout(layout: TableauLayout, path) -> None:
    """Sidecar text file mapping each CNF variable to its state component."""
    lines = [
        f"c tableau layout: t={layout.t} num_vars={layout.num_vars}",
        "c pinned: " + (" ".join(f"{a}:{v}" for a, v in layout.pinned_inputs) or "-"),
    ]
    by_index = sorted((idx, comp) for comp, idx in layout.var_of.items())
    for idx, comp in by_index:
        lines.append(f"{idx}\t{render_component(comp)}")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
