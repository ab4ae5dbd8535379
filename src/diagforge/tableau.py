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
- Variable numbering is deterministic (documented in TableauLayout); the
  DIMACS image of an encode is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Assignment, CnfFormula
from .errors import ContractViolation, EncodeUnsupported, InputError, ResourceError
from .machine import (
    ACCEPT,
    Config,
    Halt,
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

    def add(self, *lits: int) -> None:
        if self.max_size is not None:
            self.size += len(lits) + 1
            if self.size > self.max_size:
                raise ResourceError(f"encoding exceeds the size budget of {self.max_size}")
        self.clauses.append(lits)


def _lit(var: int, bit: int) -> int:
    return var if bit else -var


def _bits(value: int, width: int) -> list[int]:
    return [(value >> b) & 1 for b in range(width)]


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
        if ins.op in ("JZ", "JMP") and ins.args[-1] <= k:
            raise EncodeUnsupported(
                f"jump at index {idx} targets {ins.args[-1]}, "
                f"inside or before the SELF prefix"
            )
    regs = [0] * program.register_count
    _execute(program, 0, regs, [], k)  # the register-only prefix touches no memory
    base = regs[program.instructions[k].args[0]]
    return SelfInfo(index=k, base=base, data=serialize(program))


def reachable_pcs(program: Program, t: int) -> list[set[int]]:
    """reach[i] = pc values possible at time i (len(instructions) = fell off)."""
    n = len(program.instructions)
    reach = [set() for _ in range(t + 1)]
    reach[0].add(0)
    for i in range(t):
        nxt = reach[i + 1]
        for v in reach[i]:
            if v == n:
                nxt.add(v)
                continue
            ins = program.instructions[v]
            if ins.op in ("HALT_ACCEPT", "HALT_REJECT"):
                nxt.add(v)
            elif ins.op == "JMP":
                nxt.add(ins.args[0])
            elif ins.op == "JZ":
                nxt.add(ins.args[1])
                nxt.add(v + 1)
            else:
                nxt.add(v + 1)
    return reach


def _check_geometry(program: Program) -> int:
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
    return max(addr_bits, 1)


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
    addr_bits = _check_geometry(program)
    instrs = program.instructions
    n_instr = len(instrs)
    P = max(1, n_instr.bit_length())
    R = program.register_count
    W = program.word_bits
    # Every state variable occurs in some clause, so the state block alone
    # bounds the size from below; checking it first keeps huge t cheap.
    if max_size is not None and (t + 1) * (P + 2 + R * W) > max_size:
        raise ResourceError(f"state variables alone exceed the size budget of {max_size}")
    self_info = resolve_self(program)
    reach = reachable_pcs(program, t)

    read_possible = [any(k < n_instr and instrs[k].op == "LOAD" for k in reach[i]) for i in range(t)]
    write_possible = [any(k < n_instr and instrs[k].op == "STORE" for k in reach[i]) for i in range(t)]
    has_record = [read_possible[i] or write_possible[i] for i in range(t)]

    b = _Builder(max_size)

    # State variables, time-major.
    for i in range(t + 1):
        for bit in range(P):
            b.var("pc", i, bit)
        b.var("halt_acc", i)
        b.var("halt_rej", i)
        for r in range(R):
            for bit in range(W):
                b.var("reg", i, r, bit)

    pc = lambda i, bit: b.var_of[("pc", i, bit)]
    ha = lambda i: b.var_of[("halt_acc", i)]
    hr = lambda i: b.var_of[("halt_rej", i)]
    reg = lambda i, r, bit: b.var_of[("reg", i, r, bit)]

    # Transition blocks.
    for i in range(t):
        h = b.var("halted", i)
        vh = b.var("fall_off", i) if n_instr in reach[i] else None
        guards = {}
        reachable_instrs = sorted(k for k in reach[i] if k < n_instr)
        for k in reachable_instrs:
            guards[k] = b.var("exec", i, k)
        ch = [b.var("reg_changed", i, r) for r in range(R)]
        if has_record[i]:
            rd = b.var("mem_read", i)
            wr = b.var("mem_write", i)
            addr = [b.var("mem_addr", i, bit) for bit in range(addr_bits)]
            val = [b.var("mem_val", i, bit) for bit in range(W)]
        else:
            rd = wr = None
            addr = val = []
        aux_carry: dict[int, list[int]] = {}
        aux_zero: dict[int, int] = {}
        for k in reachable_instrs:
            op = instrs[k].op
            if op in ("ADD", "SUB"):
                aux_carry[k] = [b.var("carry", i, k, bit) for bit in range(1, W)]
            elif op == "JZ":
                aux_zero[k] = b.var("is_zero", i, k)

        # halted flag definition
        b.add(-ha(i), h)
        b.add(-hr(i), h)
        b.add(-h, ha(i), hr(i))

        # latches and halt-flag limits
        b.add(-ha(i), ha(i + 1))
        b.add(-hr(i), hr(i + 1))
        accept_guards = [guards[k] for k in reachable_instrs if instrs[k].op == "HALT_ACCEPT"]
        reject_guards = [guards[k] for k in reachable_instrs if instrs[k].op == "HALT_REJECT"]
        b.add(-ha(i + 1), ha(i), *accept_guards)
        extra = [vh] if vh is not None else []
        b.add(-hr(i + 1), hr(i), *extra, *reject_guards)

        # stutter while halted
        for bit in range(P):
            b.add(-h, -pc(i, bit), pc(i + 1, bit))
            b.add(-h, pc(i, bit), -pc(i + 1, bit))
        for r in range(R):
            b.add(-h, -ch[r])
        if rd is not None:
            b.add(-h, -rd)
            b.add(-h, -wr)

        # fell off the end: reject and freeze
        if vh is not None:
            end_bits = _bits(n_instr, P)
            for bit in range(P):
                b.add(-vh, _lit(pc(i, bit), end_bits[bit]))
            b.add(-vh, -h)
            b.add(vh, h, *[_lit(pc(i, bit), 1 - end_bits[bit]) for bit in range(P)])
            b.add(-vh, hr(i + 1))
            for bit in range(P):
                b.add(-vh, -pc(i, bit), pc(i + 1, bit))
                b.add(-vh, pc(i, bit), -pc(i + 1, bit))
            for r in range(R):
                b.add(-vh, -ch[r])
            if rd is not None:
                b.add(-vh, -rd)
                b.add(-vh, -wr)

        # guard definitions
        for k in reachable_instrs:
            g = guards[k]
            kb = _bits(k, P)
            for bit in range(P):
                b.add(-g, _lit(pc(i, bit), kb[bit]))
            b.add(-g, -ha(i))
            b.add(-g, -hr(i))
            b.add(g, ha(i), hr(i), *[_lit(pc(i, bit), 1 - kb[bit]) for bit in range(P)])

        # register frame control
        writers: dict[int, list[int]] = {r: [] for r in range(R)}
        for k in reachable_instrs:
            ins = instrs[k]
            if ins.op in ("LOADI", "MOV", "ADD", "SUB", "LOAD"):
                writers[ins.args[0]].append(guards[k])
            elif ins.op == "SELF":
                writers[ins.args[1]].append(guards[k])
        for r in range(R):
            for bit in range(W):
                b.add(ch[r], -reg(i, r, bit), reg(i + 1, r, bit))
                b.add(ch[r], reg(i, r, bit), -reg(i + 1, r, bit))
            b.add(-ch[r], *writers[r])

        def set_pc_next(g: int, value: int) -> None:
            vb = _bits(value, P)
            for bit in range(P):
                b.add(-g, _lit(pc(i + 1, bit), vb[bit]))

        def no_access(g: int) -> None:
            if rd is not None:
                b.add(-g, -rd)
                b.add(-g, -wr)

        def full_adder(g: int, k: int, xr: int, yr: int, dest: int, flip_y: bool, carry_in_one: bool):
            """reg(i+1, dest) := reg(i, xr) + (~)reg(i, yr) + carry_in, guarded by g."""
            carries = aux_carry[k]
            for bit in range(W):
                x = reg(i, xr, bit)
                y = reg(i, yr, bit)
                s = reg(i + 1, dest, bit)
                cin = None if bit == 0 else carries[bit - 1]
                cout = carries[bit] if bit < W - 1 else None
                const_cin = 1 if (bit == 0 and carry_in_one) else 0
                # sum bit, guarded
                if cin is None:
                    for vx in (0, 1):
                        for vy in (0, 1):
                            yv = (1 - vy) if flip_y else vy
                            parity = vx ^ yv ^ const_cin
                            b.add(-g, _lit(x, 1 - vx), _lit(y, 1 - vy), _lit(s, parity))
                else:
                    for vx in (0, 1):
                        for vy in (0, 1):
                            for vc in (0, 1):
                                yv = (1 - vy) if flip_y else vy
                                parity = vx ^ yv ^ vc
                                b.add(
                                    -g,
                                    _lit(x, 1 - vx),
                                    _lit(y, 1 - vy),
                                    _lit(cin, 1 - vc),
                                    _lit(s, parity),
                                )
                # carry out, unguarded definition
                if cout is None:
                    continue
                ylit = lambda want_true: _lit(y, 0 if want_true else 1) if flip_y else _lit(y, 1 if want_true else 0)
                if cin is None:
                    if const_cin:
                        # cout <-> x OR y'
                        b.add(cout, -x)
                        b.add(cout, ylit(False))
                        b.add(-cout, x, ylit(True))
                    else:
                        # cout <-> x AND y'
                        b.add(-cout, x)
                        b.add(-cout, ylit(True))
                        b.add(cout, -x, ylit(False))
                else:
                    # cout <-> majority(x, y', cin)
                    b.add(-cout, x, ylit(True))
                    b.add(-cout, x, cin)
                    b.add(-cout, ylit(True), cin)
                    b.add(cout, -x, ylit(False))
                    b.add(cout, -x, -cin)
                    b.add(cout, ylit(False), -cin)

        for k in reachable_instrs:
            ins = instrs[k]
            g = guards[k]
            op, a = ins.op, ins.args
            if op == "LOADI":
                cb = _bits(a[1] & program.word_mask, W)
                for bit in range(W):
                    b.add(-g, _lit(reg(i + 1, a[0], bit), cb[bit]))
                set_pc_next(g, k + 1)
                no_access(g)
            elif op == "MOV":
                for bit in range(W):
                    b.add(-g, -reg(i, a[1], bit), reg(i + 1, a[0], bit))
                    b.add(-g, reg(i, a[1], bit), -reg(i + 1, a[0], bit))
                set_pc_next(g, k + 1)
                no_access(g)
            elif op == "ADD":
                full_adder(g, k, a[0], a[1], a[0], flip_y=False, carry_in_one=False)
                set_pc_next(g, k + 1)
                no_access(g)
            elif op == "SUB":
                full_adder(g, k, a[0], a[1], a[0], flip_y=True, carry_in_one=True)
                set_pc_next(g, k + 1)
                no_access(g)
            elif op == "LOAD":
                b.add(-g, rd)
                b.add(-g, -wr)
                for bit in range(addr_bits):
                    b.add(-g, -reg(i, a[1], bit), addr[bit])
                    b.add(-g, reg(i, a[1], bit), -addr[bit])
                for bit in range(W):
                    b.add(-g, -val[bit], reg(i + 1, a[0], bit))
                    b.add(-g, val[bit], -reg(i + 1, a[0], bit))
                set_pc_next(g, k + 1)
            elif op == "STORE":
                b.add(-g, wr)
                b.add(-g, -rd)
                for bit in range(addr_bits):
                    b.add(-g, -reg(i, a[0], bit), addr[bit])
                    b.add(-g, reg(i, a[0], bit), -addr[bit])
                for bit in range(W):
                    b.add(-g, -reg(i, a[1], bit), val[bit])
                    b.add(-g, reg(i, a[1], bit), -val[bit])
                set_pc_next(g, k + 1)
            elif op == "JZ":
                z = aux_zero[k]
                xbits = [reg(i, a[0], bit) for bit in range(W)]
                for x in xbits:
                    b.add(-z, -x)
                b.add(z, *xbits)
                tb = _bits(a[1], P)
                fb = _bits(k + 1, P)
                for bit in range(P):
                    b.add(-g, -z, _lit(pc(i + 1, bit), tb[bit]))
                    b.add(-g, z, _lit(pc(i + 1, bit), fb[bit]))
                no_access(g)
            elif op == "JMP":
                set_pc_next(g, a[0])
                no_access(g)
            elif op == "SELF":
                length = len(self_info.data) & program.word_mask
                lb = _bits(length, W)
                for bit in range(W):
                    b.add(-g, _lit(reg(i + 1, a[1], bit), lb[bit]))
                set_pc_next(g, k + 1)
                no_access(g)
            elif op == "HALT_ACCEPT":
                b.add(-g, ha(i + 1))
                for bit in range(P):
                    b.add(-g, -pc(i, bit), pc(i + 1, bit))
                    b.add(-g, pc(i, bit), -pc(i + 1, bit))
                no_access(g)
            elif op == "HALT_REJECT":
                b.add(-g, hr(i + 1))
                for bit in range(P):
                    b.add(-g, -pc(i, bit), pc(i + 1, bit))
                    b.add(-g, pc(i, bit), -pc(i + 1, bit))
                no_access(g)

    # Memory consistency: serve each potential read from the most recent write
    # to the same address (constant SELF deposits included), else from the
    # pinned-or-free initial memory.
    self_events: list[tuple[int, int]] = []  # (address, byte), in write order
    if self_info is not None and self_info.index < t:
        for m, byte in enumerate(self_info.data):
            self_events.append(((self_info.base + m) % program.memory_cells, byte))

    read_steps = [i for i in range(t) if read_possible[i]]
    any_hit: dict[int, int | None] = {}
    for i in read_steps:
        rd_i = b.var_of[("mem_read", i)]
        addr_i = [b.var_of[("mem_addr", i, bit)] for bit in range(addr_bits)]
        val_i = [b.var_of[("mem_val", i, bit)] for bit in range(W)]

        # prior write events in temporal order
        prior: list[tuple] = []
        for j in range(i):
            if self_info is not None and j == self_info.index:
                for m, (ea, ev) in enumerate(self_events):
                    prior.append(("self", m, ea, ev))
            if write_possible[j]:
                prior.append(("dyn", j))

        hits: list[int] = []
        for e in prior:
            if e[0] == "dyn":
                j = e[1]
                hvar = b.var("hit", i, "dyn", j)
                wr_j = b.var_of[("mem_write", j)]
                addr_j = [b.var_of[("mem_addr", j, bit)] for bit in range(addr_bits)]
                diffs = [b.var("addr_diff", i, j, bit) for bit in range(addr_bits)]
                b.add(-hvar, wr_j)
                for bit in range(addr_bits):
                    b.add(-hvar, -addr_i[bit], addr_j[bit])
                    b.add(-hvar, addr_i[bit], -addr_j[bit])
                    d = diffs[bit]
                    b.add(-d, addr_i[bit], addr_j[bit])
                    b.add(-d, -addr_i[bit], -addr_j[bit])
                    b.add(d, addr_i[bit], -addr_j[bit])
                    b.add(d, -addr_i[bit], addr_j[bit])
                b.add(hvar, -wr_j, *diffs)
            else:
                _, m, ea, _ = e
                hvar = b.var("hit", i, "self", m)
                eb = _bits(ea, addr_bits)
                for bit in range(addr_bits):
                    b.add(-hvar, _lit(addr_i[bit], eb[bit]))
                b.add(hvar, *[_lit(addr_i[bit], 1 - eb[bit]) for bit in range(addr_bits)])
            hits.append(hvar)

        # later-hit chain: later[p] <-> some hit at position > p
        later: list[int | None] = [None] * len(prior)
        for p in range(len(prior) - 2, -1, -1):
            nvar = b.var("later_hit", i, p)
            later[p] = nvar
            nxt = later[p + 1]
            if nxt is None:
                b.add(-nvar, hits[p + 1])
                b.add(nvar, -hits[p + 1])
            else:
                b.add(-nvar, hits[p + 1], nxt)
                b.add(nvar, -hits[p + 1])
                b.add(nvar, -nxt)

        # serve from the most recent hitting write
        for p, e in enumerate(prior):
            blocked = [later[p]] if later[p] is not None else []
            if e[0] == "dyn":
                j = e[1]
                val_j = [b.var_of[("mem_val", j, bit)] for bit in range(W)]
                for bit in range(W):
                    b.add(-rd_i, -hits[p], *blocked, -val_j[bit], val_i[bit])
                    b.add(-rd_i, -hits[p], *blocked, val_j[bit], -val_i[bit])
            else:
                vb = _bits(e[3], W)
                for bit in range(W):
                    b.add(-rd_i, -hits[p], *blocked, _lit(val_i[bit], vb[bit]))

        # any-hit marker, for init-served reads
        if prior:
            avar = b.var("any_hit", i)
            first_later = [later[0]] if later[0] is not None else []
            b.add(-avar, hits[0], *first_later)
            b.add(avar, -hits[0])
            if later[0] is not None:
                b.add(avar, -later[0])
            any_hit[i] = avar
        else:
            any_hit[i] = None

        # pinned initial cells
        guard = [any_hit[i]] if any_hit[i] is not None else []
        for a, v in pins:
            ab = _bits(a, addr_bits)
            vb = _bits(v, W)
            mismatch = [_lit(addr_i[bit], 1 - ab[bit]) for bit in range(addr_bits)]
            for bit in range(W):
                b.add(-rd_i, *guard, *mismatch, _lit(val_i[bit], vb[bit]))

    # two init-served reads of one address must agree
    for x in range(len(read_steps)):
        for y in range(x + 1, len(read_steps)):
            i1, i2 = read_steps[x], read_steps[y]
            rd1 = b.var_of[("mem_read", i1)]
            rd2 = b.var_of[("mem_read", i2)]
            a1 = [b.var_of[("mem_addr", i1, bit)] for bit in range(addr_bits)]
            a2 = [b.var_of[("mem_addr", i2, bit)] for bit in range(addr_bits)]
            v1 = [b.var_of[("mem_val", i1, bit)] for bit in range(W)]
            v2 = [b.var_of[("mem_val", i2, bit)] for bit in range(W)]
            diffs = [b.var("init_addr_diff", i1, i2, bit) for bit in range(addr_bits)]
            for bit in range(addr_bits):
                d = diffs[bit]
                b.add(-d, a1[bit], a2[bit])
                b.add(-d, -a1[bit], -a2[bit])
                b.add(d, a1[bit], -a2[bit])
                b.add(d, -a1[bit], a2[bit])
            differs = b.var("init_addrs_differ", i1, i2)
            b.add(-differs, *diffs)
            for d in diffs:
                b.add(differs, -d)
            g1 = [any_hit[i1]] if any_hit[i1] is not None else []
            g2 = [any_hit[i2]] if any_hit[i2] is not None else []
            for bit in range(W):
                b.add(-rd1, *g1, -rd2, *g2, differs, -v1[bit], v2[bit])
                b.add(-rd1, *g1, -rd2, *g2, differs, v1[bit], -v2[bit])

    # initial state and acceptance goal
    for bit in range(P):
        b.add(-pc(0, bit))
    b.add(-ha(0))
    b.add(-hr(0))
    for r in range(R):
        for bit in range(W):
            b.add(-reg(0, r, bit))
    b.add(ha(t))

    formula = CnfFormula(b.count, tuple(b.clauses))
    layout = TableauLayout(
        program=program,
        t=t,
        pinned_inputs=pins,
        num_vars=b.count,
        var_of=b.var_of,
    )
    return formula, layout


@dataclass(frozen=True)
class Trace:
    configs: tuple[Config, ...]
    outcome: str
    halt_step: int  # steps_used of the accepting run


def decode_witness(layout: TableauLayout, assignment: Assignment) -> Trace:
    """Turn a satisfying assignment into the execution trace it encodes.

    Reconstructs the initial memory the assignment committed to (pins plus
    init-served reads, all other cells zero), replays the program with
    machine.step, and cross-checks every extracted state bit against the
    replay.  Any inconsistency raises ContractViolation; the returned trace
    always replays step-exactly.
    """
    program = layout.program
    t = layout.t
    if len(assignment.values) != layout.num_vars:
        raise InputError(
            f"assignment covers {len(assignment.values)} variables, "
            f"layout has {layout.num_vars}"
        )
    vals = assignment.values
    addr_bits = _check_geometry(program)
    self_info = resolve_self(program)
    n_instr = len(program.instructions)
    P = max(1, n_instr.bit_length())
    R = program.register_count
    W = program.word_bits

    def bit(*comp) -> bool:
        return vals[layout.var_of[comp] - 1]

    def word(prefix: tuple, width: int) -> int:
        out = 0
        for k in range(width):
            if vals[layout.var_of[prefix + (k,)] - 1]:
                out |= 1 << k
        return out

    pcs = [word(("pc", i), P) for i in range(t + 1)]
    has = [bit("halt_acc", i) for i in range(t + 1)]
    hrs = [bit("halt_rej", i) for i in range(t + 1)]
    regs = [[word(("reg", i, r), W) for r in range(R)] for i in range(t + 1)]

    records = []
    for i in range(t):
        if ("mem_read", i) in layout.var_of:
            records.append(
                (
                    bit("mem_read", i),
                    bit("mem_write", i),
                    word(("mem_addr", i), addr_bits),
                    word(("mem_val", i), W),
                )
            )
        else:
            records.append((False, False, 0, 0))

    # concrete consistency walk to recover the committed initial memory
    pins = dict(layout.pinned_inputs)
    init_vals: dict[int, int] = dict(pins)
    current: dict[int, int] = {}
    for i in range(t):
        if self_info is not None and i == self_info.index:
            for m, byte in enumerate(self_info.data):
                current[(self_info.base + m) % program.memory_cells] = byte
        rd, wr, addr, value = records[i]
        if rd:
            if addr in current:
                if current[addr] != value:
                    raise ContractViolation(
                        f"step {i}: read of cell {addr} contradicts an earlier write"
                    )
            elif addr in init_vals:
                if init_vals[addr] != value:
                    raise ContractViolation(
                        f"step {i}: read of cell {addr} contradicts pinned/earlier value"
                    )
            else:
                init_vals[addr] = value
        if wr:
            current[addr] = value

    memory = [0] * program.memory_cells
    for a, v in init_vals.items():
        memory[a] = v

    configs = [Config(0, (0,) * R, tuple(memory))]
    halted: tuple[int, bool] | None = None
    for i in range(t):
        if halted is not None:
            configs.append(configs[-1])
            continue
        res = step(program, configs[-1])
        if isinstance(res, Halt):
            halted = (i, res.accept)
            configs.append(configs[-1])
        else:
            configs.append(res)

    for i in range(t + 1):
        c = configs[i]
        if pcs[i] != c.pc:
            raise ContractViolation(f"time {i}: pc {pcs[i]} does not replay (got {c.pc})")
        for r in range(R):
            if regs[i][r] != c.registers[r]:
                raise ContractViolation(
                    f"time {i}: register r{r}={regs[i][r]} does not replay "
                    f"(got {c.registers[r]})"
                )
        replay_ha = halted is not None and halted[1] and i > halted[0]
        replay_hr = halted is not None and not halted[1] and i > halted[0]
        if has[i] != replay_ha or hrs[i] != replay_hr:
            raise ContractViolation(f"time {i}: halt flags do not replay")

    if halted is None or not halted[1]:
        raise ContractViolation("decoded run does not accept within the bound")
    return Trace(configs=tuple(configs), outcome=ACCEPT, halt_step=halted[0] + 1)


def estimate_encode(program: Program, n_pins: int, t: int) -> tuple[int, int]:
    """Cheap upper estimate (vars, clauses) of encode().

    forge rules a bound out without encoding it when the estimated clause
    count reaches the CNF image format's clause cap.  Intentionally biased
    high, never low (1.2-3.3x the actual clause count for the shipped
    classifiers' diagonal programs at t = 8, 16, 32; 2.7-3.3x for
    scan_all's).

    Monotone in t: reach[i] for i < t does not depend on t, every per-step
    and per-pair term is non-negative, and the read and write step lists only
    grow.  forge relies on this to stop estimating after the first bound
    ruled too large.
    """
    addr_bits = _check_geometry(program)
    self_info = resolve_self(program)
    reach = reachable_pcs(program, t)
    instrs = program.instructions
    n_instr = len(instrs)
    P = max(1, n_instr.bit_length())
    R = program.register_count
    W = program.word_bits
    n_self = len(self_info.data) if self_info is not None and self_info.index < t else 0

    read_steps = [i for i in range(t) if any(k < n_instr and instrs[k].op == "LOAD" for k in reach[i])]
    write_steps = [i for i in range(t) if any(k < n_instr and instrs[k].op == "STORE" for k in reach[i])]

    op_cost = {
        "LOADI": W + P + 4,
        "MOV": 2 * W + P + 4,
        "ADD": 14 * W + P + 6,
        "SUB": 14 * W + P + 6,
        "LOAD": 2 * addr_bits + 4 * W + P + 6,
        "STORE": 2 * addr_bits + 4 * W + P + 6,
        "JZ": W + 2 + 2 * P + 4,
        "JMP": P + 4,
        "SELF": W + P + 4,
        "HALT_ACCEPT": 2 * P + 6,
        "HALT_REJECT": 2 * P + 6,
    }
    clauses = 3 * R * W + 3 * P + 10  # init units, goal, slack
    nvars = (t + 1) * (P + 2 + R * W)
    for i in range(t):
        clauses += 12 + 4 * P + R * (2 * W + 2) + 6
        nvars += 2 + len(reach[i]) + R + 2 + addr_bits + W + 2 * W
        for k in reach[i]:
            if k < n_instr:
                clauses += op_cost[instrs[k].op] + P + 6
    pairs = 0
    for i in read_steps:
        pairs += sum(1 for j in write_steps if j < i)
        if self_info is not None and self_info.index < i:
            pairs += n_self
    clauses += pairs * (7 * addr_bits + 2 * W + 8)
    nvars += pairs * (2 + addr_bits)
    rr = len(read_steps) * (len(read_steps) - 1) // 2
    clauses += rr * (5 * addr_bits + 2 * W + 4)
    nvars += rr * (addr_bits + 1)
    clauses += n_pins * W * len(read_steps)
    return nvars, clauses


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
