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
- SELF is read off the walk below.  Within the bound its pc may be
  reachable at one step only, as that step's only pc, with a destination
  register the walk knows; its deposit, the program's serialization from
  that base, then enters the consistency constraints as constant write
  events at that step.  Any other reachable SELF is EncodeUnsupported.
- One walk over control flow, `reachable_pcs`, gives every static fact that
  decides the formula's shape: the pcs reachable at each step, each one's
  successors, the register values fixed at each (step, pc), and the steps at
  which a LOAD, and a STORE, may execute.  It takes each successor from the
  interpreter, so a JZ whose register it knows has one and is encoded like a
  JMP; only a JZ on an unknown register gets both arms.  It reads the
  program text only, never memory or pin values, so pins can never change
  the shape: known values come from LOADI, MOV, ADD, SUB and SELF's length,
  and every LOAD result is unknown.
- State is held as vectors of variables, allocated time-major: pc[i],
  ha[i], hr[i] and reg[i][r] for each time i, plus one (rd, wr, addr, val)
  access record per step at which a LOAD or STORE may execute.  Constraints
  take their literals from these lists, never by looking components up.
- Clauses come from five gates on the builder: `same` (bitwise equality
  under guard literals), `fix` (bits hold a constant under guard literals),
  `xor`, `any_of` (a new variable <-> some literal holds), and `match` (a
  flag <-> bits hold a constant and some literals are false).  Each gate
  appends its clauses as one batch through the single size-budget check.
  Only one-off clauses and the adder's sum and carry clauses are written out
  directly.
- ADD and SUB are one ripple-carry adder, ss := xs + ys + carry (SUB adds
  ~y and a carry of 1).  A register whose value the walk knows at that
  (step, pc) enters as constant bits, and the adder folds constants: a
  sum bit with no literal left is fixed, with one it copies that literal;
  a carry equal to an input or a constant gets no variable.  So `sub r, r`,
  `add r, r` (a left shift) and a known operand (an incrementer) all cost
  less than two unknown operands.
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
    HALT_REJECT,
    Config,
    Halt,
    Instruction,
    Program,
    REGISTER_OPS,
    _execute,
    _successors,
    serialize,
    step,
)


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

    `var` allocates one variable and `vars` a block of them, numbered in
    order; either raises ContractViolation for a component already allocated
    or repeated within the block.  A gate's `pre` is a tuple of literals
    prepended to each of its clauses, so the gate binds only where every
    literal of `pre` is false.  Each gate appends its clauses as one batch
    through `extend`, the one budget check.
    """

    def __init__(self, max_size: int | None):
        self.var_of: dict[tuple, int] = {}
        self.count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.max_size = max_size
        self.size = 0

    def var(self, *component) -> int:
        v = self.count + 1
        if self.var_of.setdefault(component, v) != v:
            raise ContractViolation(f"duplicate component {component}")
        self.count = v
        return v

    def vars(self, components: list[tuple]) -> list[int]:
        numbers = range(self.count + 1, self.count + 1 + len(components))
        block = dict(zip(components, numbers))
        if len(block) < len(numbers) or not block.keys().isdisjoint(self.var_of.keys()):
            seen = set(self.var_of)
            for component in components:
                if component in seen:
                    raise ContractViolation(f"duplicate component {component}")
                seen.add(component)
        self.var_of.update(block)
        self.count += len(numbers)
        return list(numbers)

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
        out: list[tuple[int, ...]] = []
        append = out.append
        for x, y in zip(xs, ys):
            append(pre + (-x, y))
            append(pre + (x, -y))
        self.extend(out)

    def fix(self, pre: tuple[int, ...], xs, value: int) -> None:
        """Unless a literal of `pre` holds, the bits xs spell `value`."""
        self.extend([pre + (lit,) for lit in _spell(xs, value)])

    def xor(self, d: int, x: int, y: int) -> None:
        """d <-> x xor y."""
        self.extend([(-d, x, y), (-d, -x, -y), (d, x, -y), (d, -x, y)])

    def any_of(self, lits, *component) -> int:
        """A new variable v, allocated as `component`, with v <-> some literal
        of `lits` holds."""
        v = self.var(*component)
        self.extend([(-v, *lits)] + [(v, -lit) for lit in lits])
        return v

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


Known = tuple[int | None, ...]  # per register: its value, or None where unknown


def reachable_pcs(
    program: Program, t: int
) -> tuple[list[dict[int, Known]], list[dict[int, tuple[int, ...]]], list[int], list[int]]:
    """The encoder's one walk over control flow: (reach, succ, read_steps, write_steps).

    reach[i] maps each pc possible at time i to the register values every run
    holds at time i with that pc, None marking a register the program text
    does not fix; pc len(instructions), reached by running past the last
    instruction, is a HALT_REJECT.  The values are a forward constant
    analysis (Kildall, POPL 1973): registers start at 0, every LOAD result is
    unknown, and values reaching one (time, pc) from several predecessors are
    joined.  succ[i] maps each pc of reach[i] to the pcs that can follow it:
    one, the interpreter's, except for a JZ on an unknown register, which has
    both arms; a halt stays put.  read_steps and write_steps are
    the steps before t at which a LOAD, and a STORE, may execute.  The walk
    reads program text only, never memory or pin values.
    """
    instrs = program.instructions + (HALT_REJECT,)
    reach, succ, read_steps, write_steps = [{0: (0,) * program.register_count}], [], [], []
    for i in range(t):
        ops = {instrs[k].op for k in reach[i]}
        if "LOAD" in ops:
            read_steps.append(i)
        if "STORE" in ops:
            write_steps.append(i)
        nxt: dict[int, Known] = {}
        arms: dict[int, tuple[int, ...]] = {}
        for k, regs in reach[i].items():
            after, arms[k] = _step(program, k, instrs[k], regs)
            for m in arms[k]:
                old = nxt.get(m, after)
                nxt[m] = tuple(x if x == y else None for x, y in zip(old, after))
        reach.append(nxt)
        succ.append(arms)
    return reach, succ, read_steps, write_steps


def _step(program: Program, k: int, ins: Instruction, regs: Known) -> tuple[Known, tuple[int, ...]]:
    """One interpreter step of `ins`, at pc k, from `regs` with unknown
    registers read as 0: (the known register values after it, its successors).

    The successor is the interpreter's, except that a JZ whose register is
    unknown may go either way: (k + 1, target).  A written value is known when
    the op reads no unknown register (`sub r, r` reads none: it is 0) and is
    not a LOAD.
    """
    concrete = [x or 0 for x in regs]
    # the variant D's trial runs enter too, so forge compiles each region once
    pc = _execute(program, k, concrete, (), 1, True)[2]
    if ins.op == "JZ" and regs[ins.args[0]] is None:
        return regs, _successors(ins, k)
    w = _written_register(ins)
    if w is None:
        return regs, (pc,)
    reads = {"MOV": ins.args[1:], "ADD": ins.args, "SUB": ins.args}.get(ins.op, ())
    if ins.op == "SUB" and ins.args[0] == ins.args[1]:
        reads = ()
    out = list(regs)
    out[w] = None if ins.op == "LOAD" or any(regs[r] is None for r in reads) else concrete[w]
    return tuple(out), (pc,)


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
    try:
        given = tuple(pinned)
    except TypeError:
        raise InputError(f"pins {pinned!r} are not a collection of (address, value) pairs") from None
    pins = []
    seen = set()
    for pin in given:
        try:
            a, v = pin
        except (TypeError, ValueError):  # not a pair
            a = v = None
        if type(a) is not int or type(v) is not int:
            raise InputError(f"pin {pin!r} is not a pair of ints")
        pins.append((a, v))
        if a in seen:
            raise InputError(f"pinned address {a} repeated")
        seen.add(a)
        if not 0 <= a < program.memory_cells:
            raise InputError(f"pinned address {a} outside memory")
        if not 0 <= v <= 255:
            raise InputError(f"pinned value {v} is not a byte")
    return tuple(pins)


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
    if type(t) is not int:
        raise InputError(f"step bound must be an int, got {t!r}")
    if t < 1:
        raise InputError(f"step bound must be at least 1, got {t}")
    pins = _check_pins(program, pinned)
    addr_bits, P, R, W = _dims(program)
    # Every state variable occurs in some clause, so the state block alone
    # bounds the size from below; checking it first keeps huge t cheap.
    if max_size is not None and (t + 1) * (P + 2 + R * W) > max_size:
        raise ResourceError(f"state variables alone exceed the size budget of {max_size}")
    reach, succ, read_steps, write_steps = reachable_pcs(program, t)
    stores = set(write_steps)
    accessing = stores.union(read_steps)
    instrs = program.instructions + (HALT_REJECT,)  # running past the end rejects
    written = [_written_register(ins) for ins in instrs]
    # SELF's deposit is constant write events at the one step where it runs,
    # from the base the walk knows there
    selfs = [(i, k) for i in range(t) for k in reach[i] if instrs[k].op == "SELF"]
    self_step, deposit = None, b""
    if selfs:
        (self_step, k), *others = selfs
        base = reach[self_step][k][instrs[k].args[0]]
        if others or len(reach[self_step]) > 1 or base is None:
            raise EncodeUnsupported(
                f"SELF at index {k}, step {self_step}: the encoder needs it to run at "
                "one step only, as that step's only pc, from a base the program text fixes"
            )
        deposit = serialize(program)

    b = _Builder(max_size)

    # State variables, time-major.
    pc: list[list[int]] = []
    ha: list[int] = []
    hr: list[int] = []
    reg: list[list[list[int]]] = []
    for i in range(t + 1):
        state = b.vars(
            [("pc", i, bit) for bit in range(P)]
            + [("halt_acc", i), ("halt_rej", i)]
            + [("reg", i, r, bit) for r in range(R) for bit in range(W)]
        )
        pc.append(state[:P])
        ha.append(state[P])
        hr.append(state[P + 1])
        reg.append([state[P + 2 + r * W : P + 2 + (r + 1) * W] for r in range(R)])

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
        # a JZ the walk leaves undecided: is_zero picks its arm
        is_zero = {k: b.var("is_zero", i, k) for k in guards if len(succ[i][k]) == 2}
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
        writers: list[list[int]] = [[] for _ in range(R)]
        for k, g in guards.items():
            if written[k] is not None:
                writers[written[k]].append(g)
        for r in range(R):
            b.same((ch[r],), reg0[r], reg1[r])
            b.add(-ch[r], *writers[r])

        for k, g in guards.items():
            op, a = instrs[k].op, instrs[k].args
            if op == "LOADI":
                b.fix((-g,), reg1[a[0]], a[1] & program.word_mask)
            elif op == "MOV":
                b.same((-g,), reg0[a[1]], reg1[a[0]])
            elif op in ("ADD", "SUB"):
                xs, ys = (_operand(reach[i][k][r], reg0[r]) for r in a)
                if op == "SUB":  # x - y = x + ~y + 1
                    ys = [not y if type(y) is bool else -y for y in ys]
                _adder(b, (i, k), g, xs, ys, op == "SUB", reg1[a[0]])
            elif op == "LOAD":
                b.fix((-g,), rw, 0b01)  # read, no write
                b.same((-g,), reg0[a[1]][:addr_bits], addr)
                b.same((-g,), val, reg1[a[0]])
            elif op == "STORE":
                b.fix((-g,), (wr, rd), 0b01)  # write, no read
                b.same((-g,), reg0[a[0]][:addr_bits], addr)
                b.same((-g,), reg0[a[1]], val)
            elif k in is_zero:
                z = is_zero[k]
                fall, jump = succ[i][k]
                b.match(z, reg0[a[0]], 0, ())
                for bit, x in enumerate(pc1):
                    b.fix((-g, -z), (x,), jump >> bit)
                    b.fix((-g, z), (x,), fall >> bit)
            elif op == "SELF":
                b.fix((-g,), reg1[a[1]], len(deposit) & program.word_mask)
            elif op == "HALT_ACCEPT":
                b.add(-g, ha[i + 1])
                b.same((-g,), pc0, pc1)
            elif op == "HALT_REJECT":
                b.add(-g, hr[i + 1])
                b.same((-g,), pc0, pc1)
            if k not in is_zero and op not in ("HALT_ACCEPT", "HALT_REJECT"):
                b.fix((-g,), pc1, *succ[i][k])  # the one successor
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
        values: list[int | list[int]] = []
        for j in range(i):
            if j == self_step:
                for m, byte in enumerate(deposit):
                    hvar = b.var("hit", i, "self", m)
                    b.match(hvar, addr_i, (base + m) % program.memory_cells, ())
                    hits.append(hvar)
                    values.append(byte)
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
                values.append(val_j)

        # later-hit chain: later[p] = [v] with v <-> some hit at position > p
        later: list[list[int]] = [[] for _ in hits]
        for p in range(len(hits) - 2, -1, -1):
            later[p] = [b.any_of([hits[p + 1], *later[p + 1]], "later_hit", i, p)]

        # serve from the most recent hitting write
        for p, value in enumerate(values):
            pre = (-rd_i, -hits[p], *later[p])
            if isinstance(value, int):
                b.fix(pre, val_i, value)
            else:
                b.same(pre, value, val_i)

        # any-hit marker, for init-served reads
        any_hit[i] = [b.any_of([hits[0], *later[0]], "any_hit", i)] if hits else []

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
            differs = b.any_of(diffs, "init_addrs_differ", i1, i2)
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


def _operand(value: int | None, lits: list[int]) -> list:
    """A register's bits as adder inputs: its literals, or the bools of `value`
    where the walk knows it."""
    return lits if value is None else [bool(value >> bit & 1) for bit in range(len(lits))]


def _adder(b: _Builder, at: tuple[int, int], g: int, xs, ys, carry, ss) -> None:
    """ss := xs + ys + carry, guarded by g; each input bit is a literal or a bool.

    Constants fold into the sum bit's parity; a literal met twice cancels, and
    one met with its negation flips the parity.  The carry out, a majority,
    folds where two inputs are equal (their value) or opposite (the third);
    otherwise it gets the variable ("carry", step, pc, bit), defined unguarded.
    The clauses go out as one batch.
    """
    out: list[tuple[int, ...]] = []
    for bit, (x, y, s) in enumerate(zip(xs, ys, ss)):
        parity, lits = False, []
        for v in (x, y, carry):
            if type(v) is bool:
                parity ^= v
            elif v in lits:
                lits.remove(v)
            elif -v in lits:
                lits.remove(-v)
                parity = not parity
            else:
                lits.append(v)
        if not lits:  # as `fix`
            out.append((-g, s if parity else -s))
        elif len(lits) == 1:  # as `same`
            lit = -lits[0] if parity else lits[0]
            out += [(-g, -lit, s), (-g, lit, -s)]
        else:  # one clause per assignment of lits; the n-th makes popcount(n) true
            out += [
                (-g, *clause, s if (n.bit_count() + parity) & 1 else -s)
                for n, clause in enumerate(product(*((v, -v) for v in lits)))
            ]
        if bit < len(ss) - 1:
            carry = _carry(b, (*at, bit + 1), (x, y, carry), out)
    b.extend(out)


def _carry(b: _Builder, at: tuple[int, int, int], ins: tuple, out: list):
    """majority(ins): an input where two inputs are equal or opposite, else a
    new variable, whose defining clauses are appended to `out`."""
    x, y, c = ins
    for p, q, r in ((x, y, c), (x, c, y), (y, c, x)):
        if type(p) is type(q):
            if p == q:
                return p
            if type(p) is bool or p == -q:  # opposite
                return r
    cout = b.var("carry", *at)
    u, v, *rest = (w for w in ins if type(w) is not bool)
    if rest:  # cout <-> majority(x, y, c)
        out += [(-cout, x, y), (-cout, x, c), (-cout, y, c),
                (cout, -x, -y), (cout, -x, -c), (cout, -y, -c)]
    elif any(w is True for w in ins):  # cout <-> u or v (`True in ins` would match literal 1)
        out += [(cout, -u), (cout, -v), (-cout, u, v)]
    else:  # cout <-> u and v
        out += [(-cout, u), (-cout, v), (cout, -u, -v)]
    return cout


@dataclass(frozen=True)
class Trace:
    configs: tuple[Config, ...]
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
    return Trace(configs=tuple(configs), halt_step=halted[0] + 1)


def estimate_encode(program: Program, n_pins: int, t: int) -> tuple[int, int]:
    """(vars, clauses) of encode(program, pins, t) for any n_pins distinct pins.

    Exact, because pins never change the shape: their values enter only as
    constants, and each pin's clauses carry one mismatch literal per address
    bit whatever the address.  Only the benchmark's
    tableau.estimate_over_actual probe calls this.
    """
    formula, _ = encode(program, [(a, 0) for a in range(n_pins)], t)
    return formula.num_vars, len(formula.clauses)

