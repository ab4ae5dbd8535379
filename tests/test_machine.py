import random
import time

import pytest

from diagforge.errors import DecodeError, InputError, ParseError
from diagforge.machine import (
    ACCEPT,
    ADD,
    HALT_ACCEPT,
    HALT_REJECT,
    REGION_PCS,
    Instruction,
    JMP,
    JZ,
    LOAD,
    LOADI,
    MOV,
    OUT_OF_FUEL,
    REJECT,
    SELF,
    STORE,
    SUB,
    Config,
    Halt,
    Program,
    RunOutcome,
    deserialize,
    format_asm,
    initial_config,
    parse_asm,
    run,
    run_recording_reads,
    serialize,
    step,
)
from diagforge.machine import _execute, _region, _Source


def prog(instrs, **kw):
    kw.setdefault("register_count", 2)
    kw.setdefault("memory_cells", 16)
    return Program(tuple(instrs), **kw)


def test_step_halt_accept():
    p = prog([HALT_ACCEPT])
    assert step(p, initial_config(p)) == Halt(accept=True)


def test_step_loadi():
    p = prog([LOADI(0, 5), HALT_ACCEPT])
    c1 = step(p, initial_config(p))
    assert isinstance(c1, Config)
    assert c1.registers[0] == 5
    assert c1.pc == 1


def test_step_at_end_of_program_rejects():
    p = prog([LOADI(0, 1)])
    c1 = step(p, initial_config(p))
    assert c1.pc == 1
    assert step(p, c1) == Halt(accept=False)


def test_step_past_end_of_program_raises():
    p = prog([LOADI(0, 1)])
    c = initial_config(p)
    with pytest.raises(InputError):
        step(p, Config(2, c.registers, c.memory))


@pytest.mark.parametrize(
    "pc, registers, memory",
    [
        (-1, (0, 0), (0,) * 16),
        (0, (0,), (0,) * 16),
        (0, (0, 0, 0), (0,) * 16),
        (0, (0, 0), ()),
        (0, (0, 0), (0,) * 17),
    ],
    ids=["negative-pc", "too-few-registers", "too-many-registers", "no-memory", "too-much-memory"],
)
def test_step_rejects_malformed_config(pc, registers, memory):
    p = prog([LOADI(0, 5), HALT_ACCEPT])
    with pytest.raises(InputError):
        step(p, Config(pc, registers, memory))


@pytest.mark.parametrize(
    "registers",
    [(70000, 0), (-3, 0), (0, 256), (255, -1)],
    ids=["wide", "negative", "one-past-mask", "negative-second"],
)
def test_step_rejects_registers_outside_the_word(registers):
    # With 8-bit words, MOV would pass an unmasked register through unchanged.
    p = prog([MOV(1, 0), HALT_ACCEPT], word_bits=8)
    with pytest.raises(InputError, match="register"):
        step(p, Config(0, registers, (0,) * 16))
    assert step(p, Config(0, (255, 0), (0,) * 16)).registers == (255, 255)


def test_step_store_returns_written_memory():
    p = prog([LOADI(0, 3), LOADI(1, 9), STORE(0, 1), HALT_ACCEPT])
    c0 = initial_config(p)
    c1 = step(p, c0)
    assert c1.memory is c0.memory  # steps that write nothing share the tuple
    c3 = step(p, step(p, c1))
    assert c3.pc == 3
    assert c3.memory[3] == 9
    assert c0.memory[3] == 0


def test_step_self_deposits_own_serialization():
    p = prog([SELF(0, 1), HALT_ACCEPT], memory_cells=64)
    c1 = step(p, initial_config(p))
    data = serialize(p)
    assert bytes(c1.memory[: len(data)]) == data
    assert c1.registers[1] == len(data)


def test_self_wraps_addresses_modulo_memory():
    p = prog([LOADI(0, 14), SELF(0, 1), HALT_ACCEPT], memory_cells=16)
    _, _, final = step_through(p, b"", 10)
    data = serialize(p)
    # bytes land at 14, 15, 0, 1, ... modulo 16; later writes win
    expected = [0] * 16
    for j, byte in enumerate(data):
        expected[(14 + j) % 16] = byte
    assert list(final.memory) == expected


def test_run_reject_counts_halt_step():
    out = run(prog([HALT_REJECT]), b"", 10)
    assert out.tag == REJECT
    assert out.steps_used == 1


def test_run_infinite_loop_out_of_fuel():
    out = run(prog([JMP(0)]), b"", 100)
    assert out.tag == OUT_OF_FUEL
    assert out.steps_used == 100


def test_run_fall_off_end_rejects():
    out = run(prog([LOADI(0, 1)]), b"", 10)
    assert out.tag == REJECT
    assert out.steps_used == 2


def test_run_input_too_long():
    with pytest.raises(InputError):
        run(prog([HALT_ACCEPT]), b"x" * 17, 10)


def test_arithmetic_wraps():
    p = prog([LOADI(0, 3), LOADI(1, 5), SUB(0, 1), HALT_ACCEPT], word_bits=4)
    _, _, final = step_through(p, b"", 10)
    assert final.registers[0] == (3 - 5) % 16


def test_load_store_roundtrip():
    p = prog(
        [LOADI(0, 7), LOADI(1, 9), STORE(0, 1), LOAD(1, 0), HALT_ACCEPT],
        register_count=2,
    )
    _, _, final = step_through(p, b"", 10)
    assert final.registers[1] == 9
    assert final.memory[7] == 9


def test_determinism_and_fuel_monotonicity():
    rng = random.Random(99)
    for _ in range(50):
        p = random_program(rng)
        base = run(p, b"", 40)
        assert base == run(p, b"", 40)
        if base.tag in (ACCEPT, REJECT):
            for extra in (1, 7):
                again = run(p, b"", 40 + extra)
                assert again.tag == base.tag
                assert again.steps_used == base.steps_used


def test_run_recording_reads_tracks_untouched_cells_only():
    # First LOAD sees initial memory; LOAD after STORE to the same cell does not.
    p = prog(
        [LOADI(0, 3), LOAD(1, 0), STORE(0, 1), LOAD(1, 0), HALT_ACCEPT],
        register_count=2,
    )
    _, reads = run_recording_reads(p, bytes([0, 0, 0, 42]), 10)
    assert reads == {3: 42}


def test_run_recording_reads_skips_self_deposited_cells():
    # r0 starts at 0, so SELF deposits at 0..len-1; only cell 40 is untouched.
    p = prog(
        [SELF(0, 1), LOAD(1, 0), LOADI(0, 40), LOAD(1, 0), HALT_ACCEPT],
        memory_cells=64,
    )
    assert len(serialize(p)) < 40
    memory = bytearray(64)
    memory[0], memory[40] = 99, 7
    _, reads = run_recording_reads(p, bytes(memory), 10)
    assert reads == {40: 7}


def test_iterated_step_agrees_with_run():
    rng = random.Random(31337)
    for _ in range(50):
        p = random_program_full(rng)
        tag, steps, _ = step_through(p, b"", 40)
        assert run(p, b"", 40) == RunOutcome(tag, steps)


def step_through(program, input_bytes, fuel):
    """(tag, steps_used, last config) of iterating `step` from `initial_config`."""
    config = initial_config(program, input_bytes)
    for steps in range(1, fuel + 1):
        nxt = step(program, config)
        if isinstance(nxt, Halt):
            return (ACCEPT if nxt.accept else REJECT), steps, config
        config = nxt
    return OUT_OF_FUEL, fuel, config


LOAD_INTO_A_NIBBLE = parse_asm(".registers 2\n.wordbits 4\n.memory 16\nloadi r1, 0\nload r0, r1\naccept\n")


def test_step_chains_through_a_load_of_a_byte_wider_than_the_word():
    # LOAD cuts the byte to the word, so step takes each config it returns; the read keeps the byte
    last = Config(2, (200 & 15, 0), (200,) + (0,) * 15)
    assert step_through(LOAD_INTO_A_NIBBLE, bytes([200]), 10) == (ACCEPT, 3, last)
    assert run_recording_reads(LOAD_INTO_A_NIBBLE, bytes([200]), 10)[1] == {0: 200}


def reference_execute(program, pc, regs, memory, fuel):
    """The interpreter as a plain loop over a full memory list and an op chain.

    The reference `_execute` must agree with: updates `regs` and `memory` in
    place and returns (tag, steps_used, pc, written, init_reads).
    """
    n = len(program.instructions)
    mask = program.word_mask
    cells = program.memory_cells
    instrs = program.instructions
    written = set()
    init_reads = {}
    self_data = None

    steps = 0
    while steps < fuel:
        if pc == n:
            return REJECT, steps + 1, pc, written, init_reads
        ins = instrs[pc]
        op, args = ins.op, ins.args
        steps += 1
        if op == "HALT_ACCEPT":
            return ACCEPT, steps, pc, written, init_reads
        if op == "HALT_REJECT":
            return REJECT, steps, pc, written, init_reads
        if op == "LOADI":
            regs[args[0]] = args[1] & mask
            pc += 1
        elif op == "MOV":
            regs[args[0]] = regs[args[1]]
            pc += 1
        elif op == "ADD":
            regs[args[0]] = (regs[args[0]] + regs[args[1]]) & mask
            pc += 1
        elif op == "SUB":
            regs[args[0]] = (regs[args[0]] - regs[args[1]]) & mask
            pc += 1
        elif op == "LOAD":
            addr = regs[args[1]] % cells
            value = memory[addr]
            if addr not in written and addr not in init_reads:
                init_reads[addr] = value
            # LOAD is modulo the word; like the compiled code, it masks only a word
            # narrower than a byte, so a hand-built cell past both loads whole
            regs[args[0]] = value & mask if program.word_bits < 8 else value
            pc += 1
        elif op == "STORE":
            addr = regs[args[0]] % cells
            memory[addr] = regs[args[1]]
            written.add(addr)
            pc += 1
        elif op == "JZ":
            pc = args[1] if regs[args[0]] == 0 else pc + 1
        elif op == "JMP":
            pc = args[0]
        elif op == "SELF":
            if self_data is None:
                self_data = serialize(program)
            base = regs[args[0]]
            for j, byte in enumerate(self_data):
                addr = (base + j) % cells
                memory[addr] = byte
                written.add(addr)
            regs[args[1]] = len(self_data) & mask
            pc += 1
    return OUT_OF_FUEL, steps, pc, written, init_reads


def test_interpreter_agrees_with_reference():
    # memory sizes 16, 256 and 65536 come from random_program_full
    rng = random.Random(20261018)
    for _ in range(2000):
        p = random_program_full(rng)
        cells = p.memory_cells
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(min(cells, 300))))
        fuel = rng.randint(0, 60)
        regs = [0] * p.register_count
        memory = list(data) + [0] * (cells - len(data))
        tag, steps, pc, written, init_reads = reference_execute(p, 0, regs, memory, fuel)

        outcome, reads = run_recording_reads(p, data, fuel)
        assert outcome == RunOutcome(tag, steps)
        assert list(reads.items()) == list(init_reads.items())

        got_regs = [0] * p.register_count
        got_tag, got_steps, got_pc, writes, got_reads = _execute(p, 0, got_regs, data, fuel)
        overlaid = list(data) + [0] * (cells - len(data))
        for addr, value in writes.items():
            overlaid[addr] = value
        assert (got_tag, got_steps, got_pc, got_regs) == (tag, steps, pc, regs)
        assert set(writes) == written and overlaid == memory
        assert list(got_reads.items()) == list(init_reads.items())

        step_tag, step_steps, config = step_through(p, data, fuel)
        assert (step_tag, step_steps, config.pc) == (tag, steps, pc)
        assert list(config.registers) == regs and list(config.memory) == memory


def random_long_program(rng):
    """Programs up to three regions long over the whole instruction set, their
    jumps aimed mostly at pcs beside a region boundary."""
    rc = rng.randint(1, 8)
    word_bits = rng.choice([16, 16, 8, rng.randint(1, 16)])
    n = rng.choice([rng.randint(1, 12), rng.randint(REGION_PCS - 3, 3 * REGION_PCS + 3)])
    edges = [k for b in (REGION_PCS, 2 * REGION_PCS, 3 * REGION_PCS) for k in (b - 1, b, b + 1) if k < n]
    target = lambda: rng.choice(edges) if edges and rng.random() < 0.6 else rng.randrange(n)
    r = lambda: rng.randrange(rc)
    makers = [
        lambda: LOADI(r(), rng.randrange(1 << word_bits)),
        lambda: MOV(r(), r()),
        lambda: ADD(r(), r()),
        lambda: SUB(r(), r()),
        lambda: LOAD(r(), r()),
        lambda: STORE(r(), r()),
        lambda: JZ(r(), target()),
        lambda: JMP(target()),
        lambda: SELF(r(), r()),
        lambda: rng.choice([HALT_ACCEPT, HALT_REJECT]),
    ]
    # mostly straight-line code, so that blocks run long
    weights = [4, 2, 3, 3, 3, 2, 1, 0.4, 0.2, 0.3]
    instrs = [rng.choices(makers, weights)[0]() for _ in range(n)]
    return Program(tuple(instrs), register_count=rc, word_bits=word_bits, memory_cells=rng.choice([16, 256]))


def counted_loop_across_a_region_boundary(iterations):
    """A loop whose body straddles the first region boundary: store, load, count down."""
    pad = REGION_PCS - 4
    return Program(
        (LOADI(0, iterations), LOADI(1, 1), JMP(pad))
        + (HALT_REJECT,) * (pad - 3)
        + (JZ(0, pad + 6), STORE(0, 0), LOAD(2, 0), ADD(3, 2), SUB(0, 1), JMP(pad), HALT_ACCEPT),
        register_count=4,
        memory_cells=256,
    )


def loop_shapes():
    """(program, memory) pairs, each running from pc 0 into a loop that
    stays inside one region for at least three iterations."""
    asm = lambda text: parse_asm(".registers 4\n.memory 256\n" + text)
    parity = asm(
        "loadi r1, 0\nload r0, r1\nloadi r2, 1\n"
        "loop:\njz r0, even\nsub r0, r2\njz r0, odd\nsub r0, r2\njmp loop\n"
        "even:\naccept\nodd:\nreject\n"
    )
    pad = REGION_PCS - 3
    leaves_the_region = Program(
        (LOADI(0, 5), LOADI(1, 1), JMP(pad))
        + (HALT_REJECT,) * (pad - 3)
        + (SUB(0, 1), JZ(0, REGION_PCS + 1), JMP(pad), HALT_REJECT, HALT_ACCEPT),
        register_count=4,
        memory_cells=256,
    )
    zeros = [0] * 256
    return [
        # top-tested, like scan_all's scan
        (asm("loadi r0, 5\nloadi r1, 1\ntop:\njz r0, done\nadd r2, r1\nsub r0, r1\njmp top\ndone:\naccept\n"), zeros),
        # bottom-tested, going round on JZ's taken arm while the cells read are 0
        (asm("loadi r2, 1\nagain:\nload r3, r1\nadd r1, r2\njz r3, again\naccept\n"), [0] * 5 + [9] * 251),
        # two exits
        (parity, [7] + zeros[1:]),
        (parity, [8] + zeros[1:]),
        # a STORE then a LOAD of the same cell: not an initial-memory read
        (asm("loadi r0, 5\nloadi r2, 1\nloop:\nstore r1, r0\nload r3, r1\nadd r1, r2\nsub r0, r2\njz r0, done\njmp loop\ndone:\naccept\n"), zeros),
        # a jmp to itself
        (asm("loadi r0, 1\nspin:\njmp spin\n"), zeros),
        # an exit out of the region
        (leaves_the_region, zeros),
        # an exit at every JZ; run from pc 0, it never halts
        (chained_diamonds(), zeros),
    ]


def chained_diamonds():
    """One region of 15 JZ diamonds in a row, and a jump back to the first."""
    instrs = []
    for k in range(0, 60, 4):
        instrs += [JZ(0, k + 3), ADD(1, 2), JMP(k + 4), SUB(1, 2)]
    instrs += [SUB(0, 3), JMP(0), HALT_ACCEPT]
    return Program(tuple(instrs), register_count=4, memory_cells=256)


def agrees_with_reference(p, pc, regs, memory, fuel):
    """Run `_execute` and `reference_execute` from one configuration; both must agree."""
    want_regs, want_memory = list(regs), list(memory)
    tag, steps, end, written, init_reads = reference_execute(p, pc, want_regs, want_memory, fuel)
    got_regs = list(regs)
    got_tag, got_steps, got_end, writes, got_reads = _execute(p, pc, got_regs, tuple(memory), fuel)
    overlaid = list(memory)
    for addr, value in writes.items():
        overlaid[addr] = value
    assert (got_tag, got_steps, got_end, got_regs) == (tag, steps, end, want_regs)
    assert set(writes) == written and overlaid == want_memory
    assert list(got_reads.items()) == list(init_reads.items())
    return steps


def test_compiled_blocks_and_regions_agree_with_reference():
    # entry at every pc, from random registers and memory; fuel ending all
    # along the path, so inside blocks; loops of up to 2,000 steps
    rng = random.Random(20261019)
    programs = [random_long_program(rng) for _ in range(40)]
    programs += [counted_loop_across_a_region_boundary(k) for k in (0, 1, 7, 330)]
    programs += [p for p, _ in loop_shapes()]
    programs.append(LOAD_INTO_A_NIBBLE)
    for p in programs:
        mask, cells = p.word_mask, p.memory_cells
        for pc in range(len(p.instructions) + 1):
            regs = [rng.randrange(mask + 1) for _ in range(p.register_count)]
            memory = [rng.randrange(rng.choice([256, 1 << 16])) for _ in range(cells)]
            steps = agrees_with_reference(p, pc, regs, memory, rng.choice([12, 2000]))
            for fuel in {0, max(steps - 1, 0), *(rng.randint(0, steps) for _ in range(3))}:
                agrees_with_reference(p, pc, regs, memory, fuel)
        # step's configs carry the memory earlier steps wrote: bytes, or words
        config = Config(rng.randrange(len(p.instructions) + 1), tuple(regs), tuple(v & max(mask, 0xFF) for v in memory))
        for _ in range(40):
            regs, memory = list(config.registers), list(config.memory)
            tag, _, pc, _, _ = reference_execute(p, config.pc, regs, memory, 1)
            nxt = step(p, config)
            if isinstance(nxt, Halt):
                assert nxt.accept == (tag == ACCEPT)
                break
            assert nxt == Config(pc, tuple(regs), tuple(memory))
            config = nxt
    # the loop ran to its end: 6 steps an iteration, 3 before and 2 after
    assert run(counted_loop_across_a_region_boundary(330), b"", 10_000) == RunOutcome(ACCEPT, 3 + 6 * 330 + 2)
    # every fuel along a loop across the boundary cuts each of its blocks at every length
    p = counted_loop_across_a_region_boundary(7)
    for fuel in range(3 + 6 * 7 + 3):
        agrees_with_reference(p, 0, [0] * 4, [0] * 256, fuel)
    # each loop inside a region compiles to a loop over whole iterations; fuel
    # ending at every step of its first three iterations, and after it ends
    for p, memory in loop_shapes():
        assert any(line.lstrip().startswith("while left > ") for line in _Source(p, 0).lines)
        steps = agrees_with_reference(p, 0, [0] * 4, memory, 10_000)
        for fuel in {*range(min(steps, 70) + 1), steps + 1}:
            agrees_with_reference(p, 0, [0] * 4, memory, fuel)


def test_a_region_of_chained_branches_compiles_quickly():
    # each leader's cycle is found in time linear in the region: there are
    # 2**15 paths around the diamonds
    _region.cache_clear()
    p = chained_diamonds()
    start = time.perf_counter()
    _region(p._serial, 0)
    assert time.perf_counter() - start < 1.0


def test_regions_compile_on_first_entry_and_are_shared():
    def build():
        # 60,000 instructions; 10 steps visit regions 0, 300 and 937
        far, last = 300 * REGION_PCS, 59_999
        instrs = [LOADI(1, 7)] * 60_000
        instrs[2], instrs[far + 3], instrs[last] = JMP(far), JMP(last - 1), HALT_ACCEPT
        return Program(tuple(instrs))

    _region.cache_clear()
    p = build()
    assert run(p, b"", 10) == RunOutcome(ACCEPT, 9)
    assert _region.cache_info().misses == 3
    assert [index for index, region in enumerate(p._regions) if region] == [0, 300, 937]
    q = build()
    assert q is not p and q == p
    assert run(q, b"", 10) == RunOutcome(ACCEPT, 9)
    info = _region.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    assert all(a is b for a, b in zip(p._regions, q._regions))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Program((Instruction("ADD", (0, 1.0)), HALT_ACCEPT), register_count=2),
        lambda: Instruction("JMP", (1.0,)),
        lambda: Instruction("LOADI", (0, True)),
        lambda: Instruction("MOV", ("1", 0)),
        lambda: Program((HALT_ACCEPT,), register_count=2.0),
        lambda: Program((HALT_ACCEPT,), register_count=True),
        lambda: Program((HALT_ACCEPT,), word_bits=16.0),
        lambda: Program((HALT_ACCEPT,), memory_cells=16.0),
    ],
)
def test_operands_and_fields_must_be_ints(build):
    # they are written into compiled source; a bool is not an int here
    with pytest.raises(InputError, match="int"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Instruction("NOP"), "unknown instruction 'NOP'"),
        (lambda: Instruction("MOV", (0,)), "MOV takes 2 operands, got 1"),
        (lambda: Program((HALT_ACCEPT,), register_count=9), "register_count must be 1..8"),
        (lambda: Program((HALT_ACCEPT,), word_bits=17), "word_bits must be 1..16"),
        (lambda: prog([LOADI(0, 256), HALT_ACCEPT], word_bits=8), "constant 256 exceeds word size"),
        (lambda: initial_config(prog([HALT_ACCEPT]), b"x" * 17), "17 bytes exceeds 16 memory cells"),
        (lambda: run(prog([HALT_ACCEPT]), b"", -1), "fuel must be nonnegative"),
    ],
    ids=["unknown-op", "operand-count", "registers", "word-bits", "constant", "input", "fuel"],
)
def test_ill_formed_programs_and_runs_are_refused(build, message):
    with pytest.raises(InputError, match=message):
        build()


def random_program(rng, max_len=6):
    n = rng.randint(1, max_len)
    instrs = []
    for _ in range(n):
        choice = rng.randrange(8)
        if choice == 0:
            instrs.append(LOADI(rng.randrange(2), rng.randrange(16)))
        elif choice == 1:
            instrs.append(MOV(rng.randrange(2), rng.randrange(2)))
        elif choice == 2:
            instrs.append(ADD(rng.randrange(2), rng.randrange(2)))
        elif choice == 3:
            instrs.append(SUB(rng.randrange(2), rng.randrange(2)))
        elif choice == 4:
            instrs.append(JZ(rng.randrange(2), rng.randrange(n)))
        elif choice == 5:
            instrs.append(JMP(rng.randrange(n)))
        else:
            instrs.append(rng.choice([HALT_ACCEPT, HALT_REJECT]))
    return prog(instrs)


def random_program_full(rng):
    """Programs over the whole instruction set, for serialization tests."""
    rc = rng.randint(1, 8)
    n = rng.randint(1, 10)
    instrs = []
    for _ in range(n):
        op = rng.choice(list(range(11)))
        r = lambda: rng.randrange(rc)
        if op == 0:
            instrs.append(LOADI(r(), rng.randrange(1 << 16)))
        elif op == 1:
            instrs.append(MOV(r(), r()))
        elif op == 2:
            instrs.append(ADD(r(), r()))
        elif op == 3:
            instrs.append(SUB(r(), r()))
        elif op == 4:
            instrs.append(LOAD(r(), r()))
        elif op == 5:
            instrs.append(STORE(r(), r()))
        elif op == 6:
            instrs.append(JZ(r(), rng.randrange(n)))
        elif op == 7:
            instrs.append(JMP(rng.randrange(n)))
        elif op == 8:
            instrs.append(SELF(r(), r()))
        else:
            instrs.append(rng.choice([HALT_ACCEPT, HALT_REJECT]))
    return Program(
        tuple(instrs),
        register_count=rc,
        word_bits=16,
        memory_cells=rng.choice([16, 256, 65536]),
    )


def test_serialize_round_trip_random():
    rng = random.Random(424242)
    for _ in range(500):
        p = random_program_full(rng)
        data = serialize(p)
        assert deserialize(data) == p
        assert serialize(deserialize(data)) == data


def test_serialize_injective_on_constant_change():
    a = prog([LOADI(0, 1), HALT_ACCEPT])
    b = prog([LOADI(0, 2), HALT_ACCEPT])
    assert serialize(a) != serialize(b)


def test_serialize_halt_accept_regression_lock():
    # Canonical bytes for the one-instruction accepting program with default
    # geometry: version 1, 4 registers, 16-bit words, 65536 cells, 1 instruction,
    # opcode 10.
    p = Program((HALT_ACCEPT,))
    assert serialize(p) == bytes([1, 4, 16, 0, 0, 1, 0, 1, 0, 10])


def test_deserialize_truncated_reports_offset():
    data = serialize(prog([LOADI(0, 5), HALT_ACCEPT]))
    with pytest.raises(DecodeError) as exc:
        deserialize(data[:-3])
    assert exc.value.offset is not None


def test_deserialize_trailing_bytes():
    data = serialize(prog([HALT_ACCEPT]))
    with pytest.raises(DecodeError, match="trailing"):
        deserialize(data + b"\x00")


def test_deserialize_bad_opcode():
    data = bytearray(serialize(prog([HALT_ACCEPT])))
    data[9] = 99
    with pytest.raises(DecodeError, match="opcode"):
        deserialize(bytes(data))


def test_program_validation():
    with pytest.raises(InputError):
        Program((JMP(5), HALT_ACCEPT))  # target out of range
    with pytest.raises(InputError):
        Program((MOV(3, 0),), register_count=2)
    with pytest.raises(InputError):
        Program(())


def test_program_fields_fit_their_serialized_widths():
    # serialize writes memory_cells as a u32 and the instruction count as a u16
    for p in (Program((HALT_ACCEPT,), memory_cells=0xFFFFFFFF), Program((HALT_ACCEPT,) * 0xFFFF)):
        assert deserialize(serialize(p)) == p
    with pytest.raises(InputError, match="memory_cells"):
        Program((HALT_ACCEPT,), memory_cells=0x1_0000_0000)
    with pytest.raises(InputError, match="instructions"):
        Program((HALT_ACCEPT,) * 0x1_0000)
    assert parse_asm(".memory 4294967295\naccept\n").memory_cells == 0xFFFFFFFF
    with pytest.raises(ParseError, match="memory_cells"):
        parse_asm(".memory 4294967296\naccept\n")
    assert len(parse_asm("accept\n" * 0xFFFF).instructions) == 0xFFFF
    with pytest.raises(ParseError, match="instructions"):
        parse_asm("accept\n" * 0x1_0000)


def test_asm_round_trip():
    rng = random.Random(77)
    for _ in range(100):
        p = random_program_full(rng)
        assert parse_asm(format_asm(p)) == p


def test_asm_labels_and_comments():
    text = """
    ; spin until r0 hits zero, then accept
    .registers 2
    .memory 32
    loadi r1, 1
    loop:
        jz r0, done
        sub r0, r1
        jmp loop
    done:
        accept
    """
    p = parse_asm(text)
    assert p.instructions[1] == JZ(0, 4)
    assert p.instructions[3] == JMP(1)
    assert p.instructions[4] == HALT_ACCEPT


def test_asm_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_asm("bogus r1, r2")
    with pytest.raises(ParseError, match="unknown label"):
        parse_asm("jmp nowhere")
    with pytest.raises(ParseError, match="operand"):
        parse_asm("loadi r0")


def test_asm_directive_needs_a_number():
    with pytest.raises(ParseError, match="line 2: malformed directive '.registers x'"):
        parse_asm("accept\n.registers x\n")


def test_every_op_round_trips_through_asm_and_bytes():
    from diagforge.machine import OP_SPECS

    p = prog(
        [LOADI(0, 7), MOV(1, 0), ADD(0, 1), SUB(1, 0), LOAD(0, 1), STORE(1, 0),
         JZ(0, 8), JMP(9), SELF(0, 1), HALT_ACCEPT, HALT_REJECT],
        memory_cells=256,
    )
    assert sorted(ins.op for ins in p.instructions) == sorted(OP_SPECS)
    assert parse_asm(format_asm(p)) == p
    assert deserialize(serialize(p)) == p
