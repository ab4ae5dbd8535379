import itertools
import random
import re

import pytest

from diagforge.cnf import SAT, UNSAT, Assignment, solve_dpll
from diagforge.diagonal import build_diagonal_program, cnf_image
from diagforge.errors import ContractViolation, EncodeUnsupported, InputError, ResourceError
from diagforge.machine import (
    ACCEPT,
    ADD,
    HALT_ACCEPT,
    HALT_REJECT,
    JMP,
    JZ,
    LOAD,
    LOADI,
    MOV,
    SELF,
    STORE,
    SUB,
    Halt,
    Program,
    initial_config,
    parse_asm,
    run,
    run_recording_reads,
    step,
)
from diagforge.tableau import (
    _Builder,
    _adder,
    decode_witness,
    encode,
    estimate_encode,
    reachable_pcs,
)

from conftest import LOCKS, SHIPPED, corpus_programs, load_classifier, looped_sum, straight_line_sum


def prog(instrs, **kw):
    kw.setdefault("register_count", 4)
    kw.setdefault("word_bits", 8)
    kw.setdefault("memory_cells", 16)
    return Program(tuple(instrs), **kw)


def test_accept_immediately_sat():
    f, layout = encode(prog([HALT_ACCEPT]), [], 1)
    v = solve_dpll(f)
    assert v.tag == SAT
    trace = decode_witness(layout, v.witness)
    assert trace.halt_step == 1
    assert len(trace.configs) == 2


def test_reject_is_unsat():
    f, _ = encode(prog([HALT_REJECT]), [], 4)
    assert solve_dpll(f).tag == UNSAT


def test_fall_off_end_is_unsat():
    f, _ = encode(prog([LOADI(0, 1)]), [], 3)
    assert solve_dpll(f).tag == UNSAT


def test_t_zero_rejected():
    with pytest.raises(InputError):
        encode(prog([HALT_ACCEPT]), [], 0)
    # a bound is an int: not a float, a bool or a string
    for t in (2.5, 2.0, True, "2", None):
        with pytest.raises(InputError, match="step bound must be an int"):
            encode(prog([HALT_ACCEPT]), [], t)


def test_non_power_of_two_memory_rejected():
    with pytest.raises(EncodeUnsupported):
        encode(prog([HALT_ACCEPT], memory_cells=10), [], 2)


def test_memory_past_the_address_space_rejected():
    p = parse_asm(".wordbits 8\n.memory 512\naccept\n")
    with pytest.raises(EncodeUnsupported, match="exceeds the 8-bit address space"):
        encode(p, [], 2)


def test_pin_validation():
    p = prog([HALT_ACCEPT])
    with pytest.raises(InputError):
        encode(p, [(1, 5), (1, 6)], 2)
    with pytest.raises(InputError):
        encode(p, [(1, 300)], 2)
    with pytest.raises(InputError):
        encode(p, [(99, 1)], 2)
    # addresses and values are ints, not floats, bools or strings
    for pin in [(1, 2.7), (1, True), (1.9, 5), (True, 5), (1, "5"), ("1", 5), (1, None)]:
        with pytest.raises(InputError, match="not a pair of ints"):
            encode(p, [pin], 2)
    # a pin that is no pair, and pins that are no collection, name what was given
    for pin in [(1, 2, 3), (1,), (), 7, None, "15"]:
        with pytest.raises(InputError, match=re.escape(f"pin {pin!r} is not a pair of ints")):
            encode(p, [pin], 2)
    for pins in [5, None]:
        with pytest.raises(InputError, match=f"pins {pins!r} are not a collection"):
            encode(p, pins, 2)


def test_decode_witness_refuses_an_assignment_of_another_length():
    f, layout = encode(prog([HALT_ACCEPT]), [], 1)
    with pytest.raises(InputError, match=f"layout has {f.num_vars}"):
        decode_witness(layout, Assignment((False,) * (f.num_vars + 1)))


def test_decode_witness_refuses_a_run_that_never_accepts():
    # all-false spells pc 0 and no halt at every time: the replay of `jmp 0`
    # agrees step by step, but never accepts
    f, layout = encode(prog([JMP(0)]), [], 3)
    with pytest.raises(ContractViolation, match="decoded run does not accept within the bound"):
        decode_witness(layout, Assignment((False,) * f.num_vars))


def zero_test_program():
    # accept exactly when memory[3] == 0
    return prog([LOADI(0, 3), LOAD(1, 0), JZ(1, 4), HALT_REJECT, HALT_ACCEPT])


def test_pinned_cell_decides_satisfiability():
    p = zero_test_program()
    f0, _ = encode(p, [(3, 0)], 5)
    f7, _ = encode(p, [(3, 7)], 5)
    ffree, _ = encode(p, [], 5)
    assert solve_dpll(f0).tag == SAT
    assert solve_dpll(f7).tag == UNSAT
    assert solve_dpll(ffree).tag == SAT  # unpinned cell is existential


def test_unpinned_witness_decodes_to_consistent_initial_memory():
    p = zero_test_program()
    f, layout = encode(p, [], 5)
    v = solve_dpll(f)
    trace = decode_witness(layout, v.witness)
    assert trace.configs[0].memory[3] == 0  # the accepting run needs a zero there


def test_pinned_witness_decodes_with_pins_applied():
    p = zero_test_program()
    f, layout = encode(p, [(3, 0), (5, 9)], 5)
    v = solve_dpll(f)
    assert v.tag == SAT
    trace = decode_witness(layout, v.witness)
    assert trace.configs[0].memory[3] == 0
    assert trace.configs[0].memory[5] == 9


def test_fully_pinned_input_matches_simulation():
    # With every cell pinned the run is fully determined, so satisfiability
    # must equal the simulator's acceptance in both directions.
    from diagforge.machine import JMP, STORE

    rng = random.Random(1234)
    t = 6
    checked = accepted = 0
    while checked < 120:
        n = rng.randint(1, 4)
        instrs = []
        for _ in range(n):
            c = rng.randrange(8)
            if c == 0:
                instrs.append(LOADI(rng.randrange(2), rng.randrange(16)))
            elif c == 1:
                instrs.append(LOAD(rng.randrange(2), rng.randrange(2)))
            elif c == 2:
                instrs.append(STORE(rng.randrange(2), rng.randrange(2)))
            elif c == 3:
                instrs.append(JZ(rng.randrange(2), rng.randrange(n)))
            elif c == 4:
                instrs.append(JMP(rng.randrange(n)))
            else:
                instrs.append(rng.choice([HALT_ACCEPT, HALT_REJECT]))
        p = Program(tuple(instrs), register_count=2, word_bits=8, memory_cells=16)
        x = bytes(rng.randrange(256) for _ in range(16))
        pins = [(a, x[a]) for a in range(16)]
        f, _ = encode(p, pins, t)
        sat = solve_dpll(f).tag == SAT
        acc = run(p, x, t).tag == ACCEPT
        assert sat == acc, (p.instructions, x)
        checked += 1
        accepted += acc
    assert accepted  # the corpus exercised both outcomes


def test_one_cell_memory_folds_every_address_onto_cell_0():
    # "cell 1" and cell 0 are the same cell, so their difference is always
    # zero and the program can never accept
    p = prog(
        [LOADI(0, 1), LOAD(1, 0), LOADI(0, 0), LOAD(2, 0), SUB(1, 2), JZ(1, 7),
         HALT_ACCEPT, HALT_REJECT],
        register_count=3, memory_cells=1,
    )
    assert solve_dpll(encode(p, [], 8)[0]).tag == UNSAT
    for value in (0, 5, 255):
        assert run(p, bytes([value]), 8).tag != ACCEPT
        assert solve_dpll(encode(p, [(0, value)], 8)[0]).tag == UNSAT


def test_one_cell_memory_accepting_run_decodes():
    # accept iff "cell 3", which is cell 0, holds zero
    p = prog([LOADI(0, 3), LOAD(1, 0), JZ(1, 4), HALT_REJECT, HALT_ACCEPT], memory_cells=1)
    f, layout = encode(p, [], 5)
    v = solve_dpll(f)
    assert v.tag == SAT
    trace = decode_witness(layout, v.witness)
    assert trace.configs[0].memory == (0,)
    for value in (0, 7):
        sat = solve_dpll(encode(p, [(0, value)], 5)[0]).tag == SAT
        assert sat == (run(p, bytes([value]), 5).tag == ACCEPT) == (value == 0)


def test_same_cell_reads_must_agree():
    # accept iff two loads of the same untouched cell differ: impossible
    differ = prog(
        [LOADI(0, 5), LOAD(1, 0), LOAD(2, 0), SUB(1, 2), JZ(1, 6), HALT_ACCEPT, HALT_REJECT]
    )
    agree = prog(
        [LOADI(0, 5), LOAD(1, 0), LOAD(2, 0), SUB(1, 2), JZ(1, 6), HALT_REJECT, HALT_ACCEPT]
    )
    f_diff, _ = encode(differ, [], 7)
    f_agree, _ = encode(agree, [], 7)
    assert solve_dpll(f_diff).tag == UNSAT
    assert solve_dpll(f_agree).tag == SAT


def test_read_over_write_consistency():
    # store 9 at cell 3, read it back; accept iff the read returns 9
    agree = prog(
        [LOADI(0, 3), LOADI(1, 9), STORE(0, 1), LOAD(2, 0), SUB(2, 1), JZ(2, 7), HALT_REJECT, HALT_ACCEPT]
    )
    differ = prog(
        [LOADI(0, 3), LOADI(1, 9), STORE(0, 1), LOAD(2, 0), SUB(2, 1), JZ(2, 7), HALT_ACCEPT, HALT_REJECT]
    )
    fa, layout = encode(agree, [], 8)
    fd, _ = encode(differ, [], 8)
    va = solve_dpll(fa)
    assert va.tag == SAT
    assert solve_dpll(fd).tag == UNSAT
    decode_witness(layout, va.witness)


def test_most_recent_write_wins():
    # two stores to one cell; the later value must be the one read back
    stale = prog(
        [
            LOADI(0, 3),
            LOADI(1, 9),
            STORE(0, 1),
            LOADI(1, 12),
            STORE(0, 1),
            LOAD(2, 0),
            SUB(2, 1),
            JZ(2, 9),
            HALT_REJECT,
            HALT_ACCEPT,
        ]
    )
    f, _ = encode(stale, [], 10)
    assert solve_dpll(f).tag == SAT
    # variant asserting the stale value 9 is read back
    stale_bad = prog(
        [
            LOADI(0, 3),
            LOADI(1, 9),
            STORE(0, 1),
            LOADI(1, 12),
            STORE(0, 1),
            LOAD(2, 0),
            LOADI(1, 9),
            SUB(2, 1),
            JZ(2, 10),
            HALT_REJECT,
            HALT_ACCEPT,
        ]
    )
    f2, _ = encode(stale_bad, [], 11)
    assert solve_dpll(f2).tag == UNSAT


def self_reader_program():
    # deposit own serialization at 8, read the first byte back (the version
    # byte, which is 1), accept iff it is nonzero
    return prog(
        [LOADI(0, 8), SELF(0, 1), LOAD(2, 0), JZ(2, 5), HALT_ACCEPT, HALT_REJECT],
        memory_cells=64,
    )


def test_self_deposit_visible_to_formula():
    p = self_reader_program()
    out = run(p, b"", 10)
    assert out.tag == ACCEPT
    f, layout = encode(p, [], 6)
    v = solve_dpll(f)
    assert v.tag == SAT
    trace = decode_witness(layout, v.witness)
    assert trace.halt_step == out.steps_used


def test_self_static_resolution_limits():
    with pytest.raises(EncodeUnsupported):
        encode(prog([SELF(0, 1), SELF(0, 1), HALT_ACCEPT], memory_cells=64), [], 4)
    with pytest.raises(EncodeUnsupported):
        # jump back into the prefix on a loaded value: the walk reaches SELF
        # again at step 5
        encode(
            prog([LOADI(0, 8), SELF(0, 1), LOAD(2, 0), JZ(2, 0), HALT_ACCEPT], memory_cells=64),
            [],
            6,
        )
    with pytest.raises(EncodeUnsupported):
        # the base comes from memory
        encode(prog([LOAD(0, 1), SELF(0, 2), HALT_ACCEPT], memory_cells=64), [], 4)
    with pytest.raises(EncodeUnsupported):
        # SELF is reachable beside another pc, after a JZ on a loaded value
        encode(prog([LOAD(0, 0), JZ(0, 3), JMP(3), SELF(1, 2), HALT_ACCEPT], memory_cells=64), [], 5)
    with pytest.raises(EncodeUnsupported):
        # the same at SELF's only step: the deposit's write events would hold
        # on the other path too
        encode(
            prog([LOAD(0, 0), JZ(0, 3), HALT_REJECT, SELF(1, 2), HALT_ACCEPT], memory_cells=64),
            [],
            5,
        )


def test_self_length_decides_the_jump_back_into_the_prefix():
    # SELF writes the program's length, which the walk knows, so the JZ
    # falls through and SELF runs once
    p = prog([LOADI(0, 8), SELF(0, 1), JZ(1, 0), HALT_ACCEPT], memory_cells=64)
    assert [sorted(pcs) for pcs in reachable_pcs(p, 6)[0]] == [[0], [1], [2], [3], [3], [3], [3]]
    f, layout = encode(p, [], 6)
    v = solve_dpll(f)
    assert v.tag == SAT
    assert decode_witness(layout, v.witness).halt_step == run(p, b"", 6).steps_used == 4


def test_a_decided_jz_is_encoded_as_a_jmp():
    # the walk knows r0 = 0 at the JZ, so its guard fixes the pc to the one
    # successor, with no is_zero variable: the formula is the JMP's
    decided = prog([LOADI(0, 0), JZ(0, 3), HALT_REJECT, HALT_ACCEPT])
    jump = prog([LOADI(0, 0), JMP(3), HALT_REJECT, HALT_ACCEPT])
    f, layout = encode(decided, [], 4)
    assert reachable_pcs(decided, 4)[1][1] == {1: (3,)}
    assert not any(c[0] == "is_zero" for c in layout.var_of)
    f_jump, layout_jump = encode(jump, [], 4)
    assert (f, layout.var_of) == (f_jump, layout_jump.var_of)
    # a loaded register leaves the JZ undecided: both arms, chosen by is_zero
    undecided = prog([LOAD(0, 1), JZ(0, 3), HALT_REJECT, HALT_ACCEPT])
    f, layout = encode(undecided, [], 4)
    assert reachable_pcs(undecided, 4)[1][1] == {1: (2, 3)}
    assert [c for c in layout.var_of if c[0] == "is_zero"] == [("is_zero", 1, 1)]
    for byte in (0, 5):
        verdict = solve_dpll(encode(undecided, [(0, byte)], 4)[0]).tag
        assert (verdict == SAT) == (run(undecided, bytes([byte]), 4).tag == ACCEPT)


def test_self_deposit_lands_at_the_walks_base():
    # every cell is pinned to 0, so the read is nonzero only where SELF's
    # version byte (1) lands: at the base the walk knows, 8, and not at 7
    pins = [(a, 0) for a in range(64)]
    p = self_reader_program()
    assert run(p, bytes(64), 6).tag == ACCEPT
    f, layout = encode(p, pins, 6)
    v = solve_dpll(f)
    assert v.tag == SAT
    assert decode_witness(layout, v.witness).configs[3].registers[2] == 1
    moved = prog(
        [LOADI(0, 8), SELF(0, 1), LOADI(0, 7), LOAD(2, 0), JZ(2, 6), HALT_ACCEPT, HALT_REJECT],
        memory_cells=64,
    )
    assert run(moved, bytes(64), 7).tag != ACCEPT
    f, _ = encode(moved, pins, 7)
    assert solve_dpll(f).tag == UNSAT


def corpus_cases(max_len=2):
    for p in corpus_programs(max_len):
        for t in range(1, 5):
            yield p, t


def test_corpus_soundness_and_completeness_small():
    # the full <=3-instruction corpus runs in the acceptance suite
    for p, t in corpus_cases(max_len=2):
        f, layout = encode(p, [], t)
        verdict = solve_dpll(f)
        accepted = run(p, b"", t).tag == ACCEPT
        assert (verdict.tag == SAT) == accepted, (p.instructions, t)
        if verdict.tag == SAT:
            trace = decode_witness(layout, verdict.witness)
            assert trace.halt_step <= t
            for i in range(t):
                cur = trace.configs[i]
                nxt = step(p, cur)
                if not isinstance(nxt, type(cur)):
                    assert trace.configs[i + 1] == cur  # stuttering after halt
                else:
                    assert nxt == trace.configs[i + 1]


def test_monotone_in_t():
    for p in corpus_programs(1) + corpus_programs(2)[:40]:
        for t in range(1, 4):
            f1, _ = encode(p, [], t)
            if solve_dpll(f1).tag == SAT:
                f2, _ = encode(p, [], t + 1)
                assert solve_dpll(f2).tag == SAT


def test_witness_mutation_never_silently_invalid():
    rng = random.Random(3)
    cases = [p for p in corpus_programs(2) if run(p, b"", 4).tag == ACCEPT][:12]
    cases.append(self_reader_program())
    for p in cases:
        f, layout = encode(p, [], 4 if p.instructions[-1].op != "HALT_REJECT" else 6)
        t = layout.t
        v = solve_dpll(f)
        assert v.tag == SAT
        for _ in range(30):
            flip = rng.randrange(len(v.witness.values))
            mutated = list(v.witness.values)
            mutated[flip] = not mutated[flip]
            a = Assignment(tuple(mutated))
            try:
                trace = decode_witness(layout, a)
            except ContractViolation:
                continue
            # a returned trace must itself replay and accept
            assert run(p, bytes(trace.configs[0].memory[: p.memory_cells]), t).tag == ACCEPT


def test_size_bound():
    # clause count <= SIZE_BOUND_C * (t^2 * word_bits + t * len(instructions))
    SIZE_BOUND_C = 256
    for p, t in corpus_cases(max_len=2):
        f, _ = encode(p, [], t)
        bound = SIZE_BOUND_C * (t * t * p.word_bits + t * len(p.instructions))
        assert len(f.clauses) <= bound
    p = self_reader_program()
    f, _ = encode(p, [], 8)
    assert len(f.clauses) <= SIZE_BOUND_C * (64 * p.word_bits + 8 * len(p.instructions))


def test_estimate_is_an_upper_bound_here():
    for p in (self_reader_program(), zero_test_program()):
        for t in (2, 5, 8):
            f, _ = encode(p, [], t)
            _, est_clauses = estimate_encode(p, 0, t)
            assert est_clauses >= len(f.clauses)


@pytest.mark.parametrize("name", SHIPPED)
def test_estimate_equals_the_size_encode_gives_any_pins(name):
    # estimate_encode pins addresses 0..n-1 to 0; neither addresses nor values
    # may change the shape, so the count is exact for every pin set of size n
    rng = random.Random(name)
    d = build_diagonal_program(load_classifier(name + ".asm"), 1)
    for t in (4, 8, 16):
        for n in (0, 1, 3):
            pins = [(a, rng.randrange(256)) for a in rng.sample(range(d.memory_cells), n)]
            f, _ = encode(d, pins, t)
            assert estimate_encode(d, n, t) == (f.num_vars, len(f.clauses)), (t, pins)


@pytest.mark.parametrize("name", SHIPPED)
def test_unpinned_encode_size_never_shrinks_in_t(name):
    # forge relies on this (and on pins only adding clauses) to stop trying
    # bounds after the first unpinned psi that collides with the scratch line
    d = build_diagonal_program(load_classifier(name + ".asm"), 1)
    sizes = []
    for t in [*range(1, 34), 64]:
        f, _ = encode(d, [], t)
        sizes.append(len(f.clauses) + sum(map(len, f.clauses)))
        assert {abs(lit) for c in f.clauses for lit in c} == set(range(1, f.num_vars + 1))
    assert sizes == sorted(sizes)


def test_layout_injective_and_exported():
    f, layout = encode(zero_test_program(), [(3, 0)], 5)
    assert len(set(layout.var_of.values())) == layout.num_vars == f.num_vars


def test_builder_numbers_in_order_and_rejects_a_duplicate_component():
    b = _Builder(None)
    assert b.var("a", 0) == 1
    assert b.vars([("b", 0), ("b", 1)]) == [2, 3]
    assert b.var("c") == 4
    assert b.vars([]) == []
    for allocate, culprit in [
        (lambda: b.var("a", 0), ("a", 0)),  # allocated by var
        (lambda: b.var("b", 1), ("b", 1)),  # allocated in a block
        (lambda: b.vars([("d", 0), ("a", 0)]), ("a", 0)),
        (lambda: b.vars([("d", 0), ("d", 1), ("d", 0)]), ("d", 0)),  # repeated in one block
    ]:
        with pytest.raises(ContractViolation) as excinfo:
            allocate()
        assert str(excinfo.value) == f"duplicate component {culprit}"
    # a refused allocation allocates nothing
    assert b.var("d", 0) == 5 and b.count == len(b.var_of) == 5


def test_clause_budget_enforced():
    from diagforge.errors import ResourceError

    with pytest.raises(ResourceError):
        encode(self_reader_program(), [], 8, max_size=50)
    # the budget counts clauses plus literals and fires exactly past the total
    f, _ = encode(self_reader_program(), [], 8)
    size = sum(len(c) + 1 for c in f.clauses)
    encode(self_reader_program(), [], 8, max_size=size)
    with pytest.raises(ResourceError):
        encode(self_reader_program(), [], 8, max_size=size - 1)
    # a gate checks its whole batch at once: 2 + 12 words cross a budget of 13
    b = _Builder(13)
    b.add(1)
    with pytest.raises(ResourceError):
        b.same((), [1, 2], [3, 4])
    b = _Builder(14)
    b.add(1)
    b.same((), [1, 2], [3, 4])
    assert len(b.clauses) == 5


def _holds(clauses, values):
    """values[v] is the truth value of variable v (index 0 unused)."""
    return all(any(values[abs(lit)] == (lit > 0) for lit in c) for c in clauses)


def _gate_cases(width, extra):
    """A builder with xs = 1..width, ys = width+1..2*width and `extra` more
    variables, and every assignment of them."""
    n = 2 * width + extra
    b = _Builder(None)
    for v in range(n):
        b.var("v", v)
    xs = list(range(1, width + 1))
    ys = list(range(width + 1, 2 * width + 1))
    rest = list(range(2 * width + 1, n + 1))
    assignments = [(False, *bits) for bits in itertools.product((False, True), repeat=n)]
    return b, xs, ys, rest, assignments


def _word(values, xs):
    return sum(1 << bit for bit, x in enumerate(xs) if values[x])


@pytest.mark.parametrize("width", [1, 2, 3])
def test_gates_hold_exactly_on_their_relation(width):
    # same: under pre, xs == ys
    for signs in ((), (1,), (1, -1)):
        b, xs, ys, rest, assignments = _gate_cases(width, len(signs))
        pre = tuple(s * v for s, v in zip(signs, rest))
        b.same(pre, xs, ys)
        for values in assignments:
            off = any(values[abs(p)] == (p > 0) for p in pre)
            assert _holds(b.clauses, values) == (off or _word(values, xs) == _word(values, ys))
    # fix: under pre, xs spell the value
    for value in range(1 << width):
        for signs in ((), (-1,)):
            b, xs, _, rest, assignments = _gate_cases(width, len(signs))
            pre = tuple(s * v for s, v in zip(signs, rest))
            b.fix(pre, xs, value)
            for values in assignments:
                off = any(values[abs(p)] == (p > 0) for p in pre)
                assert _holds(b.clauses, values) == (off or _word(values, xs) == value)
    # match: g <-> (xs spell the value and every literal of off is false)
    for value in range(1 << width):
        for signs in ((), (1,), (1, -1)):
            b, xs, _, rest, assignments = _gate_cases(width, 1 + len(signs))
            g = rest[0]
            off = tuple(s * v for s, v in zip(signs, rest[1:]))
            b.match(g, xs, value, off)
            for values in assignments:
                quiet = not any(values[abs(o)] == (o > 0) for o in off)
                want = values[g] == (_word(values, xs) == value and quiet)
                assert _holds(b.clauses, values) == want
    # xor: d <-> x xor y, one bit per call
    b, xs, ys, rest, assignments = _gate_cases(width, 1)
    d = rest[0]
    b.xor(d, xs[0], ys[0])
    for values in assignments:
        assert _holds(b.clauses, values) == (values[d] == (values[xs[0]] != values[ys[0]]))
    # any_of: a new variable v <-> some literal of lits holds
    for signs in itertools.product((1, -1), repeat=width):
        b, xs, _, _, _ = _gate_cases(width, 0)
        lits = [s * x for s, x in zip(signs, xs)]
        v = b.any_of(lits, "any")
        assert v == b.count
        for bits in itertools.product((False, True), repeat=b.count):
            values = (False, *bits)
            some = any(values[abs(lit)] == (lit > 0) for lit in lits)
            assert _holds(b.clauses, values) == (values[v] == some)


def _input_word(values, bits):
    """The word spelt by adder input bits, each a literal or a constant bool."""
    return sum(
        1 << k for k, v in enumerate(bits) if (v if type(v) is bool else values[abs(v)] == (v > 0))
    )


@pytest.mark.parametrize("width, cases", [(1, 150), (2, 150), (3, 100)])
def test_adder_folds_constants_and_repeated_literals(width, cases):
    # each input bit is a literal of its bit's two variables (variable 1 among
    # them) or a constant, so literals repeat, cancel and meet their negations
    rng = random.Random(width)
    for _ in range(cases):
        b, xv, yv, rest, _ = _gate_cases(width, width + 2)
        ss, g, c = rest[:width], rest[width], rest[width + 1]
        xs = [rng.choice((x, -x, y, -y, False, True)) for x, y in zip(xv, yv)]
        ys = [rng.choice((y, -y, x, -x, False, True)) for x, y in zip(xv, yv)]
        carry = rng.choice((False, True, c, xv[0]))
        _adder(b, (0, 0), g, xs, ys, carry, ss)
        case = (xs, ys, carry)
        # repeated and opposite literals fold away: no clause names a variable twice
        assert all(len({abs(lit) for lit in cl}) == len(cl) for cl in b.clauses), case
        # with g set, the clauses hold for some carry values iff ss = xs + ys + carry
        held: dict[tuple, bool] = {}
        for bits in itertools.product((False, True), repeat=b.count):
            values = (False, *bits)
            if values[g]:
                held[bits[:c]] = held.get(bits[:c], False) or _holds(b.clauses, values)
        carry_in = [[] for _ in range(width)]  # the carry into each bit, per assignment
        for base, ok in held.items():
            values = (False, *base)
            x, y, cin = (_input_word(values, v) for v in (xs, ys, [carry]))
            assert ok == (_word(values, ss) == (x + y + cin) % (1 << width)), case
            for bit in range(width):
                low = (1 << bit) - 1
                carry_in[bit].append(((x & low) + (y & low) + cin) >> bit == 1)
        # a carry gets a variable only where a new function meets it: not a
        # constant, not a literal, not the carry into the bit below
        literals = {tuple(base[v - 1] == sign for base in held) for v in range(1, c + 1)
                    for sign in (False, True)}
        carries = {comp[3] for comp in b.var_of if comp[0] == "carry"}
        for bit in range(1, width):
            f = tuple(carry_in[bit])
            folded = len(set(f)) == 1 or f in literals or f == tuple(carry_in[bit - 1])
            assert (bit in carries) != folded, (case, bit)


def test_size_budget_fires_with_the_image_payload_cap():
    # clauses plus literals is the image's payload word count
    d = build_diagonal_program(load_classifier("parity_first_byte.asm"), 1)
    f, _ = encode(d, [], 32, max_size=0xFFFF)
    cnf_image(f)
    with pytest.raises(ResourceError):
        encode(d, [], 64, max_size=0xFFFF)
    f, _ = encode(d, [], 64)
    with pytest.raises(InputError, match="payload"):
        cnf_image(f)


def test_encode_deterministic():
    from diagforge.cnf import dimacs_dumps

    p = self_reader_program()
    f1, _ = encode(p, [(0, 7)], 6)
    f2, _ = encode(p, [(0, 7)], 6)
    assert dimacs_dumps(f1) == dimacs_dumps(f2)


@pytest.mark.parametrize("name", SHIPPED)
def test_encoder_output_is_locked(name):
    import hashlib

    from diagforge.cnf import dimacs_dumps

    d = build_diagonal_program(load_classifier(name + ".asm"), 1)
    digests = []
    for t in (8, 16, 32):
        for pinned in (False, True):
            f, layout = encode(d, LOCKS["encoder_pins"] if pinned else (), t)
            for text in (dimacs_dumps(f), repr(sorted(layout.var_of.items()))):
                digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == LOCKS["encoder"][name]


@pytest.mark.parametrize("name", SHIPPED)
def test_pin_values_never_change_the_formula_shape(name):
    # The quine closure fixes the bytes D reads; if their values could change
    # the shape, the image length would depend on D's own run.
    rng = random.Random(name)
    d = build_diagonal_program(load_classifier(name + ".asm"), 1)
    addresses = [a for a, _ in LOCKS["encoder_pins"]]
    for t in (8, 16):
        shapes = set()
        for _ in range(4):
            pins = [(a, rng.randrange(256)) for a in addresses]
            f, _ = encode(d, pins, t)
            shapes.add((f.num_vars, tuple(map(len, f.clauses))))
        assert len(shapes) == 1, (name, t)


def test_encode_rejects_words_narrower_than_a_byte():
    # memory cells hold bytes, and a pin states the whole byte; LOAD cuts it
    # to the word, so 16 reads as 0 here, and 4-bit words cannot state the pin
    p = Program(
        (LOADI(1, 0), LOAD(0, 1), JZ(0, 4), HALT_REJECT, HALT_ACCEPT),
        register_count=2,
        word_bits=4,
        memory_cells=16,
    )
    assert run(p, bytes([16]), 6).tag == ACCEPT
    with pytest.raises(EncodeUnsupported, match="memory cells hold bytes"):
        encode(p, ((0, 16),), 6)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="FOUND in CHANGES.md: with word_bits > 8 an unpinned cell read before "
    "any write may take any W-bit value in the formula",
)
def test_sixteen_bit_reads_of_initial_memory_hold_bytes():
    # accept iff cell 0 holds 300, which no byte does
    p = Program(
        (LOADI(1, 0), LOAD(0, 1), LOADI(2, 300), SUB(0, 2), JZ(0, 6), HALT_REJECT, HALT_ACCEPT),
        register_count=3,
        word_bits=16,
        memory_cells=16,
    )
    assert not any(run(p, bytes([v]), 6).tag == ACCEPT for v in range(256))
    f, _ = encode(p, (), 6)
    assert solve_dpll(f).tag == UNSAT


def _gate_case(rng, word_bits):
    """A seeded (program, pins, t) over every op, biased toward memory paths.

    Some programs start with the diagonal program's SELF prefix.  Every cell
    is pinned, except at most one with 8-bit words; pins favour 0, 1 and 255.
    """
    registers = rng.choice((2, 3))
    cells = rng.choice((2, 4, 8, 16))
    n = rng.randint(2, 7)
    instrs = []
    if rng.random() < 0.4:
        ra, rb = rng.sample(range(registers), 2)
        instrs += [LOADI(ra, rng.randrange(cells)), SELF(ra, rb)]
        n = max(n, 3)
    first_target = len(instrs)  # no jump into or before the SELF prefix

    def byte():
        return rng.choice((0, 1, 255, rng.randrange(256)))

    while len(instrs) < n:
        x, y, z = (rng.randrange(registers) for _ in range(3))
        target = rng.randrange(first_target, n)
        instrs += rng.choices(
            (
                [LOAD(x, y), JZ(x, target)],  # branch on a loaded value
                [STORE(y, z), LOAD(x, y)],  # read back what was just written
                [LOADI(y, rng.randrange(cells)), LOAD(x, y)],  # a known address
                [LOADI(x, byte())],
                [MOV(x, y)],
                [ADD(x, y)],
                [SUB(x, y)],
                [LOAD(x, y)],
                [STORE(x, y)],
                [JZ(x, target)],
                [JMP(target)],
                [HALT_ACCEPT],
                [HALT_REJECT],
            ),
            weights=(4, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        )[0]
    instrs = instrs[:n]
    if rng.random() < 0.5:
        instrs[-1] = HALT_ACCEPT
    p = Program(tuple(instrs), register_count=registers, word_bits=word_bits, memory_cells=cells)
    # leave free a cell the program is likely to read: 0, where registers
    # start, or an address some LOADI names
    read_guesses = [0] + [ins.args[1] % cells for ins in instrs if ins.op == "LOADI"]
    free = {rng.choice(read_guesses)} if word_bits == 8 and rng.random() < 0.8 else set()
    pins = tuple((a, byte()) for a in range(cells) if a not in free)
    return p, pins, rng.randint(1, 6)


def test_encoder_output_on_gate_cases_is_locked():
    import hashlib

    from diagforge.cnf import dimacs_dumps

    digests = []
    for word_bits in (8, 16):
        rng = random.Random(f"encoder lock {word_bits}")
        for _ in range(100):
            p, pins, t = _gate_case(rng, word_bits)
            try:
                f, layout = encode(p, pins, t)
            except EncodeUnsupported:
                continue
            for text in (dimacs_dumps(f), repr(sorted(layout.var_of.items()))):
                digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == LOCKS["encoder_gate_cases"]


def _block_counts(monkeypatch, p, pins, t):
    """encode(p, pins, t), recording each block call's (vars, clauses, payload
    words) under (block, its steps): (those counts, the formula)."""
    import diagforge.tableau as tableau

    counts = {}

    def counted(name, block):
        def wrapped(b, *args):
            v, c = b.count, len(b.clauses)
            out = block(b, *args)
            new = b.clauses[c:]
            steps = args[:2] if name == "_agreement" else args[:1]
            counts[(name, *steps)] = (b.count - v, len(new), len(new) + sum(map(len, new)))
            return out

        return wrapped

    with monkeypatch.context() as m:
        for name in ("_state", "_transition", "_read", "_agreement"):
            m.setattr(tableau, name, counted(name, getattr(tableau, name)))
        f, _ = encode(p, pins, t)
    return counts, f


def test_a_steps_blocks_never_depend_on_t(monkeypatch):
    # a block sees its step's walk facts and the records of earlier steps
    # only, so the encodes at t and 2t write the same blocks below t, and the
    # formula's shape is its blocks plus the initial state and the goal
    rng = random.Random(42)
    cases = [
        (build_diagonal_program(load_classifier(name + ".asm"), 1), LOCKS["encoder_pins"], (8, 16))
        for name in SHIPPED
    ]
    cases += [(sums(k), ((0, 1), (2, 0)), (8, 16)) for sums in (straight_line_sum, looped_sum) for k in (1, 2, 3)]
    cases += [(*_gate_case(rng, rng.choice((8, 16)))[:2], range(1, 7)) for _ in range(20)]
    for p, pins, ts in cases:
        for pinned, t in itertools.product(((), pins), ts):
            counts, f = _block_counts(monkeypatch, p, pinned, t)
            doubled, _ = _block_counts(monkeypatch, p, pinned, 2 * t)
            below_t = {key: c for key, c in doubled.items() if key[0] != "_state" and max(key[1:]) < t}
            assert {key: c for key, c in counts.items() if key[0] != "_state"} == below_t, (p, t)
            states = [c for key, c in counts.items() if key[0] == "_state"]
            n = states[0][0]
            assert states == [(n, 0, 0)] * (t + 1)  # each state vector: n variables, no clause
            vars_, clauses, words = map(sum, zip(*counts.values()))
            # the initial state is n unit clauses and the goal one more
            assert f.num_vars == vars_
            assert len(f.clauses) == clauses + n + 1
            assert len(f.clauses) + sum(map(len, f.clauses)) == words + 2 * (n + 1)


def _accepts_for_some_byte(p, pins, t):
    """Whether `run` accepts for some byte in the one unpinned cell, if any."""
    memory = dict(pins)
    free = [a for a in range(p.memory_cells) if a not in memory]
    for value in range(256):
        image = bytes(memory.get(a, value) for a in range(p.memory_cells))
        outcome, init_reads = run_recording_reads(p, image, t)
        if outcome.tag == ACCEPT:
            return True
        if not any(a in init_reads for a in free):
            return False  # the run never read the free cell, so no value changes it
    return False


@pytest.mark.parametrize("word_bits, cases", [(8, 500), (16, 250)])
def test_memory_arithmetic_and_self_match_brute_force(word_bits, cases):
    rng = random.Random(word_bits)
    sat_cases = 0
    for _ in range(cases):
        p, pins, t = _gate_case(rng, word_bits)
        f, layout = encode(p, pins, t)
        verdict = solve_dpll(f)
        assert (verdict.tag == SAT) == _accepts_for_some_byte(p, pins, t), (p, pins, t)
        if verdict.tag == SAT:
            sat_cases += 1
            trace = decode_witness(layout, verdict.witness)
            start = trace.configs[0].memory
            assert all(start[a] == v for a, v in pins)
            assert run(p, bytes(start), t).tag == ACCEPT
    assert 0 < sat_cases < cases  # both verdicts occurred


def test_self_anywhere_matches_brute_force():
    # a SELF put at any position of a gate program: wherever the encoder
    # accepts it, its deposit must give run's verdict, and a SAT witness must
    # replay
    rng = random.Random(24)
    encoded = sat_cases = 0
    for _ in range(400):
        word_bits = rng.choice((8, 16))
        p, pins, t = _gate_case(rng, word_bits)
        instrs = list(p.instructions)
        instrs[rng.randrange(len(instrs))] = SELF(*rng.choices(range(p.register_count), k=2))
        p = Program(tuple(instrs), p.register_count, word_bits, p.memory_cells)
        try:
            f, layout = encode(p, pins, t)
        except EncodeUnsupported:
            continue
        encoded += 1
        verdict = solve_dpll(f)
        assert (verdict.tag == SAT) == _accepts_for_some_byte(p, pins, t), (p, pins, t)
        if verdict.tag == SAT:
            sat_cases += 1
            trace = decode_witness(layout, verdict.witness)
            assert run(p, bytes(trace.configs[0].memory), t).tag == ACCEPT
    assert 0 < sat_cases < encoded


def test_walk_covers_every_simulated_step():
    # the encoder allocates state only where the walk says a pc, a LOAD or a
    # STORE can occur, so every simulated run must stay inside its facts
    rng = random.Random(7)
    programs = corpus_programs(2) + [_gate_case(rng, 8)[0] for _ in range(150)]
    for p, t in [(p, 6) for p in programs] + [(p, 40) for p in _counted_loops()]:
        reach, _, read_steps, write_steps = reachable_pcs(p, t)
        memory = bytes(rng.randrange(256) for _ in range(p.memory_cells))
        config = initial_config(p, memory)
        for i in range(t + 1):
            assert config.pc in reach[i], (p, i)
            if i == t:
                break
            op = p.instructions[config.pc].op if config.pc < len(p.instructions) else None
            assert op != "LOAD" or i in read_steps, (p, i)
            assert op != "STORE" or i in write_steps, (p, i)
            res = step(p, config)
            if not isinstance(res, Halt):
                config = res


def _counted_loops():
    """Loops whose counter the walk knows, so it decides each JZ on it:
    looped_sum(1..3) and their diagonal programs."""
    loops = [looped_sum(k) for k in range(1, 4)]
    return loops + [build_diagonal_program(p, 1) for p in loops]


def _arith_case(rng, word_bits):
    """A seeded (program, pins, t) biased to the ADD and SUB forms that the
    constant analysis picks: `add r, r`, `sub r, r`, an operand LOADI'd to
    0, 1, the word mask or a random value, and a JZ join after which a
    register is unknown on one path only.  It ends by accepting exactly when
    a register is zero.  Every cell is pinned, except one with 8-bit words.
    """
    registers, cells = 3, 4
    mask = (1 << word_bits) - 1
    # registers start known (0); loading some first leaves them unknown
    loaded = rng.sample(range(registers), rng.randint(0, 2))
    instrs = [LOAD(r, rng.randrange(registers)) for r in loaded]
    for _ in range(rng.randint(2, 5)):
        x, y = rng.sample(range(registers), 2)
        c = rng.choice((0, 1, mask, rng.randrange(mask + 1)))
        here = len(instrs)
        instrs += rng.choice(
            (
                [ADD(x, x)],
                [SUB(x, x)],
                [LOADI(y, c), ADD(x, y)],  # a known addend
                [LOADI(y, c), SUB(x, y)],  # a known subtrahend
                [LOADI(x, c), ADD(x, y)],  # a known augend
                [LOADI(x, c), SUB(x, y)],  # a known minuend
                [LOAD(x, y)],
                [LOAD(x, y), ADD(x, x)],  # a shift of a loaded value
                # y is loaded on the fall-through path and keeps its value on
                # the jump, so the ADD after the join sees it unknown
                [LOAD(x, y), JZ(x, here + 3), LOAD(y, x), ADD(x, y)],
                [JZ(x, rng.randrange(here + 1))],
            )
        )
    n = len(instrs)
    instrs += [JZ(rng.randrange(registers), n + 2), HALT_REJECT, HALT_ACCEPT]
    p = Program(tuple(instrs), register_count=registers, word_bits=word_bits, memory_cells=cells)
    free = {rng.randrange(cells)} if word_bits == 8 else set()
    pins = tuple(
        (a, rng.choice((0, 1, 255, rng.randrange(256)))) for a in range(cells) if a not in free
    )
    return p, pins, rng.randint(len(instrs) - 2, len(instrs) + 3)


def _cheap_arithmetic(p, t):
    """The (step, pc) of every ADD and SUB that the analysis prices without
    carries: `sub r, r`, `add r, r`, or both operands known."""
    known = reachable_pcs(p, t)[0]
    for i in range(t):
        for k, regs in known[i].items():
            if k < len(p.instructions) and p.instructions[k].op in ("ADD", "SUB"):
                r, r2 = p.instructions[k].args
                if r == r2 or None not in (regs[r], regs[r2]):
                    yield i, k


@pytest.mark.parametrize("word_bits, cases", [(8, 300), (16, 150)])
def test_constant_adder_forms_match_brute_force(word_bits, cases):
    rng = random.Random(100 + word_bits)
    sat_cases = cheap = 0
    for _ in range(cases):
        p, pins, t = _arith_case(rng, word_bits)
        f, layout = encode(p, pins, t)
        carries = {c[1:3] for c in layout.var_of if c[0] == "carry"}
        for at in _cheap_arithmetic(p, t):
            assert at not in carries, (p, at)
            cheap += 1
        verdict = solve_dpll(f)
        assert (verdict.tag == SAT) == _accepts_for_some_byte(p, pins, t), (p, pins, t)
        if verdict.tag == SAT:
            sat_cases += 1
            trace = decode_witness(layout, verdict.witness)
            start = trace.configs[0].memory
            assert all(start[a] == v for a, v in pins)
            assert run(p, bytes(start), t).tag == ACCEPT
    assert 0 < sat_cases < cases and cheap


def test_known_registers_hold_on_every_simulated_step():
    # the encoder builds an ADD or SUB from the register values the walk
    # knows, so every simulated run must hold them
    rng = random.Random(17)
    programs = (
        corpus_programs(2)
        + [_gate_case(rng, 8)[0] for _ in range(150)]
        + [_arith_case(rng, 16)[0] for _ in range(150)]
    )
    for p, t in [(p, 12) for p in programs] + [(p, 40) for p in _counted_loops()]:
        known = reachable_pcs(p, t)[0]
        for _ in range(3):
            memory = bytes(rng.choice((0, rng.randrange(256))) for _ in range(p.memory_cells))
            config = initial_config(p, memory)
            for i in range(t + 1):
                regs = known[i][config.pc]
                assert all(v in (None, got) for v, got in zip(regs, config.registers)), (p, i)
                if i == t:
                    break
                res = step(p, config)
                if not isinstance(res, Halt):
                    config = res
