import random

import pytest

from diagforge.cnf import SAT, UNSAT, solve_dpll
from diagforge.diagonal import build_diagonal_program, cnf_image
from diagforge.errors import ContractViolation, EncodeUnsupported, InputError, ResourceError
from diagforge.machine import (
    ACCEPT,
    HALT_ACCEPT,
    HALT_REJECT,
    JZ,
    LOAD,
    LOADI,
    SELF,
    STORE,
    SUB,
    Program,
    run,
    step,
)
from diagforge.tableau import (
    SIZE_BOUND_C,
    decode_witness,
    encode,
    estimate_encode,
    resolve_self,
    write_layout,
)

from conftest import corpus_programs, load_classifier


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
    assert trace.outcome == ACCEPT
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


def test_non_power_of_two_memory_rejected():
    with pytest.raises(EncodeUnsupported):
        encode(prog([HALT_ACCEPT], memory_cells=10), [], 2)


def test_pin_validation():
    p = prog([HALT_ACCEPT])
    with pytest.raises(InputError):
        encode(p, [(1, 5), (1, 6)], 2)
    with pytest.raises(InputError):
        encode(p, [(1, 300)], 2)
    with pytest.raises(InputError):
        encode(p, [(99, 1)], 2)


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
        # jump back into the prefix
        encode(prog([LOADI(0, 8), SELF(0, 1), JZ(1, 0), HALT_ACCEPT], memory_cells=64), [], 4)
    with pytest.raises(EncodeUnsupported):
        # memory op before SELF
        encode(prog([STORE(0, 1), SELF(0, 1), HALT_ACCEPT], memory_cells=64), [], 4)


def test_resolve_self_concrete_prefix():
    p = self_reader_program()
    info = resolve_self(p)
    assert info.index == 1
    assert info.base == 8
    assert info.data


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
            from diagforge.cnf import Assignment

            a = Assignment(tuple(mutated))
            try:
                trace = decode_witness(layout, a)
            except ContractViolation:
                continue
            # a returned trace must itself replay and accept
            assert trace.outcome == ACCEPT
            assert run(p, bytes(trace.configs[0].memory[: p.memory_cells]), t).tag == ACCEPT


def test_size_bound():
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


@pytest.mark.parametrize(
    "name", ["const_sat", "const_unsat", "first_byte_zero", "parity_first_byte", "scan_all"]
)
def test_estimate_is_monotone_in_t(name):
    # forge relies on this to stop estimating after the first too-large bound
    d = build_diagonal_program(load_classifier(name + ".asm"), 1)
    for ts in (range(1, 131), [1 << k for k in range(2, 14)]):
        estimates = [estimate_encode(d, 0, t) for t in ts]
        for smaller, larger in zip(estimates, estimates[1:]):
            assert all(a <= b for a, b in zip(smaller, larger))


def test_layout_injective_and_exported(tmp_path):
    f, layout = encode(zero_test_program(), [(3, 0)], 5)
    assert len(set(layout.var_of.values())) == layout.num_vars == f.num_vars
    path = tmp_path / "layout.txt"
    write_layout(layout, path)
    text = path.read_text()
    assert "pc[0,0]" in text
    assert "pinned: 3:0" in text


def test_clause_budget_enforced():
    from diagforge.errors import ResourceError

    with pytest.raises(ResourceError):
        encode(self_reader_program(), [], 8, max_size=50)


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
