import dataclasses
import hashlib
import itertools
import random
import re
import struct

import pytest

from diagforge import diagonal, tableau
from diagforge.cnf import (
    SAT,
    UNSAT,
    Assignment,
    CnfFormula,
    Verdict,
    dimacs_dumps,
    dimacs_loads,
    evaluate,
    solve_dpll,
)
from diagforge.diagonal import (
    SCRATCH_BASE,
    BoundNotFound,
    CertificateCheck,
    ClassifierTable,
    FiniteSpace,
    MisclassificationCertificate,
    TrialRecord,
    all_tables,
    build_diagonal_program,
    certificate_dumps,
    certificate_loads,
    classifier_hash,
    cnf_from_image,
    cnf_image,
    finite_fixed_point,
    forge,
    self_describing_space,
    transcript_dumps,
    verify_certificate,
)
from diagforge.errors import (
    ConstructionError,
    ContractViolation,
    DecodeError,
    InputError,
    ParseError,
    ResourceError,
)
from diagforge.machine import (
    ACCEPT,
    JMP,
    JZ,
    LOAD,
    LOADI,
    MOV,
    OUT_OF_FUEL,
    REJECT,
    Instruction,
    Program,
    deserialize,
    format_asm,
    parse_asm,
    run,
    serialize,
)
from diagforge.tableau import encode

from conftest import CERTIFICATE_SHA256, LOCKS, SHIPPED, load_classifier, looped_sum, straight_line_sum

_COLLIDES = "image collides with the quine scratch region"


# finite tier


def test_minimal_space_matches_toy_construction():
    # p is read as "output is SAT", ~p as "output is UNSAT"
    space = self_describing_space(2)
    assert [list(c) for c in space.formulas[0].clauses] == [[1]]
    assert [list(c) for c in space.formulas[1].clauses] == [[-1]]
    table = ClassifierTable((SAT, UNSAT))  # the table from the toy construction
    report = finite_fixed_point(space, table)
    assert report.fixed_point_index == 1
    assert report.misclassified
    assert all(not branch.consistent for branch in report.case_analysis)


def test_all_four_tables_misclassify():
    space = self_describing_space(2)
    for table in all_tables(2):
        report = finite_fixed_point(space, table)
        assert report.fixed_point_index == 1
        assert report.misclassified


def test_three_element_space_all_eight_tables():
    space = self_describing_space(3)
    reports = [finite_fixed_point(space, t) for t in all_tables(3)]
    assert len(reports) == 8
    assert all(r.misclassified for r in reports)


def test_no_reflexive_claim_means_no_fixed_point():
    space = FiniteSpace(
        (CnfFormula.of(1, [[1]]), CnfFormula.of(1, [[-1]])),
        ((0, 1), (1, 0)),
    )
    report = finite_fixed_point(space, ClassifierTable((SAT, SAT)))
    assert report.fixed_point_index is None
    assert not report.misclassified


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FiniteSpace((CnfFormula.of(1, [[1]]),), ((0, 0), (0, 0))), "formula 0 interpreted twice"),
        (lambda: ClassifierTable(("MAYBE",)), "table verdict must be SAT or UNSAT"),
        (lambda: self_describing_space(1), "space size must be 2..4"),
        (lambda: self_describing_space(5), "space size must be 2..4"),
    ],
    ids=["interpreted-twice", "unknown-verdict", "space-1", "space-5"],
)
def test_finite_tier_refuses_ill_formed_input(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_space_validation():
    with pytest.raises(InputError):
        FiniteSpace((CnfFormula.of(1, [[1]]),), ((0, 3),))
    with pytest.raises(InputError):
        finite_fixed_point(self_describing_space(2), ClassifierTable((SAT,)))


# cnf image format


def test_cnf_image_round_trip():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 30)
        clauses = [
            [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 12))
        ]
        f = CnfFormula.of(n, clauses)
        assert cnf_from_image(cnf_image(f)) == f


def test_cnf_image_layout():
    f = CnfFormula.of(3, [[1, -2], [3]])
    img = cnf_image(f)
    # header words: num_vars, num_clauses, payload length
    assert img[0] | (img[1] << 8) == 3
    assert img[2] | (img[3] << 8) == 2
    assert img[4] | (img[5] << 8) == 5
    # first literal word: var 1 positive
    assert img[6] | (img[7] << 8) == 0b10


def _image_one_literal_at_a_time(formula):
    """The image format, written out word by word as the format comment reads."""
    payload = []
    for clause in formula.clauses:
        for lit in clause:
            payload.append((abs(lit) << 1) | (1 if lit < 0 else 0))
        payload.append(0)
    words = [formula.num_vars, len(formula.clauses), len(payload), *payload]
    return b"".join(w.to_bytes(2, "little") for w in words)


def test_cnf_image_matches_a_per_literal_writer():
    rng = random.Random(25)
    for _ in range(120):
        n = rng.choice([0, 1, 2, rng.randint(3, 400), 32_767])
        clauses = []
        for _ in range(rng.randint(0, 30)):
            clause = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(n and rng.randint(0, 5))]
            if clause and rng.random() < 0.3:
                clause.append(clause[0])  # repeated
            if clause and rng.random() < 0.3:
                clause.append(-clause[-1])  # complementary
            if n and rng.random() < 0.2:
                clause.append(rng.choice([-n, n]))  # the ends of the word table
            clauses.append(clause if rng.random() < 0.5 else tuple(clause))
        f = CnfFormula(n, tuple(clauses))  # lists kept: CnfFormula does not normalise
        image = cnf_image(f)
        assert image == _image_one_literal_at_a_time(f)
        assert cnf_from_image(image) == CnfFormula.of(n, clauses)


@pytest.mark.parametrize(
    "num_vars, clauses, message",
    [
        (32_768, ((1,),) * 65_536, "caps variables at 32767, got 32768"),
        (2, ((1,),) * 65_536, "caps clauses at 65535"),
        (4, ((1, -2, 3),) * 20_000, "caps payload at 65535 words"),
    ],
    ids=["variables-first", "clauses-before-payload", "payload"],
)
def test_cnf_image_refuses_before_reading_a_literal(num_vars, clauses, message):
    # every clause counts its own iterations; a refusal must come before any
    reads = []

    class Clause(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    f = CnfFormula(num_vars, tuple(Clause(c) for c in clauses))
    reads.clear()
    with pytest.raises(InputError, match=message):
        cnf_image(f)
    assert not reads


def test_cnf_image_takes_a_payload_just_under_its_cap():
    # 21845 clauses of two literals: 3 * 21845 = 65535 payload words
    f = CnfFormula(2, ((1, -2),) * 21_845)
    assert len(cnf_image(f)) == 2 * (3 + 65_535)


# diagonal program construction


def test_const_unsat_classifier_answers_fast(const_unsat):
    # the verdict convention: reject means UNSAT, and it must not depend on input
    for payload in (b"", bytes([1, 2, 3]), cnf_image(CnfFormula.of(1, [[1]]))):
        out = run(const_unsat, payload, 10)
        assert out.tag == REJECT
        assert out.steps_used <= 3


def test_diagonal_program_inverts_const_unsat(const_unsat):
    d = build_diagonal_program(const_unsat, 8)
    out = run(d, b"", 16)
    assert out.tag == ACCEPT  # classifier says UNSAT, so D accepts
    assert out.steps_used <= 4


def test_diagonal_program_inverts_const_sat(const_sat):
    d = build_diagonal_program(const_sat, 8)
    out = run(d, b"", 16)
    assert out.tag == REJECT
    assert out.steps_used <= 4


def test_diagonal_program_tracks_parity_classifier(parity_first_byte):
    # D's verdict must be the inverse of the classifier's on the same input
    d = build_diagonal_program(parity_first_byte, 8)
    for byte0 in (0, 1, 2, 7, 40, 255):
        image = bytes([byte0, 9, 9])
        cls = run(parity_first_byte, image, 10_000)
        dia = run(d, image, 10_000)
        assert cls.tag in (ACCEPT, REJECT)
        assert (dia.tag == ACCEPT) == (cls.tag == REJECT), byte0


@pytest.mark.parametrize(
    "asm, t, error, message",
    [
        ("accept\n", 0, InputError, "bound must be positive"),
        (".memory 256\naccept\n", 1, ConstructionError, "must declare 65536 memory cells"),
    ],
    ids=["bound-0", "memory-256"],
)
def test_diagonal_program_refuses(asm, t, error, message):
    with pytest.raises(error, match=message):
        build_diagonal_program(parse_asm(asm), t)


@pytest.mark.parametrize("last, limit", [("accept", 65533), ("loadi r0, 0", 65532)], ids=["halts", "falls-through"])
def test_diagonal_program_states_the_classifier_instruction_limit(last, limit):
    # D puts two instructions before the classifier, and an accept after one that can run past its end
    from diagforge.machine import MAX_INSTRUCTIONS

    def classifier(n):
        return parse_asm("accept\n" * (n - 1) + last + "\n")

    assert len(build_diagonal_program(classifier(limit)).instructions) == MAX_INSTRUCTIONS
    with pytest.raises(ConstructionError, match=f"has at most {limit} instructions, got {limit + 1}$"):
        build_diagonal_program(classifier(limit + 1))


def test_diagonal_program_rejects_bad_classifiers(const_sat):
    from diagforge.machine import Program, Instruction, JMP

    with pytest.raises(ConstructionError):
        build_diagonal_program(
            Program((Instruction("HALT_ACCEPT"),), word_bits=8, memory_cells=65536), 8
        )
    with pytest.raises(ConstructionError):
        build_diagonal_program(
            Program((Instruction("HALT_ACCEPT"),), register_count=7), 8
        )
    with pytest.raises(ConstructionError):
        # never halts: violates the verdict convention statically
        build_diagonal_program(Program((JMP(0),)), 8)
    with pytest.raises(ConstructionError):
        build_diagonal_program(
            Program((Instruction("SELF", (0, 1)), Instruction("HALT_ACCEPT")), register_count=2),
            8,
        )


# forge


def test_forge_const_unsat(const_unsat):
    cert = forge(const_unsat, 1 << 16)
    assert isinstance(cert, MisclassificationCertificate)
    assert cert.classifier_verdict == UNSAT
    assert cert.oracle_verdict.tag == SAT
    assert evaluate(cert.forged, cert.oracle_verdict.witness)
    assert verify_certificate(cert).ok
    # bound covers the measured runtime
    last = cert.transcript[-1]
    assert last.halted and cert.bound_t >= last.steps


def test_forge_const_sat(const_sat):
    cert = forge(const_sat, 1 << 16)
    assert isinstance(cert, MisclassificationCertificate)
    assert cert.classifier_verdict == SAT
    assert cert.oracle_verdict.tag == UNSAT
    assert verify_certificate(cert).ok


def test_forge_sparse_nontrivial_classifier(first_byte_zero):
    cert = forge(first_byte_zero, 1 << 16)
    assert isinstance(cert, MisclassificationCertificate)
    assert cert.pins  # it actually read a cell, and that cell got pinned
    assert cert.classifier_verdict != cert.oracle_verdict.tag
    assert verify_certificate(cert).ok
    # the pinned cell carries the image byte the classifier really sees
    image = cnf_image(cert.forged)
    for addr, value in cert.pins:
        assert value == (image[addr] if addr < len(image) else 0)


def test_forge_deterministic(const_unsat):
    a = forge(const_unsat, 1 << 12)
    b = forge(const_unsat, 1 << 12)
    assert certificate_dumps(a) == certificate_dumps(b)


@pytest.mark.parametrize("name", sorted(CERTIFICATE_SHA256))
def test_forged_certificate_is_locked(request, name):
    cert = forge(request.getfixturevalue(name), 1 << 16)
    digest = hashlib.sha256(certificate_dumps(cert).encode("ascii")).hexdigest()
    assert digest == CERTIFICATE_SHA256[name]


def test_forge_scanning_classifier_honest_failure(scan_all):
    result = forge(scan_all, 1 << 8)
    assert isinstance(result, BoundNotFound)
    assert result.transcript
    for record in result.transcript:
        assert not record.halted  # runtime exceeded every tried bound
    # at least one bound was actually simulated rather than skipped
    assert any(record.note == "" for record in result.transcript)


@pytest.mark.parametrize("name", sorted(LOCKS["transcript"]))
def test_forge_honest_failure_transcript_is_locked(request, name):
    result = forge(request.getfixturevalue(name), 1 << 16)
    assert isinstance(result, BoundNotFound)
    digest = hashlib.sha256(transcript_dumps(result).encode("ascii")).hexdigest()
    assert digest == LOCKS["transcript"][name]


def test_forge_stops_encoding_after_the_first_collision(
    monkeypatch, scan_all, parity_first_byte
):
    calls = []
    real = diagonal.encode

    def counting(program, pinned, t, max_size=None):
        calls.append(t)
        return real(program, pinned, t, max_size=max_size)

    monkeypatch.setattr(diagonal, "encode", counting)
    collided = False
    for classifier in (scan_all, parity_first_byte):
        calls.clear()
        diagonal._psi.cache_clear()  # a psi kept from an earlier call would not be encoded
        transcript = forge(classifier, 1 << 16).transcript
        notes = [r.note for r in transcript]
        if _COLLIDES in notes:
            # each bound up to the first collision is encoded once, and no later bound
            stop = notes.index(_COLLIDES)
            assert set(notes[stop:]) == {_COLLIDES}
            assert calls == [r.t for r in transcript[: stop + 1]]
            collided = True
    assert collided


@pytest.mark.parametrize("name", ["const_sat", "first_byte_zero", "straight_line_sum"])
def test_verify_encodes_the_bound_once_and_each_bound_below_once(monkeypatch, request, name):
    if name == "straight_line_sum":
        classifier = straight_line_sum(2)
    else:
        classifier = request.getfixturevalue(name)
    cert = forge(classifier, 1 << 16)
    text = certificate_dumps(cert)
    calls = []
    real = diagonal.encode

    def counting(program, pinned, t, max_size=None):
        calls.append((t, tuple(pinned)))
        return real(program, pinned, t, max_size=max_size)

    monkeypatch.setattr(diagonal, "encode", counting)
    diagonal._psi.cache_clear()
    assert verify_certificate(cert).ok
    # the bound closes in one round from the certificate's pins; each bound
    # below it is tried once, unpinned, as forge tried it
    encodes = [(cert.bound_t, cert.pins)] + [(r.t, ()) for r in cert.transcript[:-1]]
    assert calls == encodes
    # loading derives psi at the bound, and verify takes that psi from _psi's memo
    calls.clear()
    diagonal._psi.cache_clear()
    assert verify_certificate(certificate_loads(text)).ok
    assert calls == encodes


def test_forge_refuses_a_formula_the_solver_says_the_classifier_got_right(
    monkeypatch, const_unsat
):
    # the oracle agreeing with the classifier would mean psi is no counterexample
    monkeypatch.setattr(diagonal, "solve_dpll", lambda formula: Verdict(UNSAT))
    with pytest.raises(ContractViolation, match="failed to disagree with the classifier"):
        forge(const_unsat, 1 << 16)


@pytest.mark.parametrize(
    "name, t_cap",
    [(name, 1 << 16) for name in SHIPPED] + [("scan_all", 1000)],
)
def test_forge_transcript_equals_the_trials_it_skips(request, name, t_cap):
    classifier = request.getfixturevalue(name)
    result = forge(classifier, t_cap)
    d = build_diagonal_program(classifier, t_cap)
    ts = list(diagonal._bounds(t_cap))
    if isinstance(result, MisclassificationCertificate):
        ts = ts[: ts.index(result.bound_t) + 1]
    assert list(result.transcript) == [diagonal._attempt_bound(d, t)[0] for t in ts]


def test_forge_too_large_fills_a_non_power_of_two_cap(scan_all):
    result = forge(scan_all, 1000)
    assert [r.t for r in result.transcript] == list(diagonal._bounds(1000))
    assert result.transcript[-1].note == _COLLIDES


def test_forge_t_cap_validation(const_sat):
    with pytest.raises(InputError):
        forge(const_sat, diagonal._FIRST_BOUND - 1)
    # a cap is an int, not a float, a bool or a string
    for t_cap in (65536.5, 4.0, 100.5, True, "64", None):
        with pytest.raises(InputError, match="t_cap must be an int"):
            forge(const_sat, t_cap)


def _assert_certificate_or_bound_not_found(classifier, t_cap=1 << 10):
    """forge's contract: a certificate that verifies and round-trips, or BoundNotFound."""
    result = forge(classifier, t_cap)
    if isinstance(result, MisclassificationCertificate):
        assert verify_certificate(result).ok
        text = certificate_dumps(result)
        assert certificate_dumps(certificate_loads(text)) == text
    else:
        assert isinstance(result, BoundNotFound)
    return result


@pytest.mark.parametrize(
    "asm",
    [
        ".registers 1\njmp 2\naccept\nloadi r0, 0\n",
        ".registers 2\nloadi r1, 0\nload r0, r1\njz r0, 4\njmp 5\naccept\nloadi r0, 0\n",
        ".registers 1\nloadi r0, 0\n",
    ],
    ids=["jmp-over-accept", "read-then-fall-through", "loadi-only"],
)
def test_forge_inverts_a_classifier_that_runs_past_its_end(asm):
    # running past the last instruction rejects, so D must accept there
    cert = _assert_certificate_or_bound_not_found(parse_asm(asm), 1 << 16)
    assert isinstance(cert, MisclassificationCertificate)


@pytest.mark.parametrize("family", ["straight-line", "looped"])
def test_defeat_frontier_is_locked(family):
    # forge defeats the k-cell sums up to the locked k_max, and not the next
    k_max = LOCKS["frontier"][family]
    program = {"straight-line": straight_line_sum, "looped": looped_sum}[family]
    defeated = [
        k
        for k in range(1, k_max + 2)
        if isinstance(
            _assert_certificate_or_bound_not_found(program(k), 1 << 16),
            MisclassificationCertificate,
        )
    ]
    assert defeated == list(range(1, k_max + 1))


def _forward_classifier(rng, falls_off):
    """A seeded classifier whose jumps all go forward, so every run halts.

    1-6 registers.  With `falls_off` the last instruction neither halts nor
    jumps, so the classifier can run past its end.  Each LOAD reads a cell
    of the image's header words or a few past them, set by the LOADI just
    before it, which no jump skips; the deposit region from SCRATCH_BASE on
    is left out (see the xfail below).
    """
    registers = rng.randint(1, 6)
    body = ("LOADI", "MOV", "ADD", "SUB", "LOAD")
    kinds = [rng.choice(body + ("JZ", "JMP", "HALT_ACCEPT", "HALT_REJECT"))
             for _ in range(rng.randint(1, 7))]
    kinds.append(rng.choice(body if falls_off else ("HALT_ACCEPT", "HALT_REJECT")))
    slots = [s for kind in kinds for s in (("ADDR", "LOAD") if kind == "LOAD" else (kind,))]

    def reg():
        return rng.randrange(registers)

    instrs = []
    for k, kind in enumerate(slots):
        targets = [j for j in range(k + 1, len(slots)) if slots[j] != "LOAD"]
        if kind in ("JZ", "JMP") and not targets:
            kind = "LOADI"
        if kind == "ADDR":
            addr_reg = reg()
            instrs.append(LOADI(addr_reg, 2 * rng.randrange(3) + rng.randrange(4)))
        elif kind == "LOAD":
            instrs.append(LOAD(reg(), addr_reg))
        elif kind == "LOADI":
            instrs.append(LOADI(reg(), rng.choice((0, 1, rng.randrange(1 << 16)))))
        elif kind in ("MOV", "ADD", "SUB"):
            instrs.append(Instruction(kind, (reg(), reg())))
        elif kind == "JZ":
            instrs.append(JZ(reg(), rng.choice(targets)))
        elif kind == "JMP":
            instrs.append(JMP(rng.choice(targets)))
        else:
            instrs.append(Instruction(kind))
    return Program(tuple(instrs), register_count=registers)


def test_forge_is_total_over_generated_forward_jump_classifiers():
    rng = random.Random(20261018)
    outcomes = [
        type(_assert_certificate_or_bound_not_found(_forward_classifier(rng, n % 2 == 1))).__name__
        for n in range(100)
    ]
    # most close: the sweep is not all honest failures
    assert outcomes.count("MisclassificationCertificate") >= 90


@pytest.mark.xfail(
    strict=True,
    raises=ContractViolation,
    reason="ROADMAP item 16: D's inline classifier reads D's own SELF deposit at "
    "0xF000, where run(classifier, image) reads 0",
)
def test_forge_inverts_a_classifier_that_reads_the_deposit_region():
    classifier = parse_asm(
        ".registers 2\nloadi r1, 61440\nload r0, r1\njz r0, z\naccept\nz:\nreject\n"
    )
    _assert_certificate_or_bound_not_found(classifier, 1 << 16)


# certificates


def test_certificate_round_trip(first_byte_zero):
    cert = forge(first_byte_zero, 1 << 16)
    text = certificate_dumps(cert)
    assert certificate_loads(text) == cert


def test_certificate_verdict_tamper_fails_simulation(const_unsat):
    cert = forge(const_unsat, 1 << 16)
    text = certificate_dumps(cert)
    tampered = text.replace("classifier-verdict: UNSAT", "classifier-verdict: SAT")
    check = verify_certificate(certificate_loads(tampered))
    assert not check.ok
    assert check.failed_check == "classifier-simulation"


def test_a_certificate_check_is_true_exactly_when_no_check_failed():
    # one field: a check that passed cannot name a failed one
    assert CertificateCheck().ok and CertificateCheck()
    failed = CertificateCheck("oracle")
    assert not failed.ok and not failed


def test_certificate_flipped_model_literal_fails_oracle(const_unsat):
    cert = forge(const_unsat, 1 << 16)
    # a unit clause pins its variable, so flipping that variable falsifies it
    var = next(abs(c[0]) for c in cert.forged.clauses if len(c) == 1)
    values = list(cert.oracle_verdict.witness.values)
    values[var - 1] = not values[var - 1]
    tampered = dataclasses.replace(
        cert, oracle_verdict=Verdict(SAT, Assignment(tuple(values)))
    )
    check = verify_certificate(tampered)
    assert check.failed_check == "oracle"


def test_certificate_short_model_fails_oracle(const_unsat):
    cert = forge(const_unsat, 1 << 16)
    tampered = dataclasses.replace(cert, oracle_verdict=Verdict(SAT, Assignment((True,))))
    check = verify_certificate(tampered)
    assert check.failed_check == "oracle"


@pytest.mark.parametrize("edit", [lambda lits: lits[:-1], lambda lits: [*lits, len(lits) + 1]],
                         ids=["one-short", "one-long"])
def test_certificate_model_of_another_length_loads_and_fails_oracle(const_unsat, edit):
    # the model is read at its own length: covering psi's variables is verify's check
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    (line,) = [x for x in text.splitlines() if x.startswith("oracle-model: ")]
    lits = edit(list(map(int, line.split()[1:-1])))
    cert = certificate_loads(text.replace(line, f"oracle-model: {' '.join(map(str, lits))} 0"))
    assert len(cert.oracle_verdict.witness.values) == len(lits) != cert.forged.num_vars
    assert verify_certificate(cert).failed_check == "oracle"


def test_loading_and_verifying_a_certificate_builds_its_diagonal_program_once(monkeypatch, first_byte_zero):
    # D and psi are derived on the certificate and kept there: loading derives
    # them, and its compare with the written text and every check of verify reuse them
    text = certificate_dumps(forge(first_byte_zero, 1 << 16))
    calls = []
    real = diagonal.build_diagonal_program
    monkeypatch.setattr(diagonal, "build_diagonal_program", lambda *args: calls.append(args) or real(*args))
    assert verify_certificate(certificate_loads(text)).ok
    assert len(calls) == 1


def test_certificate_pin_value_tamper_fails_rederivation(first_byte_zero):
    # loading re-derives psi from the pins: the text names a line of psi that
    # the other value moves, and the certificate fails verify's re-derivation
    cert = forge(first_byte_zero, 1 << 16)
    (address, value), = cert.pins
    text = certificate_dumps(cert).replace(
        f"pins: {address}:{value}", f"pins: {address}:{value ^ 1}"
    )
    with pytest.raises(ParseError, match="expected ") as exc:
        certificate_loads(text)
    assert exc.value.line > text.splitlines().index("begin-forged-dimacs") + 1
    check = verify_certificate(dataclasses.replace(cert, pins=((address, value ^ 1),)))
    assert check.failed_check == "re-derivation"


def test_certificate_with_pins_out_of_forge_order_fails_rederivation():
    # forge writes pins sorted by address; the same pins reversed encode
    # another psi, which closes under them and loads, yet is not forge's
    cert = forge(straight_line_sum(2), 1 << 16)
    assert len(cert.pins) == 2 and cert.pins[0] < cert.pins[1]
    pins = cert.pins[::-1]
    forged, _ = encode(cert.diagonal_program, pins, cert.bound_t)
    reordered = dataclasses.replace(cert, pins=pins, oracle_verdict=solve_dpll(forged))
    assert reordered.forged == forged != cert.forged
    text = certificate_dumps(reordered)
    assert certificate_loads(text) == reordered and text != certificate_dumps(cert)
    assert verify_certificate(reordered).failed_check == "re-derivation"
    # nor are forge's pins held in lists
    listed = dataclasses.replace(cert, pins=list(map(list, cert.pins)))
    assert verify_certificate(listed).failed_check == "re-derivation"


def test_certificate_with_a_diagonal_program_forge_never_builds_is_rejected(first_byte_zero):
    # D differs from build_diagonal_program's in one constant: the loaded
    # certificate's D is derived from its classifier, so the text is not its own
    cert = forge(first_byte_zero, 1 << 16)
    text, d = certificate_dumps(cert), format_asm(cert.diagonal_program)
    line = next(x for x in d.splitlines() if x.startswith("    loadi "))
    head, value = line.rsplit(" ", 1)
    assert text.count(d) == 1
    tampered = text.replace(d, d.replace(line, f"{head} {int(value) + 2}", 1))
    at = tampered.splitlines().index(f"{head} {int(value) + 2}") + 1
    with pytest.raises(ParseError, match=f"line {at}: expected"):
        certificate_loads(tampered)


def test_certificate_with_an_edited_classifier_names_the_hash_line(const_sat):
    # the edited classifier still parses; the hash written from it is the first line that moves
    text = certificate_dumps(forge(const_sat, 1 << 16))
    asm = format_asm(const_sat)
    assert text.count(asm) == 1 and "    accept\n" in asm
    tampered = text.replace(asm, asm.replace("    accept\n", "    reject\n"))
    at = text.splitlines().index(f"classifier-sha256: {classifier_hash(const_sat)}") + 1
    with pytest.raises(ParseError, match=f"line {at}: expected"):
        certificate_loads(tampered)


def test_certificate_whose_classifier_admits_no_diagonal_program_is_refused(const_sat):
    # seven registers leave none for D's two; the hash line matches the edited classifier
    cert = forge(const_sat, 1 << 16)
    wide = dataclasses.replace(const_sat, register_count=7)
    tampered = certificate_dumps(cert).replace(format_asm(const_sat), format_asm(wide))
    tampered = tampered.replace(cert.classifier_sha256, classifier_hash(wide))
    with pytest.raises(ConstructionError, match="at most 6 registers"):
        certificate_loads(tampered)


@pytest.mark.parametrize("pins", ["0:256", "0:253 0:253"], ids=["not-a-byte", "repeated"])
def test_certificate_with_pins_encode_refuses_fails_rederivation(first_byte_zero, pins):
    # loading re-derives psi, so encode's refusal names the pins line
    cert = forge(first_byte_zero, 1 << 16)
    tampered, count = re.subn(r"(?m)^pins: .*$", f"pins: {pins}", certificate_dumps(cert))
    assert count == 1
    with pytest.raises(ParseError, match=f"line {tampered.splitlines().index(f'pins: {pins}') + 1}: pinned "):
        certificate_loads(tampered)
    refused = tuple(tuple(map(int, pin.split(":"))) for pin in pins.split())
    check = verify_certificate(dataclasses.replace(cert, pins=refused))
    assert check.failed_check == "re-derivation"


def test_verify_rejects_a_bound_where_classifier_and_formula_agree():
    # the deposit repro: D's inline classifier reads D's own SELF deposit at
    # 0xF000, not psi's image, so at the bound that closes both say UNSAT.
    # Once D has no deposit (ROADMAP item 16) this bound inverts the
    # classifier, and this test must change with it.
    classifier = parse_asm(
        ".registers 2\nloadi r1, 61440\nload r0, r1\njz r0, z\naccept\nz:\nreject\n"
    )
    diagonal_program = build_diagonal_program(classifier, 8)
    record, payload, _ = diagonal._attempt_bound(diagonal_program, 8)
    forged, image, pins, _ = payload
    assert record == TrialRecord(8, 6)
    assert run(classifier, image, 1000).tag == REJECT
    oracle = solve_dpll(forged)
    assert oracle.tag == UNSAT
    cert = MisclassificationCertificate(
        classifier=classifier,
        bound_t=8,
        pins=pins,
        classifier_verdict=UNSAT,
        oracle_verdict=oracle,
        transcript=(),
    )
    for candidate in (cert, certificate_loads(certificate_dumps(cert))):
        assert verify_certificate(candidate).failed_check == "disagreement"


def test_verify_rejects_a_huge_bound_before_encoding(monkeypatch, const_sat):
    cert = forge(const_sat, 1 << 16)
    real = tableau.reachable_pcs

    def guarded(program, t):
        # an unbounded encode allocates memory in proportion to t
        if t > 1 << 20:
            pytest.fail(f"encode walked {t} steps")
        return real(program, t)

    monkeypatch.setattr(tableau, "reachable_pcs", guarded)
    check = verify_certificate(dataclasses.replace(cert, bound_t=1 << 40))
    assert check.failed_check == "re-derivation"


def test_verify_refuses_a_bound_that_is_not_an_int(const_sat):
    # 4.0 == 4, but a bound is an int: verify fails it rather than raise a TypeError
    cert = forge(const_sat, 1 << 16)
    assert cert.bound_t == 4
    assert verify_certificate(dataclasses.replace(cert, bound_t=4.0)).failed_check == "re-derivation"


def test_verify_rejects_an_image_past_the_scratch_line(monkeypatch, first_byte_zero):
    # D's SELF deposit at SCRATCH_BASE overwrites the tail of this image, so
    # D's inline classifier never read psi itself; forge rules the bound out
    diagonal_program = build_diagonal_program(first_byte_zero, 1)
    # the first bound whose unpinned psi images past the scratch line, where
    # forge's own attempt closes once the line is lifted to the end of memory
    t = next(t for t in itertools.count(1)
             if len(cnf_image(encode(diagonal_program, (), t)[0])) > SCRATCH_BASE)
    with monkeypatch.context() as lifted:
        lifted.setattr(diagonal, "SCRATCH_BASE", 1 << 16)
        _, (forged, image, pins, _), _ = diagonal._attempt_bound(diagonal_program, t)
    diagonal._psi.cache_clear()  # the psi kept was encoded under the lifted line
    assert len(image) > SCRATCH_BASE
    record = diagonal._attempt_bound(diagonal_program, t, pins)[0]
    assert record.note == _COLLIDES
    classifier_verdict = SAT if run(first_byte_zero, image, 1000).tag == ACCEPT else UNSAT
    oracle = solve_dpll(forged)
    assert oracle.tag != classifier_verdict  # every other check would pass
    cert = MisclassificationCertificate(
        classifier=first_byte_zero,
        bound_t=t,
        pins=pins,
        classifier_verdict=classifier_verdict,
        oracle_verdict=oracle,
        transcript=(),
    )
    assert verify_certificate(cert).failed_check == "re-derivation"
    # the certificate derives its psi under the scratch line, so it has no text;
    # loading a written one at this bound names the bound-t line
    with pytest.raises(ResourceError, match="size budget"):
        certificate_dumps(cert)
    text = certificate_dumps(forge(first_byte_zero, 1 << 16))
    tampered, count = re.subn(r"(?m)^bound-t: \d+$", f"bound-t: {t}", text)
    assert count == 1
    with pytest.raises(ParseError, match="line 3: .*size budget"):
        certificate_loads(tampered)


def test_certificate_model_giving_a_variable_both_ways_is_rejected(const_unsat):
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    (line,) = [x for x in text.splitlines() if x.startswith("oracle-model: ")]
    first = int(line.split()[1])
    tampered = text.replace(line, line[: -len(" 0")] + f" {-first} 0")
    with pytest.raises(ParseError, match="both ways"):
        certificate_loads(tampered)


@pytest.mark.parametrize(
    "model, message", [("99999 0", "out of range"), (None, "both ways")], ids=["range", "both-ways"]
)
def test_certificate_model_errors_name_the_model_line(const_unsat, model, message):
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    lines = text.splitlines(True)
    assert lines[5].startswith("oracle-model: ")
    if model is None:  # the first variable again, with the other sign
        first = int(lines[5].split()[1])
        model = lines[5][len("oracle-model: "):].removesuffix(" 0\n") + f" {-first} 0"
    lines[5] = f"oracle-model: {model}\n"
    with pytest.raises(ParseError, match=message) as exc:
        certificate_loads("".join(lines))
    assert exc.value.line == 6


def test_trial_halted_is_derived_from_steps(const_unsat):
    assert TrialRecord(4, 7).halted and not TrialRecord(4, None).halted
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    certificate_loads(text)
    for wrong in (r"steps=- halted=yes", r"steps=\1 halted=no"):
        tampered, count = re.subn(r"steps=(\d+) halted=yes", wrong, text)
        assert count
        with pytest.raises(ParseError, match="halted="):
            certificate_loads(tampered)


@pytest.mark.parametrize(
    "name, edit",
    [
        ("const_sat", lambda t, steps: f"trial: t={t}3 steps={steps} halted=yes note=\n"),
        ("const_sat", lambda t, steps: f"trial: t={t} steps={int(steps) - 1} halted=yes note=\n"),
        ("const_sat", lambda t, steps: f"trial: t={t} steps=- halted=no note=\n"),
        ("const_sat", lambda t, steps: f"trial: t={t} steps={steps} halted=yes note=x\n"),
        ("const_sat", lambda t, steps: f"trial: t={t} steps={steps} halted=yes note=\n"
                                       f"trial: t={2 * int(t) + 1} steps={steps} halted=yes note=\n"),
        ("const_sat", lambda t, steps: ""),
        ("first_byte_zero", lambda t, steps: f"trial: t={t} steps={t} halted=yes note=\n"),
        ("first_byte_zero", lambda t, steps: ""),
    ],
    ids=["t", "steps", "not-halted", "note", "extra-line", "deleted", "fbz-edited", "fbz-deleted"],
)
def test_certificate_with_an_edited_trial_line_fails_transcript(request, name, edit):
    # const_sat's first trial that halted, first_byte_zero's first that did not
    text = certificate_dumps(forge(request.getfixturevalue(name), 1 << 16))
    halted = "yes" if name == "const_sat" else "no"
    line = next(x for x in text.splitlines() if re.fullmatch(f"trial: .* halted={halted} note=", x))
    t, steps = re.match(r"trial: t=(\d+) steps=(\S+) ", line).groups()
    assert text.count(line + "\n") == 1
    cert = certificate_loads(text.replace(line + "\n", edit(t, steps)))
    assert verify_certificate(cert).failed_check == "transcript"


@pytest.mark.parametrize("bound_t", [3, 6, 8])
def test_certificate_at_a_bound_forge_never_reaches_fails_transcript(const_sat, bound_t):
    # psi re-derives at each of these bounds, and the trial lines are the ones
    # forge would write there; but forge tries only the ladder's bounds, and
    # stops at the first that closes
    cert = forge(const_sat, 1 << 16)
    d, pins = cert.diagonal_program, cert.pins
    record, (formula, _, closed, outcome), _ = diagonal._attempt_bound(d, bound_t, pins)
    assert not record.note and closed == pins
    below = list(diagonal._bounds(bound_t - 1))
    transcript = [diagonal._attempt_bound(d, t)[0] for t in below]
    candidate = dataclasses.replace(
        cert,
        bound_t=bound_t,
        oracle_verdict=solve_dpll(formula),
        transcript=(*transcript, TrialRecord(bound_t, outcome.steps_used)),
    )
    assert verify_certificate(candidate).failed_check == "transcript"


def test_certificate_sat_formula_relabelled_unsat_fails_oracle(const_unsat):
    cert = forge(const_unsat, 1 << 16)
    check = verify_certificate(dataclasses.replace(cert, oracle_verdict=Verdict(UNSAT)))
    assert check.failed_check == "oracle"


def test_certificate_unsat_formula_relabelled_sat_fails_oracle(const_sat):
    cert = forge(const_sat, 1 << 16)
    all_false = Assignment((False,) * cert.forged.num_vars)
    check = verify_certificate(
        dataclasses.replace(cert, oracle_verdict=Verdict(SAT, all_false))
    )
    assert check.failed_check == "oracle"


def test_certificate_hash_tamper(const_unsat):
    # the hash is derived from the classifier, so the text is not the certificate's own
    cert = forge(const_unsat, 1 << 16)
    zeros = "classifier-sha256: " + "0" * 64
    text = certificate_dumps(cert).replace(f"classifier-sha256: {cert.classifier_sha256}", zeros)
    at = text.splitlines().index(zeros) + 1
    with pytest.raises(ParseError, match=f"line {at}: expected"):
        certificate_loads(text)


def test_certificate_wrong_magic():
    with pytest.raises(ParseError):
        certificate_loads("diagforge certificate v9\n")


def test_certificate_hash_matches_serialization(const_unsat):
    cert = forge(const_unsat, 1 << 16)
    assert cert.classifier_sha256 == classifier_hash(const_unsat)


def test_forged_formula_solvable_independently(first_byte_zero):
    # the oracle verdict in the certificate is reproducible
    cert = forge(first_byte_zero, 1 << 16)
    again = solve_dpll(cert.forged)
    assert again.tag == cert.oracle_verdict.tag
    if again.tag == SAT:
        assert again.witness == cert.oracle_verdict.witness


@pytest.mark.parametrize(
    "original, repeated, due",
    [
        ("bound-t: ", "bound-t: 999", "'classifier-verdict'"),
        ("classifier-verdict: ", "classifier-verdict: SAT", "'oracle-verdict'"),
        ("begin-forged-dimacs", "begin-forged-dimacs\np cnf 1 1\n1 0\nend-forged-dimacs",
         r"'p cnf \d+ \d+'"),
    ],
    ids=["bound-t", "classifier-verdict", "forged-dimacs"],
)
def test_certificate_with_a_repeated_line_is_rejected(const_unsat, original, repeated, due):
    # one copy must not silently override another: the file would state two values
    lines = certificate_dumps(forge(const_unsat, 1 << 16)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(original))
    lines[at:at] = repeated.split("\n")
    # the error names the copy's second line: after a field's copy, the original
    # line, where the next field is due; in psi's section, which is derived and
    # compared, the copy's header, where psi's is due
    message = f"expected {due}, got {re.escape(repr(lines[at + 1]))}"
    with pytest.raises(ParseError, match=f"line {at + 2}: {message}"):
        certificate_loads("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, after, extra, message",
    [
        ("const_unsat", "bound-t: ", "colour: blue",
         "expected 'classifier-verdict', got 'colour: blue'"),
        ("const_unsat", "end-forged-dimacs", "begin-notes\nhello\nend-notes",
         "expected 'end-certificate', got 'begin-notes'"),
        ("const_sat", "oracle-verdict: ", "oracle-model: 1 0",
         "expected 'pins', got 'oracle-model: 1 0'"),
        # an error inside a section names the file's line, not the section's
        ("const_sat", ".memory ", "bogus r9", "unknown mnemonic 'bogus'"),
        # D is derived, not parsed: the compare with the written text names the line
        ("const_sat", "begin-diagonal-asm", "bogus r9",
         r"expected '\.registers 3', got 'bogus r9'"),
    ],
    ids=["header", "section", "unsat-model", "inside-section", "inside-diagonal-asm"],
)
def test_certificate_with_a_line_dumps_never_writes_is_rejected(
    request, name, after, extra, message
):
    # whatever loads accepts, dumps writes back byte for byte
    text = certificate_dumps(forge(request.getfixturevalue(name), 1 << 16))
    assert certificate_dumps(certificate_loads(text)) == text
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(after)) + 1
    lines[at:at] = extra.split("\n")
    # the error names the first inserted line
    with pytest.raises(ParseError, match=f"line {at + 1}: {message}"):
        certificate_loads("\n".join(lines) + "\n")


class _CertificateLines:
    """A certificate's text and the lines the edits below name, read from it:
    its bound-t, classifier-verdict, pins and first trial lines, and psi's
    `p cnf` line, with its counts, and its first and last clause lines."""

    def __init__(self, text):
        self.text, self.lines = text, text.splitlines()
        self.bound, self.verdict, self.pins, self.trial = (
            next(x for x in self.lines if x.startswith(f))
            for f in ("bound-t: ", "classifier-verdict: ", "pins: ", "trial: ")
        )
        self.header, self.clause = self.lines[self.lines.index("begin-forged-dimacs") + 1 :][:2]
        self.last = self.lines[self.lines.index("end-forged-dimacs") - 1]
        self.num_vars, self.num_clauses = map(int, self.header.split()[2:])

    def replaced(self, line, new, message=None, at=0):
        """The text with each run of whole lines `line` made `new`, and the error
        it must raise: on the line `at` lines past `line`'s first, `message` or
        else the compare with dumps' text."""
        n = self.text[: self.text.index(f"\n{line}\n")].count("\n") + 1 + at
        message = message or re.escape(f"expected {self.lines[n]!r}, got {new.split(chr(10))[at]!r}")
        return self.text.replace(f"\n{line}\n", f"\n{new}\n"), f"line {n + 1}: {message}"

    def inserted(self, line, new):  # `new` put after `line`, where the compare fails
        return self.replaced(line, f"{line}\n{new}", at=1)


def _psi_edit(name, **change):
    """`name`'s certificate text with its pins or bound-t line written from
    `change`, and the error due: psi encoded from the edited line is due in
    the forged-dimacs section, and its first line that moves is named."""
    cert = forge(load_classifier(f"{name}.asm"), 1 << 16)
    edited = dataclasses.replace(cert, **change)
    (field,), text = change, certificate_dumps(cert)
    prefix = {"pins": "pins: ", "bound_t": "bound-t: "}[field]
    due = next(x for x in certificate_dumps(edited).splitlines() if x.startswith(prefix))
    tampered = re.sub(f"(?m)^{prefix}.*$", due, text, count=1)
    lines = text.splitlines()
    start = lines.index("begin-forged-dimacs") + 1
    moved = next(i for i, pair in enumerate(zip(lines[start:], dimacs_dumps(edited.forged).splitlines()))
                 if pair[0] != pair[1])
    return tampered, f"line {start + moved + 1}: expected "


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.replaced(f"{c.bound}\n{c.verdict}", f"{c.verdict}\n{c.bound}",
                             f"expected 'bound-t', got '{c.verdict}'"),
        lambda c: c.replaced(c.verdict, f"\n{c.verdict}", "expected 'classifier-verdict', got ''"),
        lambda c: (c.text.replace(f"{c.trial}\n", "").replace(
            "end-classifier-asm\n", f"end-classifier-asm\n{c.trial}\n"),
                   f"line {c.lines.index('end-classifier-asm') + 1}: expected 'begin-diagonal-asm', got '{c.trial}'"),
        lambda c: (re.sub(r"(?s)(begin-classifier-asm.*?\n)(begin-diagonal-asm.*?\n)"
                          r"(?=begin-forged-dimacs)", r"\2\1", c.text),
                   f"line {c.lines.index('begin-classifier-asm') + 1}: expected 'begin-classifier-asm', "
                   "got 'begin-diagonal-asm'"),
        lambda c: (c.text + "hello\n", f"line {len(c.lines) + 1}: expected end of text, got 'hello'"),
        lambda c: c.replaced("end-certificate", "end-certificate x"),
        lambda c: (c.text.replace("v1\n", "v1 \n", 1), "line 1: .*magic"),
        lambda c: c.inserted("begin-diagonal-asm", ""),
        lambda c: c.inserted(c.last, ""),
        lambda c: c.inserted("begin-classifier-asm", "; hi"),
        lambda c: c.inserted("begin-diagonal-asm", "; hi"),
        lambda c: c.inserted("begin-forged-dimacs", "c hi"),
        lambda c: c.replaced("    accept", "    accept ; hi"),
        lambda c: c.replaced(c.bound, c.bound.replace(" ", " 0")),
        lambda c: c.replaced(c.bound, c.bound.replace(" ", "  ")),
        lambda c: c.replaced("    accept", "    ACCEPT"),
        lambda c: c.replaced("    accept", "    accept "),
        lambda c: c.replaced(x := c.lines[c.lines.index("begin-diagonal-asm") + 1], x.replace(" ", " 0x")),
        lambda c: c.replaced(c.clause, c.clause.replace(" ", "  ", 1)),
        lambda c: (c.text.removesuffix("\n"),
                   re.escape(f"line {len(c.lines)}: expected 'end-certificate\\n', got 'end-certificate'")),
        # readers' errors without a line of their own name the section's lines
        lambda c: (c.text.replace(".memory 65536\n", ".memory 4294967296\n", 1),
                   f"line {c.lines.index('begin-classifier-asm') + 1}: ill-formed program: "
                   "memory_cells must be 1..4294967295, got 4294967296"),
        lambda c: c.replaced(f"{c.header}\n{c.clause}", c.header,
                             re.escape(f"expected {c.clause!r}, got {c.lines[c.lines.index(c.clause) + 1]!r}"),
                             at=1),
        # psi's text is derived: every forged-dimacs edit is named at the first line that differs
        lambda c: c.replaced(c.clause, re.sub("^-?", r"\g<0>0", c.clause)),
        lambda c: c.replaced(c.clause, c.clause.replace(" ", " +", 1)),
        lambda c: c.replaced(c.clause, c.clause.removesuffix(" 0") + " -0"),
        lambda c: c.replaced(c.clause, c.clause.removesuffix(" 0") + "  0"),
        lambda c: c.replaced(c.clause, c.clause + " "),
        lambda c: c.replaced(c.clause, c.clause.replace(" ", "\t", 1)),
        lambda c: c.inserted(c.clause, "c hi"),
        lambda c: c.inserted(c.clause, ""),
        lambda c: c.inserted(c.last, "c hi"),
        lambda c: c.replaced(c.clause, c.clause + "\r",
                             re.escape(f"expected {c.clause + chr(10)!r}, got {c.clause + chr(13) + chr(10)!r}")),
        lambda c: c.replaced(c.clause, c.clause.replace(" ", "\x0c", 1),  # a form feed ends a line
                             re.escape(f"expected {c.clause!r}, got {c.clause.split(' ')[0]!r}")),
        lambda c: c.replaced(c.clause, re.sub("[0-9]", lambda d: chr(0x660 + int(d[0])), c.clause, count=1)),
        lambda c: c.replaced(c.clause, re.sub(r"^(\S+ \S*)(\S)", r"\1_\2", c.clause)),
        lambda c: c.replaced(c.clause, re.sub(r" \S+", f" {c.num_vars + 1}", c.clause, count=1)),
        lambda c: c.replaced(c.clause, re.sub(r" \S+", " " + "1" * 5000, c.clause, count=1),
                             re.escape(f"expected {c.clause!r}, got ") + r"'[^']*1{50}\.\.\.'$"),
        lambda c: c.replaced(c.header, f"p cnf {'1' * 5000} {c.num_clauses}",
                             re.escape(f"expected {c.header!r}, got 'p cnf ") + r"1{50,}\.\.\.'$"),
        lambda c: c.replaced(c.header, f"p cnf {c.num_vars} {c.num_clauses + 1}"),
        lambda c: c.replaced(c.header, f"p cnf 0{c.num_vars} {c.num_clauses}"),
        lambda c: c.inserted(c.header, c.header),
        lambda c: c.replaced(c.clause, c.clause.removesuffix(" 0")),
        lambda c: c.replaced(c.clause, c.clause.replace(" ", " 0 ", 1)),
        lambda c: c.inserted(c.header, "0"),
        lambda c: (c.text.replace(f"\n{c.last}\nend-forged-dimacs\n", "\nend-forged-dimacs\n"),
                   f"line {c.lines.index('end-forged-dimacs')}: "
                   + re.escape(f"expected {c.last!r}, got 'end-forged-dimacs'")),
        lambda c: c.replaced("end-forged-dimacs\nend-certificate", "end-certificate"),
        # psi is encoded from D, the pins and the bound: an edit to either moves psi's text,
        # a SAT certificate's too, whose model is read at its own length; and pins encode
        # refuses name their line
        lambda c: _psi_edit("first_byte_zero", pins=((0, 253 ^ 1),)),
        lambda c: _psi_edit("const_sat", bound_t=4 + 1),
        lambda c: _psi_edit("first_byte_zero", bound_t=8 + 1),
        lambda c: c.replaced(c.pins, "pins: 0:256", "pinned value 256 is not a byte"),
    ],
    ids=["headers-swapped", "blank-header", "trial-after-section", "asm-sections-swapped", "after-end",
         "marker-with-text", "magic-with-space", "blank-opening-section", "blank-closing-section",
         "comment-classifier-asm", "comment-diagonal-asm", "comment-forged-dimacs", "trailing-comment",
         "bound-leading-zero", "bound-double-space", "upper-case-op", "trailing-space", "hex-directive",
         "clause-double-space", "no-final-newline", "ill-formed-program", "clause-count-mismatch",
         "clause-leading-zero", "clause-plus-sign", "clause-minus-zero", "clause-space-before-0",
         "clause-trailing-space", "clause-tab", "comment-mid-dimacs", "blank-mid-dimacs",
         "comment-after-last-clause", "clause-carriage-return", "clause-form-feed",
         "clause-arabic-indic-digit", "clause-underscore", "literal-past-num-vars", "literal-5000-digits",
         "header-5000-digits", "header-count-plus-one", "header-leading-zero", "duplicate-header",
         "missing-terminator", "mid-line-zero", "extra-empty-clause", "dropped-last-clause",
         "missing-end-forged-dimacs", "pins-value-flipped", "bound-plus-one", "bound-plus-one-sat",
         "pins-not-a-byte"],
)
def test_certificate_lines_out_of_dumps_order_are_rejected(const_sat, edit):
    # dumps never writes any of these; a reader that takes lines in any order
    # loads all but marker-with-text
    text = certificate_dumps(forge(const_sat, 1 << 16))
    tampered, message = edit(_CertificateLines(text))
    assert tampered != text
    with pytest.raises(ParseError, match=message):
        certificate_loads(tampered)


def test_forged_dimacs_past_any_imageable_length_is_refused_at_its_line(const_sat):
    # psi is derived, never parsed: 2**17 extra clause lines, more text than
    # any psi an image holds, are compared, and the first is named
    text = certificate_dumps(forge(const_sat, 1 << 16))
    lines = text.splitlines()
    end = lines.index("end-forged-dimacs")
    lines[end:end] = ["1 0"] * (1 << 17)
    with pytest.raises(ParseError, match="expected 'end-forged-dimacs', got '1 0'") as exc:
        certificate_loads("\n".join(lines) + "\n")
    assert exc.value.line == end + 1


def _edit_line(prefix, line):
    """A certificate edit: the first line starting with `prefix` becomes `line`."""
    return lambda text: re.sub(f"(?m)^{prefix}.*$", line, text, count=1)


@pytest.mark.parametrize(
    "parse, data, error, line, message",
    [
        (cnf_from_image, bytes(7), InputError, None, "malformed"),
        (cnf_from_image, struct.pack("<3H", 0, 0, 1), InputError, None, "payload length"),
        (cnf_from_image, struct.pack("<4H", 1, 1, 1, 2), InputError, None, "inside a clause"),
        (cnf_from_image, struct.pack("<5H", 1, 2, 2, 2, 0), InputError, None, "clause count"),
        (cnf_image, CnfFormula(32_768, ()), InputError, None, "caps variables"),
        (parse_asm, ".colour 3\naccept\n", ParseError, 1, "unknown directive"),
        (parse_asm, "loadi rx, 1\n", ParseError, 1, "expected register"),
        (parse_asm, "loadi r0, one\n", ParseError, 1, "expected number"),
        (parse_asm, "loadi r0, -1\n", ParseError, 1, "expected number, got '-1'"),
        (deserialize, serialize(Program((MOV(0, 1),), register_count=2))[:-1] + b"\x05",
         DecodeError, None, "register r5 out of range"),
        (dimacs_loads, "p cnf 1 -1\n", ParseError, 1, "malformed header"),
        # literals are -?[0-9]+ in ASCII
        (dimacs_loads, "p cnf 12 1\n1_0 0\n", ParseError, 2, "bad literal '1_0'"),
        (dimacs_loads, "p cnf 1 1\n+1 0\n", ParseError, 2, "bad literal '\\+1'"),
        (dimacs_loads, "p cnf 3 1\n\u0663 0\n", ParseError, 2, "bad literal '\u0663'"),
        (dimacs_loads, "p cnf 3 1\n--1 0\n", ParseError, 2, "bad literal '--1'"),
        (dimacs_loads, "p cnf 3 1\n- 0\n", ParseError, 2, "bad literal '-'"),
        (certificate_loads, _edit_line("classifier-verdict: ", "classifier-verdict: MAYBE"),
         ParseError, 4, "bad classifier verdict"),
        (certificate_loads, _edit_line("oracle-verdict: ", "oracle-verdict: MAYBE"),
         ParseError, 5, "bad oracle verdict"),
        (certificate_loads, _edit_line("pins: ", "pins: 0-253"),
         ParseError, 7, "malformed pins"),
        (certificate_loads, _edit_line("trial: ", "trial: t=x"),
         ParseError, 8, "malformed trial"),
    ],
    ids=["image-odd-length", "image-payload-length", "image-inside-clause",
         "image-clause-count", "image-variables", "asm-directive", "asm-register",
         "asm-number", "asm-negative", "serial-register", "dimacs-negative-count",
         "dimacs-underscore", "dimacs-plus-sign", "dimacs-arabic-indic-digit", "dimacs-double-minus",
         "dimacs-bare-minus",
         "cert-classifier-verdict", "cert-oracle-verdict", "cert-pins", "cert-trial"],
)
def test_parser_error_branches(request, parse, data, error, line, message):
    # each reader refuses with its own error class, naming the line where it has one;
    # a certificate case edits const_unsat's certificate, whose oracle-model is line 6
    if callable(data):
        data = data(certificate_dumps(forge(request.getfixturevalue("const_unsat"), 1 << 16)))
    with pytest.raises(error, match=message) as exc:
        parse(data)
    if line is not None:
        assert exc.value.line == line


def test_unstable_pins_fill_the_transcript(monkeypatch, first_byte_zero):
    # no refinement round: D's reads never match the empty pin set it ran under,
    # so forge tries every bound of the ladder, each from no pins, and none closes
    monkeypatch.setattr(diagonal, "PIN_REFINEMENT_ROUNDS", 0)
    result = forge(first_byte_zero, 64)
    assert isinstance(result, BoundNotFound)
    d = build_diagonal_program(first_byte_zero, 64)

    def record(t):  # forge's one round at t
        image = cnf_image(encode(d, (), t)[0])
        if len(image) > SCRATCH_BASE:
            return TrialRecord(t, None, _COLLIDES)
        outcome = run(d, image, t)
        if outcome.tag == OUT_OF_FUEL:
            return TrialRecord(t, None)
        return TrialRecord(t, outcome.steps_used, "pin set did not stabilize")

    assert result.transcript == tuple(map(record, diagonal._bounds(64)))
    assert any(r.halted for r in result.transcript)


def test_a_classifier_out_of_fuel_stops_forge_and_fails_verify(monkeypatch, first_byte_zero):
    cert = forge(first_byte_zero, 1 << 16)
    monkeypatch.setattr(diagonal, "CLASSIFIER_FUEL", 1)
    with pytest.raises(ResourceError, match="exhausted 1 simulation steps"):
        forge(first_byte_zero, 1 << 16)
    assert verify_certificate(cert).failed_check == "classifier-simulation"


def test_certificate_declaring_more_variables_than_an_image_holds_is_rejected(const_unsat):
    # neither psi nor the SAT model is sized by the header, which is only a
    # line that differs from the one due
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    tampered, count = re.subn(r"(?m)^p cnf \d+ ", "p cnf 1000000000000000 ", text)
    assert count == 1
    with pytest.raises(ParseError, match="expected 'p cnf .*', got 'p cnf 1000000000000000 ") as exc:
        certificate_loads(tampered)
    assert exc.value.line == text.splitlines().index("begin-forged-dimacs") + 2


@pytest.mark.parametrize("name", ["const_sat", "first_byte_zero", "parity_first_byte", "scan_all", "every_op"])
def test_diagonal_body_is_the_classifier_with_halts_swapped_and_jumps_shifted(name):
    from conftest import load_classifier
    from diagforge.machine import Instruction, Program

    if name == "every_op":
        ops = ["LOADI", "MOV", "ADD", "SUB", "LOAD", "STORE", "JZ", "JMP", "HALT_ACCEPT", "HALT_REJECT"]
        args = [(0, 9), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 9), (8,), (), ()]
        classifier = Program(tuple(map(Instruction, ops, args)))
    else:
        classifier = load_classifier(f"{name}.asm")
    flipped = {"HALT_ACCEPT": "HALT_REJECT", "HALT_REJECT": "HALT_ACCEPT"}
    expected = []
    for ins in classifier.instructions:
        if ins.op == "JMP":
            expected.append(Instruction("JMP", (ins.args[0] + 2,)))
        elif ins.op == "JZ":
            expected.append(Instruction("JZ", (ins.args[0], ins.args[1] + 2)))
        else:
            expected.append(Instruction(flipped.get(ins.op, ins.op), ins.args))
    d = build_diagonal_program(classifier, 8)
    assert [ins.op for ins in d.instructions[:2]] == ["LOADI", "SELF"]
    assert list(d.instructions[2:]) == expected
