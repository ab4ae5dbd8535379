import dataclasses
import hashlib
import random
import re

import pytest

from diagforge import diagonal, tableau
from diagforge.cnf import SAT, UNSAT, Assignment, CnfFormula, Verdict, evaluate, solve_dpll
from diagforge.diagonal import (
    SCRATCH_BASE,
    BoundNotFound,
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
    minimal_space,
    self_describing_space,
    transcript_dumps,
    verify_certificate,
)
from diagforge.errors import (
    ConstructionError,
    ContractViolation,
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
    REJECT,
    Instruction,
    Program,
    parse_asm,
    run,
)
from diagforge.tableau import encode


# finite tier


def test_minimal_space_matches_toy_construction():
    space = minimal_space()
    assert [list(c) for c in space.formulas[0].clauses] == [[1]]
    assert [list(c) for c in space.formulas[1].clauses] == [[-1]]
    table = ClassifierTable((SAT, UNSAT))  # the table from the toy construction
    report = finite_fixed_point(space, table)
    assert report.fixed_point_index == 1
    assert report.misclassified
    assert all(not branch.consistent for branch in report.case_analysis)


def test_all_four_tables_misclassify():
    space = minimal_space()
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


def test_space_validation():
    with pytest.raises(InputError):
        FiniteSpace((CnfFormula.of(1, [[1]]),), ((0, 3),))
    with pytest.raises(InputError):
        finite_fixed_point(minimal_space(), ClassifierTable((SAT,)))


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
    # the const_unsat certificate hash in perfbench/expected.json
    assert hashlib.sha256(certificate_dumps(a).encode("ascii")).hexdigest() == (
        "2edbd62f444fea50393d48c5f38814e73ee9f2b7f339d8af40fa6e27fb793685"
    )


def test_forge_scanning_classifier_honest_failure(scan_all):
    result = forge(scan_all, 1 << 8)
    assert isinstance(result, BoundNotFound)
    assert result.transcript
    for record in result.transcript:
        assert not record.halted  # runtime exceeded every tried bound
    # at least one bound was actually simulated rather than skipped
    assert any(record.note == "" for record in result.transcript)


SHIPPED = ["const_sat", "const_unsat", "first_byte_zero", "parity_first_byte", "scan_all"]

HONEST_FAILURE_TRANSCRIPTS = {
    "parity_first_byte": "8070fcaf45b03a81abeb5df93f716d7aae40b8b4bc58f611dc3bc55ec7567f43",
    "scan_all": "dd6481f5ea123eea7e68adea197d5abbb700270115e9a1de6683fa8e37c47baf",
}


@pytest.mark.parametrize("name", sorted(HONEST_FAILURE_TRANSCRIPTS))
def test_forge_honest_failure_transcript_is_locked(request, name):
    result = forge(request.getfixturevalue(name), 1 << 16)
    assert isinstance(result, BoundNotFound)
    digest = hashlib.sha256(transcript_dumps(result).encode("ascii")).hexdigest()
    assert digest == HONEST_FAILURE_TRANSCRIPTS[name]


def test_forge_stops_encoding_after_the_first_collision(
    monkeypatch, scan_all, parity_first_byte
):
    calls = []
    real = diagonal.encode

    def counting(program, pinned, t, max_size=None):
        calls.append(t)
        return real(program, pinned, t, max_size=max_size)

    monkeypatch.setattr(diagonal, "encode", counting)
    forge(scan_all, 1 << 16)
    assert calls == [4, 8]
    calls.clear()
    forge(parity_first_byte, 1 << 16)
    assert calls == [4, 8, 16, 32]


@pytest.mark.parametrize(
    "name, t_cap",
    [(name, 1 << 16) for name in SHIPPED] + [("scan_all", 1000)],
)
def test_forge_transcript_equals_the_trials_it_skips(request, name, t_cap):
    classifier = request.getfixturevalue(name)
    result = forge(classifier, t_cap)
    d = build_diagonal_program(classifier, t_cap)
    ts = [4 << k for k in range(15) if 4 << k <= t_cap]
    if isinstance(result, MisclassificationCertificate):
        ts = ts[: ts.index(result.bound_t) + 1]
    assert list(result.transcript) == [diagonal._attempt_bound(d, t)[0] for t in ts]


def test_forge_too_large_fills_a_non_power_of_two_cap(scan_all):
    result = forge(scan_all, 1000)
    assert [r.t for r in result.transcript] == [4, 8, 16, 32, 64, 128, 256, 512]
    assert result.transcript[-1].note == "image collides with the quine scratch region"


def test_forge_t_cap_validation(const_sat):
    with pytest.raises(InputError):
        forge(const_sat, 2)


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
    reason="ROADMAP item 10: D's inline classifier reads D's own SELF deposit at "
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


def test_certificate_clause_tamper_fails_rederivation(const_unsat):
    cert = forge(const_unsat, 1 << 16)
    clauses = list(cert.forged.clauses)
    del clauses[len(clauses) // 2]
    tampered = MisclassificationCertificate(
        classifier=cert.classifier,
        classifier_sha256=cert.classifier_sha256,
        diagonal_program=cert.diagonal_program,
        bound_t=cert.bound_t,
        pins=cert.pins,
        forged=CnfFormula(cert.forged.num_vars, tuple(clauses)),
        classifier_verdict=cert.classifier_verdict,
        oracle_verdict=cert.oracle_verdict,
        transcript=cert.transcript,
    )
    check = verify_certificate(tampered)
    assert not check.ok
    assert check.failed_check == "re-derivation"


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


def test_certificate_pin_value_tamper_fails_rederivation(first_byte_zero):
    cert = forge(first_byte_zero, 1 << 16)
    (address, value), = cert.pins
    text = certificate_dumps(cert).replace(
        f"pins: {address}:{value}", f"pins: {address}:{value ^ 1}"
    )
    check = verify_certificate(certificate_loads(text))
    assert check.failed_check == "re-derivation"


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


def test_verify_rejects_an_image_past_the_scratch_line(first_byte_zero):
    # D's SELF deposit at SCRATCH_BASE overwrites the tail of this image, so
    # D's inline classifier never read psi itself; forge rules the bound out
    diagonal_program = build_diagonal_program(first_byte_zero, 39)
    pins = ((0, 49),)
    forged, _ = encode(diagonal_program, pins, 39)
    image = cnf_image(forged)
    assert len(image) == 63_122 > SCRATCH_BASE
    note = diagonal._trial(diagonal_program, pins, 39)[0]
    assert note == "image collides with the quine scratch region"
    classifier_verdict = SAT if run(first_byte_zero, image, 1000).tag == ACCEPT else UNSAT
    oracle = solve_dpll(forged)
    assert oracle.tag != classifier_verdict  # every other check would pass
    cert = MisclassificationCertificate(
        classifier=first_byte_zero,
        classifier_sha256=classifier_hash(first_byte_zero),
        diagonal_program=diagonal_program,
        bound_t=39,
        pins=pins,
        forged=forged,
        classifier_verdict=classifier_verdict,
        oracle_verdict=oracle,
        transcript=(),
    )
    for candidate in (cert, certificate_loads(certificate_dumps(cert))):
        assert verify_certificate(candidate).failed_check == "re-derivation"


def test_certificate_model_giving_a_variable_both_ways_is_rejected(const_unsat):
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    (line,) = [x for x in text.splitlines() if x.startswith("oracle-model: ")]
    first = int(line.split()[1])
    tampered = text.replace(line, line[: -len(" 0")] + f" {-first} 0")
    with pytest.raises(ParseError, match="both ways"):
        certificate_loads(tampered)


def test_trial_halted_is_derived_from_steps(const_unsat):
    assert TrialRecord(4, 7).halted and not TrialRecord(4, None).halted
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    certificate_loads(text)
    for wrong in (r"steps=- halted=yes", r"steps=\1 halted=no"):
        tampered, count = re.subn(r"steps=(\d+) halted=yes", wrong, text)
        assert count
        with pytest.raises(ParseError, match="halted="):
            certificate_loads(tampered)


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
    cert = forge(const_unsat, 1 << 16)
    text = certificate_dumps(cert).replace(
        f"classifier-sha256: {cert.classifier_sha256}",
        "classifier-sha256: " + "0" * 64,
    )
    check = verify_certificate(certificate_loads(text))
    assert check.failed_check == "classifier-hash"


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
    "original, repeated, message",
    [
        ("bound-t: ", "bound-t: 999", "expected 'classifier-verdict', got 'bound-t: 4'"),
        ("classifier-verdict: ", "classifier-verdict: SAT",
         "expected 'oracle-verdict', got 'classifier-verdict: UNSAT'"),
        ("begin-forged-dimacs", "begin-forged-dimacs\np cnf 1 1\n1 0\nend-forged-dimacs",
         "expected 'end-certificate', got 'begin-forged-dimacs'"),
    ],
    ids=["bound-t", "classifier-verdict", "forged-dimacs"],
)
def test_certificate_with_a_repeated_line_is_rejected(const_unsat, original, repeated, message):
    # one copy must not silently override another: the file would state two values
    lines = certificate_dumps(forge(const_unsat, 1 << 16)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(original))
    extra = repeated.split("\n")
    lines[at:at] = extra
    # the error names the original line, now after the inserted copy
    with pytest.raises(ParseError, match=f"line {at + len(extra) + 1}: {message}"):
        certificate_loads("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, after, extra, message",
    [
        ("const_unsat", "bound-t: ", "colour: blue",
         "line 4: expected 'classifier-verdict', got 'colour: blue'"),
        ("const_unsat", "end-forged-dimacs", "begin-notes\nhello\nend-notes",
         "line 597: expected 'end-certificate', got 'begin-notes'"),
        ("const_sat", "oracle-verdict: ", "oracle-model: 1 0",
         "line 6: expected 'pins', got 'oracle-model: 1 0'"),
        # an error inside a section names the file's line, not the section's
        ("const_sat", ".registers 3", "bogus r9", "line 16: unknown mnemonic 'bogus'"),
    ],
    ids=["header", "section", "unsat-model", "inside-section"],
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
    with pytest.raises(ParseError, match=message):
        certificate_loads("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("bound-t: 4\nclassifier-verdict: SAT\n",
                                   "classifier-verdict: SAT\nbound-t: 4\n"),
         "line 3: expected 'bound-t', got 'classifier-verdict: SAT'"),
        (lambda text: text.replace("bound-t: 4\n", "bound-t: 4\n\n"),
         "line 4: expected 'classifier-verdict', got ''"),
        (lambda text: text.replace("trial: t=4 steps=3 halted=yes note=\n", "").replace(
            "end-classifier-asm\n", "end-classifier-asm\ntrial: t=4 steps=3 halted=yes note=\n"),
         "line 13: expected 'begin-diagonal-asm', got 'trial: t=4 steps=3 halted=yes note='"),
        (lambda text: re.sub(r"(?s)(begin-classifier-asm.*?\n)(begin-diagonal-asm.*?\n)"
                             r"(?=begin-forged-dimacs)", r"\2\1", text),
         "line 8: expected 'begin-classifier-asm', got 'begin-diagonal-asm'"),
        (lambda text: text + "hello\n", "line 597: expected end of text, got 'hello'"),
        (lambda text: text.replace("end-certificate\n", "end-certificate x\n"),
         "line 596: expected 'end-certificate', got 'end-certificate x'"),
        (lambda text: text.replace("v1\n", "v1 \n", 1), "line 1: .*magic"),
        (lambda text: text.replace("begin-diagonal-asm\n", "begin-diagonal-asm\n\n"),
         "line 15: expected '.registers 3', got ''"),
        (lambda text: text.replace("end-forged-dimacs\n", "\nend-forged-dimacs\n"),
         "line 595: expected 'end-forged-dimacs', got ''"),
        (lambda text: text.replace("begin-classifier-asm\n", "begin-classifier-asm\n; hi\n"),
         "line 9: expected '.registers 1', got '; hi'"),
        (lambda text: text.replace("begin-diagonal-asm\n", "begin-diagonal-asm\n; hi\n"),
         "line 15: expected '.registers 3', got '; hi'"),
        (lambda text: text.replace("\np cnf", "\nc hi\np cnf"),
         "line 23: expected 'p cnf 280 571', got 'c hi'"),
        (lambda text: text.replace("    accept\n", "    accept ; hi\n", 1),
         "line 12: expected '    accept', got '    accept ; hi'"),
        (lambda text: text.replace("bound-t: 4\n", "bound-t: 04\n"),
         "line 3: expected 'bound-t: 4', got 'bound-t: 04'"),
        (lambda text: text.replace("bound-t: 4\n", "bound-t:  4\n"),
         "line 3: expected 'bound-t: 4', got 'bound-t:  4'"),
        (lambda text: text.replace("    accept\n", "    ACCEPT\n"),
         "line 12: expected '    accept', got '    ACCEPT'"),
        (lambda text: text.replace("    accept\n", "    accept \n"),
         "line 12: expected '    accept', got '    accept '"),
        (lambda text: text.replace("begin-diagonal-asm\n.registers 3\n",
                                   "begin-diagonal-asm\n.registers 0x3\n"),
         "line 15: expected '.registers 3', got '.registers 0x3'"),
        (lambda text: text.replace("\n-3 261 0\n", "\n-3  261 0\n"),
         "line 24: expected '-3 261 0', got '-3  261 0'"),
        (lambda text: text.removesuffix("\n"),
         re.escape(r"line 596: expected 'end-certificate\n', got 'end-certificate'")),
    ],
    ids=["headers-swapped", "blank-header", "trial-after-section", "asm-sections-swapped",
         "after-end", "marker-with-text", "magic-with-space", "blank-opening-section",
         "blank-closing-section", "comment-classifier-asm", "comment-diagonal-asm",
         "comment-forged-dimacs", "trailing-comment", "bound-leading-zero",
         "bound-double-space", "upper-case-op", "trailing-space", "hex-directive",
         "clause-double-space", "no-final-newline"],
)
def test_certificate_lines_out_of_dumps_order_are_rejected(const_sat, edit, message):
    # dumps never writes any of these; a reader that takes lines in any order
    # loads all but marker-with-text
    text = certificate_dumps(forge(const_sat, 1 << 16))
    tampered = edit(text)
    assert tampered != text
    with pytest.raises(ParseError, match=message):
        certificate_loads(tampered)


def test_unstable_pins_fill_the_transcript(monkeypatch, first_byte_zero):
    # no refinement round: D's reads never match the empty pin set it ran under
    monkeypatch.setattr(diagonal, "PIN_REFINEMENT_ROUNDS", 0)
    result = forge(first_byte_zero, 64)
    assert isinstance(result, BoundNotFound)
    assert [r for r in result.transcript if r.t in (8, 16, 32)] == [
        TrialRecord(t, 6, "pin set did not stabilize") for t in (8, 16, 32)
    ]


def test_a_classifier_out_of_fuel_stops_forge_and_fails_verify(monkeypatch, first_byte_zero):
    cert = forge(first_byte_zero, 1 << 16)
    monkeypatch.setattr(diagonal, "CLASSIFIER_FUEL", 1)
    with pytest.raises(ResourceError, match="exhausted 1 simulation steps"):
        forge(first_byte_zero, 1 << 16)
    assert verify_certificate(cert).failed_check == "classifier-simulation"


def test_certificate_declaring_more_variables_than_an_image_holds_is_rejected(const_unsat):
    # the SAT model is sized by the header, so a huge count must fail first
    text = certificate_dumps(forge(const_unsat, 1 << 16))
    tampered, count = re.subn(r"(?m)^p cnf \d+ ", "p cnf 1000000000000000 ", text)
    assert count == 1
    with pytest.raises(ParseError, match="image cap"):
        certificate_loads(tampered)


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
