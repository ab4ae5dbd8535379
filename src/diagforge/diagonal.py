"""Forge self-referential CNF instances that a given total classifier misclassifies.

Two tiers:

- The finite tier reproduces the two-formula toy construction: a space of
  formulas, a stipulated interpretation map ("formula i asserts: the
  classifier outputs UNSAT on formula j"), and a case analysis showing every
  classifier table gets the reflexive formula wrong.  The interpretation map
  is treated as authoritative even where it diverges from real CNF semantics
  (the negative unit clause is satisfiable); that stipulation is the whole
  point of the exercise and is confined to this tier.

- The full tier closes the loop for real: given a classifier program, build a
  diagonal program D that obtains its own serialization (SELF), runs the
  classifier inline on a formula delivered through pinned input cells, and
  accepts exactly when the classifier answers UNSAT.  The host closes the
  quine: its search (_search) climbs the bounds t = 4, 8, ... for one with
  runtime(D) <= t, and each bound attempt (_attempt_bound) pins exactly the
  cells D actually reads until the pin set reproduces itself (at most
  PIN_REFINEMENT_ROUNDS rounds).  The forged formula psi = encode(D, pins, t)
  is then satisfiable iff the classifier calls it UNSAT: wrong either way.
  A certificate stores the classifier, forge's choices and its claims; its
  hash, D and psi are derived on it, and certificate_loads parses none of them.
  verify_certificate replays both: the bound attempt from the certificate's
  pins, and the search below its bound.

Classifiers that inspect a super-constant part of their input admit no
self-consistent bound under this bounded encoding; forge reports that
honestly as BoundNotFound with the full search transcript.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from os.path import commonprefix

from ._collector import pause_collector
from .cnf import (
    SAT,
    UNSAT,
    CnfFormula,
    Verdict,
    dimacs_dumps,
    evaluate,
    model_from_literals,
    model_literals,
    solve_dpll,
)
from .errors import (
    ConstructionError,
    ContractViolation,
    InputError,
    ParseError,
    ResourceError,
)
from .machine import (
    ACCEPT,
    HALT_ACCEPT,
    LOADI,
    MAX_INSTRUCTIONS,
    OP_SPECS,
    OUT_OF_FUEL,
    SELF,
    Instruction,
    Program,
    format_asm,
    parse_asm,
    run,
    run_recording_reads,
    serialize,
    _successors,
)
from .tableau import encode

CERT_MAGIC = "diagforge certificate v1"

SCRATCH_BASE = 0xF000  # where D deposits its own serialization; above any image
PIN_REFINEMENT_ROUNDS = 3
CLASSIFIER_FUEL = 1_000_000
_FIRST_BOUND = 4  # the ladder's first bound (see _bounds)


# The finite tier.


@dataclass(frozen=True)
class FiniteSpace:
    """A finite formula space with a stipulated self-referential reading.

    interpretation maps formula index i to a target j, read as: formula i
    encodes the claim "the classifier outputs UNSAT on formula j".
    """

    formulas: tuple[CnfFormula, ...]
    interpretation: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, j in self.interpretation:
            if not (0 <= i < len(self.formulas) and 0 <= j < len(self.formulas)):
                raise InputError(f"interpretation entry ({i}, {j}) out of range")
            if i in seen:
                raise InputError(f"formula {i} interpreted twice")
            seen.add(i)

    def claim_target(self, i: int) -> int | None:
        for a, b in self.interpretation:
            if a == i:
                return b
        return None


@dataclass(frozen=True)
class ClassifierTable:
    verdicts: tuple[str, ...]

    def __post_init__(self):
        for v in self.verdicts:
            if v not in (SAT, UNSAT):
                raise InputError(f"table verdict must be SAT or UNSAT, got {v!r}")


@dataclass(frozen=True)
class BranchAnalysis:
    assumed_verdict: str  # the classifier's hypothetical output at the fixed point
    claim_holds: bool  # does "classifier outputs UNSAT on it" hold under that assumption
    stipulated_status: str  # the status the formula then has under the interpretation
    consistent: bool  # assumed == stipulated; never true at a genuine fixed point


@dataclass(frozen=True)
class FixedPointReport:
    fixed_point_index: int | None
    misclassified: bool
    case_analysis: tuple[BranchAnalysis, BranchAnalysis] | None


def finite_fixed_point(space: FiniteSpace, table: ClassifierTable) -> FixedPointReport:
    """Locate a reflexive formula and run both branches of the case analysis."""
    if len(table.verdicts) != len(space.formulas):
        raise InputError("table and space sizes differ")
    fixed = None
    for i in range(len(space.formulas)):
        if space.claim_target(i) == i:
            fixed = i
            break
    if fixed is None:
        return FixedPointReport(None, False, None)
    branches = []
    for assumed in (SAT, UNSAT):
        claim_holds = assumed == UNSAT
        stipulated = SAT if claim_holds else UNSAT
        branches.append(BranchAnalysis(assumed, claim_holds, stipulated, assumed == stipulated))
    actual = table.verdicts[fixed]
    actual_branch = branches[0] if actual == SAT else branches[1]
    return FixedPointReport(fixed, not actual_branch.consistent, tuple(branches))


_SPACE_CATALOG = (
    ((1,),),  # p
    ((-1,),),  # ~p
    ((1,), (-1,)),  # p and ~p
    ((1, -1),),  # p or ~p
)


def self_describing_space(k: int) -> FiniteSpace:
    """k distinct formulas; each claims about the next, the last about itself."""
    if not 2 <= k <= len(_SPACE_CATALOG):
        raise InputError(f"space size must be 2..{len(_SPACE_CATALOG)}")
    formulas = tuple(CnfFormula.of(1, cls) for cls in _SPACE_CATALOG[:k])
    interpretation = tuple((i, i + 1) for i in range(k - 1)) + ((k - 1, k - 1),)
    return FiniteSpace(formulas, interpretation)


def all_tables(k: int):
    for combo in itertools.product((SAT, UNSAT), repeat=k):
        yield ClassifierTable(combo)


# CNF memory image: the byte format classifier programs consume.
# Little-endian 16-bit words, one word per two cells:
#   word 0: num_vars, word 1: num_clauses, word 2: payload word count,
#   then per clause each literal as (var << 1) | sign and a 0 terminator.
# Fixed-width words mean literal sign flips never change the image length,
# which is what lets the quine close over pinned bytes.
#
# psi is limited only by the scratch line (see _psi); every variable occurs in
# a clause, so that budget also keeps psi inside these caps.

IMAGE_VAR_LIMIT = 1 << 15  # a literal word spends one bit on the sign
IMAGE_WORD_LIMIT = 1 << 16  # clause and payload counts are header words


def cnf_image(formula: CnfFormula) -> bytes:
    """psi's memory image, in the format above.

    The caps are checked before anything is built, in this order: variables,
    clauses, payload words; each raises InputError.  Then every literal, and
    a 0 after each clause, goes through one word table straight into a
    single struct.pack.  Clauses may be tuples or lists.
    """
    n, clauses = formula.num_vars, formula.clauses
    if n >= IMAGE_VAR_LIMIT:
        raise InputError(f"image format caps variables at {IMAGE_VAR_LIMIT - 1}, got {n}")
    if len(clauses) >= IMAGE_WORD_LIMIT:
        raise InputError(f"image format caps clauses at {IMAGE_WORD_LIMIT - 1}")
    size = len(clauses) + sum(map(len, clauses))
    if size >= IMAGE_WORD_LIMIT:
        raise InputError(f"image format caps payload at {IMAGE_WORD_LIMIT - 1} words")
    # word[v] = 2v and word[-v] = 2v + 1 (a negative index counts from the
    # end) for v in 1..n, and word[0] = 0 ends a clause.  Below the variable
    # cap the table has at most 65535 entries.
    word = list(range(0, 2 * n + 1, 2)) + list(range(2 * n + 1, 1, -2))
    ends = zip(clauses, itertools.repeat((0,)))
    lits = itertools.chain.from_iterable(itertools.chain.from_iterable(ends))
    return struct.pack(f"<{3 + size}H", n, len(clauses), size, *map(word.__getitem__, lits))


def cnf_from_image(data: bytes) -> CnfFormula:
    if len(data) < 6 or len(data) % 2:
        raise InputError("malformed cnf image")
    words = struct.unpack(f"<{len(data) // 2}H", data)
    num_vars, num_clauses, payload_len = words[0], words[1], words[2]
    payload = words[3:]
    if len(payload) != payload_len:
        raise InputError("cnf image payload length mismatch")
    clauses = []
    clause: list[int] = []
    for w in payload:
        if w == 0:
            clauses.append(tuple(clause))
            clause = []
            continue
        var = w >> 1
        clause.append(-var if w & 1 else var)
    if clause:
        raise InputError("cnf image ends inside a clause")
    if len(clauses) != num_clauses:
        raise InputError("cnf image clause count mismatch")
    return CnfFormula(num_vars, tuple(clauses))


# Diagonal program construction.


def _flip_halts_and_shift(instructions, offset: int):
    """The classifier's instructions inside D: halts swapped, jump targets moved by `offset`."""
    swap = {"HALT_ACCEPT": "HALT_REJECT", "HALT_REJECT": "HALT_ACCEPT"}
    out = []
    for ins in instructions:
        kinds = OP_SPECS[ins.op][1]
        args = tuple(a + offset if kind == "target" else a for kind, a in zip(kinds, ins.args))
        out.append(Instruction(swap.get(ins.op, ins.op), args))
    return out


def build_diagonal_program(classifier: Program, t: int = 1) -> Program:
    """D: obtain own serialization, run the classifier inline, invert its verdict.

    Every way the classifier halts is inverted, running past its last
    instruction (an implicit reject) included.  D does not depend on t: the
    bound only enters through the encoding, and `t` must only be positive.
    """
    if t < 1:
        raise InputError("bound must be positive")
    if classifier.word_bits != 16:
        raise ConstructionError("classifiers must use 16-bit words")
    if classifier.memory_cells != 65536:
        raise ConstructionError("classifiers must declare 65536 memory cells")
    if classifier.register_count > 6:
        raise ConstructionError(
            "classifiers may use at most 6 registers (two are reserved)"
        )
    ops = {ins.op for ins in classifier.instructions}
    if "SELF" in ops:
        raise ConstructionError("classifiers must not contain SELF")
    # jump targets lie below len(instructions): only falling through the
    # last instruction reaches that pc, which rejects
    n = len(classifier.instructions)
    falls_off = n in _successors(classifier.instructions[-1], n - 1)
    if not falls_off and not ops & {"HALT_ACCEPT", "HALT_REJECT"}:
        raise ConstructionError(
            "classifier violates the verdict convention: it can never halt"
        )
    ra = classifier.register_count
    rb = ra + 1
    prefix = [LOADI(ra, SCRATCH_BASE), SELF(ra, rb)]
    # D adds its prefix and, after a classifier that can fall through, an accept
    limit = MAX_INSTRUCTIONS - len(prefix) - falls_off
    if n > limit:
        past = " that can run past its last instruction" if falls_off else ""
        raise ConstructionError(f"a classifier{past} has at most {limit} instructions, got {n}")
    body = _flip_halts_and_shift(classifier.instructions, len(prefix))
    if falls_off:
        body.append(HALT_ACCEPT)  # the flipped implicit reject
    return Program(
        tuple(prefix + body),
        register_count=classifier.register_count + 2,
        word_bits=16,
        memory_cells=65536,
    )


# Forge: doubling bound search with host-level quine closure.


@dataclass(frozen=True)
class TrialRecord:
    t: int
    steps: int | None  # steps used when D halted within fuel t, else None
    note: str = ""

    @property
    def halted(self) -> bool:
        return self.steps is not None


@dataclass(frozen=True)
class BoundNotFound:
    """The classifier and forge's search record; its hash derives from the classifier."""

    classifier: Program
    t_cap: int
    transcript: tuple[TrialRecord, ...]

    @property
    def classifier_sha256(self) -> str:
        return classifier_hash(self.classifier)


@dataclass(frozen=True)
class MisclassificationCertificate:
    """The classifier, what forge chose for it and what it claims.  Its hash,
    D and psi = _psi(D, pins, bound_t) derive from those; D and psi are kept."""

    classifier: Program
    bound_t: int
    pins: tuple[tuple[int, int], ...]
    classifier_verdict: str
    oracle_verdict: Verdict
    transcript: tuple[TrialRecord, ...]

    @property
    def classifier_sha256(self) -> str:
        return classifier_hash(self.classifier)

    @cached_property
    def diagonal_program(self) -> Program:
        return build_diagonal_program(self.classifier)

    @cached_property
    def forged(self) -> CnfFormula:
        return _psi(self.diagonal_program, self.pins, self.bound_t)


def classifier_hash(classifier: Program) -> str:
    return hashlib.sha256(serialize(classifier)).hexdigest()


def _bounds(t_cap: int):
    """The ladder forge climbs: t = 4, 8, 16, ... while t <= t_cap."""
    t = _FIRST_BOUND
    while t <= t_cap:
        yield t
        t *= 2


@lru_cache(maxsize=1)
def _psi(diagonal: Program, pins: tuple[tuple[int, int], ...], t: int) -> CnfFormula:
    """psi = encode(D, pins, t) under the one size rule: psi's image (3 header
    words, then payload) must end by SCRATCH_BASE, where D's SELF deposit
    lands, else ResourceError.  The last psi is kept: the certificate forge
    returns asks again for the psi that closed, and verify for the psi that
    certificate_loads has just derived."""
    return encode(diagonal, pins, t, max_size=(SCRATCH_BASE - 6) // 2)[0]


def _attempt_bound(diagonal: Program, t: int, pins: tuple[tuple[int, int], ...] = ()):
    """Try bound t from `pins`; returns (TrialRecord, payload or None, outgrown).

    Each round takes psi under the pins (_psi), images it and runs D on it;
    the cells D read, sorted by address, pin the next round, until a round
    reads its own pins.  payload = (formula, image, pins, outcome) when the
    pins closed within fuel t.  outgrown: round 0 collides with the scratch
    region, which from pins=() means every larger bound does (unpinned psi
    never shrinks in t; pins add clauses).
    """
    for round_no in range(PIN_REFINEMENT_ROUNDS + 1):
        try:
            formula = _psi(diagonal, pins, t)
        except ResourceError:
            note = "image collides with the quine scratch region"
            return TrialRecord(t, None, note), None, round_no == 0
        image = cnf_image(formula)
        outcome, reads = run_recording_reads(diagonal, image, t)
        if outcome.tag == OUT_OF_FUEL:
            return TrialRecord(t, None), None, False
        reads = tuple(sorted(reads.items()))
        if reads == pins:
            return TrialRecord(t, outcome.steps_used), (formula, image, pins, outcome), False
        pins = reads
    return TrialRecord(t, outcome.steps_used, "pin set did not stabilize"), None, False


def _search(diagonal: Program, t_cap: int):
    """forge's search: each bound of the ladder up to t_cap, until one closes.

    Returns (transcript, payload), with _attempt_bound's payload of the bound
    that closed, the transcript's last record, or None.  Once a bound's
    unpinned psi collides with the scratch region, every later bound gets
    the same record without being tried: it would collide too.
    """
    transcript: list[TrialRecord] = []
    payload, outgrown = None, False
    for t in _bounds(t_cap):
        if outgrown:
            record = TrialRecord(t, None, record.note)
        else:
            record, payload, outgrown = _attempt_bound(diagonal, t)
        transcript.append(record)
        if payload is not None:
            break
    return tuple(transcript), payload


def _classifier_verdict(classifier: Program, image: bytes) -> str | None:
    """SAT if the classifier accepts `image` within CLASSIFIER_FUEL steps,
    UNSAT if it rejects, None if it runs out of fuel."""
    tag = run(classifier, image, CLASSIFIER_FUEL).tag
    if tag == OUT_OF_FUEL:
        return None
    return SAT if tag == ACCEPT else UNSAT


@pause_collector
def forge(classifier: Program, t_cap: int) -> MisclassificationCertificate | BoundNotFound:
    """Search the bounds t = 4, 8, ... <= t_cap for a closed certificate (see _search).

    Deterministic: equal (classifier, t_cap) produce byte-identical
    certificates.  Runs with the cyclic garbage collector paused: a trial's
    formulas, images and records form no cycle, so reference counting frees
    the ones the result does not keep.
    """
    if type(t_cap) is not int:
        raise InputError(f"t_cap must be an int, got {t_cap!r}")
    if t_cap < _FIRST_BOUND:
        raise InputError(f"t_cap must be at least {_FIRST_BOUND}")
    diagonal = build_diagonal_program(classifier)
    transcript, payload = _search(diagonal, t_cap)
    if payload is None:
        return BoundNotFound(classifier, t_cap, transcript)
    formula, image, pins, outcome = payload
    classifier_verdict = _classifier_verdict(classifier, image)
    if classifier_verdict is None:
        sha = classifier_hash(classifier)
        raise ResourceError(f"classifier {sha[:12]} exhausted {CLASSIFIER_FUEL} simulation steps")
    if (outcome.tag == ACCEPT) != (classifier_verdict == UNSAT):
        raise ContractViolation("diagonal run does not invert the classifier verdict")
    oracle = solve_dpll(formula)
    if oracle.tag == classifier_verdict:
        raise ContractViolation("forged formula failed to disagree with the classifier")
    return MisclassificationCertificate(
        classifier=classifier,
        bound_t=transcript[-1].t,
        pins=pins,
        classifier_verdict=classifier_verdict,
        oracle_verdict=oracle,
        transcript=transcript,
    )


# Certificate verification and persistence.


@dataclass(frozen=True)
class CertificateCheck:
    failed_check: str | None = None  # the first check that failed; None when all passed

    @property
    def ok(self) -> bool:
        return self.failed_check is None

    def __bool__(self) -> bool:
        return self.ok


@pause_collector
def verify_certificate(cert: MisclassificationCertificate) -> CertificateCheck:
    """Re-check a certificate from scratch; only the certificate and the
    deterministic toolchain are consulted.

    Checks, in order: the re-derivation, forge's own bound attempt at the
    certificate's bound, started from its pins, which must close with
    exactly those pins, so the scratch line, the pin closure and the bound
    covering D's runtime hold as forge applies them; the classifier's
    simulated verdict; the solver verdict, SAT by its model alone, one value
    per variable of psi, and UNSAT by re-solving; the disagreement itself;
    and last the transcript: forge's own search below the bound must close
    nowhere, the bound must be the ladder's next, and the `trial:` lines
    must be that search's records and then the re-derivation's.  D and psi
    are the certificate's own.  The collector is paused, as in forge.
    """
    try:
        diagonal = cert.diagonal_program
        # as a tuple of tuples, the pins can key _psi's memo whatever sequences hold them
        record, payload, _ = _attempt_bound(diagonal, cert.bound_t, tuple(map(tuple, cert.pins)))
    except (InputError, ConstructionError):
        return CertificateCheck("re-derivation")
    # closing from the certificate's pins with those same pins means round 0 closed
    if payload is None or payload[2] != cert.pins:
        return CertificateCheck("re-derivation")

    if _classifier_verdict(cert.classifier, payload[1]) != cert.classifier_verdict:
        return CertificateCheck("classifier-simulation")

    if cert.oracle_verdict.tag == SAT:
        model = cert.oracle_verdict.witness  # Verdict holds one for SAT
        if len(model.values) != cert.forged.num_vars or not evaluate(cert.forged, model):
            return CertificateCheck("oracle")
    elif solve_dpll(cert.forged).tag != UNSAT:
        return CertificateCheck("oracle")

    if cert.classifier_verdict == cert.oracle_verdict.tag:
        return CertificateCheck("disagreement")

    # forge stops at the first bound that closes, and climbs the ladder to it
    below, closed = _search(diagonal, cert.bound_t - 1)
    if closed or cert.bound_t not in _bounds(cert.bound_t) or (*below, record) != cert.transcript:
        return CertificateCheck("transcript")
    return CertificateCheck()


def _format_trial(r: TrialRecord) -> str:
    steps = "-" if r.steps is None else str(r.steps)
    halted = "yes" if r.halted else "no"
    return f"trial: t={r.t} steps={steps} halted={halted} note={r.note}"


def _parse_trial(line: str, lineno: int) -> TrialRecord:
    try:
        fields = line[len("trial: "):].split(" ", 3)
        t = int(fields[0].split("=", 1)[1])
        steps_tok = fields[1].split("=", 1)[1]
        steps = None if steps_tok == "-" else int(steps_tok)
        note = fields[3].split("=", 1)[1]
    except (IndexError, ValueError):
        raise ParseError("malformed trial record", lineno) from None
    return TrialRecord(t, steps, note)


def certificate_dumps(cert: MisclassificationCertificate) -> str:
    lines = [
        CERT_MAGIC,
        f"classifier-sha256: {cert.classifier_sha256}",
        f"bound-t: {cert.bound_t}",
        f"classifier-verdict: {cert.classifier_verdict}",
        f"oracle-verdict: {cert.oracle_verdict.tag}",
    ]
    if cert.oracle_verdict.tag == SAT:
        model = model_literals(cert.oracle_verdict.witness) + [0]
        lines.append("oracle-model: " + " ".join(map(str, model)))
    lines.append("pins: " + (" ".join(f"{a}:{v}" for a, v in cert.pins) or "-"))
    for r in cert.transcript:
        lines.append(_format_trial(r))
    lines.append("begin-classifier-asm")
    lines.append(format_asm(cert.classifier).rstrip("\n"))
    lines.append("end-classifier-asm")
    lines.append("begin-diagonal-asm")
    lines.append(format_asm(cert.diagonal_program).rstrip("\n"))
    lines.append("end-diagonal-asm")
    lines.append("begin-forged-dimacs")
    lines.append(dimacs_dumps(cert.forged).rstrip("\n"))
    lines.append("end-forged-dimacs")
    lines.append("end-certificate")
    return "\n".join(lines) + "\n"


def _excerpt(line: str | None, column: int) -> str:
    """`line` for an error message: cut to the 60 characters near `column`."""
    if line is None:
        return "end of text"
    start = max(0, column - 20)
    cut = line[start : start + 60]
    return repr(("..." if start else "") + cut + ("..." if start + 60 < len(line) else ""))


def _first_difference(written: str, text: str) -> ParseError:
    """The error naming the first line where `text` is not what certificate_dumps wrote.

    The two lines are shown without their line breaks, unless only those differ.
    """
    pairs = itertools.zip_longest(written.splitlines(True), text.splitlines(True))
    at, (want, got) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
    if want is None or got is None or want.splitlines() != got.splitlines():
        want, got = (line and line.splitlines()[0] for line in (want, got))
    column = len(commonprefix([want or "", got or ""]))
    return ParseError(f"expected {_excerpt(want, column)}, got {_excerpt(got, column)}", at + 1)


def certificate_loads(text: str) -> MisclassificationCertificate:
    """Read what certificate_dumps writes, and nothing else.

    What forge chose or claims is read, in the writer's order, up to
    end-classifier-asm: the magic line, the hash line's name, bound-t,
    classifier-verdict, oracle-verdict, then oracle-model (at its own
    length) exactly when that verdict is SAT, pins, zero or more trial lines
    and the classifier-asm section.  The certificate built from these
    derives psi (_psi): pins or a bound that encode refuses, or whose psi
    passes the scratch line, are a ParseError naming the pins or bound-t
    line.  The text must then be exactly what certificate_dumps writes for
    it, so equal certificates have one text.  That one compare checks every
    derived line (the hash, D, psi, end-certificate) and names the first
    line that differs, what is due there and the line found.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CERT_MAGIC:
        raise ParseError(f"missing or wrong certificate magic line (want {CERT_MAGIC!r})", 1)
    at = 1  # index of the next line; its line number is at + 1

    def take(prefix: str) -> str:
        """The rest of the next line, which starts with `prefix` (a field's
        name and ': ', or a marker line)."""
        nonlocal at
        line = lines[at] if at < len(lines) else None
        at += 1
        if line is None or not line.startswith(prefix):
            raise ParseError(f"expected {prefix.removesuffix(': ')!r}, got {_excerpt(line, 0)}", at)
        return line[len(prefix):]

    take("classifier-sha256: ")
    bound_text = take("bound-t: ")
    bound_line = at
    try:
        bound_t = int(bound_text)
    except ValueError:
        raise ParseError(f"malformed bound-t {bound_text!r}", at) from None
    classifier_verdict = take("classifier-verdict: ")
    if classifier_verdict not in (SAT, UNSAT):
        raise ParseError(f"bad classifier verdict {classifier_verdict!r}", at)
    oracle_tag = take("oracle-verdict: ")
    if oracle_tag not in (SAT, UNSAT):
        raise ParseError(f"bad oracle verdict {oracle_tag!r}", at)
    verdict = Verdict(UNSAT)
    if oracle_tag == SAT:
        model_text = take("oracle-model: ")
        try:
            lits = [int(x) for x in model_text.split()][:-1]  # without the 0 that ends it
            verdict = Verdict(SAT, model_from_literals(lits))
        except ValueError:
            raise ParseError("malformed oracle model", at) from None
        except ParseError as exc:
            raise ParseError(str(exc), at) from None
    pins_text = take("pins: ")
    pins_line = at
    pins: tuple[tuple[int, int], ...] = ()
    if pins_text != "-":
        try:
            pins = tuple(
                (int(a), int(v))
                for a, v in (tok.split(":", 1) for tok in pins_text.split(" "))
            )
        except ValueError:
            raise ParseError("malformed pins line", at) from None
    trials: list[TrialRecord] = []
    while at < len(lines) and lines[at].startswith("trial: "):
        trials.append(_parse_trial(lines[at], at + 1))
        at += 1
    take("begin-classifier-asm")
    asm_start = at
    try:
        at = lines.index("end-classifier-asm", asm_start)
    except ValueError:
        at = len(lines)
    asm = "\n".join(lines[asm_start:at])
    take("end-classifier-asm")
    try:
        # after `asm_start` blank lines, parse_asm's errors carry the file's line numbers
        classifier = parse_asm("\n" * asm_start + asm)
    except ParseError as exc:
        if exc.line is not None:
            raise
        raise ParseError(str(exc), asm_start) from None  # a whole-program error

    cert = MisclassificationCertificate(
        classifier=classifier,
        bound_t=bound_t,
        pins=pins,
        classifier_verdict=classifier_verdict,
        oracle_verdict=verdict,
        transcript=tuple(trials),
    )
    try:
        cert.forged  # derives D and psi, which the compare below writes
    except InputError as exc:  # encode checks the bound, then the pins
        raise ParseError(str(exc), bound_line if bound_t < 1 else pins_line) from None
    except ResourceError as exc:  # psi passes the scratch line at this bound
        raise ParseError(str(exc), bound_line) from None
    written = certificate_dumps(cert)
    if written != text:
        raise _first_difference(written, text)
    return cert


def transcript_dumps(result: BoundNotFound) -> str:
    lines = [
        "diagforge bound-not-found v1",
        f"classifier-sha256: {result.classifier_sha256}",
        f"t-cap: {result.t_cap}",
    ]
    lines.extend(_format_trial(r) for r in result.transcript)
    return "\n".join(lines) + "\n"
