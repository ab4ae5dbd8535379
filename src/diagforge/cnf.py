"""CNF formulas, two independent satisfiability oracles, and DIMACS interchange.

Variables are dense positive integers 1..num_vars (DIMACS convention); a
literal is +v or -v.  Clause order and literal order are preserved verbatim so
that serialization is byte-deterministic.

Two solvers are provided on purpose: `solve_exhaustive` (ground truth by
enumeration, capped) and `solve_dpll` (CDCL under a fixed decision order,
uncapped).  They are independent code paths and every claim in
this package that matters is checked against at least one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ._collector import pause_collector
from .errors import InputError, ParseError, ResourceError

SAT = "SAT"
UNSAT = "UNSAT"

EXHAUSTIVE_VAR_CAP = 25

# Enumeration runs in chunks of 2**_CHUNK_BITS assignments, evaluated
# bit-parallel inside one big integer per clause.  The verdict is independent
# of the chunk size; chunks only bound peak memory.
_CHUNK_BITS = 16

Clause = tuple[int, ...]


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables 1..num_vars.

    num_vars must be an int, and every literal +v or -v for some v in
    1..num_vars, else InputError names the first offending clause and
    literal.  The range is checked on the set of all literals, one pass in
    C; only a formula that fails it is walked literal by literal, to name
    the culprit.  Only `of` refuses a literal that is not an int (a bool
    too): a set of the types would add 3% to each encode (0.18 of 6.0 ms,
    parity_first_byte's D at t = 32; CPython 3.11 on a 2-core Xeon).
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        n = self.num_vars
        if type(n) is not int:
            raise InputError(f"num_vars must be an int, got {n!r}")
        if n < 0:
            raise InputError(f"num_vars must be nonnegative, got {n}")
        lits = set().union(*self.clauses)
        if lits and (0 in lits or min(lits) < -n or max(lits) > n):
            for ci, clause in enumerate(self.clauses):
                for lit in clause:
                    if lit == 0 or abs(lit) > n:
                        raise InputError(f"clause {ci}: literal {lit} outside 1..{n}")

    @classmethod
    def of(cls, num_vars: int, clauses) -> "CnfFormula":
        clauses = tuple(map(tuple, clauses))
        bad = [(ci, lit) for ci, cl in enumerate(clauses) for lit in cl if type(lit) is not int]
        if bad:
            raise InputError("clause {}: literal {!r} is not an int".format(*bad[0]))
        return cls(num_vars, clauses)


@dataclass(frozen=True)
class Assignment:
    """Total truth assignment; values[i] is the value of variable i+1."""

    values: tuple[bool, ...]


@dataclass(frozen=True)
class Verdict:
    tag: str
    witness: Assignment | None = None

    def __post_init__(self):
        if self.tag not in (SAT, UNSAT):
            raise InputError(f"verdict tag must be SAT or UNSAT, got {self.tag!r}")
        if (self.witness is not None) != (self.tag == SAT):
            raise InputError("witness must be present exactly for SAT verdicts")


def evaluate(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff every clause contains a literal satisfied by the assignment.

    An empty clause list is true (empty conjunction); a formula containing an
    empty clause is false (empty disjunction).
    """
    if len(assignment.values) != formula.num_vars:
        raise InputError(
            f"assignment covers {len(assignment.values)} variables, "
            f"formula has {formula.num_vars}"
        )
    vals = assignment.values
    for clause in formula.clauses:
        for lit in clause:
            v = vals[abs(lit) - 1]
            if v if lit > 0 else not v:
                break
        else:
            return False
    return True


@cache
def _bit_pattern(bit: int, chunk_bits: int) -> int:
    """Bitmask over 2**chunk_bits positions j, set where bit `bit` of j is 1."""
    half = 1 << bit
    block = ((1 << half) - 1) << half
    period = half * 2
    repeats = 1 << (chunk_bits - bit - 1)
    repunit = ((1 << (period * repeats)) - 1) // ((1 << period) - 1)
    return block * repunit


def _assignment_from_index(index: int, n: int) -> Assignment:
    # Variable i is bit (n - i) of the enumeration index; x1 is the most
    # significant bit, so ascending index order is lexicographic order on
    # (x1, .., xn) with False < True.
    return Assignment(tuple(bool((index >> (n - i)) & 1) for i in range(1, n + 1)))


def solve_exhaustive(formula: CnfFormula) -> Verdict:
    """Exact verdict by enumerating all assignments; lexicographically-first witness.

    Raises ResourceError above EXHAUSTIVE_VAR_CAP variables (25, about 33M
    assignments).  The assignment space is scanned in chunks; the result does
    not depend on the chunking.
    """
    n = formula.num_vars
    if n > EXHAUSTIVE_VAR_CAP:
        raise ResourceError(
            f"solve_exhaustive is capped at {EXHAUSTIVE_VAR_CAP} variables, formula has {n}"
        )
    chunk_bits = min(n, _CHUNK_BITS)
    chunk = 1 << chunk_bits
    full = (1 << chunk) - 1
    # Each clause splits once into a low part, its bitmask over the chunk's
    # assignments, and a high part over the variables that are constant within
    # a chunk: bits `hmask` of the chunk base, all false when they equal
    # `hfalse`.  A clause with no high part is ANDed into `start` once; the
    # others only in chunks where their high part is all false.
    start = full
    gated: list[tuple[int, int, int]] = []
    for clause in formula.clauses:
        lits = set(clause)
        if any(-lit in lits for lit in lits):
            continue  # x or not x: always true
        low = hmask = hfalse = 0
        for lit in lits:
            bitpos = n - abs(lit)
            if bitpos >= chunk_bits:
                hmask |= 1 << bitpos
                if lit < 0:
                    hfalse |= 1 << bitpos
            else:
                mask = _bit_pattern(bitpos, chunk_bits)
                low |= mask if lit > 0 else full & ~mask
        if hmask:
            gated.append((hmask, hfalse, low))
        else:
            start &= low
    if not start:
        return Verdict(UNSAT)

    for base in range(0, 1 << n, chunk):
        alive = start
        for hmask, hfalse, low in gated:
            if base & hmask == hfalse:
                alive &= low
                if not alive:
                    break
        if alive:
            j = (alive & -alive).bit_length() - 1
            witness = _assignment_from_index(base + j, n)
            return Verdict(SAT, witness)
    return Verdict(UNSAT)


@pause_collector
def solve_dpll(formula: CnfFormula) -> Verdict:
    """CDCL: two watched literals, 1UIP learning, non-chronological backjumps.

    Deterministic: decides the lowest unassigned variable, true first, and
    learns one clause per conflict.  No restarts, no clause deletion, no
    activity heuristic, no variable cap.

    The model returned is the lexicographically greatest one, M (x1 most
    significant, true > false).  So it is the bitwise complement of
    `solve_exhaustive`'s witness on the formula with every literal negated.
    Why: when v is decided, every lower variable is assigned, and while every
    decision agrees with M so does every implication, because learned clauses
    are implied by the formula.  A model with v true that M does not take
    would be greater than M, so a decision that disagrees with M is undone.

    It runs with the cyclic garbage collector paused: it allocates a list per
    clause, watch list and learned clause and drops them all on return, and
    those lists hold integers only, so no cycle is left for the collector.
    """
    n = formula.num_vars
    # Literal arrays are indexed by n + lit.  value: +1 true, -1 false, 0
    # unassigned.  level and reason are kept at the true literal's offset.
    value = [0] * (2 * n + 1)
    level = [0] * (2 * n + 1)
    reason = [0] * (2 * n + 1)  # the implying clause; read only above level 0
    watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
    clauses: list[list[int]] = []  # c[0] and c[1] are watched
    trail: list[int] = []  # true literals, in assignment order
    trail_lim: list[int] = []  # trail length at each decision

    # Clauses are taken as given.  A repeated literal can leave one literal in
    # both watched places, which may delay a propagation until that literal is
    # false but never makes one unsound; x or not x is never unit.
    for clause in formula.clauses:
        if len(clause) > 1:
            watches[n + clause[0]].append(len(clauses))
            watches[n + clause[1]].append(len(clauses))
            clauses.append(list(clause))
        elif not clause:
            return Verdict(UNSAT)
        elif value[n + clause[0]] < 0:
            return Verdict(UNSAT)
        elif not value[n + clause[0]]:
            value[n + clause[0]] = 1
            value[n - clause[0]] = -1
            trail.append(clause[0])

    qhead = 0
    next_var = 1
    seen = [False] * (2 * n + 1)
    while True:
        # Unit propagation to closure; confl is the clause found false, or -1.
        confl = -1
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[n + false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                ci = ws[i]
                i += 1
                c = clauses[ci]
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                if value[n + first] > 0:
                    ws[j] = ci
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[n + lit] >= 0:
                        c[1] = lit
                        c[k] = false_lit
                        watches[n + lit].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if value[n + first] < 0:
                        confl = ci
                        break
                    value[n + first] = 1
                    value[n - first] = -1
                    level[n + first] = len(trail_lim)
                    reason[n + first] = ci
                    trail.append(first)
            del ws[j:i]  # the clauses that moved to another watch
            if confl >= 0:
                break

        if confl < 0:
            while next_var <= n and value[n + next_var]:
                next_var += 1
            if next_var > n:
                witness = Assignment(tuple(value[n + v] > 0 for v in range(1, n + 1)))
                return Verdict(SAT, witness)
            trail_lim.append(len(trail))
            value[n + next_var] = 1
            value[n - next_var] = -1
            level[n + next_var] = len(trail_lim)
            trail.append(next_var)
            continue

        # 1UIP conflict analysis.  Literals of the learned clause are false;
        # seen is marked at their true literals' offsets.
        current = len(trail_lim)
        if not current:
            return Verdict(UNSAT)
        learnt = [0]
        pending = 0
        idx = len(trail) - 1
        c = clauses[confl]
        skip = 0  # a reason clause's c[0] is the literal it implied
        while True:
            for k in range(skip, len(c)):
                q = n - c[k]
                if not seen[q] and level[q]:
                    seen[q] = True
                    if level[q] == current:
                        pending += 1
                    else:
                        learnt.append(c[k])
            while not seen[n + trail[idx]]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[n + p] = False
            pending -= 1
            if not pending:
                break
            c = clauses[reason[n + p]]
            skip = 1
        learnt[0] = -p
        back = 0
        for k in range(1, len(learnt)):
            seen[n - learnt[k]] = False
            if level[n - learnt[k]] > back:
                back = level[n - learnt[k]]
                learnt[1], learnt[k] = learnt[k], learnt[1]

        # Backjump to the asserting level; everything unassigned lies at or
        # above the first decision undone, which was the lowest unassigned.
        mark = trail_lim[back]
        next_var = trail[mark]
        for lit in trail[mark:]:
            value[n + lit] = 0
            value[n - lit] = 0
        del trail[mark:]
        del trail_lim[back:]
        qhead = mark
        if len(learnt) > 1:
            watches[n + learnt[0]].append(len(clauses))
            watches[n + learnt[1]].append(len(clauses))
            reason[n - p] = len(clauses)
            clauses.append(learnt)
        value[n - p] = 1
        value[n + p] = -1
        level[n - p] = back
        trail.append(-p)


# DIMACS interchange


def dimacs_dumps(formula: CnfFormula) -> str:
    """Serialize to DIMACS CNF text; byte-deterministic."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(map(str, cl)) + (" 0" if cl else "0"))
    return "\n".join(lines) + "\n"


def _ascii_int(token: str, signed: bool) -> int | None:
    """`token` as an int if it reads [0-9]+ in ASCII, after one "-" when
    `signed`, and int() reads it; else None."""
    digits = token.removeprefix("-") if signed else token
    try:
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # past the int-string digit limit
        return None


def dimacs_loads(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Accepts `c` comment lines, blank lines and extra whitespace; expects one
    0-terminated clause per line after the header.  Numbers are ASCII: the
    header's counts read [0-9]+ and literals -?[0-9]+, so `+1`, `1_0` and
    digits of other scripts are refused.  Errors carry the offending line
    number; a clause count that disagrees with the header names the header
    line.
    """
    num_vars: int | None = None
    declared_clauses = header_line = 0
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate header", lineno)
            parts = s.split()
            counts = [_ascii_int(x, False) for x in parts[2:]]
            if parts[:2] != ["p", "cnf"] or len(counts) != 2 or None in counts:
                raise ParseError(f"malformed header {s!r}", lineno)
            num_vars, declared_clauses = counts
            header_line = lineno
            continue
        if num_vars is None:
            raise ParseError("clause before header", lineno)
        toks = s.split()
        if toks[-1] != "0":
            raise ParseError("missing clause terminator 0", lineno)
        lits = []
        for tok in toks[:-1]:
            lit = _ascii_int(tok, True)
            if lit is None:
                raise ParseError(f"bad literal {tok!r}", lineno)
            if lit == 0:
                raise ParseError("unexpected tokens after terminator", lineno)
            if abs(lit) > num_vars:
                raise ParseError(
                    f"literal {lit} out of range for {num_vars} variables", lineno
                )
            lits.append(lit)
        clauses.append(tuple(lits))
    if num_vars is None:
        raise ParseError("missing header")
    if len(clauses) != declared_clauses:
        raise ParseError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}", header_line
        )
    return CnfFormula(num_vars, tuple(clauses))


def model_literals(assignment: Assignment) -> list[int]:
    """The model as DIMACS literals, one per variable: v if true, -v if false."""
    return [v if value else -v for v, value in enumerate(assignment.values, start=1)]


def model_from_literals(lits: list[int]) -> Assignment:
    """The assignment that a list of nonzero DIMACS literals states, over as
    many variables as it has literals.

    Variables the list does not mention are false.  Raises ParseError on a
    literal outside 1..len(lits) and on a variable given both ways.
    """
    values: list[bool | None] = [None] * len(lits)
    for lit in lits:
        if lit == 0 or abs(lit) > len(values):
            raise ParseError(f"model literal {lit} out of range")
        if values[abs(lit) - 1] == (lit < 0):  # set before, with the other sign
            raise ParseError(f"model assigns variable {abs(lit)} both ways")
        values[abs(lit) - 1] = lit > 0
    return Assignment(tuple(map(bool, values)))

