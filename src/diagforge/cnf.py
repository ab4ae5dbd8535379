"""CNF formulas, two independent satisfiability oracles, and DIMACS interchange.

Variables are dense positive integers 1..num_vars (DIMACS convention); a
literal is +v or -v.  Clause order and literal order are preserved verbatim so
that serialization is byte-deterministic.

Two solvers are provided on purpose: `solve_exhaustive` (ground truth by
enumeration, capped) and `solve_dpll` (unit propagation + chronological
backtracking, uncapped).  They are independent code paths and every claim in
this package that matters is checked against at least one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """A conjunction of clauses over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise InputError(f"num_vars must be nonnegative, got {self.num_vars}")
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise InputError(
                        f"clause {ci}: literal {lit} outside 1..{self.num_vars}"
                    )

    @classmethod
    def of(cls, num_vars: int, clauses) -> "CnfFormula":
        return cls(num_vars, tuple(tuple(int(l) for l in cl) for cl in clauses))


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


_pattern_cache: dict[tuple[int, int], int] = {}


def _bit_pattern(bit: int, chunk_bits: int) -> int:
    """Bitmask over 2**chunk_bits positions j, set where bit `bit` of j is 1."""
    key = (bit, chunk_bits)
    cached = _pattern_cache.get(key)
    if cached is not None:
        return cached
    half = 1 << bit
    block = ((1 << half) - 1) << half
    period = half * 2
    repeats = 1 << (chunk_bits - bit - 1)
    repunit = ((1 << (period * repeats)) - 1) // ((1 << period) - 1)
    pattern = block * repunit
    _pattern_cache[key] = pattern
    return pattern


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
    for clause in formula.clauses:
        if not clause:
            return Verdict(UNSAT)

    chunk_bits = min(n, _CHUNK_BITS)
    chunk = 1 << chunk_bits
    full = (1 << chunk) - 1
    total = 1 << n
    for base in range(0, total, chunk):
        alive = full
        for clause in formula.clauses:
            pat = 0
            for lit in clause:
                bitpos = n - abs(lit)
                if bitpos >= chunk_bits:
                    if ((base >> bitpos) & 1) == (1 if lit > 0 else 0):
                        pat = full
                        break
                else:
                    mask = _bit_pattern(bitpos, chunk_bits)
                    pat |= mask if lit > 0 else full & ~mask
            alive &= pat
            if not alive:
                break
        if alive:
            j = (alive & -alive).bit_length() - 1
            witness = _assignment_from_index(base + j, n)
            return Verdict(SAT, witness)
    return Verdict(UNSAT)


def solve_dpll(formula: CnfFormula) -> Verdict:
    """DPLL with two watched literals and chronological backtracking.

    Deterministic: branches on the lowest unassigned variable, true first.
    No variable cap, no learning, no restarts.
    """
    n = formula.num_vars
    assigns = [0] * (n + 1)  # 0 unassigned, +1 true, -1 false
    trail: list[int] = []

    def value(lit: int) -> int:
        s = assigns[abs(lit)]
        if s == 0:
            return 0
        return 1 if (s > 0) == (lit > 0) else -1

    def assign(lit: int) -> bool:
        v = abs(lit)
        s = 1 if lit > 0 else -1
        if assigns[v] == -s:
            return False
        if assigns[v] == 0:
            assigns[v] = s
            trail.append(v)
        return True

    lits_by_clause: list[list[int]] = []
    watch: dict[int, list[int]] = {}
    initial_units: list[int] = []
    for cl in formula.clauses:
        if len(cl) == 0:
            return Verdict(UNSAT)
        if len(cl) == 1:
            initial_units.append(cl[0])
            continue
        idx = len(lits_by_clause)
        lits_by_clause.append(list(cl))
        watch.setdefault(cl[0], []).append(idx)
        watch.setdefault(cl[1], []).append(idx)

    def propagate(start: int) -> bool:
        """Extend the trail to closure from trail position `start`; False on conflict."""
        qi = start
        while qi < len(trail):
            v = trail[qi]
            qi += 1
            false_lit = -v if assigns[v] > 0 else v
            watchers = watch.get(false_lit)
            if not watchers:
                continue
            i = 0
            while i < len(watchers):
                ci = watchers[i]
                lits = lits_by_clause[ci]
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                if value(lits[0]) == 1:
                    i += 1
                    continue
                for k in range(2, len(lits)):
                    if value(lits[k]) != -1:
                        lits[1], lits[k] = lits[k], lits[1]
                        watch.setdefault(lits[1], []).append(ci)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
                else:
                    if not assign(lits[0]):
                        return False
                    i += 1
        return True

    for u in initial_units:
        if not assign(u):
            return Verdict(UNSAT)
    if not propagate(0):
        return Verdict(UNSAT)

    # decisions: [trail length before the decision, variable, tried_false]
    decisions: list[list[int]] = []
    next_var = 1
    while True:
        while next_var <= n and assigns[next_var] != 0:
            next_var += 1
        if next_var > n:
            witness = Assignment(tuple(assigns[i] > 0 for i in range(1, n + 1)))
            return Verdict(SAT, witness)
        decisions.append([len(trail), next_var, 0])
        assigns[next_var] = 1
        trail.append(next_var)
        while not propagate(len(trail) - 1):
            while decisions and decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return Verdict(UNSAT)
            mark, dv, _ = decisions[-1]
            decisions[-1][2] = 1
            for w in trail[mark:]:
                assigns[w] = 0
            del trail[mark:]
            assigns[dv] = -1
            trail.append(dv)
            next_var = 1
        next_var = 1


# DIMACS interchange


def dimacs_dumps(formula: CnfFormula) -> str:
    """Serialize to DIMACS CNF text; byte-deterministic."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(str(l) for l in cl) + (" 0" if cl else "0"))
    return "\n".join(lines) + "\n"


def dimacs_loads(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Accepts `c` comment lines and blank lines; expects one 0-terminated clause
    per line after the header.  Errors carry the offending line number.
    """
    num_vars: int | None = None
    declared_clauses = 0
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate header", lineno)
            parts = s.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError(f"malformed header {s!r}", lineno)
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {s!r}", lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise ParseError(f"malformed header {s!r}", lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before header", lineno)
        toks = s.split()
        if toks[-1] != "0":
            raise ParseError("missing clause terminator 0", lineno)
        lits = []
        for tok in toks[:-1]:
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", lineno) from None
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
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))


def model_literals(assignment: Assignment) -> list[int]:
    """The model as DIMACS literals, one per variable: v if true, -v if false."""
    return [v if value else -v for v, value in enumerate(assignment.values, start=1)]


def model_from_literals(lits, num_vars: int) -> Assignment:
    """The assignment that a list of nonzero DIMACS literals states.

    Variables the list does not mention are false.  Raises ParseError on a
    literal outside 1..num_vars and on a variable given both ways.
    """
    values: list[bool | None] = [None] * num_vars
    for lit in lits:
        if lit == 0 or abs(lit) > num_vars:
            raise ParseError(f"model literal {lit} out of range")
        if values[abs(lit) - 1] == (lit < 0):  # set before, with the other sign
            raise ParseError(f"model assigns variable {abs(lit)} both ways")
        values[abs(lit) - 1] = lit > 0
    return Assignment(tuple(map(bool, values)))


def write_dimacs(formula: CnfFormula, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(dimacs_dumps(formula))


def read_dimacs(path) -> CnfFormula:
    with open(path, "r", encoding="ascii") as fh:
        return dimacs_loads(fh.read())
