import random

import pytest

from conftest import SHIPPED, load_classifier
from diagforge.cnf import (
    EXHAUSTIVE_VAR_CAP,
    SAT,
    UNSAT,
    Assignment,
    CnfFormula,
    Verdict,
    _CHUNK_BITS,
    _assignment_from_index,
    _bit_pattern,
    _dumped_loads,
    dimacs_dumps,
    dimacs_loads,
    evaluate,
    solve_dpll,
    solve_exhaustive,
)
from diagforge.diagonal import build_diagonal_program
from diagforge.errors import InputError, ParseError, ResourceError
from diagforge.tableau import encode


def F(num_vars, clauses):
    return CnfFormula.of(num_vars, clauses)


def test_evaluate_basic():
    f = F(2, [[1, -2], [2]])
    assert evaluate(f, Assignment((True, True))) is True
    assert evaluate(f, Assignment((False, True))) is False


def test_evaluate_empty_conjunction_is_true():
    f = F(3, [])
    assert evaluate(f, Assignment((False, False, False))) is True


def test_evaluate_empty_clause_is_false():
    f = F(1, [[]])
    assert evaluate(f, Assignment((True,))) is False


def test_evaluate_arity_mismatch():
    f = F(2, [[1]])
    with pytest.raises(InputError):
        evaluate(f, Assignment((True,)))


def test_formula_rejects_out_of_range_literal():
    with pytest.raises(InputError):
        F(2, [[3]])
    with pytest.raises(InputError):
        F(2, [[0]])


@pytest.mark.parametrize("ci", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("lit", [0, 4, -4], ids=["zero", "too-large", "too-negative"])
def test_formula_names_the_first_out_of_range_literal(ci, lit):
    clauses = [[1, -2], [3], [-1, 2, -3], [], [2, -3]]
    clauses[ci].insert(1, lit)
    if ci < 4:
        clauses[4].append(5)  # a later culprit, never the one named
    with pytest.raises(InputError) as excinfo:
        F(3, clauses)
    assert str(excinfo.value) == f"clause {ci}: literal {lit} outside 1..3"


def test_formula_accepts_the_edges_of_the_range():
    F(0, [])
    F(0, [[]])
    F(3, [[3, -3], [], [-3], [1, -1, 3]])


def test_exhaustive_contradiction():
    assert solve_exhaustive(F(1, [[1], [-1]])).tag == UNSAT


def test_exhaustive_positive_unit():
    v = solve_exhaustive(F(1, [[1]]))
    assert v.tag == SAT
    assert v.witness.values == (True,)


def test_exhaustive_negative_unit():
    # (-p) is satisfiable by p=False, whatever any stipulated reading says.
    v = solve_exhaustive(F(1, [[-1]]))
    assert v.tag == SAT
    assert v.witness.values == (False,)


def test_exhaustive_lex_first_witness():
    # All assignments with x1=False fail, so the first witness is (T, F, F).
    f = F(3, [[1]])
    v = solve_exhaustive(f)
    assert v.witness.values == (True, False, False)


def test_exhaustive_cap():
    with pytest.raises(ResourceError, match="25"):
        solve_exhaustive(F(26, []))


def test_exhaustive_chunking_independent():
    # More variables than one chunk handles internally (chunked path).
    rng = random.Random(7)
    clauses = [
        [rng.choice([-1, 1]) * rng.randint(1, 18) for _ in range(3)] for _ in range(60)
    ]
    f = F(18, clauses)
    v = solve_exhaustive(f)
    if v.tag == SAT:
        assert evaluate(f, v.witness)


def test_dpll_four_sign_patterns_unsat():
    f = F(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
    assert solve_dpll(f).tag == UNSAT


def test_dpll_empty_formula_sat():
    v = solve_dpll(F(0, []))
    assert v.tag == SAT
    assert v.witness.values == ()


def test_dpll_empty_clause_unsat():
    assert solve_dpll(F(2, [[1], []])).tag == UNSAT


def test_dpll_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 12)
        clauses = [
            [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 4 * n))
        ]
        f = F(n, clauses)
        a = solve_dpll(f)
        b = solve_dpll(f)
        assert a == b


def random_formula(rng, max_vars=20):
    n = rng.randint(1, max_vars)
    # Mix clause densities so both verdicts occur in the corpus.
    m = rng.randint(1, max(2, int(4.5 * n)))
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(4, n + 1))
        clause = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(width)]
        clauses.append(clause)
    return F(n, clauses)


def test_oracle_agreement_sample():
    rng = random.Random(20240)
    for _ in range(150):
        f = random_formula(rng, max_vars=14)
        ex = solve_exhaustive(f)
        dp = solve_dpll(f)
        assert ex.tag == dp.tag
        if ex.tag == SAT:
            assert evaluate(f, ex.witness)
            assert evaluate(f, dp.witness)


def test_dimacs_writer_exact_bytes():
    assert dimacs_dumps(F(2, [[1, -2]])) == "p cnf 2 1\n1 -2 0\n"


def test_dimacs_writer_byte_deterministic():
    f = F(3, [[1, -2], [3], []])
    assert dimacs_dumps(f) == dimacs_dumps(f)


def _reference_dumps(formula):
    """dimacs_dumps with one generator per clause: the bytes the writer must keep."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(str(l) for l in cl) + (" 0" if cl else "0"))
    return "\n".join(lines) + "\n"


def _assert_reads_back(f):
    # both readers read the written text back: the C-level reader, which
    # refuses a comment line before or after it, and dimacs_loads's line loop
    text = dimacs_dumps(f)
    assert text == _reference_dumps(f)
    assert _dumped_loads(text) == f
    assert dimacs_loads(text) == f
    for commented in ("c\n" + text, text + "c\n"):
        assert _dumped_loads(commented) is None
        assert dimacs_loads(commented) == f


def test_dimacs_empty_clause_round_trip():
    for clauses in ([[], [1, 2]], [[1], [], [-2]], [[1, 2], [-1], []], [[]], [[], []], []):
        _assert_reads_back(F(2, clauses))
    _assert_reads_back(F(0, []))
    assert dimacs_dumps(F(0, [])) == "p cnf 0 0\n"


def test_dimacs_round_trip_random():
    rng = random.Random(5150)
    for _ in range(500):
        f = random_formula(rng)
        _assert_reads_back(f)
        # the same clauses with an empty clause spliced in
        at = rng.randint(0, len(f.clauses))
        _assert_reads_back(CnfFormula(f.num_vars, f.clauses[:at] + ((),) + f.clauses[at:]))


def test_dimacs_accepts_comments_and_blanks():
    text = "c hello\n\np cnf 2 1\nc mid\n1 -2 0\n"
    assert dimacs_loads(text) == F(2, [[1, -2]])


def test_dimacs_literal_out_of_range():
    with pytest.raises(ParseError, match="line 2"):
        dimacs_loads("p cnf 2 1\n3 0\n")


def test_dimacs_missing_terminator():
    with pytest.raises(ParseError, match="terminator"):
        dimacs_loads("p cnf 2 1\n1 -2\n")


def test_dimacs_malformed_header():
    with pytest.raises(ParseError, match="header"):
        dimacs_loads("p dnf 2 1\n1 0\n")


def test_dimacs_clause_count_mismatch():
    with pytest.raises(ParseError, match="clauses"):
        dimacs_loads("p cnf 2 2\n1 0\n")


# The solvers as they were before clause learning and the hoisted scan: plain
# DPLL with chronological backtracking, and a scan that splits every clause in
# every chunk.  The rewritten solvers must return the same Verdict, witness
# included, since the witness decides the certificate bytes.


def reference_exhaustive(formula: CnfFormula) -> Verdict:
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


def reference_dpll(formula: CnfFormula) -> Verdict:
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


def random_3cnf(rng, n, m):
    return [[rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3)] for _ in range(m)]


def degenerate_formula(rng, max_vars):
    """Random clauses with repeated literals, x or not x, units and empty clauses."""
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, 5 * n)):
        kind = rng.randrange(10)
        if kind == 0:
            clauses.append([])
        elif kind == 1:
            clauses.append([rng.choice([-1, 1]) * rng.randint(1, n)])
        elif kind == 2:
            v = rng.randint(1, n)
            clauses.append([v, rng.choice([-1, 1]) * rng.randint(1, n), -v])
        elif kind == 3:
            lit = rng.choice([-1, 1]) * rng.randint(1, n)
            clauses.append([lit, lit] + [rng.choice([-1, 1]) * rng.randint(1, n)] * rng.randint(0, 2))
        else:
            clauses.append([rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(2, 4))])
    # Empty clauses make a formula UNSAT outright; keep most formulas free of them.
    if rng.random() < 0.8:
        clauses = [c for c in clauses if c]
    return F(n, clauses)


def test_solvers_match_reference_on_random_formulas():
    rng = random.Random(20261019)
    tags = set()
    for k in range(2400):
        if k % 3 == 0:
            f = degenerate_formula(rng, max_vars=16)
        elif k % 3 == 1:
            f = random_formula(rng, max_vars=16)
        else:
            n = rng.randint(10, 40)
            f = F(n, random_3cnf(rng, n, round(n * rng.uniform(3.5, 5.0))))
        dpll = solve_dpll(f)
        assert dpll == reference_dpll(f), f
        if f.num_vars <= _CHUNK_BITS:
            assert solve_exhaustive(f) == reference_exhaustive(f), f
        tags.add(dpll.tag)
    assert tags == {SAT, UNSAT}


def test_exhaustive_matches_reference_past_one_chunk():
    # 17..25 variables: the top n - 16 variables are constant within a chunk.
    rng = random.Random(20261020)
    tags = set()
    for n in range(_CHUNK_BITS + 1, EXHAUSTIVE_VAR_CAP + 1):
        high = list(range(1, n - _CHUNK_BITS + 1))
        for ratio in (3.0, 7.0):
            clauses = random_3cnf(rng, n, round(n * ratio))
            # clauses over high variables only, with repeats and x or not x
            a, b = rng.choice(high), rng.choice(high)
            clauses += [[a, a], [b, -b, rng.randint(1, n)], [-a, rng.randint(1, n), -a]]
            f = F(n, clauses)
            got = solve_exhaustive(f)
            assert got == reference_exhaustive(f), (n, ratio)
            tags.add(got.tag)
        # forcing x1 true puts the first witness in the upper half of the space
        f = F(n, [[1], [2, 3, -n], [-2, n], [n - 1, -n]])
        assert solve_exhaustive(f) == reference_exhaustive(f)
    assert tags == {SAT, UNSAT}


@pytest.mark.parametrize("name", SHIPPED)
def test_dpll_matches_reference_on_diagonal_tableaus(name):
    diagonal = build_diagonal_program(load_classifier(f"{name}.asm"), 1)
    for t in (4, 8, 12, 16):
        for pins in ((), ((0, 0),), ((0, 1), (1, 255))):
            formula, _ = encode(diagonal, pins, t)
            assert solve_dpll(formula) == reference_dpll(formula), (t, pins)


def flip(formula):
    return F(formula.num_vars, [[-lit for lit in clause] for clause in formula.clauses])


def test_dpll_witness_is_the_complement_of_the_flipped_exhaustive_witness():
    # solve_dpll returns the lexicographically greatest model; negating every
    # literal turns it into the lexicographically first model of the flipped
    # formula, which is what solve_exhaustive returns.
    rng = random.Random(20261021)
    tags = set()
    for k in range(600):
        f = degenerate_formula(rng, max_vars=14) if k % 2 else random_formula(rng, max_vars=20)
        dpll = solve_dpll(f)
        flipped = solve_exhaustive(flip(f))
        assert dpll.tag == flipped.tag
        if dpll.tag == SAT:
            assert dpll.witness.values == tuple(not v for v in flipped.witness.values)
        tags.add(dpll.tag)
    assert tags == {SAT, UNSAT}


@pytest.mark.parametrize("t", [22, 24])
def test_dpll_decides_scan_all_diagonal_past_the_old_cliff(scan_all, t):
    # Chronological backtracking ran past 10 s at t = 22 and past 45 s at t = 24.
    formula, _ = encode(build_diagonal_program(scan_all, 1), (), t)
    assert solve_dpll(formula) == Verdict(UNSAT)
