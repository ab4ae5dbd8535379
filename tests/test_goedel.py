import random
import sys

import pytest

from diagforge.errors import DecodeError, InputError, ParseError
from diagforge.goedel import (
    BASE,
    And,
    D0,
    D1,
    Diag,
    Eq,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    Plus,
    Prov,
    Succ,
    Term,
    Times,
    Var,
    Zero,
    code,
    decode,
    denotation,
    diagonalize,
    format_diagonal_certificate,
    format_formula,
    format_term,
    free_vars,
    matryoshka_family,
    numeral,
    parse_formula,
    parse_term,
    self_subst,
    subst,
    symbol_stream,
)

from conftest import LOCKS


def test_numeral_zero():
    assert numeral(0) == Zero


def test_numeral_of_a_negative_number_is_refused():
    with pytest.raises(InputError, match="numerals are nonnegative"):
        numeral(-1)
    for value in (2.5, "3", None, True):  # a bool is no int here: True would be d1(0)
        with pytest.raises(InputError, match="numerals are of ints"):
            numeral(value)


def _reference_numeral(n):
    # n's binary digits through the checking constructors, the least significant outermost
    bits = []
    while n:
        bits.append(n & 1)
        n >>= 1
    node = Zero
    for bit in reversed(bits):
        node = (D1 if bit else D0)(node)
    return node


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack += node.args


def _passes_the_checking_constructor(node):
    # the constructor stores the very args tuple, so this == does not recurse
    return type(node)(node.op, node.args, node.name) == node


def test_numeral_matches_a_chain_of_checked_constructors():
    rng = random.Random(5000)
    values = [0, 1, 2, 3] + [(1 << k) + e for k in range(1, 65) for e in (-1, 1)]
    for n in values + [rng.randrange(1 << rng.randrange(1, 5001)) for _ in range(20)]:
        t, reference = numeral(n), _reference_numeral(n)
        assert code(t) == code(reference)  # trees are compared by code
        assert all(map(_passes_the_checking_constructor, _nodes(t)))
        # the same instance dict as a checked node: a key-sharing one makes later attribute reads slower
        assert sys.getsizeof(t.__dict__) == sys.getsizeof(reference.__dict__)


def test_numeral_five_shape():
    # 5 = 101b with the least-significant digit outermost
    assert numeral(5) == D1(D0(D1(Zero)))


def test_numeral_denotation_random():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randrange(1 << 64)
        assert denotation(numeral(n)) == n


def test_numeral_handles_huge_values_iteratively():
    n = 1 << 40000
    t = numeral(n)
    assert denotation(t) == n


def test_denotation_ops():
    five = numeral(5)
    seven = numeral(7)
    assert denotation(Plus(five, seven)) == 12
    assert denotation(Times(five, seven)) == 35
    assert denotation(Succ(Zero)) == 1


def test_denotation_open_term_rejected():
    with pytest.raises(InputError):
        denotation(Plus(Var("x"), Zero))


def test_code_zero_locked():
    # The single symbol stream [1] reads as the number 1.
    assert code(Zero) == 1


def test_code_injective_on_connective_change():
    a = And(Eq(Zero, Zero), Eq(Zero, Zero))
    b = Or(Eq(Zero, Zero), Eq(Zero, Zero))
    assert code(a) != code(b)


def random_term(rng, depth, vars_allowed):
    if depth == 0:
        choices = [Zero, numeral(rng.randrange(10))]
        if vars_allowed:
            choices.append(Var(rng.choice(vars_allowed)))
        return rng.choice(choices)
    op = rng.randrange(6)
    if op == 0:
        return D0(random_term(rng, depth - 1, vars_allowed))
    if op == 1:
        return D1(random_term(rng, depth - 1, vars_allowed))
    if op == 2:
        return Succ(random_term(rng, depth - 1, vars_allowed))
    if op == 3:
        return Plus(
            random_term(rng, depth - 1, vars_allowed),
            random_term(rng, depth - 1, vars_allowed),
        )
    if op == 4:
        return Times(
            random_term(rng, depth - 1, vars_allowed),
            random_term(rng, depth - 1, vars_allowed),
        )
    return Diag(random_term(rng, depth - 1, vars_allowed))


def random_formula(rng, depth, vars_allowed=("x", "y", "z_1")):
    if depth == 0:
        if rng.random() < 0.5:
            return Eq(
                random_term(rng, rng.randrange(2), vars_allowed),
                random_term(rng, rng.randrange(2), vars_allowed),
            )
        return Prov(random_term(rng, rng.randrange(2), vars_allowed))
    op = rng.randrange(6)
    if op == 0:
        return Not(random_formula(rng, depth - 1, vars_allowed))
    if op == 1:
        return And(
            random_formula(rng, depth - 1, vars_allowed),
            random_formula(rng, depth - 1, vars_allowed),
        )
    if op == 2:
        return Or(
            random_formula(rng, depth - 1, vars_allowed),
            random_formula(rng, depth - 1, vars_allowed),
        )
    if op == 3:
        return Implies(
            random_formula(rng, depth - 1, vars_allowed),
            random_formula(rng, depth - 1, vars_allowed),
        )
    quant = ForAll if op == 4 else Exists
    return quant(rng.choice(vars_allowed), random_formula(rng, depth - 1, vars_allowed))


def test_code_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        f = random_formula(rng, rng.randrange(7))
        assert decode(code(f)) == f


def test_decode_rejects_garbage():
    with pytest.raises(DecodeError):
        decode(0)
    with pytest.raises(DecodeError):
        decode(BASE - 1)  # a lone name character is not a node
    # truncated: plus symbol with one argument
    truncated = 0
    for d in symbol_stream(Plus(Zero, Zero))[:-1]:
        truncated = truncated * BASE + d
    with pytest.raises(DecodeError):
        decode(truncated)
    # trailing symbols
    padded = code(Zero) * BASE + 1
    with pytest.raises(DecodeError):
        decode(padded)
    for value in (2.5, "7", None, True, 7.0):  # True would decode to 0
        with pytest.raises(DecodeError, match="codes are ints"):
            decode(value)
        with pytest.raises(InputError, match="codes are ints"):
            self_subst(value)


def test_decode_rejects_an_invalid_variable_name():
    # x1's stream without its x: the name "1" starts with a digit
    stream = symbol_stream(Var("x1"))
    value = 0
    for d in stream[:1] + stream[2:]:
        value = value * BASE + d
    with pytest.raises(DecodeError, match="invalid variable name '1'"):
        decode(value)


def test_self_subst_example_computed_independently():
    f = Eq(Var("x"), Var("x"))
    n = code(f)
    expected = code(Eq(numeral(n), numeral(n)))
    assert self_subst(n) == expected


def test_self_subst_closed_formula_rejected():
    with pytest.raises(InputError):
        self_subst(code(Eq(Zero, Zero)))


def test_self_subst_term_code_rejected():
    with pytest.raises(InputError):
        self_subst(code(Plus(Zero, Zero)))


def test_self_subst_not_idempotent():
    n = code(Eq(Var("x"), Var("x")))
    m = self_subst(n)
    # the result codes a closed formula, so a second application must fail,
    # and in particular the value cannot repeat
    assert m != n
    with pytest.raises(InputError):
        self_subst(m)


def test_subst_respects_binding():
    f = And(Eq(Var("x"), Zero), ForAll("x", Eq(Var("x"), Var("x"))))
    g = subst(f, "x", numeral(3))
    assert g.args[0] == Eq(numeral(3), Zero)
    assert g.args[1] == f.args[1]  # bound occurrences untouched
    # only a term may replace a variable: rebuilt nodes keep their children's sorts by this check
    for replacement in (Eq(Zero, Zero), Not(Prov(Zero)), "0", 3, None):
        for target in (Var("x"), f, Eq(Zero, Zero)):
            with pytest.raises(InputError, match="replaces a variable by a term"):
                subst(target, "x", replacement)


def test_diagonalize_certificate_eq():
    psi, cert = diagonalize(Eq(Var("x"), Var("x")))
    assert cert.ok
    assert cert.psi_code == code(psi)
    assert free_vars(psi) == set()


def test_diagonalize_certificate_goedel_style():
    psi, cert = diagonalize(Not(Prov(Var("x"))))
    assert cert.ok
    # psi is theta applied to a diag term whose value is psi's own code
    assert psi.op == "not"
    inner = psi.args[0]
    assert inner.op == "prov"
    diag_term = inner.args[0]
    assert diag_term.op == "diag"
    assert denotation(diag_term) == cert.psi_code


def test_diagonalize_closed_theta_rejected():
    with pytest.raises(InputError):
        diagonalize(Eq(Zero, Zero))
    with pytest.raises(InputError):
        diagonalize(Eq(Var("x"), Var("y")))


def test_diagonalize_corpus():
    rng = random.Random(12)
    done = 0
    while done < 60:  # the 200-sample run lives in the acceptance suite
        theta = random_formula(rng, rng.randrange(1, 5))
        if free_vars(theta) != {"x"}:
            continue
        _, cert = diagonalize(theta)
        assert cert.ok
        done += 1


def test_matryoshka_two_distinct():
    family = matryoshka_family(2)
    assert code(family[0][1]) != code(family[1][1])


def test_matryoshka_structure_and_certificates():
    family = matryoshka_family(5)
    for n, psi, cert in family:
        assert cert.ok
        # each member embeds an addition offset by numeral(n)
        assert f" + {format_term(numeral(n))})" in format_formula(psi)


def test_matryoshka_rejects_zero():
    with pytest.raises(InputError):
        matryoshka_family(0)
    for n_max in (2.0, True):
        with pytest.raises(InputError, match=f"n_max must be an int, got {n_max!r}"):
            matryoshka_family(n_max)


def test_size_growth_bound_single_occurrence():
    # For theta with one occurrence of x, |psi| <= |theta| + c*|beta| with
    # c = 16: the numeral of code(beta) is linear in |beta| with slope
    # log2(BASE) < 6, and each binary digit costs one symbol plus one for Zero.
    rng = random.Random(31)
    done = 0
    while done < 40:
        theta = random_formula(rng, rng.randrange(1, 5), vars_allowed=("y", "z_1"))
        if free_vars(theta) - {"y", "z_1"}:
            continue
        # graft exactly one free x occurrence
        theta = And(Eq(Var("x"), numeral(rng.randrange(8))), ForAll("y", ForAll("z_1", theta)))
        if free_vars(theta) != {"x"}:
            continue
        psi, cert = diagonalize(theta)
        assert cert.ok
        s_theta = len(symbol_stream(theta))
        s_beta = len(symbol_stream(cert.beta))
        s_psi = len(symbol_stream(psi))
        assert s_psi <= s_theta + 16 * s_beta
        done += 1


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, rng.randrange(5))
        assert parse_formula(format_formula(f)) == f
    for _ in range(200):
        t = random_term(rng, rng.randrange(4), ("x", "y"))
        assert parse_term(format_term(t)) == t


def test_parse_examples():
    assert parse_formula("~Prov(x)") == Not(Prov(Var("x")))
    assert parse_formula("forall x. (x = 0)") == ForAll("x", Eq(Var("x"), Zero))
    assert parse_term("d1(d0(d1(0)))") == numeral(5)
    assert parse_formula("((x = 0) -> Prov(diag(x)))") == Implies(
        Eq(Var("x"), Zero), Prov(Diag(Var("x")))
    )


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("(x = )")
    with pytest.raises(ParseError):
        parse_term("d1(0")
    with pytest.raises(ParseError):
        parse_formula("Prov(x) junk")


def test_certificate_text():
    _, cert = diagonalize(Not(Prov(Var("x"))))
    text = format_diagonal_certificate(cert)
    assert "status: pass" in text
    assert f"beta-code: {cert.beta_code}" in text


def test_ast_validation():
    with pytest.raises(InputError):
        Term("plus", (Zero,))
    with pytest.raises(InputError):
        Var("X")
    with pytest.raises(InputError):
        Formula("eq", (Zero,))
    with pytest.raises(InputError):
        ForAll("9bad", Eq(Zero, Zero))


def _negations(n, f):
    for _ in range(n):
        f = Not(f)
    return f


def test_self_subst_on_a_deep_code():
    n = code(_negations(1500, Prov(Var("x"))))
    expected = _negations(1500, Prov(numeral(n)))
    assert self_subst(n) == code(expected)


def test_diagonalize_deep_negations():
    theta = _negations(3000, Prov(Var("x")))
    psi, cert = diagonalize(theta)
    assert cert.ok
    # trees are compared by code: dataclass == recurses
    assert code(psi) == code(_negations(3000, Prov(Diag(numeral(cert.beta_code)))))
    assert free_vars(psi) == set()


def test_diagonalize_iterates_over_its_own_fixed_points():
    theta = Prov(Var("x"))
    for _ in range(4):
        psi, cert = diagonalize(theta)
        assert cert.ok
        assert code(decode(cert.psi_code)) == cert.psi_code
        theta = And(psi, Prov(Var("x")))
    # the last psi carries a numeral of beta's code, one node per bit
    assert len(symbol_stream(psi)) > cert.beta_code.bit_length()


def test_subst_and_denotation_on_a_long_successor_chain():
    chain = Var("x")
    for _ in range(5000):
        chain = Succ(chain)
    closed = subst(Eq(chain, Zero), "x", numeral(7)).args[0]
    assert denotation(closed) == 5007
    assert free_vars(chain) == {"x"}
    assert format_term(closed) == "S(" * 5000 + "d1(d1(d1(0)))" + ")" * 5000


def test_codes_past_the_int_str_digit_limit_are_reported():
    # str() refuses ints of more than 4,300 digits; the errors must still be ours
    with pytest.raises(InputError):
        self_subst(10**5000)
    with pytest.raises(DecodeError):
        decode(-(10**5000))


def _reference_code(node):
    # `code` read one digit at a time, as it must agree with
    value = 0
    for d in symbol_stream(node):
        value = value * BASE + d
    return value


def _term_with_stream_length(rng, n):
    # unary term ops around a variable with a random name: structural and name digits
    if n < 3:
        return (Zero, Succ(Zero))[n - 1]
    k = rng.randrange(n - 2)
    node = Var(rng.choice("ab_") + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789_", k=n - 3 - k)))
    for _ in range(k):
        node = rng.choice((D0, D1, Succ, Diag))(node)
    return node


def test_code_matches_the_digit_by_digit_reading():
    rng = random.Random(77)
    lengths = [1, 2, 3, 4, 5, 6, 7, 8, 255, 256, 257, 258, 259, 260, 511, 512, 513, 768, 769, 20000]
    for n in lengths + [rng.randrange(1, 20001) for _ in range(12)]:
        node = _term_with_stream_length(rng, n)
        assert len(symbol_stream(node)) == n
        assert code(node) == _reference_code(node)


def test_numeral_denotation_of_huge_values():
    rng = random.Random(50000)
    for _ in range(4):
        n = rng.randrange(1 << rng.randrange(1, 50001))
        assert denotation(numeral(n)) == n


def _chain(n, leaf, op):
    node = leaf
    for _ in range(n):
        node = op(node, leaf)
    return node


def test_parse_round_trips_deep_chains():
    conj = _chain(5000, Prov(Var("x")), And)
    total = _chain(5000, Var("x"), Plus)
    # trees are compared by code: dataclass == recurses
    assert code(parse_formula(format_formula(conj))) == code(conj)
    assert code(parse_formula(format_formula(Eq(total, Zero)))) == code(Eq(total, Zero))
    assert code(parse_term(format_term(total))) == code(total)


@pytest.mark.parametrize("name", ["d0", "d1", "diag"])
def test_keyword_named_variables_round_trip(name):
    v = Var(name)
    for t in (v, D0(v), Diag(Plus(v, D1(v)))):
        assert parse_term(format_term(t)) == t
    for f in (Eq(v, Zero), Prov(v), ForAll(name, Eq(Diag(v), v)), Not(Exists(name, Prov(D0(v))))):
        assert parse_formula(format_formula(f)) == f


def test_every_op_round_trips_through_code_and_text():
    from diagforge.goedel import _OPS

    x = Var("x")
    p = Prov(x)
    samples = [
        Zero, D0(x), D1(Zero), x, Succ(x), Plus(x, Zero), Times(Zero, x), Diag(x),
        Eq(x, Zero), p, Not(p), And(p, Not(p)), Or(Not(p), p), Implies(p, p),
        ForAll("y", p), Exists("z_1", Not(p)),
    ]
    assert sorted(node.op for node in samples) == sorted(_OPS)
    for node in samples:
        assert decode(code(node)) == node
        parse = parse_term if isinstance(node, Term) else parse_formula
        assert parse(format_formula(node)) == node


def test_op_digits_are_one_to_sixteen_and_no_other_digit_starts_a_node():
    from diagforge.goedel import _OPS

    assert sorted(row[0] for row in _OPS.values()) == list(range(1, 17))
    for d in range(17, BASE + 1):
        with pytest.raises(DecodeError, match="cannot start a node"):
            decode(d)  # the one-digit stream [d]


def test_constructors_take_children_from_the_field_the_op_names():
    with pytest.raises(InputError):
        Formula("not", (Zero,))  # a subformula op given a term
    with pytest.raises(InputError):
        Formula("prov", (Eq(Zero, Zero),))  # a term op given a subformula
    with pytest.raises(InputError):
        Term("eq", (Zero, Zero))  # a formula op is no term
    with pytest.raises(InputError):
        Formula("plus", (Zero, Zero))  # a term op is no formula
    with pytest.raises(InputError, match="not carries no name"):
        Formula("not", (Eq(Zero, Zero),), "x")  # only quantifiers bind a name
    with pytest.raises(InputError, match="eq carries no name"):
        Formula("eq", (Zero, Zero), "x")
    with pytest.raises(InputError, match="bad variable name ''"):
        Formula("forall", (Eq(Zero, Zero),))  # a quantifier binds a name
    with pytest.raises(InputError):
        Term("succ", (Zero,), "x")  # only var carries a name
    with pytest.raises(InputError):
        Term("nope")
    with pytest.raises(InputError, match="succ needs term arguments"):
        Term("succ", (Eq(Zero, Zero),))  # a formula is no term argument
    with pytest.raises(InputError, match="and needs formula arguments"):
        Formula("and", (Prov(Var("x")), Zero))  # nor a term a subformula


def _reference_digits(value):
    # the bijective base-BASE split one digit at a time, as `_digits_of` must agree with
    digits = []
    while value > 0:
        d = value % BASE or BASE
        digits.append(d)
        value = (value - d) // BASE
    return digits[::-1]


def test_digits_of_matches_the_digit_by_digit_split():
    from diagforge.goedel import _digits_of

    rng = random.Random(256)
    boundaries = [1, 2, 3, 255, 256, 257, 511, 512, 513]
    streams = [[d] * n for n in boundaries for d in (1, BASE)]  # repunits: a chunk's ends
    for n in boundaries + [20000] + [rng.randrange(1, 3001) for _ in range(10)]:
        streams.append([rng.randrange(1, BASE + 1) for _ in range(n)])
    for digits in streams:
        value = 0
        for d in digits:
            value = value * BASE + d
        assert _digits_of(value) == _reference_digits(value) == digits
        assert _digits_of(value + 1) == _reference_digits(value + 1)


def test_names_end_at_their_last_character():
    # `$` alone would let a final newline through, and the coder has no digit for it
    with pytest.raises(InputError):
        Var("x\n")
    with pytest.raises(InputError):
        ForAll("y\n", Eq(Var("x"), Zero))


@pytest.fixture(scope="module")
def fixed_points():
    """The acceptance suite's 200 diagonal-lemma thetas, then matryoshka_family(50): their certificates."""
    rng = random.Random(6006)
    certs = []
    while len(certs) < 200:
        theta = random_formula(rng, rng.randrange(1, 5))
        if free_vars(theta) == {"x"}:
            certs.append(diagonalize(theta)[1])
    return certs + [cert for _, _, cert in matryoshka_family(50)]


def test_fixed_point_codes_are_locked(fixed_points):
    import hashlib

    from diagforge.goedel import format_code

    text = "\n".join(format_code(cert.psi_code) for cert in fixed_points)
    assert hashlib.sha256(text.encode()).hexdigest() == LOCKS["fixed_point_codes"]


def test_fixed_point_nodes_pass_the_checking_constructor(fixed_points):
    # numeral and subst write nodes unchecked; each must be one the constructor accepts
    for cert in fixed_points:
        for tree in (cert.theta, cert.beta, cert.psi):
            assert all(map(_passes_the_checking_constructor, _nodes(tree)))


_NO_NUMERAL = (None, None, b"")  # numeral's entry before any numeral is built


def test_delta_evaluated_cold_matches_the_certificate(fixed_points, monkeypatch):
    # diagonalize shares numeral(b) between psi and delta(b); built afresh, delta(b) is the same
    from diagforge import goedel

    five = numeral(5)
    assert numeral(5) is five and goedel._numeral_entry[:2] == (5, five)
    numeral(7)
    assert numeral(5) is not five  # the last numeral only, never a cross-call cache
    for cert in fixed_points:
        monkeypatch.setattr(goedel, "_numeral_entry", _NO_NUMERAL)
        assert self_subst(cert.beta_code) == cert.delta_of_beta_code


def _reference_stream(node, out=None):
    # the prefix serialization by plain recursion, as `symbol_stream` must agree with;
    # every level appends to one list, so a deep numeral streams in linear time
    from diagforge.goedel import _OPS

    out = [] if out is None else out
    out.append(_OPS[node.op][0])
    if node.name:  # name characters are digits 18.., and 17 ends the name
        out += ["abcdefghijklmnopqrstuvwxyz0123456789_".index(ch) + 18 for ch in node.name] + [17]
    for child in node.args:  # a loop, not a comprehension: one frame per level of a deep numeral
        _reference_stream(child, out)
    return out


def test_symbol_stream_matches_a_recursive_walk(fixed_points):
    from diagforge.goedel import _OPS

    x, y = Var("x"), Var("long_name_9")
    p = Prov(Plus(x, y))
    small = [
        Zero, D0(x), D1(Succ(y)), x, Succ(D1(Zero)), Plus(y, Succ(x)), Times(Diag(x), Zero),
        Diag(Times(x, y)), Eq(Succ(x), Plus(Zero, y)), p, Not(Not(p)), And(p, Not(p)),
        Or(Not(p), Eq(x, y)), Implies(p, Or(p, p)), ForAll("y", Exists("z_1", p)),
        Exists("long_name_9", And(Not(p), ForAll("x", p))),
    ]
    assert sorted(node.op for node in small) == sorted(_OPS)
    for node in small + [node for cert in fixed_points for node in (cert.theta, cert.beta, cert.psi)]:
        assert symbol_stream(node) == _reference_stream(node)
    deep = numeral(1 << 40000)  # a unary chain far past the recursion limit
    assert code(decode(code(deep))) == code(deep)


def _numeral_holders(t):
    # trees holding t 0 to 3 times: at a leaf, under diag, succ and a quantifier,
    # twice side by side, and under each connective
    y = Var("y")
    return [
        Eq(y, Zero), t, Prov(Diag(t)), ForAll("y", Eq(t, y)), Eq(Succ(t), Times(y, Zero)),
        Not(Eq(t, t)), Implies(Eq(y, y), Or(Prov(t), Not(Prov(Diag(t))))),
        And(Prov(Diag(t)), Exists("y", Eq(t, Plus(t, y)))),
    ]


def test_symbol_stream_splices_the_kept_numeral_wherever_it_holds(monkeypatch):
    from diagforge import goedel

    rng = random.Random(3905)
    values = [0, 1] + [(1 << k) + e for k in (1, 2, 7, 64, 1000, 4999) for e in (-1, 1)]
    values += [rng.randrange(1 << 5000)] + [rng.randrange(1 << rng.randrange(1, 5001)) for _ in range(11)]
    assert len(values) == 26
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 6000)  # _reference_stream recurses once per numeral bit
    try:
        for n in values:
            other = numeral(n + 1)
            other_entry = goedel._numeral_entry
            t = numeral(n)
            entry = goedel._numeral_entry
            assert numeral(n) is t and entry[:2] == (n, t)
            assert list(entry[2]) == _reference_stream(t)  # the kept digits
            checked = _reference_numeral(n)  # equal to t but not t: walked, never spliced
            holders = _numeral_holders(t)
            trees = holders + [And(holders[-1], Eq(checked, other))]  # beside its checked twin and another n
            expected = [_reference_stream(tree) for tree in trees]
            for kept in (entry, other_entry, _NO_NUMERAL):  # t, another n, nothing
                monkeypatch.setattr(goedel, "_numeral_entry", kept)
                assert [symbol_stream(tree) for tree in trees] == expected, (n, kept[0])
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Term("succ", [Zero]),  # a list of arguments: it would code, but not hash
        lambda: Formula("not", [Eq(Zero, Zero)]),
        lambda: Var(5),
        lambda: ForAll(None, Eq(Zero, Zero)),
        lambda: Term(["zero"]),
    ],
    ids=["list-args", "list-subs", "int-name", "none-var", "list-op"],
)
def test_constructors_reject_fields_of_the_wrong_type(build):
    with pytest.raises(InputError, match="needs a str op"):
        build()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_diagonalize_leaves_the_collector_as_it_found_it(collector, enabled):
    gc = collector
    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert diagonalize(Not(Prov(Var("x"))))[1].ok
    assert gc.isenabled() is enabled
    for theta in (Eq(Zero, Zero), parse_formula("(x = y)")):  # no free variable, and two
        with pytest.raises(InputError, match="exactly one free variable"):
            diagonalize(theta)
        assert gc.isenabled() is enabled
    assert len(matryoshka_family(3)) == 3
    assert gc.isenabled() is enabled


def test_nodes_keep_their_dataclass_behaviour():
    import copy
    import dataclasses
    import pickle

    with pytest.raises(InputError, match="bad variable name"):
        dataclasses.replace(Var("x"), name="X")  # replace goes through the checking constructor
    assert dataclasses.replace(Var("x"), name="y") == Var("y")
    tree = ForAll("y", Implies(Prov(Var("x")), Eq(Plus(Var("y"), numeral(5)), Diag(Var("x")))))
    for twin in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
        assert twin == tree and hash(twin) == hash(tree) and code(twin) == code(tree)
    for field in ("name", "var"):  # a field, and a name that is none
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tree, field, "z")
    with pytest.raises(dataclasses.FrozenInstanceError):
        Zero.args = (Zero,)
    assert [f.name for f in dataclasses.fields(Term)] == ["op", "args", "name"]
    assert [f.name for f in dataclasses.fields(Formula)] == ["op", "args", "name"]
    assert Term.__init__ is Formula.__init__  # one checking constructor
