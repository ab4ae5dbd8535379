"""First-order arithmetic syntax, numeric coding, and syntactic fixed points.

The language has binary numerals (Zero / D0 / D1), unary successor, plus,
times, a designated self-substitution function symbol `diag`, equality, an
uninterpreted provability predicate `Prov`, the usual connectives and
quantifiers.

Coding is a bijective base-B positional reading of a canonical prefix
(Polish) serialization, B = 54: digits 1..17 are the structural symbols, the
rest spell variable names.  String-style coding keeps code magnitude linear
in formula length, which is what makes diagonal sentences materializable.

`diagonalize(theta)` runs the standard fixed-point construction:

    beta(x) = theta[x := diag(x)],   b = code(beta),   psi = beta[x := numeral(b)]

and certifies, by evaluating the self-substitution function on b alone
(decode b, find its free variable, substitute, code), that delta(b) equals
code(psi): the machine-checkable content of "psi holds iff theta holds of
psi's own code".  psi and delta(b) share one numeral(b), since `numeral`
keeps one entry, the last tree it built and that tree's code digits; it is a
pure function, so a second build would check nothing, and the comparison of
the two codes still certifies the fixed point.  The numeral is most of psi,
and `code` splices the kept digits in wherever it meets the kept tree, so
neither code of a fixed point walks the numeral's chain.

The code here does not recurse: tree walks and the text reader run on
explicit stacks, so no tree is too deep for them.  Terms and formulas have
one shape, `(op, args, name)`: `args` holds a node's children in prefix
order, and `name` is the variable of `var` or the one a quantifier binds.
Only the dataclass `==`, `hash` and `repr` of a node recurse, so deep trees
are compared by `code`.
The language is stated once, in the op table `_OPS`: each op's code digit,
sort, children and text spelling.  The node constructors, `code`, `decode`
and the text writer and reader all read it.  The reader raises `ParseError`
only on malformed text; codes print through `format_code`, which has no
digit limit.

The one public constructor, which terms and formulas share, checks each
node: the op and its class, its children's count and sort, and its name,
each field of the right type, or `InputError`.  It then stores the fields
in one step.  `subst` writes its nodes with the unchecked `_node`, and
`numeral` makes the same write inline, without a call per node, because
there every check holds by construction: `numeral` names its op and its one
child, and `subst` copies op, name and arity from a checked node and swaps
in only its replacement, which it checks on entry to be a `Term`.
`diagonalize` runs with the cyclic garbage collector paused
(`_collector.pause_collector`): a fixed point allocates thousands of nodes,
and a node is built from children that already exist, so syntax trees hold
no cycles and reference counting frees them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from functools import cache
from operator import is_

from ._collector import pause_collector
from .errors import DecodeError, InputError, ParseError

QUANTIFIERS = ("forall", "exists")
_NAMED = ("var", *QUANTIFIERS)  # the ops that carry a name: the variable, or the one bound

_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*")  # use fullmatch: "$" matches before a final newline


@dataclass(frozen=True, init=False)
class _Node:
    """A syntax-tree node: its op, its children in prefix order, and its name."""

    op: str
    args: tuple = ()
    name: str = ""

    def __init__(self, op: str, args: tuple = (), name: str = ""):
        if type(op) is not str or type(args) is not tuple or type(name) is not str:
            raise InputError(f"{op!r} needs a str op, a tuple of arguments and a str name")
        _, sort, child_sort, arity, _ = _OPS.get(op, _NO_OP)
        if sort is not type(self) or len(args) != arity:
            raise InputError(f"malformed {type(self).__name__.lower()} {op!r}")
        for child in args:
            if type(child) is not child_sort:
                raise InputError(f"{op} needs {child_sort.__name__.lower()} arguments")
        if op in _NAMED:
            if not _NAME_RE.fullmatch(name):
                raise InputError(f"bad variable name {name!r}")
        elif name:
            raise InputError(f"{op} carries no name")
        self.__dict__.update(op=op, args=args, name=name)  # past the frozen __setattr__


@dataclass(frozen=True, init=False)  # frozen for every attribute, not only the fields
class Term(_Node):
    """A term: its arguments are terms."""


@dataclass(frozen=True, init=False)
class Formula(_Node):
    """A formula: its arguments are the terms or the subformulas its op names."""


# The language, every op once: op -> (code digit, the node's sort, its
# children's sort, their count, its text before, between and after its items:
# the node's name, if it has one, then its children).  Code digits run 1..16
# (17 ends a name, the rest spell names); bijective numeration has no zero
# digit, so leading symbols are never lost.
_OPS = {
    "zero": (1, Term, Term, 0, ("0", "", "")),
    "d0": (2, Term, Term, 1, ("d0(", "", ")")),
    "d1": (3, Term, Term, 1, ("d1(", "", ")")),
    "var": (4, Term, Term, 0, ("", "", "")),
    "succ": (5, Term, Term, 1, ("S(", "", ")")),
    "plus": (6, Term, Term, 2, ("(", " + ", ")")),
    "times": (7, Term, Term, 2, ("(", " * ", ")")),
    "diag": (8, Term, Term, 1, ("diag(", "", ")")),
    "eq": (9, Formula, Term, 2, ("(", " = ", ")")),
    "prov": (10, Formula, Term, 1, ("Prov(", "", ")")),
    "not": (11, Formula, Formula, 1, ("~", "", "")),
    "and": (12, Formula, Formula, 2, ("(", " & ", ")")),
    "or": (13, Formula, Formula, 2, ("(", " | ", ")")),
    "implies": (14, Formula, Formula, 2, ("(", " -> ", ")")),
    "forall": (15, Formula, Formula, 1, ("forall ", ". ", "")),
    "exists": (16, Formula, Formula, 1, ("exists ", ". ", "")),
}
_NO_OP = (None, None, None, None, None)  # the row of a name that is no op


def _node(sort: type, op: str, args: tuple, name: str = "") -> Term | Formula:
    """A node written without the constructor's checks: only for nodes that pass them by construction."""
    node = object.__new__(sort)
    # one update, as in the constructor: item stores would leave a key-sharing
    # dict, whose attribute reads are slower in every later tree walk
    node.__dict__.update(op=op, args=args, name=name)
    return node


Zero = Term("zero")


def D0(t: Term) -> Term:
    return Term("d0", (t,))


def D1(t: Term) -> Term:
    return Term("d1", (t,))


def Var(name: str) -> Term:
    return Term("var", (), name)


def Succ(t: Term) -> Term:
    return Term("succ", (t,))


def Plus(a: Term, b: Term) -> Term:
    return Term("plus", (a, b))


def Times(a: Term, b: Term) -> Term:
    return Term("times", (a, b))


def Diag(t: Term) -> Term:
    return Term("diag", (t,))


def Eq(a: Term, b: Term) -> Formula:
    return Formula("eq", (a, b))


def Prov(t: Term) -> Formula:
    return Formula("prov", (t,))


def Not(f: Formula) -> Formula:
    return Formula("not", (f,))


def And(a: Formula, b: Formula) -> Formula:
    return Formula("and", (a, b))


def Or(a: Formula, b: Formula) -> Formula:
    return Formula("or", (a, b))


def Implies(a: Formula, b: Formula) -> Formula:
    return Formula("implies", (a, b))


def ForAll(var: str, f: Formula) -> Formula:
    return Formula("forall", (f,), var)


def Exists(var: str, f: Formula) -> Formula:
    return Formula("exists", (f,), var)


_END_NAME = 17
_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"
_CHAR_DIGITS = {ch: 18 + i for i, ch in enumerate(_NAME_CHARS)}
_DIGIT_CHARS = {d: ch for ch, d in _CHAR_DIGITS.items()}
BASE = 17 + len(_NAME_CHARS)  # 54
_OP_DIGITS = {op: row[0] for op, row in _OPS.items()}
_DIGIT_SYMBOLS = {d: op for op, d in _OP_DIGITS.items()}


def symbol_stream(node: Term | Formula) -> list[int]:
    """Canonical prefix serialization as digit values 1..BASE.

    A node's only child is visited straight after it, without a stack push and
    pop, so unary chains cost one step per node.  The numeral that `numeral`
    keeps costs none: where the walk meets that very tree, it splices in the
    digits kept with it.
    """
    _, numeral_tree, numeral_digits = _numeral_entry  # read once: a later numeral may replace it
    out: list[int] = []
    append = out.append
    stack = [node]
    while stack:
        x = stack.pop()
        while x is not numeral_tree:
            append(_OP_DIGITS[x.op])
            name, children = x.name, x.args
            if name:
                out += [_CHAR_DIGITS[ch] for ch in name]
                append(_END_NAME)
            if len(children) != 1:
                stack += children[::-1]
                break
            x = children[0]
        else:
            out += numeral_digits
    return out


_CHUNK = 256  # digits read into one block value; longer streams merge block values
_BASE4 = BASE**4  # the weight of a group of four digits, a small int


@cache
def _block_weight(level: int) -> int:
    """BASE to the length of a full block after `level` rounds of merging in `code`."""
    return BASE ** (_CHUNK << level)


def code(node: Term | Formula) -> int:
    """Goedel code: bijective base-BASE reading of the prefix serialization.

    The digits are read in chunks of `_CHUNK`, cut from the right so that only
    the leftmost is short; neighbouring blocks then merge in rounds, each value
    hi * BASE**len(lo) + lo, which keeps long codes from costing quadratic time.
    Within a block, the len % 4 leading digits are read one at a time and the
    rest four at a time: each group is folded in small ints, then applied to
    the block's big value in one step, value * BASE**4 + group.
    """
    digits = symbol_stream(node)
    values = []  # lowest block first
    for end in range(len(digits), 0, -_CHUNK):
        block = digits[max(end - _CHUNK, 0):end]
        head = len(block) % 4
        value = 0
        for d in block[:head]:
            value = value * BASE + d
        quads = iter(block[head:])
        for a, b, c, d in zip(quads, quads, quads, quads):
            value = value * _BASE4 + ((a * BASE + b) * BASE + c) * BASE + d
        values.append(value)
    level = 0
    while len(values) > 1:
        weight = _block_weight(level)
        odd = values[len(values) & ~1:]  # the highest block, when it has no partner
        values = [lo + hi * weight for lo, hi in zip(values[::2], values[1::2])] + odd
        level += 1
    return values[0]


def _digits_of(value: int) -> list[int]:
    """The bijective base-BASE digits of a code, most significant first.

    Full `_CHUNK`-digit blocks come off the low end first, one division each:
    a block's value runs over the `weight` numbers from its all-ones reading
    `ones` on, so it is (n - ones) % weight + ones.  The digit-at-a-time loop
    then runs only on block-sized ints, never on the whole code.
    """
    if type(value) is not int:
        raise DecodeError(f"codes are ints, got {type(value).__name__}")
    if value <= 0:
        raise DecodeError(f"codes are positive, got {format_code(value)}")
    weight = _block_weight(0)
    ones = (weight - 1) // (BASE - 1)
    blocks = []  # lowest first
    n = value
    while n > BASE * ones:  # more than one block's worth of digits
        n, low = divmod(n - ones, weight)
        blocks.append(low + ones)
    blocks.append(n)
    digits = []
    for block in blocks:
        while block > 0:
            d = block % BASE or BASE
            digits.append(d)
            block = (block - d) // BASE
    digits.reverse()
    return digits


def decode(value: int) -> Term | Formula:
    """Inverse of `code`; raises DecodeError on anything `code` cannot emit."""
    digits = _digits_of(value)
    pos = 0
    total = len(digits)

    def read_variable() -> str:
        nonlocal pos
        chars = []
        while True:
            if pos >= total:
                raise DecodeError("truncated variable name", offset=pos)
            d = digits[pos]
            pos += 1
            if d == _END_NAME:
                break
            ch = _DIGIT_CHARS.get(d)
            if ch is None:
                raise DecodeError(f"digit {d} is not a name character", offset=pos - 1)
            chars.append(ch)
        name = "".join(chars)
        if not _NAME_RE.fullmatch(name):
            raise DecodeError(f"invalid variable name {name!r}", offset=pos)
        return name

    # frames [op, name, children] of nodes still missing children
    pending: list[list] = []
    while True:
        if pos >= total:
            raise DecodeError("truncated serialization", offset=pos)
        d = digits[pos]
        pos += 1
        op = _DIGIT_SYMBOLS.get(d)
        if op is None:
            raise DecodeError(f"digit {d} cannot start a node", offset=pos - 1)
        frame = [op, read_variable() if op in _NAMED else "", []]
        while len(frame[2]) == _OPS[frame[0]][3]:
            node = _build(*frame)
            if not pending:
                if pos != total:
                    raise DecodeError("trailing symbols after serialization", offset=pos)
                return node
            frame = pending.pop()
            frame[2].append(node)
        pending.append(frame)


def _build(op: str, name: str, children: list) -> Term | Formula:
    """The node `decode` or the text reader read; ill-sorted children are a DecodeError."""
    try:
        return _OPS[op][1](op, tuple(children), name)
    except InputError as exc:
        raise DecodeError(str(exc)) from None


# numeral's one entry (n, tree, digits): the last numeral built and its
# symbol stream, which `symbol_stream` splices in wherever it meets that tree
_numeral_entry: tuple = (None, None, b"")  # none built yet
_BIT_DIGITS = bytes.maketrans(b"01", bytes((_OP_DIGITS["d0"], _OP_DIGITS["d1"])))  # bit -> digit
_ZERO_DIGIT = bytes((_OP_DIGITS["zero"],))


def numeral(n: int) -> Term:
    """Binary numeral of size O(log n); denotation(numeral(n)) == n.

    The last numeral built is kept, with its digits read straight off n: the
    bits least significant first, one d0 or d1 digit each, then zero's digit.
    `diagonalize` asks for numeral(b) and its `self_subst(b)` at once asks
    again, so both get the one immutable tree, and `code` splices its digits
    into both codes instead of walking the chain.
    """
    global _numeral_entry
    if type(n) is not int:
        raise InputError(f"numerals are of ints, got {type(n).__name__}")
    if n < 0:
        raise InputError("numerals are nonnegative")
    last, tree, _ = _numeral_entry
    if n == last:
        return tree
    bits = bin(n)[2:] if n else ""
    new = object.__new__
    tree = Zero
    for bit in bits:  # _node's write inline, one update each: a literal op and a Term child
        node = new(Term)
        node.__dict__.update(op="d1" if bit == "1" else "d0", args=(tree,), name="")
        tree = node
    _numeral_entry = (n, tree, bits[::-1].encode().translate(_BIT_DIGITS) + _ZERO_DIGIT)
    return tree


def _fold(root: Term | Formula, leaf, combine):
    """Bottom-up value of a tree, without recursion.

    `leaf(x)` gives x's value outright, or None to have it computed as
    `combine(x, values)` from its children's values in `args` order.
    """
    values: list = []
    stack: list = [root]
    while stack:
        x = stack.pop()
        if x is None:  # the values on top of `values` are those of the next node's children
            x = stack.pop()
            k = len(values) - _OPS[x.op][3]
            values[k:] = [combine(x, values[k:])]
            continue
        value = leaf(x)
        if value is None:
            stack.append(x)
            stack.append(None)
            stack += x.args[::-1]
        else:
            values.append(value)
    return values[0]


_VALUE = {
    "zero": lambda: 0, "d0": lambda a: 2 * a, "d1": lambda a: 2 * a + 1, "succ": lambda a: a + 1,
    "plus": lambda a, b: a + b, "times": lambda a, b: a * b, "diag": lambda a: self_subst(a),
}


def denotation(term: Term) -> int:
    """Standard-model value of a closed term (diag evaluates self_subst)."""

    def leaf(x: Term) -> None:
        if x.op == "var":
            raise InputError(f"denotation of open term (variable {x.name})")

    return _fold(term, leaf, lambda x, values: _VALUE[x.op](*values))


def free_vars(node: Term | Formula) -> set[str]:
    """The variables that occur free in a term or formula."""
    out: set[str] = set()
    bound: list[str] = []
    stack: list = [node]
    while stack:
        x = stack.pop()
        if x is None:  # leaving the innermost quantifier's scope
            bound.pop()
        elif x.op == "var":
            if x.name not in bound:
                out.add(x.name)
        else:
            if x.op in QUANTIFIERS:
                bound.append(x.name)
                stack.append(None)
            stack += x.args
    return out


def subst(f: Formula, name: str, replacement: Term) -> Formula:
    """Replace free occurrences of `name` by a term (closed terms cannot be captured)."""
    if type(replacement) is not Term:  # what keeps every rebuilt node's children of its sort
        raise InputError(f"subst replaces a variable by a term, got {type(replacement).__name__}")

    def leaf(x: Term | Formula) -> Term | Formula | None:
        if x.op == "var":
            return replacement if x.name == name else x
        if x.op == "zero" or x.op in QUANTIFIERS and x.name == name:
            return x  # a constant, or `name` is bound here
        return None

    def combine(x: Term | Formula, children: list) -> Term | Formula:
        if all(map(is_, children, x.args)):
            return x  # nothing replaced below
        return _node(type(x), x.op, tuple(children), x.name)  # the fields of a checked node

    return _fold(f, leaf, combine)


def self_subst(n: int) -> int:
    """The diagonal function: code of decode(n) with its free variable set to numeral(n)."""
    if type(n) is not int:
        raise InputError(f"codes are ints, got {type(n).__name__}")
    try:
        obj = decode(n)
    except DecodeError as exc:
        raise InputError(f"{format_code(n)} is not a formula code: {exc}") from exc
    if not isinstance(obj, Formula):
        raise InputError(f"{format_code(n)} codes a term, not a formula")
    fv = free_vars(obj)
    if len(fv) != 1:
        raise InputError(
            f"self-substitution needs exactly one free variable, found {sorted(fv)}"
        )
    (name,) = fv
    return code(subst(obj, name, numeral(n)))


@dataclass(frozen=True)
class DiagonalCertificate:
    """Machine-checkable record of one fixed-point construction."""

    theta: Formula
    beta: Formula
    beta_code: int
    psi: Formula
    psi_code: int
    delta_of_beta_code: int

    @property
    def ok(self) -> bool:
        return self.psi_code == self.delta_of_beta_code


@pause_collector
def diagonalize(theta: Formula) -> tuple[Formula, DiagonalCertificate]:
    """Fixed point of theta: psi with delta(code(beta)) == code(psi).

    psi is theta applied to diag(numeral(b)), a term whose standard-model
    value is exactly psi's own code; the certificate carries the evaluation
    of delta(b) from b alone that confirms it.  That evaluation gets the
    numeral(b) built for psi back from `numeral`'s one entry, and both codes
    splice in the digits kept with it.
    """
    fv = free_vars(theta)
    if len(fv) != 1:
        raise InputError(f"diagonalize needs exactly one free variable, found {sorted(fv)}")
    (x,) = fv
    beta = subst(theta, x, Diag(Var(x)))
    b = code(beta)
    psi = subst(beta, x, numeral(b))
    delta = self_subst(b)
    cert = DiagonalCertificate(
        theta=theta,
        beta=beta,
        beta_code=b,
        psi=psi,
        psi_code=code(psi),
        delta_of_beta_code=delta,
    )
    return psi, cert


def matryoshka_family(n_max: int) -> list[tuple[int, Formula, DiagonalCertificate]]:
    """The nested sentence family phi_n from theta_n(x) = ~Prov(x + numeral(n)).

    The in-language addition offset forces pairwise distinct codes; each
    member carries its own passing diagonal certificate.
    """
    if type(n_max) is not int:
        raise InputError(f"n_max must be an int, got {n_max!r}")
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    family = []
    for n in range(n_max):
        theta = Not(Prov(Plus(Var("x"), numeral(n))))
        psi, cert = diagonalize(theta)
        family.append((n, psi, cert))
    return family


def format_code(value: int) -> str:
    """Decimal digits of a code, however long: past the digit limit of `str` on an int."""
    return str(Decimal(value))  # exact, and leaves the interpreter-wide limit alone


def format_diagonal_certificate(cert: DiagonalCertificate) -> str:
    lines = [
        "diagonal certificate",
        f"theta: {format_formula(cert.theta)}",
        f"beta: {format_formula(cert.beta)}",
        f"beta-code: {format_code(cert.beta_code)}",
        f"psi: {format_formula(cert.psi)}",
        f"psi-code: {format_code(cert.psi_code)}",
        f"delta-of-beta-code: {format_code(cert.delta_of_beta_code)}",
        f"status: {'pass' if cert.ok else 'fail'}",
    ]
    return "\n".join(lines) + "\n"


# Text form.  Grammar (terms bind through explicit parentheses only):
#   term    := "0" | name | "d0(" term ")" | "d1(" term ")" | "S(" term ")"
#            | "diag(" term ")" | "(" term "+" term ")" | "(" term "*" term ")"
#   formula := "~" formula | "forall" name "." formula | "exists" name "." formula
#            | "Prov(" term ")" | "(" term "=" term ")"
#            | "(" formula ("&" | "|" | "->") formula ")"
# The keywords d0, d1 and diag open a term only before "(", and forall and
# exists open a formula only before a name; anywhere else they are names.

def format_formula(node: Term | Formula) -> str:
    """Text form of a formula or term, as `parse_formula` and `parse_term` read it."""
    parts: list[str] = []
    stack: list = [node]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            parts.append(x)
            continue
        before, between, after = _OPS[x.op][4]
        items = (x.name, *x.args) if x.name else x.args
        parts.append(before)
        stack.append(after)
        for item in reversed(items[1:]):
            stack += (item, between)
        stack += items[:1]
    return "".join(parts)


format_term = format_formula


_TOKEN_RE = re.compile(r"\s*(->|[()=+*&|~.]|[A-Za-z_][A-Za-z0-9_]*|0)")
# each op's texts as the token lists the reader expects
_PARTS = {op: [_TOKEN_RE.findall(part) for part in row[4]] for op, row in _OPS.items()}


def _parse(text: str, sort: type) -> Term | Formula:
    """The tree of sort `sort` whose text form is `text`, read without recursion."""
    tokens = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"cannot tokenize at {text[pos:pos + 12]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")  # end of input, which no part or name matches
    pos = 0

    def at(part: list[str]) -> bool:
        return tokens[pos:pos + len(part)] == part

    def unexpected() -> ParseError:
        return ParseError(f"unexpected {repr(tokens[pos]) if tokens[pos] else 'end of input'}")

    def past(ops: list[str], k: int) -> list[str]:
        """The ops whose k-th part (before, between, after) comes next; steps over it."""
        nonlocal pos
        ops = [op for op in ops if at(_PARTS[op][k])]
        if not ops:
            raise unexpected()
        pos += len(_PARTS[ops[0]][k])
        return ops

    # frames [ops, name, children] of nodes still missing children; an opening
    # "(" leaves six candidate ops, and the token after the first child picks one
    pending: list[list] = []
    while True:
        # an op opens here when its text comes next, a quantifier only before a
        # name; a name that opens nothing is a variable
        ops = [
            op for op, (before, _, _) in _PARTS.items() if before and at(before)
            and (op not in QUANTIFIERS or _NAME_RE.fullmatch(tokens[pos + len(before)]))
        ] or ["var"]
        pos += len(_PARTS[ops[0]][0])
        name = ""
        if ops[0] in _NAMED:
            if not _NAME_RE.fullmatch(tokens[pos]):
                raise unexpected()
            name = tokens[pos]
            pos += 1
        frame = [ops, name, []]
        while len(frame[2]) == _OPS[frame[0][0]][3]:
            op = past(frame[0], 2)[0]
            try:
                node = _build(op, frame[1], frame[2])
            except DecodeError as exc:
                raise ParseError(str(exc)) from None
            if not pending:
                if tokens[pos]:
                    raise ParseError(f"trailing input {tokens[pos]!r}")
                if not isinstance(node, sort):
                    raise ParseError(f"expected a {sort.__name__.lower()}, got {op}")
                return node
            frame = pending.pop()
            frame[2].append(node)
        if frame[1] or frame[2]:  # an item came before the next one
            frame[0] = past(frame[0], 1)
        pending.append(frame)


def parse_term(text: str) -> Term:
    return _parse(text, Term)


def parse_formula(text: str) -> Formula:
    return _parse(text, Formula)
