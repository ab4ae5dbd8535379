"""Every reader is total: whatever the input, only DiagforgeError escapes.

Hypothesis runs derandomized with bounded example counts, so these tests
are deterministic and cheap.  A reader that lets any other exception out
fails its test with that exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSIFIER_DIR, load_classifier
from diagforge import goedel
from diagforge.cnf import _dumped_loads, dimacs_dumps, dimacs_loads
from diagforge.diagonal import certificate_dumps, certificate_loads, forge
from diagforge.errors import DiagforgeError, ParseError
from diagforge.machine import deserialize, parse_asm, serialize

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _total(reader, data) -> None:
    try:
        reader(data)
    except DiagforgeError:
        pass


def _edit(lines: list[str], edits) -> str:
    out = list(lines)
    for kind, i, words in edits:
        if not out:
            break
        i %= len(out)
        if kind == "delete":
            del out[i]
        elif kind == "duplicate":
            out.insert(i, out[i])
        elif kind == "replace":
            out[i] = " ".join(words)
        else:  # one whitespace-separated field of the line
            fields = out[i].split(" ")
            fields[len(words) % len(fields)] = "".join(words)
            out[i] = " ".join(fields)
    return "\n".join(out) + "\n"


def mutated_lines(text: str, vocabulary: list[str], head: int = 0):
    """`text` after a few line-level edits that draw new text from `vocabulary`.

    Line indices lean on the first `head` lines, where a format keeps its headers.
    """
    lines = text.splitlines()
    index = st.integers(0, len(lines) - 1)
    if head:
        index = st.one_of(st.integers(0, head), index)
    edit = st.tuples(
        st.sampled_from(["delete", "duplicate", "replace", "field"]),
        index,
        st.lists(st.sampled_from(vocabulary), max_size=4),
    )
    return st.lists(edit, min_size=1, max_size=3).map(lambda edits: _edit(lines, edits))


FORMULA_TOKENS = [
    "(", ")", "=", "+", "*", "&", "|", "->", "~", ".", "0", "x", "y_1", "d0", "d1", "S",
    "diag", "Prov", "forall", "exists", "-", "1", "X",
]


@FUZZ
@given(st.lists(st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(FORMULA_TOKENS))))
def test_formula_text_readers_are_total(pieces):
    text = "".join(space + token for space, token in pieces)
    _total(goedel.parse_formula, text)
    _total(goedel.parse_term, text)


def _bijective(digits: list[int]) -> int:
    value = 0
    for d in digits:
        value = value * goedel.BASE + d
    return value


@FUZZ
@given(
    st.one_of(
        st.integers(),
        st.lists(st.integers(1, goedel.BASE), min_size=1, max_size=80).map(_bijective),
    )
)
def test_decode_is_total(value):
    _total(goedel.decode, value)


DIMACS_WORDS = ["p", "cnf", "c", "0", "1", "-1", "2", "-3", "40", "-0", "x", "1.5", "%", ""]


@FUZZ
@given(st.one_of(st.text(max_size=40), mutated_lines("p cnf 3 2\n1 -2 0\n2 3 -1 0\n", DIMACS_WORDS)))
def test_dimacs_loads_is_total(text):
    _total(dimacs_loads, text)
    # the C-level reader never raises, and takes only text that dimacs_dumps writes
    formula = _dumped_loads(text)
    assert formula is None or dimacs_dumps(formula) == text


ASM_WORDS = [
    ".registers", ".wordbits", ".memory", "loadi", "load", "store", "add", "sub", "jz",
    "jmp", "self", "accept", "reject", "mov", "zero:", "r0", "r1", "r9", "r", "0", "-1",
    "0x10", "65536", "zero", ",", ";",
]


@FUZZ
@given(
    st.one_of(
        st.text(max_size=40),
        mutated_lines((CLASSIFIER_DIR / "scan_all.asm").read_text(), ASM_WORDS),
    )
)
def test_parse_asm_is_total(text):
    _total(parse_asm, text)


_PROGRAM_BYTES = serialize(load_classifier("first_byte_zero.asm"))


@FUZZ
@given(
    st.one_of(
        st.binary(max_size=40),
        st.tuples(
            st.integers(0, len(_PROGRAM_BYTES)), st.integers(0, len(_PROGRAM_BYTES) - 1), st.binary(max_size=3)
        ).map(lambda cut: _PROGRAM_BYTES[: cut[0]] + cut[2] + _PROGRAM_BYTES[cut[1] :]),
    )
)
def test_deserialize_is_total(data):
    _total(deserialize, data)


_CERTIFICATE = certificate_dumps(forge(load_classifier("first_byte_zero.asm"), 1 << 16))


CERTIFICATE_WORDS = [
    "bound-t:", "8", "-1", "99999999999", "classifier-verdict:", "SAT", "UNSAT",
    "oracle-verdict:", "oracle-model:", "0", "pins:", "0:253", "0:", "-", "trial:",
    "t=8", "steps=6", "halted=yes", "note=", "begin-classifier-asm", "end-classifier-asm",
    "begin-diagonal-asm", "end-diagonal-asm", "begin-forged-dimacs", "end-forged-dimacs",
    "end-certificate", "p cnf 3 1", "accept", "04", "ACCEPT", "0x3",
]


@settings(FUZZ, max_examples=100)
@given(mutated_lines(_CERTIFICATE, CERTIFICATE_WORDS, head=16))
def test_certificate_loads_is_total(text):
    # and exact: a text that loads is the one certificate_dumps writes for it
    try:
        loaded = certificate_loads(text)
    except DiagforgeError:
        return
    assert certificate_dumps(loaded) == text


def test_certificate_pin_with_a_leading_zero_is_rejected():
    # int() reads 0253 as 253, but certificate_dumps writes 253
    lines = _CERTIFICATE.splitlines()
    at, line = next((i, x) for i, x in enumerate(lines) if x.startswith("pins: "))
    address, value = line.removeprefix("pins: ").split(":")
    lines[at] = f"pins: {address}:0{value}"
    with pytest.raises(ParseError, match=f"line {at + 1}: expected '{line}', got '{lines[at]}'"):
        certificate_loads("\n".join(lines) + "\n")


NAMES = st.sampled_from(["x", "y_1", "d0", "d1", "diag", "forall", "exists"])
TERMS = st.recursive(
    st.one_of(st.just(goedel.Zero), NAMES.map(goedel.Var)),
    lambda t: st.one_of(
        *(st.builds(op, t) for op in (goedel.D0, goedel.D1, goedel.Succ, goedel.Diag)),
        st.builds(goedel.Plus, t, t),
        st.builds(goedel.Times, t, t),
    ),
    max_leaves=12,
)
FORMULAS = st.recursive(
    st.one_of(st.builds(goedel.Eq, TERMS, TERMS), st.builds(goedel.Prov, TERMS)),
    lambda f: st.one_of(
        st.builds(goedel.Not, f),
        *(st.builds(op, f, f) for op in (goedel.And, goedel.Or, goedel.Implies)),
        *(st.builds(op, NAMES, f) for op in (goedel.ForAll, goedel.Exists)),
    ),
    max_leaves=8,
)


@settings(FUZZ, max_examples=100)
@given(FORMULAS, TERMS)
def test_text_form_round_trips(formula, term):
    assert goedel.parse_formula(goedel.format_formula(formula)) == formula
    assert goedel.parse_term(goedel.format_term(term)) == term
