"""Shared corpora, example classifier programs, and the collector's state."""

import gc
import itertools
from pathlib import Path

import pytest

from diagforge.machine import Program, parse_asm

CLASSIFIER_DIR = Path(__file__).resolve().parent.parent / "classifiers"


def corpus_programs(max_len=3):
    """Every program of up to max_len instructions over the restricted set.

    Instruction pool per slot: LOADI r0 with constants 0..3, JZ r0 to each
    valid target, JMP to each valid target, and both halts.  One register,
    8-bit words, 16 memory cells.
    """
    from diagforge.machine import HALT_ACCEPT, HALT_REJECT, JMP, JZ, LOADI

    programs = []
    for n in range(1, max_len + 1):
        slot_choices = []
        for _ in range(n):
            choices = [LOADI(0, c) for c in range(4)]
            choices += [JZ(0, tgt) for tgt in range(n)]
            choices += [JMP(tgt) for tgt in range(n)]
            choices += [HALT_ACCEPT, HALT_REJECT]
            slot_choices.append(choices)
        for combo in itertools.product(*slot_choices):
            programs.append(
                Program(
                    combo,
                    register_count=1,
                    word_bits=8,
                    memory_cells=16,
                )
            )
    return programs


_SUM_HEADER = ".wordbits 16\n.memory 65536\n"
_SUM_TAIL = "jz r0, yes\nreject\nyes:\naccept\n"


def straight_line_sum(k):
    """SAT exactly when input cells 0..k-1 sum to 0, one unrolled read per cell."""
    body = "".join(f"loadi r1, {i}\nload r2, r1\nadd r0, r2\n" for i in range(k))
    return parse_asm(".registers 3\n" + _SUM_HEADER + body + _SUM_TAIL)


def looped_sum(k):
    """The same sum over cells 0..k-1, read in a counted loop."""
    loop = (
        f"loadi r3, {k}\nloadi r4, 1\n"
        "loop:\njz r3, done\nload r2, r1\nadd r0, r2\nadd r1, r4\nsub r3, r4\njmp loop\n"
        "done:\n"
    )
    return parse_asm(".registers 5\n" + _SUM_HEADER + loop + _SUM_TAIL)


def load_classifier(name: str) -> Program:
    return parse_asm((CLASSIFIER_DIR / name).read_text())


@pytest.fixture(scope="session")
def const_sat():
    return load_classifier("const_sat.asm")


@pytest.fixture(scope="session")
def const_unsat():
    return load_classifier("const_unsat.asm")


@pytest.fixture(scope="session")
def first_byte_zero():
    return load_classifier("first_byte_zero.asm")


@pytest.fixture(scope="session")
def parity_first_byte():
    return load_classifier("parity_first_byte.asm")


@pytest.fixture(scope="session")
def scan_all():
    return load_classifier("scan_all.asm")


@pytest.fixture
def collector():
    """The gc module, put back in the state the test found it in."""
    was_enabled = gc.isenabled()
    yield gc
    if was_enabled:
        gc.enable()
    else:
        gc.disable()
