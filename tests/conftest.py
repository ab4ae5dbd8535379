"""Shared corpora, example classifier programs, and the collector's state."""

import gc
import itertools
import json
from pathlib import Path

import pytest

from diagforge.machine import Program, parse_asm

ROOT = Path(__file__).resolve().parent.parent
CLASSIFIER_DIR = ROOT / "classifiers"
SHIPPED = ["const_sat", "const_unsat", "first_byte_zero", "parity_first_byte", "scan_all"]


# sha256 of certificate_dumps(forge(classifier, 1 << 16)), read from the benchmark's
# expected outcomes: they are the one copy of the certificate locks
_OUTCOMES = json.loads((ROOT / "perfbench" / "expected.json").read_text())["forge"]["outcomes"]
CERTIFICATE_SHA256 = {name: o["sha256"] for name, o in _OUTCOMES.items() if "sha256" in o}

# Every other value tier-1 locks: a change that moves one states it in CHANGES.md.
# Every other test reads what it needs from the artifact it checks.
LOCKS = {
    # sha256 of transcript_dumps(forge(classifier, 1 << 16)), an honest failure
    "transcript": {
        "parity_first_byte": "8070fcaf45b03a81abeb5df93f716d7aae40b8b4bc58f611dc3bc55ec7567f43",
        "scan_all": "dd6481f5ea123eea7e68adea197d5abbb700270115e9a1de6683fa8e37c47baf",
    },
    # the largest k whose k-cell sum forge defeats at t_cap 65536; it may only rise
    "frontier": {"straight-line": 2, "looped": 1},
    # per classifier, sha256 of the space-joined sha256s of dimacs_dumps and sorted
    # var_of of encode(D, pins, t), t = 8, 16, 32, unpinned then with these pins;
    # variable numbering and clause order are a determinism contract
    "encoder_pins": ((0, 3), (1, 0), (5, 255)),
    "encoder": {
        "const_sat": "2e6f2e3873d526f6ff885de3a0f9c90d17364c3f7a966fcea3d04efbe58d7f31",
        "const_unsat": "a0d3e7a584d2a3d8888939103e1039bd84d2cec15dbed46eeae6c8b76eb2fb07",
        "first_byte_zero": "e8367bfd80f4d1241cb5f0f563c4cf9701f1001b8850147df87648cc31e8e318",
        "parity_first_byte": "0da5ee8ba73793c0230afc40e014c6c568bba90720b11f40c6c93ac51e1a6650",
        # at step 19 scan_all's D reaches `jz r0, zero_sum` with r0 = 0 known: one successor
        "scan_all": "db1fe8bc3b8c54c260fbce0679b70052c9f95e4c5932a23b72dc5673d46eb464",
    },
    # the same digest over encode(p, pins, t) of 100 seeded _gate_case programs
    # per word size, 8 then 16: the STORE, dynamic-hit and agreement paths
    # the shipped D's never reach
    "encoder_gate_cases": "de6bc46f84aad10f1c5609b7fcc2d8948877849cd8bb82af71cf095fc9cac5f9",
    # sha256 of the fixed points' psi codes, one per line
    "fixed_point_codes": "71e5159c656befce6b01f8f1f862f9ac9d01d7a2279c73d383d62bb815127a53",
}


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
