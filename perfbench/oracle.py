"""Reference answers that do not use the code under test.

Everything here is written against the documented formats (the CNF memory
image, the shipped classifier programs) in plain Python, so a defect in
`diagforge` cannot make its own output look right.
"""

from __future__ import annotations

import struct

MEMORY_CELLS = 65536
WORD_MASK = 0xFFFF


def pack_image(num_vars: int, clauses) -> bytes:
    """The CNF memory image: words num_vars, clause count, payload length, payload."""
    payload = []
    for clause in clauses:
        payload.extend((abs(lit) << 1) | (lit < 0) for lit in clause)
        payload.append(0)
    words = [num_vars, len(clauses), len(payload)] + payload
    return struct.pack(f"<{len(words)}H", *words)


def image_size(n_clauses: int, n_literals: int) -> int:
    """Bytes of a formula's image, even where the format's 16-bit caps would refuse it."""
    return 6 + 2 * (n_literals + n_clauses)


def satisfies(clauses, values) -> bool:
    """values[v - 1] is the truth value of variable v."""
    return all(any(values[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses)


def is_satisfiable(num_vars: int, clauses) -> bool:
    """Plain recursive DPLL with unit propagation; meant for small formulas."""

    def solve(clauses) -> bool:
        while True:
            if not clauses:
                return True
            if any(not c for c in clauses):
                return False
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = _assume(clauses, unit)
        lit = clauses[0][0]
        return solve(_assume(clauses, lit)) or solve(_assume(clauses, -lit))

    return solve([tuple(c) for c in clauses])


def _assume(clauses, lit):
    return [tuple(x for x in c if x != -lit) for c in clauses if lit not in c]


# The shipped classifiers, read from the image bytes.  Each returns
# (accepts, steps) where steps counts the halting instruction, as
# `machine.run` does.


def _const_sat(memory) -> tuple[bool, int]:
    return True, 1


def _const_unsat(memory) -> tuple[bool, int]:
    return False, 1


def _first_byte_zero(memory) -> tuple[bool, int]:
    return memory[0] == 0, 4


def _parity_first_byte(memory) -> tuple[bool, int]:
    b = memory[0]
    if b % 2 == 0:
        return True, 3 + 5 * (b // 2) + 2
    return False, 3 + 5 * (b // 2) + 4


def _scan_all(memory) -> tuple[bool, int]:
    # Two cells per payload word; the sum of those cells mod 2^16 must be 0.
    cells = (2 * (memory[4] + 256 * memory[5])) & WORD_MASK
    total = sum(memory[(6 + i) % MEMORY_CELLS] for i in range(cells)) & WORD_MASK
    return total == 0, 16 + 6 * cells + 3


CLASSIFIERS = {
    "const_sat": _const_sat,
    "const_unsat": _const_unsat,
    "first_byte_zero": _first_byte_zero,
    "parity_first_byte": _parity_first_byte,
    "scan_all": _scan_all,
}

# D runs LOADI and SELF before the classifier body and flips its halts.
DIAGONAL_PREFIX_STEPS = 2


def classify(name: str, image: bytes) -> tuple[bool, int]:
    """(accepts, steps) of the shipped classifier `name` on an image."""
    memory = image + bytes(MEMORY_CELLS - len(image))
    return CLASSIFIERS[name](memory)


def diagonal(name: str, image: bytes) -> tuple[bool, int]:
    """(accepts, steps) of the diagonal program built from classifier `name`."""
    accepts, steps = classify(name, image)
    return not accepts, steps + DIAGONAL_PREFIX_STEPS


def same_tree(a, b) -> bool:
    """Structural equality of two syntax trees, without recursion.

    Numerals nest one node per bit, deeper than Python's recursion limit
    lets dataclass equality go.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif hasattr(x, "__dict__"):
            fx, fy = vars(x), vars(y)
            if fx.keys() != fy.keys():
                return False
            stack.extend((fx[k], fy[k]) for k in fx)
        elif x != y:
            return False
    return True

