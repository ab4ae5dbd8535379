"""Exception hierarchy shared by all diagforge modules."""

from __future__ import annotations


class DiagforgeError(Exception):
    """Base class for every error raised by this package."""


class InputError(DiagforgeError):
    """A caller-supplied value violates an operation's precondition."""


class ResourceError(DiagforgeError):
    """A configured resource cap (variables, fuel, size budget) was exceeded."""


class ParseError(DiagforgeError):
    """Malformed textual input (DIMACS, assembly, certificate, formula text)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DecodeError(DiagforgeError):
    """Malformed binary or numeric encoding."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"offset {offset}: {message}"
        super().__init__(message)
        self.offset = offset


class ContractViolation(DiagforgeError):
    """An internal consistency check failed (e.g. a witness does not replay)."""


class EncodeUnsupported(DiagforgeError):
    """The program falls outside the CNF encoder's supported fragment."""


class ConstructionError(DiagforgeError):
    """A classifier violates the conventions the diagonal construction needs."""
