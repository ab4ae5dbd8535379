"""Bridge to external SAT solvers speaking the competition output format.

The adapter never trusts a solver's SAT claim: the reported model is replayed
through the local evaluator before a verdict is returned.  DIMACS inputs are
retained under the artifacts directory with content-hash names so any run can
be reproduced.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path

from .cnf import SAT, UNSAT, CnfFormula, Verdict, dimacs_dumps, evaluate, model_from_literals
from .errors import AdapterError, InputError, ParseError

ARTIFACTS_ENV = "DIAGFORGE_ARTIFACTS"
DEFAULT_ARTIFACTS_DIR = "artifacts"


def artifacts_dir() -> Path:
    return Path(os.environ.get(ARTIFACTS_ENV, DEFAULT_ARTIFACTS_DIR))


@dataclass(frozen=True)
class SolverAdapterConfig:
    """Command template with exactly one `{dimacs}` placeholder plus a timeout."""

    command: str
    timeout: float = 60.0

    def __post_init__(self):
        if self.command.count("{dimacs}") != 1:
            raise InputError("solver command needs exactly one {dimacs} placeholder")
        if self.timeout <= 0:
            raise InputError("solver timeout must be positive")


def store_dimacs(formula: CnfFormula) -> Path:
    """Write the formula under the artifacts directory, named by content hash."""
    text = dimacs_dumps(formula)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
    directory = artifacts_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{digest}.cnf"
    if not path.exists():
        path.write_text(text, encoding="ascii")
    return path


def parse_solver_output(output: str, num_vars: int) -> tuple[str, list[int]]:
    """Extract the s-line verdict and v-line literals from solver output."""
    status = None
    lits: list[int] = []
    for line in output.splitlines():
        line = line.strip()
        if line.startswith("s "):
            claim = line[2:].strip()
            if claim == "SATISFIABLE":
                verdict = SAT
            elif claim == "UNSATISFIABLE":
                verdict = UNSAT
            else:
                raise AdapterError(f"unrecognized status line {line!r}")
            if status is not None and status != verdict:
                raise AdapterError("contradictory status lines in solver output")
            status = verdict
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    raise AdapterError(f"bad model literal {tok!r}") from None
                if lit == 0:
                    continue
                if abs(lit) > num_vars:
                    raise AdapterError(f"model literal {lit} out of range")
                lits.append(lit)
    if status is None:
        raise AdapterError("solver produced no status line")
    return status, lits


def external_solver_check(formula: CnfFormula, config: SolverAdapterConfig) -> Verdict:
    """Run the external solver; SAT verdicts are accepted only with a model
    that passes local evaluation."""
    path = store_dimacs(formula)
    argv = [
        part.replace("{dimacs}", str(path)) for part in shlex.split(config.command)
    ]
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=config.timeout,
        )
    except subprocess.TimeoutExpired:
        raise AdapterError(
            f"solver timed out after {config.timeout}s on {path}"
        ) from None
    except OSError as exc:
        raise AdapterError(f"cannot run solver: {exc}") from None

    status, lits = parse_solver_output(proc.stdout, formula.num_vars)
    if status == UNSAT:
        return Verdict(UNSAT)
    try:
        witness = model_from_literals(lits, formula.num_vars)
    except ParseError as exc:
        raise AdapterError(str(exc)) from None
    if not evaluate(formula, witness):
        raise AdapterError("solver model fails local evaluation")
    return Verdict(SAT, witness)
