"""diagforge: self-referential CNF instances that defeat total SAT classifiers.

The pipeline, bottom to top:

- `cnf`: formulas, two independent solvers, DIMACS interchange.
- `machine`: a small register machine with a quine instruction and a
  canonical injective serialization.
- `tableau`: compiles "program accepts within t steps" to CNF and decodes
  satisfying assignments back to execution traces.
- `goedel`: first-order arithmetic syntax, numeric coding, the diagonal
  fixed-point construction, and the nested sentence family.
- `diagonal`: the constructive core; forges, for a given total classifier, an
  instance the classifier misclassifies, with a re-checkable certificate.
- `cli`: the command line surface.
"""

from .cnf import (
    SAT,
    UNSAT,
    Assignment,
    CnfFormula,
    Verdict,
    dimacs_dumps,
    dimacs_loads,
    evaluate,
    solve_dpll,
    solve_exhaustive,
)
from .diagonal import (
    BoundNotFound,
    ClassifierTable,
    FiniteSpace,
    MisclassificationCertificate,
    build_diagonal_program,
    certificate_dumps,
    certificate_loads,
    cnf_from_image,
    cnf_image,
    finite_fixed_point,
    forge,
    self_describing_space,
    verify_certificate,
)
from .goedel import (
    DiagonalCertificate,
    Formula,
    Term,
    code,
    decode,
    diagonalize,
    matryoshka_family,
    numeral,
    self_subst,
)
from .machine import (
    Config,
    Instruction,
    Program,
    RunOutcome,
    deserialize,
    format_asm,
    parse_asm,
    run,
    serialize,
    step,
)
from .tableau import TableauLayout, Trace, decode_witness, encode

__all__ = [
    "SAT",
    "UNSAT",
    "Assignment",
    "BoundNotFound",
    "ClassifierTable",
    "CnfFormula",
    "Config",
    "DiagonalCertificate",
    "FiniteSpace",
    "Formula",
    "Instruction",
    "MisclassificationCertificate",
    "Program",
    "RunOutcome",
    "TableauLayout",
    "Term",
    "Trace",
    "Verdict",
    "build_diagonal_program",
    "certificate_dumps",
    "certificate_loads",
    "cnf_from_image",
    "cnf_image",
    "code",
    "decode",
    "decode_witness",
    "deserialize",
    "diagonalize",
    "dimacs_dumps",
    "dimacs_loads",
    "encode",
    "evaluate",
    "finite_fixed_point",
    "forge",
    "format_asm",
    "matryoshka_family",
    "numeral",
    "parse_asm",
    "run",
    "self_describing_space",
    "self_subst",
    "serialize",
    "solve_dpll",
    "solve_exhaustive",
    "step",
    "verify_certificate",
]

__version__ = "0.1.0"
