"""Command line surface.

Exit codes are part of the contract: 0 success, 1 error, 2 no self-consistent
bound found (forge), 3 certificate verification failure.  Every command ends
with a machine-parseable `status:` line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cnf import SAT, dimacs_loads, model_literals, solve_dpll, solve_exhaustive
from .diagonal import (
    BoundNotFound,
    all_tables,
    certificate_dumps,
    certificate_loads,
    finite_fixed_point,
    forge,
    self_describing_space,
    transcript_dumps,
    verify_certificate,
)
from .errors import DiagforgeError
from .goedel import (
    diagonalize,
    format_code,
    format_diagonal_certificate,
    format_formula,
    matryoshka_family,
    parse_formula,
)
from .machine import parse_asm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_NOT_FOUND = 2
EXIT_VERIFY_FAILED = 3


def _cmd_demo_minimal(args) -> int:
    space = self_describing_space(args.space)
    k = len(space.formulas)
    print(f"formula space of {k}:")
    for i, f in enumerate(space.formulas):
        target = space.claim_target(i)
        reading = f"claims: classifier outputs UNSAT on formula {target}"
        print(f"  formula {i}: clauses {[list(c) for c in f.clauses]}  ({reading})")
    print()
    print("fixed point sought: a formula whose claim is about itself, giving")
    print("  Psi  <->  not (S(Psi) = SAT)")
    print()
    misclassified = 0
    total = 0
    case_shown = False
    for table in all_tables(k):
        report = finite_fixed_point(space, table)
        total += 1
        if report.fixed_point_index is None:
            continue
        if not case_shown:
            print(f"fixed point: formula {report.fixed_point_index}")
            for branch in report.case_analysis:
                holds = "holds" if branch.claim_holds else "fails"
                print(
                    f"  assume S(Psi) = {branch.assumed_verdict}: the claim {holds}, "
                    f"so Psi's stipulated status is {branch.stipulated_status}; "
                    f"verdict {'consistent' if branch.consistent else 'contradicts it'}"
                )
            print("  in both branches the verdict contradicts the stipulated status")
            print()
            case_shown = True
        if report.misclassified:
            misclassified += 1
        marks = " ".join(
            f"S({i})={v}" for i, v in enumerate(table.verdicts)
        )
        verdictly = "misclassifies" if report.misclassified else "survives"
        print(f"  table {marks}: {verdictly} the fixed point")
    print()
    ok = misclassified == total
    print(f"status: {'ok' if ok else 'FAIL'} tables={total} misclassified={misclassified}")
    return EXIT_OK if ok else EXIT_ERROR


def _cmd_forge(args) -> int:
    classifier = parse_asm(Path(args.classifier).read_text())
    result = forge(classifier, args.t_cap)
    if isinstance(result, BoundNotFound):
        out = Path(args.out) if args.out else Path(args.classifier).with_suffix(".transcript")
        text = transcript_dumps(result)
        out.write_text(text, encoding="ascii", newline="")
        print(text, end="")
        print(f"status: bound-not-found t_cap={result.t_cap} transcript={out}")
        return EXIT_BOUND_NOT_FOUND

    out = Path(args.out) if args.out else Path(args.classifier).with_suffix(".cert")
    out.write_text(certificate_dumps(result), encoding="ascii", newline="")
    print(f"forged formula: {result.forged.num_vars} vars, {len(result.forged.clauses)} clauses")
    print(f"classifier verdict: {result.classifier_verdict}")
    print(f"oracle verdict:     {result.oracle_verdict.tag}")
    print(f"bound t: {result.bound_t}")
    print(f"status: ok certificate={out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the file's exact bytes: universal newlines would let \r\n or \r line ends pass
    cert = certificate_loads(Path(args.certificate).read_bytes().decode("ascii"))
    check = verify_certificate(cert)
    if check.ok:
        print(f"status: ok certificate={args.certificate}")
        return EXIT_OK
    print(f"status: verification-failed check={check.failed_check}")
    return EXIT_VERIFY_FAILED


def _cmd_solve(args) -> int:
    formula = dimacs_loads(Path(args.dimacs).read_text(encoding="ascii"))
    if args.exhaustive:
        verdict = solve_exhaustive(formula)
    else:
        verdict = solve_dpll(formula)
    print(f"c diagforge solve: {formula.num_vars} vars, {len(formula.clauses)} clauses")
    if verdict.tag == SAT:
        print("s SATISFIABLE")
        lits = model_literals(verdict.witness) + [0]
        for start in range(0, len(lits), 20):
            print("v " + " ".join(map(str, lits[start : start + 20])))
    else:
        print("s UNSATISFIABLE")
    print(f"status: ok verdict={verdict.tag}")
    return EXIT_OK


def _cmd_diag_lemma(args) -> int:
    theta = parse_formula(args.theta)
    psi, cert = diagonalize(theta)
    text = format_diagonal_certificate(cert)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"certificate written to {args.out}")
    else:
        print(text, end="")
    print(f"status: {'ok' if cert.ok else 'FAIL'} psi-code-digits={len(format_code(cert.psi_code))}")
    return EXIT_OK if cert.ok else EXIT_ERROR


def _cmd_matryoshka(args) -> int:
    family = matryoshka_family(args.count)
    codes = []
    lines = []
    for n, psi, cert in family:
        codes.append(cert.psi_code)
        status = "pass" if cert.ok else "fail"
        lines.append(
            f"phi_{n}: certificate {status}, code has {len(format_code(cert.psi_code))} digits"
        )
    distinct = len(set(codes)) == len(codes)
    all_ok = all(cert.ok for _, _, cert in family)
    if args.out:
        out_lines = []
        for n, psi, cert in family:
            out_lines.append(f"phi_{n}: {format_formula(psi)}")
        Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="ascii")
        lines.append(f"family written to {args.out}")
    print("\n".join(lines))
    ok = distinct and all_ok
    print(
        f"status: {'ok' if ok else 'FAIL'} members={len(family)} "
        f"distinct-codes={'yes' if distinct else 'no'}"
    )
    return EXIT_OK if ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagforge",
        description="forge self-referential CNF instances that defeat total classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo-minimal", help="the finite-space case analysis, all tables")
    p.add_argument("--space", type=int, default=2, help="formula space size (default 2)")
    p.set_defaults(func=_cmd_demo_minimal)

    p = sub.add_parser("forge", help="forge a misclassified instance for a classifier")
    p.add_argument("classifier", help="classifier assembly file")
    p.add_argument("--t-cap", type=int, default=1 << 16, help="bound search cap")
    p.add_argument("--out", help="certificate (or transcript) output path")
    p.set_defaults(func=_cmd_forge)

    p = sub.add_parser("verify", help="re-check a certificate from scratch")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="solve a DIMACS file, competition-style output")
    p.add_argument("dimacs")
    p.add_argument("--exhaustive", action="store_true", help="use the enumeration oracle")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("diag-lemma", help="diagonal fixed point of a formula text")
    p.add_argument("theta", help="formula with one free variable, e.g. '~Prov(x)'")
    p.add_argument("--out", help="write the certificate to a file")
    p.set_defaults(func=_cmd_diag_lemma)

    p = sub.add_parser("matryoshka", help="the nested sentence family")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--out", help="write the family to a file")
    p.set_defaults(func=_cmd_matryoshka)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DiagforgeError, OSError, UnicodeDecodeError, MemoryError) as exc:
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        print(f"status: error {message}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
