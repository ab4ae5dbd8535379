import hashlib
import re
import sys
from decimal import Decimal

import pytest

from diagforge.cli import entry, main
from diagforge.cnf import CnfFormula, dimacs_dumps
from diagforge.diagonal import classifier_hash
from diagforge.goedel import code as code_of
from diagforge.goedel import parse_formula
from diagforge.machine import parse_asm
from conftest import CERTIFICATE_SHA256, CLASSIFIER_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entry_exits_with_the_command_status(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["diagforge", "demo-minimal"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("status: ok")


def test_demo_minimal_all_tables_fail(capsys):
    code, out, _ = run_cli(capsys, "demo-minimal")
    assert code == 0
    assert "Psi  <->  not (S(Psi) = SAT)" in out
    assert "status: ok tables=4 misclassified=4" in out
    assert "in both branches the verdict contradicts" in out


def test_demo_minimal_space_three(capsys):
    code, out, _ = run_cli(capsys, "demo-minimal", "--space", "3")
    assert code == 0
    assert "status: ok tables=8 misclassified=8" in out


@pytest.mark.parametrize("name", sorted(CERTIFICATE_SHA256))
def test_forge_verify_round_trip(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    cert_path = tmp_path / f"{name}.cert"
    code, out, _ = run_cli(capsys, "forge", str(CLASSIFIER_DIR / f"{name}.asm"), "--out", str(cert_path))
    assert code == 0
    assert out.splitlines()[-1] == f"status: ok certificate={cert_path}"
    # the certificate is forge's only output, and the bytes the benchmark locks
    assert list(tmp_path.iterdir()) == [cert_path]
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == CERTIFICATE_SHA256[name]

    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0
    assert out.splitlines()[-1] == f"status: ok certificate={cert_path}"

    # the forged formula, cut out as README's sed command does (the lines between its
    # markers), has the oracle's verdict under the competition-style solver
    lines = cert_path.read_text().splitlines(keepends=True)
    verdict = next(x for x in lines if x.startswith("oracle-verdict: ")).split()[1]
    dimacs_path = tmp_path / f"{name}.cnf"
    dimacs_path.write_text("".join(lines[lines.index("begin-forged-dimacs\n") + 1 : lines.index("end-forged-dimacs\n")]))
    code, out, _ = run_cli(capsys, "solve", str(dimacs_path))
    assert code == 0
    assert out.splitlines()[-1] == f"status: ok verdict={verdict}"


@pytest.mark.parametrize("name", ["const_sat", "first_byte_zero"])
def test_verify_a_certificate_whose_bound_was_raised_exit_3(capsys, tmp_path, name):
    # the next integer is no bound forge tries: re-deriving psi there fails
    cert_path = tmp_path / "c.cert"
    run_cli(capsys, "forge", str(CLASSIFIER_DIR / f"{name}.asm"), "--out", str(cert_path))
    text = cert_path.read_text()
    bound = int(re.search(r"(?m)^bound-t: (\d+)$", text)[1])
    cert_path.write_text(text.replace(f"\nbound-t: {bound}\n", f"\nbound-t: {bound + 1}\n"))
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 3
    assert out.splitlines()[-1] == "status: verification-failed check=re-derivation"


def test_verify_tampered_certificate_exit_3(capsys, tmp_path):
    cert_path = tmp_path / "c.cert"
    run_cli(
        capsys,
        "forge",
        str(CLASSIFIER_DIR / "const_unsat.asm"),
        "--out",
        str(cert_path),
    )
    text = cert_path.read_text()
    cert_path.write_text(
        text.replace("classifier-verdict: UNSAT", "classifier-verdict: SAT")
    )
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 3
    assert "check=classifier-simulation" in out


def test_verify_non_integer_bound_exit_1(capsys, tmp_path):
    cert_path = tmp_path / "c.cert"
    run_cli(
        capsys,
        "forge",
        str(CLASSIFIER_DIR / "const_unsat.asm"),
        "--out",
        str(cert_path),
    )
    text = cert_path.read_text()
    cert_path.write_text(re.sub(r"(?m)^bound-t: \d+$", "bound-t: four", text))
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 1
    assert "status: error" in err
    assert "bound-t" in err


def test_verify_wrong_magic_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text("diagforge certificate v99\nend-certificate\n")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "magic" in err


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"])
def test_verify_reads_the_exact_bytes_forge_wrote(capsys, tmp_path, line_end):
    cert_path = tmp_path / "c.cert"
    run_cli(capsys, "forge", str(CLASSIFIER_DIR / "const_sat.asm"), "--out", str(cert_path))
    data = cert_path.read_bytes()
    assert b"\r" not in data
    cert_path.write_bytes(data.replace(b"\n", line_end))
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 1
    assert err.splitlines()[-1].startswith("status: error")


def test_memory_past_the_serialized_width_is_a_status_error(capsys, tmp_path):
    wide = tmp_path / "wide.asm"
    wide.write_text(".memory 4294967296\naccept\n")
    code, _, err = run_cli(capsys, "forge", str(wide))
    assert code == 1
    assert err.splitlines()[-1].startswith("status: error")
    # the same .memory line in a certificate's classifier-asm section
    cert_path = tmp_path / "c.cert"
    run_cli(capsys, "forge", str(CLASSIFIER_DIR / "const_sat.asm"), "--out", str(cert_path))
    text = cert_path.read_text()
    assert "begin-classifier-asm\n.registers 1\n.wordbits 16\n.memory 65536\n" in text
    cert_path.write_text(text.replace(".memory 65536", ".memory 4294967296", 1))
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 1
    assert err.splitlines()[-1].startswith("status: error")


@pytest.mark.parametrize("edit", ["hash", "diagonal", "classifier", "registers"])
def test_verify_a_certificate_whose_derived_text_was_edited_exit_1(capsys, tmp_path, edit):
    # the hash line and D are written from the classifier, so any other text fails to load
    cert_path = tmp_path / "c.cert"
    run_cli(capsys, "forge", str(CLASSIFIER_DIR / "const_sat.asm"), "--out", str(cert_path))
    lines = cert_path.read_text().splitlines()
    classifier = lines.index("begin-classifier-asm") + 1
    diagonal = lines.index("begin-diagonal-asm") + 1
    if edit == "hash":
        at = next(i for i, x in enumerate(lines) if x.startswith("classifier-sha256: "))
        lines[at] = "classifier-sha256: " + "0" * 64
    elif edit == "diagonal":
        at = next(i for i, x in enumerate(lines) if i > diagonal and x.startswith("    loadi "))
        lines[at] += "2"
    elif edit == "classifier":
        lines[lines.index("    accept", classifier)] = "    reject"
        at = 1  # the hash line is the first that moves
    else:
        lines[lines.index(".registers 1", classifier)] = ".registers 7"
        sha = classifier_hash(parse_asm("\n".join(lines[classifier : diagonal - 2])))
        lines[1], at = f"classifier-sha256: {sha}", None
    cert_path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 1
    status = err.splitlines()[-1]
    if at is None:
        assert status.startswith("status: error") and "at most 6 registers" in status
    else:
        assert status.startswith(f"status: error line {at + 1}: expected")


def test_forge_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "forge", str(tmp_path / "nope.asm"))
    assert code == 1
    assert "status: error" in err


def test_verify_missing_file_exit_1(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", str(tmp_path / "missing.cert"))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("status: error")


@pytest.mark.parametrize("command", ["verify", "solve", "forge"])
def test_non_text_input_exit_1(capsys, tmp_path, command):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00binary")
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert err.splitlines()[-1].startswith("status: error")


def test_forge_scanning_exit_2_with_transcript(capsys, tmp_path):
    out_path = tmp_path / "scan.transcript"
    code, out, _ = run_cli(
        capsys,
        "forge",
        str(CLASSIFIER_DIR / "scan_all.asm"),
        "--t-cap",
        "256",
        "--out",
        str(out_path),
    )
    assert code == 2
    assert "status: bound-not-found" in out
    text = out_path.read_text()
    assert "diagforge bound-not-found v1" in text
    assert "halted=no" in text
    # stdout echoes the transcript file, then the status line
    assert out == text + f"status: bound-not-found t_cap=256 transcript={out_path}\n"


def _long_classifier(tmp_path):
    """first_byte_zero's test, then 59,995 instructions no run reaches."""
    path = tmp_path / "long.asm"
    path.write_text("loadi r1, 0\nload r0, r1\njz r0, yes\nreject\nyes:\naccept\n" + "loadi r1, 0\n" * 59995)
    return path


@pytest.mark.parametrize(
    "classifier",
    [lambda _: CLASSIFIER_DIR / "parity_first_byte.asm", _long_classifier],
    ids=["parity_first_byte", "60000-instructions"],
)
def test_forge_at_the_default_cap_exit_2(capsys, tmp_path, classifier):
    # parity's D runs past t = 16 and its psi collides with the scratch region from
    # t = 32 on; the long classifier's psi collides at every bound
    out_path = tmp_path / "c.transcript"
    code, out, _ = run_cli(capsys, "forge", str(classifier(tmp_path)), "--out", str(out_path))
    assert code == 2
    assert out == out_path.read_text() + f"status: bound-not-found t_cap={1 << 16} transcript={out_path}\n"


def test_solve_sat_competition_output(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(dimacs_dumps(CnfFormula.of(2, [[1, -2]])))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert "s SATISFIABLE" in out
    assert any(line.startswith("v ") for line in out.splitlines())


def test_solve_out_of_memory_is_a_status_error(capsys, tmp_path):
    # the solver's arrays are sized by the header; allocating them fails at once
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 1000000000000000 0\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert err.splitlines()[-1] == "status: error MemoryError"


def test_solve_unsat_and_exhaustive(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(dimacs_dumps(CnfFormula.of(1, [[1], [-1]])))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0 and "s UNSATISFIABLE" in out
    code, out, _ = run_cli(capsys, "solve", "--exhaustive", str(path))
    assert code == 0 and "s UNSATISFIABLE" in out


def test_diag_lemma_command(capsys, tmp_path):
    out_file = tmp_path / "cert.txt"
    # x free under a quantifier that binds y, too
    for theta in ["~Prov(x)", "forall y. ~Prov((x + y))"]:
        code, out, _ = run_cli(capsys, "diag-lemma", theta, "--out", str(out_file))
        assert code == 0
        assert out.splitlines()[-1].startswith("status: ok")
        assert "status: pass" in out_file.read_text().splitlines()


def test_diag_lemma_closed_formula_exit_1(capsys):
    # and a theta with two free variables
    for theta, found in [("(0 = 0)", []), ("(x = y)", ["x", "y"])]:
        code, _, err = run_cli(capsys, "diag-lemma", theta)
        assert code == 1
        assert err.splitlines()[-1] == f"status: error diagonalize needs exactly one free variable, found {found}"


@pytest.mark.parametrize("theta", ["(" * 1200 + "Prov(x)"], ids=["parens"])
def test_diag_lemma_deep_nesting_exit_1(capsys, theta):
    code, _, err = run_cli(capsys, "diag-lemma", theta)
    assert code == 1
    assert err.splitlines()[-1].startswith("status: error")


def test_diag_lemma_deep_negations_exit_0(capsys):
    code, out, _ = run_cli(capsys, "diag-lemma", "~" * 3000 + "Prov(x)")
    assert code == 0
    assert out.splitlines()[-1].startswith("status: ok psi-code-digits=")


def test_diag_lemma_prints_codes_past_the_int_str_digit_limit(capsys):
    # 450 negations give a psi code of more than 4,300 decimal digits, the
    # default limit of str() on an int
    code, out, _ = run_cli(capsys, "diag-lemma", "~" * 450 + "Prov(x)")
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines()[1:-2])
    digits = fields["psi-code"]
    assert len(digits) > 4300
    assert out.splitlines()[-1] == f"status: ok psi-code-digits={len(digits)}"
    assert code_of(parse_formula(fields["psi"])) == int(Decimal(digits))


def test_matryoshka_command(capsys, tmp_path):
    out_file = tmp_path / "family.txt"
    code, out, _ = run_cli(capsys, "matryoshka", "--count", "5", "--out", str(out_file))
    assert code == 0
    assert "status: ok members=5 distinct-codes=yes" in out
    assert out_file.read_text().count("phi_") == 5


def test_diag_lemma_deep_conjunction_exit_0(capsys):
    theta = "(" * 2000 + "Prov(x)" + " & Prov(0))" * 2000
    code, out, _ = run_cli(capsys, "diag-lemma", theta)
    assert code == 0
    assert out.splitlines()[-1].startswith("status: ok")


@pytest.mark.parametrize("clauses,verdict", [([[1, -2]], "SAT"), ([[1], [-1]], "UNSAT")])
def test_solve_ends_with_its_status_line(capsys, tmp_path, clauses, verdict):
    path = tmp_path / "f.cnf"
    path.write_text(dimacs_dumps(CnfFormula.of(2, clauses)))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert out.splitlines()[-1] == f"status: ok verdict={verdict}"
