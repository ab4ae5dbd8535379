"""The four workloads.

Each workload builds its inputs from the seed in its constructor (which is
what set-up time measures).  `references()`, called once after set-up and
outside its timing, works out the answers the checks compare against.  Then
the workload runs rounds.  A round times every operation through a Meter and
checks every output against `oracle` or against expected.json, never against
diagforge alone.  Timed calls look the layer functions up on their modules
at call time, so a traced run sees them; checks use references taken at
set-up, so they stay out of the trace.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import oracle
from harness import TIMED_OUT, Round, median

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

CLASSIFIERS = ("const_sat", "const_unsat", "first_byte_zero", "parity_first_byte", "scan_all")


def load_classifiers(mods, root: Path) -> dict:
    return {
        name: mods.machine.parse_asm((root / "classifiers" / f"{name}.asm").read_text())
        for name in CLASSIFIERS
    }


class ForgeSuite:
    """forge then verify every shipped classifier at the CLI's default t_cap."""

    name = "forge-suite"
    phases = ("forge_s", "verify_s")

    def __init__(self, mods, root: Path, seed: int):
        self.m = mods
        self.programs = load_classifiers(mods, root)
        self.t_cap = EXPECTED["forge"]["t_cap"]
        self.expected = EXPECTED["forge"]["outcomes"]
        self.dumps = mods.diagonal.certificate_dumps
        self.certificate_type = mods.diagonal.MisclassificationCertificate

    def references(self) -> None:
        """Nothing to prepare: the outcomes and hashes are in expected.json."""

    def round(self, meter) -> Round:
        r = Round()
        d = self.m.diagonal
        certs = {}
        for name, program in self.programs.items():
            result, raw, scaled = meter.run(d.forge, program, self.t_cap)
            r.timed("forge_s", f"forge.{name}", raw, scaled)
            if r.check(self._forge_ok(name, result), f"forge {name}"):
                if isinstance(result, self.certificate_type):
                    certs[name] = result
        for name, cert in certs.items():
            (text, loaded, verdict), raw, scaled = meter.run(self._verify_path, cert)
            r.timed("verify_s", f"verify.{name}", raw, scaled)
            ok = (
                verdict.ok
                and hashlib.sha256(text.encode()).hexdigest() == self.expected[name]["sha256"]
                and self.dumps(loaded) == text
            )
            r.solved += r.check(ok, f"verify {name}")
        return r

    def _verify_path(self, cert):
        """What `diagforge verify` does with a certificate file's text."""
        d = self.m.diagonal
        text = d.certificate_dumps(cert)
        loaded = d.certificate_loads(text)
        return text, loaded, d.verify_certificate(loaded)

    def _forge_ok(self, name: str, result) -> bool:
        if not isinstance(result, self.certificate_type):
            return (
                self.expected[name]["outcome"] == "bound-not-found"
                and result.t_cap == self.t_cap
                and result.transcript[-1].t <= self.t_cap < 2 * result.transcript[-1].t
            )
        if self.expected[name]["outcome"] != "certificate":
            return False
        forged = result.forged
        accepts, _ = oracle.classify(name, oracle.pack_image(forged.num_vars, forged.clauses))
        classifier_verdict = "SAT" if accepts else "UNSAT"
        if result.classifier_verdict != classifier_verdict:
            return False
        if result.oracle_verdict.tag == classifier_verdict:
            return False
        witness = result.oracle_verdict.witness
        return witness is None or oracle.satisfies(forged.clauses, witness.values)


class SolverLadder:
    """Fixed rungs for solve_dpll, and near-cap rungs for solve_exhaustive."""

    name = "solver-ladder"
    phases = ("ladder_s",)
    # A rung still running after its cap, in seconds at the reference speed,
    # is stopped and charged the cap.
    # scan_all's rungs decide in about 25 ms up to t = 20 and run past 10 s
    # from t = 21 on, so their cap is 4x the t = 20 rung and the two rungs
    # past the cliff add a small constant to ladder_s.  The other rungs never
    # came near a second; their cap only guards against a hang.
    CLIFF_CAP_S = 0.1
    RUNG_CAP_S = 1.0
    SCAN_BOUNDS = (16, 18, 20, 22, 24)
    PARITY_RUNGS = (("t32", (), 32), ("t64", (), 64), ("t32.pin8", ((0, 8),), 32), ("t32.pin9", ((0, 9),), 32))
    RANDOM_VARS, RANDOM_RATIO, RANDOM_RUNGS = 80, 4.26, 3
    EXHAUSTIVE = ((24, 7.0), (25, 7.0))
    # Random rungs draw a fresh formula each round from a pool of this many,
    # so a run's median samples the distribution rather than one draw of it.
    # Their solve times are heavy-tailed (a median near 20 ms, draws past
    # 300 ms).  40 is more than the rounds of a 20 s run; on seeds 21 to 25
    # it cut the IQR/median of ladder_s from 9.4% with a pool of 12 to 4.3%.
    POOL = 40

    def __init__(self, mods, root: Path, seed: int):
        self.m = mods
        rng = random.Random(f"solver-ladder/{seed}")
        programs = load_classifiers(mods, root)
        build = mods.diagonal.build_diagonal_program
        scan = build(programs["scan_all"], 1)
        parity = build(programs["parity_first_byte"], 1)
        encode = mods.tableau.encode
        expected = EXPECTED["ladder"]["verdicts"]
        # Each rung: (name, solver attribute, cap, [(formula, layout, expected verdict)] pool)
        self.rungs = []
        for t in self.SCAN_BOUNDS:
            name = f"scan_all.t{t}"
            self.rungs.append((name, "solve_dpll", self.CLIFF_CAP_S, [encode(scan, (), t) + (expected[name],)]))
        for suffix, pins, t in self.PARITY_RUNGS:
            name = f"parity_first_byte.{suffix}"
            self.rungs.append((name, "solve_dpll", self.RUNG_CAP_S, [encode(parity, pins, t) + (expected[name],)]))
        formula = mods.cnf.CnfFormula.of
        n = self.RANDOM_VARS
        for k in range(self.RANDOM_RUNGS):
            pool = []
            for _ in range(self.POOL):
                # A planted model makes SAT known without a solver.
                planted = [rng.random() < 0.5 for _ in range(n)]
                pool.append((formula(n, random_3cnf(rng, n, round(n * self.RANDOM_RATIO), planted)), None, "SAT"))
            self.rungs.append((f"random3.n{n}.{k}", "solve_dpll", self.RUNG_CAP_S, pool))
        self.near_cap = []  # the near-cap rungs' clauses, for references()
        for n, ratio in self.EXHAUSTIVE:
            clauses = [random_3cnf(rng, n, round(n * ratio)) for _ in range(self.POOL)]
            pool = [(formula(n, c), None, None) for c in clauses]
            self.rungs.append((f"exhaustive.n{n}", "solve_exhaustive", self.RUNG_CAP_S, pool))
            self.near_cap.append((n, clauses, pool))
        self.decode_witness = mods.tableau.decode_witness
        self.errors = mods.errors.DiagforgeError
        self.rounds = 0

    def references(self) -> None:
        """The near-cap rungs' verdicts, from the benchmark's own small DPLL."""
        for n, clauses, pool in self.near_cap:
            for k, c in enumerate(clauses):
                pool[k] = pool[k][:2] + ("SAT" if oracle.is_satisfiable(n, c) else "UNSAT",)

    def round(self, meter) -> Round:
        r = Round()
        cnf = self.m.cnf
        for name, solver, cap, pool in self.rungs:
            formula, layout, expected = pool[self.rounds % len(pool)]
            verdict, raw, scaled = meter.run(getattr(cnf, solver), formula, cap=cap)
            r.timed("ladder_s", f"rung.{name}", raw, scaled)
            if verdict is TIMED_OUT:
                r.timed_out.append(name)
                r.capped_s += cap
                continue
            r.solved += r.check(self._rung_ok(verdict, formula, layout, expected), f"rung {name}")
        self.rounds += 1
        return r

    def notes(self, rounds) -> list[str]:
        """Report lines: each rung's median time, and the share of ladder_s the charged caps make."""
        lines = []
        for name, _, cap, _ in self.rungs:
            times = [r.ops[f"rung.{name}"] for r in rounds]
            timed_out = sum(name in r.timed_out for r in rounds)
            lines.append(f"rung {name:<32} median {median(times) * 1000:9.2f} ms raw  ({timed_out} of {len(times)} at the cap)")
        capped = median([r.capped_s for r in rounds])
        share = capped / median([r.total_s for r in rounds])
        lines.append(f"charged caps: {capped:g} s per round, {share:.1%} of the round_s median")
        return lines

    def _rung_ok(self, verdict, formula, layout, expected) -> bool:
        if verdict.tag != expected:
            return False
        if verdict.tag == "UNSAT":
            return True
        if not oracle.satisfies(formula.clauses, verdict.witness.values):
            return False
        if layout is not None:
            try:
                self.decode_witness(layout, verdict.witness)
            except self.errors:
                return False
        return True


def random_3cnf(rng: random.Random, n: int, m: int, planted=None) -> list[tuple[int, ...]]:
    """m clauses of 3 distinct variables; with `planted`, only clauses it satisfies."""
    clauses = []
    while len(clauses) < m:
        a, b, c = rng.randrange(n) + 1, rng.randrange(n) + 1, rng.randrange(n) + 1
        if a == b or a == c or b == c:
            continue
        signs = rng.getrandbits(3)
        clause = (-a if signs & 1 else a, -b if signs & 2 else b, -c if signs & 4 else c)
        if planted is None or any(planted[abs(l) - 1] == (l > 0) for l in clause):
            clauses.append(clause)
    return clauses


class Simulate:
    """Every classifier and every D on a seeded corpus of CNF images."""

    name = "simulate"
    phases = ("classify_s",)
    IMAGES = 12
    SMALLEST, LARGEST = 40, 0xEF00
    FUEL = 2_000_000

    def __init__(self, mods, root: Path, seed: int):
        self.m = mods
        rng = random.Random(f"simulate/{seed}")
        programs = load_classifiers(mods, root)
        build = mods.diagonal.build_diagonal_program
        self.programs = [(name, p, build(p, 1)) for name, p in programs.items()]
        # Sizes follow a fixed geometric scale, so every seed has the same
        # spread of sizes and the same total; the contents are random.
        step = (self.LARGEST / self.SMALLEST) ** (1 / (self.IMAGES - 1))
        self.images = [random_image(rng, int(self.SMALLEST * step**k)) for k in range(self.IMAGES)]
        self.accept = mods.machine.ACCEPT

    def references(self) -> None:
        """(accepts, steps) of every classifier and every D on every image, read in pure Python."""
        self.expected = [
            [(oracle.classify(name, image), oracle.diagonal(name, image)) for name, _, _ in self.programs]
            for image in self.images
        ]

    def round(self, meter) -> Round:
        r = Round()
        for k, (image, expect) in enumerate(zip(self.images, self.expected)):
            outcomes, raw, scaled = meter.run(self._run_all, image)
            r.timed("classify_s", f"image.{k}", raw, scaled)
            for (name, _, _), (c_out, d_out), (c_ref, d_ref) in zip(self.programs, outcomes, expect):
                for outcome, (accepts, steps), who in ((c_out, c_ref, name), (d_out, d_ref, f"D({name})")):
                    ok = (outcome.tag == self.accept) == accepts and outcome.steps_used == steps
                    r.solved += r.check(ok, f"{who} on image {k}")
        return r

    def _run_all(self, image):
        machine = self.m.machine
        return [
            (machine.run(c, image, self.FUEL), machine.run_recording_reads(d, image, self.FUEL)[0])
            for _, c, d in self.programs
        ]


def random_image(rng: random.Random, target_bytes: int) -> bytes:
    """A well-formed CNF image of about target_bytes bytes (at least 6)."""
    num_vars = rng.randrange(1, 1 << 15)
    clauses = []
    size = oracle.image_size(0, 0)
    while True:
        width = rng.randrange(1, 6)
        if size + 2 * (width + 1) > target_bytes:
            break
        clauses.append(tuple(rng.randrange(1, num_vars + 1) * rng.choice((1, -1)) for _ in range(width)))
        size += 2 * (width + 1)
    return oracle.pack_image(num_vars, clauses)


class Goedel:
    """Seeded single-free-variable thetas through diagonalize, plus matryoshka_family(50)."""

    name = "goedel"
    phases = ("diagonalize_s",)
    # The thetas are drawn as the diagonal-lemma acceptance criterion draws
    # its 200 (see random_theta), after the CLI's example '~Prov(x)'.  One
    # diagonalize costs about 1 ms with a coefficient of variation of 0.75
    # over that distribution; resampling 2000 measured costs puts the
    # seed-to-seed IQR/median of a round's work at 6.5% for 200 draws and
    # 3.2% for 1000.
    THETAS, CHUNK = 1000, 40
    FAMILY = 50

    def __init__(self, mods, root: Path, seed: int):
        self.m = mods
        rng = random.Random(f"goedel/{seed}")
        g = mods.goedel
        cli_example = g.Not(g.Prov(g.Var("x")))
        self.thetas = [cli_example] + [random_theta(g, rng) for _ in range(self.THETAS - 1)]
        self.code, self.decode = g.code, g.decode
        self.verified = {}  # output name -> code of the fixed point that passed the full check

    def references(self) -> None:
        """Nothing to prepare: a fixed point is checked against its own certificate and code."""

    def round(self, meter) -> Round:
        r = Round()
        g = self.m.goedel
        for start in range(0, self.THETAS, self.CHUNK):
            chunk = self.thetas[start : start + self.CHUNK]
            results, raw, scaled = meter.run(lambda: [g.diagonalize(t) for t in chunk])
            r.timed("diagonalize_s", f"diagonalize.{start // self.CHUNK}", raw, scaled)
            for k, (psi, cert) in enumerate(results):
                r.solved += r.check(self._fixed_point_ok(f"theta {start + k}", psi, cert), f"theta {start + k}")
        family, raw, scaled = meter.run(g.matryoshka_family, self.FAMILY)
        r.timed("diagonalize_s", "matryoshka", raw, scaled)
        for n, psi, cert in family:
            r.solved += r.check(self._fixed_point_ok(f"matryoshka {n}", psi, cert), f"matryoshka {n}")
        r.check(len({cert.psi_code for _, _, cert in family}) == self.FAMILY, "matryoshka codes distinct")
        return r

    def _fixed_point_ok(self, name, psi, cert) -> bool:
        """The first time, decode(code(psi)) must equal psi; after that, code(psi) must equal that checked code.

        The inputs are the same every round, so the later comparison is as
        strong a check and also checks that diagonalize is deterministic.  It
        costs a sixth of the round trip, and keeps integers rather than syntax
        trees alive between rounds, which would slow the garbage collector
        inside the timed calls.
        """
        if not (cert.ok and cert.psi is psi):
            return False
        psi_code = self.code(psi)
        if name in self.verified:
            return psi_code == self.verified[name]
        if not oracle.same_tree(self.decode(psi_code), psi):
            return False
        self.verified[name] = psi_code
        return True


THETA_VARS = ("x", "y", "z_1")


def random_theta(g, rng: random.Random):
    """A random formula whose only free variable is x.

    The distribution is that of the diagonal-lemma acceptance criterion:
    depth 1 to 4 over the variables x, y and z_1, leaves zero, a numeral
    below 10 or a variable, and a draw kept only when x is its one free
    variable.  The free variables are tracked here rather than asked of
    `goedel`.
    """

    def term(depth):
        if depth == 0:
            leaf = rng.randrange(3)
            if leaf < 2:
                return (g.Zero if leaf == 0 else g.numeral(rng.randrange(10))), frozenset()
            v = rng.choice(THETA_VARS)
            return g.Var(v), frozenset((v,))
        op = rng.randrange(6)
        if op in (3, 4):
            (a, fa), (b, fb) = term(depth - 1), term(depth - 1)
            return (g.Plus if op == 3 else g.Times)(a, b), fa | fb
        a, fa = term(depth - 1)
        return {0: g.D0, 1: g.D1, 2: g.Succ, 5: g.Diag}[op](a), fa

    def formula(depth):
        if depth == 0:
            if rng.random() < 0.5:
                (a, fa), (b, fb) = term(rng.randrange(2)), term(rng.randrange(2))
                return g.Eq(a, b), fa | fb
            a, fa = term(rng.randrange(2))
            return g.Prov(a), fa
        op = rng.randrange(6)
        if op == 0:
            a, fa = formula(depth - 1)
            return g.Not(a), fa
        if op < 4:
            (a, fa), (b, fb) = formula(depth - 1), formula(depth - 1)
            return (g.And, g.Or, g.Implies)[op - 1](a, b), fa | fb
        v = rng.choice(THETA_VARS)
        a, fa = formula(depth - 1)
        return (g.ForAll if op == 4 else g.Exists)(v, a), fa - {v}

    while True:
        theta, free = formula(rng.randrange(1, 5))
        if free == {"x"}:
            return theta


WORKLOADS = {w.name: w for w in (ForgeSuite, SolverLadder, Simulate, Goedel)}
