"""Tests for the benchmark's own parts: span arithmetic, references, sizes, generators."""

import random
from pathlib import Path

import pytest

import layers
import oracle
from harness import Modules
from spans import Span, Tracer, covered, self_times
from workloads import load_classifiers, random_3cnf, random_image, random_theta

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def mods():
    return Modules()


def test_covered_merges_overlaps():
    assert covered([]) == 0
    assert covered([(1, 4), (3, 6), (8, 9)]) == 6
    assert covered([(1, 6), (2, 3)]) == 5


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] is covered once
        Span("late", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 3, 3])


def test_tracer_records_parents_and_restores():
    class Module:
        @staticmethod
        def outer(n):
            return Module.inner(n) + 1

        @staticmethod
        def inner(n):
            return 0 if n == 0 else Module.inner(n - 1)

    original_outer, original_inner = Module.outer, Module.inner
    tracer = Tracer()
    sites = [(Module, "outer", "m.outer", None), (Module, "inner", "m.inner", lambda r: r)]
    with tracer.installed(sites):
        assert Module.outer(5) == 1
    assert Module.outer is original_outer and Module.inner is original_inner
    # The recursive calls of inner stay inside one span.
    assert [(s.name, s.parent, s.info) for s in tracer.spans] == [("m.outer", -1, None), ("m.inner", 0, 0)]


def test_trials_split_at_each_estimate():
    spans = [
        Span("diagonal.forge", 0.0, 10.0, -1, 0, info=True),
        Span("tableau.estimate_encode", 1.0, 2.0, 0, 0),
        Span("tableau.encode", 2.0, 3.0, 0, 0),
        Span("tableau.estimate_encode", 4.0, 5.0, 0, 0),
    ]
    out = {"diagonal.trials": 0, "closed": 0, "diagonal.wasted_s": 0.0}
    layers._trials(spans, 0, out)
    assert out == {"diagonal.trials": 2, "closed": 1, "diagonal.wasted_s": 3.0}


def test_classifier_references_agree_with_machine(mods):
    programs = load_classifiers(mods, ROOT)
    rng = random.Random(5)
    images = [random_image(rng, size) for size in (6, 40, 300, 2000)]
    images += [oracle.pack_image(v, [(1,), (-1,)]) for v in (0, 1, 2, 7, 256)]
    images.append(oracle.pack_image(1, []))  # empty payload: scan_all's sum is 0, so it accepts
    accepted = set()
    for name, program in programs.items():
        d = mods.diagonal.build_diagonal_program(program, 1)
        for image in images:
            out = mods.machine.run(program, image, 10**6)
            assert ((out.tag == mods.machine.ACCEPT), out.steps_used) == oracle.classify(name, image)
            d_out, _ = mods.machine.run_recording_reads(d, image, 10**6)
            assert ((d_out.tag == mods.machine.ACCEPT), d_out.steps_used) == oracle.diagonal(name, image)
            accepted.add((name, out.tag))
    assert len(accepted) == 8  # both verdicts seen for every classifier but the constants


def test_image_writer_and_size_formula_match_cnf_image(mods):
    rng = random.Random(3)
    clauses = random_3cnf(rng, 30, 90)
    formula = mods.cnf.CnfFormula.of(30, clauses)
    assert oracle.pack_image(30, clauses) == mods.diagonal.cnf_image(formula)
    checked = 0
    for name, program in load_classifiers(mods, ROOT).items():
        d = mods.diagonal.build_diagonal_program(program, 1)
        for t in layers.GRID_BOUNDS:
            formula, _ = mods.tableau.encode(d, (), t)
            size = oracle.image_size(len(formula.clauses), sum(map(len, formula.clauses)))
            try:
                image = mods.diagonal.cnf_image(formula)
            except mods.errors.InputError:
                continue  # past the format's 16-bit caps; the formula still counts
            assert size == len(image)
            checked += 1
    assert checked == 14


def test_small_oracle_agrees_with_exhaustive(mods):
    rng = random.Random(11)
    for n in (3, 6, 10):
        for ratio in (2.0, 4.3, 7.0):
            clauses = random_3cnf(rng, n, round(n * ratio))
            verdict = mods.cnf.solve_exhaustive(mods.cnf.CnfFormula.of(n, clauses))
            assert oracle.is_satisfiable(n, clauses) == (verdict.tag == "SAT")


def test_planted_formulas_are_satisfied_by_their_plant():
    rng = random.Random(2)
    plant = [rng.random() < 0.5 for _ in range(40)]
    assert oracle.satisfies(random_3cnf(rng, 40, 170, plant), plant)


def test_same_tree_handles_deep_terms(mods):
    g = mods.goedel
    psi, _ = g.diagonalize(g.Not(g.Prov(g.Var("x"))))
    assert oracle.same_tree(g.decode(g.code(psi)), psi)
    assert not oracle.same_tree(psi, g.Not(psi))


def test_thetas_have_x_as_their_one_free_variable(mods):
    g = mods.goedel
    rng = random.Random(4)
    thetas = [random_theta(g, rng) for _ in range(300)]
    assert all(g.free_vars(theta) == {"x"} for theta in thetas)
    # Depths 1 to 4 give a spread of sizes, as in the acceptance criterion.
    assert len({len(g.symbol_stream(theta)) for theta in thetas}) > 20
