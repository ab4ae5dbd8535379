"""Per-layer metrics: where the traced run wraps each layer, and what it reports.

The layer names are diagforge's modules.  Most numbers come from spans;
a few come from small fixed probes and from the tableau size grid, which is
computed once per run outside the timed rounds.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import oracle
from harness import median
from spans import self_times
from workloads import load_classifiers

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    (m["name"], m["unit"])
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
]

GRID_BOUNDS = (8, 16, 32)
MACHINE_SPANS = ("machine.run", "machine.run_recording_reads")


def _steps(outcome):
    return outcome.steps_used


def _encode_size(result):
    formula = result[0]
    return formula.num_vars, len(formula.clauses), sum(map(len, formula.clauses))


def trace_sites(m):
    """(module, attribute, span name, measure) for every call site the benchmark wraps.

    `diagonal` imported its tableau, machine and cnf functions by name, so
    those are wrapped on `diagonal` as well as on their own modules.
    """
    layer_functions = [
        ("tableau", "encode", _encode_size),
        ("tableau", "estimate_encode", lambda est: est[1]),
        ("machine", "run", _steps),
        ("machine", "run_recording_reads", lambda result: result[0].steps_used),
        ("cnf", "solve_dpll", None),
        ("cnf", "solve_exhaustive", None),
    ]
    sites = []
    for module, attr, measure in layer_functions:
        sites.append((getattr(m, module), attr, f"{module}.{attr}", measure))
        if hasattr(m.diagonal, attr):
            sites.append((m.diagonal, attr, f"{module}.{attr}", measure))
    sites += [
        (m.diagonal, "forge", "diagonal.forge", lambda result: hasattr(result, "forged")),
        (m.diagonal, "verify_certificate", "diagonal.verify_certificate", None),
        (m.diagonal, "certificate_dumps", "diagonal.certificate_dumps", len),
        (m.diagonal, "certificate_loads", "diagonal.certificate_loads", None),
        (m.diagonal, "cnf_image", "diagonal.cnf_image", None),
        (m.goedel, "diagonalize", "goedel.diagonalize", lambda result: result[1].psi_code.bit_length()),
        (m.goedel, "matryoshka_family", "goedel.matryoshka_family", None),
        (m.goedel, "code", "goedel.code", None),
        (m.goedel, "decode", "goedel.decode", None),
        (m.goedel, "subst", "goedel.subst", None),
        (m.goedel, "self_subst", "goedel.self_subst", None),
    ]
    return sites


def grid(m, root) -> dict[tuple[str, int], tuple[int, int]]:
    """(classifier, t) -> (image bytes, clauses) for each D encoded unpinned."""
    cells = {}
    for name, program in load_classifiers(m, root).items():
        d = m.diagonal.build_diagonal_program(program, 1)
        for t in GRID_BOUNDS:
            formula, _ = m.tableau.encode(d, (), t)
            literals = sum(map(len, formula.clauses))
            cells[(name, t)] = (oracle.image_size(len(formula.clauses), literals), len(formula.clauses))
    return cells


def probes(m, root) -> dict:
    """Fixed measurements every traced run repeats, whatever the workload."""
    one_step = m.machine.Program((m.machine.HALT_ACCEPT,), register_count=1)
    times = []
    for _ in range(41):
        start = time.perf_counter()
        m.machine.run(one_step, b"", 1)
        times.append(time.perf_counter() - start)
    d = m.diagonal.build_diagonal_program(load_classifiers(m, root)["scan_all"], 1)
    estimated = m.tableau.estimate_encode(d, 0, 8)[1]
    actual = len(m.tableau.encode(d, (), 8)[0].clauses)
    return {
        "machine.short_run_s": median(times),
        "tableau.estimate_over_actual": estimated / actual,
        "estimate_base": f"{estimated} / {actual} clauses, scan_all's D at t=8",
    }


def _round_metrics(spans, selfs, parents, rnd) -> dict[str, float]:
    """Per-layer figures of one traced round.

    spans are that round's spans in start order, selfs their self times and
    parents the names of their enclosing spans.
    """
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[f"{s.name.split('.')[0]}.self_s"] += selfs[i]
        if s.name in MACHINE_SPANS and parents[i] not in MACHINE_SPANS:
            out["machine.calls"] += 1
            out["machine.steps"] += s.info or 0
            out["machine.busy_s"] += s.duration
        elif s.name == "tableau.encode":
            out["tableau.encode_calls"] += 1
            out["tableau.encode_s"] += s.duration
            for key, value in zip(("vars", "clauses", "literals"), s.info or (0, 0, 0)):
                out[f"tableau.{key}"] += value
        elif s.name == "tableau.estimate_encode":
            out["tableau.estimate_calls"] += 1
            out["tableau.estimate_s"] += s.duration
        elif s.name == "diagonal.cnf_image":
            out["diagonal.cnf_image_calls"] += 1
            out["diagonal.cnf_image_s"] += s.duration
        elif s.name == "diagonal.certificate_dumps":
            out["diagonal.certificate_bytes"] += s.info or 0
            out["diagonal.cert_io_s"] += s.duration
        elif s.name == "diagonal.certificate_loads":
            out["diagonal.cert_io_s"] += s.duration
        elif s.name == "cnf.solve_dpll":
            out["cnf.dpll_calls"] += 1
            out["cnf.dpll_s"] += s.duration
        elif s.name == "cnf.solve_exhaustive":
            out["cnf.exhaustive_calls"] += 1
            out["cnf.exhaustive_s"] += s.duration
        elif s.name == "goedel.diagonalize":
            out["goedel.diagonalize_calls"] += 1
            out["goedel.code_bits"] += s.info or 0
        elif s.name in ("goedel.code", "goedel.decode", "goedel.subst", "goedel.self_subst"):
            out[f"{s.name}_s"] += s.duration
        elif s.name == "diagonal.forge":
            _trials(spans, i, out)
    out["machine.steps_per_s"] = out["machine.steps"] / out["machine.busy_s"] if out["machine.busy_s"] else 0.0
    out["diagonal.closed_trial_frac"] = out.pop("closed", 0.0) / out["diagonal.trials"] if out["diagonal.trials"] else 0.0
    for op, seconds in rnd.ops.items():
        kind, _, name = op.partition(".")
        if kind in ("forge", "verify"):
            out[f"diagonal.{kind}_s.{name}"] = seconds
        elif kind == "rung":
            out[f"cnf.rung_s.{name}"] = seconds
    out["cnf.timeouts"] = len(rnd.timed_out)
    out["trace.spans"] = len(spans)
    return out


def _trials(spans, i, out) -> None:
    """Split one forge span into trials: each estimate_encode call opens one."""
    forge = spans[i]
    starts = []
    j = i + 1
    while j < len(spans) and spans[j].start < forge.end:
        if spans[j].name == "tableau.estimate_encode":
            starts.append(spans[j].start)
        j += 1
    ends = starts[1:] + [forge.end]
    durations = [end - start for start, end in zip(starts, ends)]
    closed = bool(forge.info) and bool(durations)
    out["diagonal.trials"] += len(durations)
    out["closed"] += closed
    out["diagonal.wasted_s"] += sum(durations[:-1] if closed else durations)


def per_layer(tracer, traced_rounds, overhead_s, probe, cells) -> dict[str, float]:
    """Median over traced rounds of each round's figures, plus probes and the grid."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_round = defaultdict(lambda: ([], [], []))
    for s, self_s in zip(spans, selfs):
        group = by_round[s.round]
        group[0].append(s)
        group[1].append(self_s)
        group[2].append(spans[s.parent].name if s.parent >= 0 else None)
    rounds = [_round_metrics(*by_round[k], rnd) for k, rnd in enumerate(traced_rounds)]
    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = median([r.get(name, 0.0) for r in rounds])
    metrics["machine.short_run_s"] = probe["machine.short_run_s"]
    metrics["tableau.estimate_over_actual"] = probe["tableau.estimate_over_actual"]
    for (name, t), (size, clauses) in cells.items():
        metrics[f"tableau.grid.{name}.t{t}.image_bytes"] = size
        metrics[f"tableau.grid.{name}.t{t}.clauses"] = clauses
    metrics["trace.overhead_s"] = overhead_s
    return metrics
