"""diagforge benchmark: one closed-loop client, one process, no extra threads.

    python3 perfbench/run.py --workload forge-suite --seed 1 --seconds 20 --trace 0

Workloads: forge-suite, solver-ladder, simulate, goedel (or `all`, which runs
the four in turn).  Run from the root of a diagforge checkout; the program is
imported from its src/ directory.  With --trace 0 the last line of output is
a JSON object carrying the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run, and the spans are written under
perfbench/out/.  Every line before it is the readable report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# String hashing decides dict layout and so moves timings from one process
# to the next; the benchmark fixes it.
HASH_SEED = "0"
TRACED_SHARE = 0.6  # of --seconds, in a traced run; the rest runs untraced


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from harness import MIN_ROUNDS, REFERENCE_NOMINAL_S, SETUP_MIN_S, SETUP_REPEATS, Meter, Modules, median, reference_seconds
    from spans import Tracer

    setup = []

    def set_up():
        before = reference_seconds()
        start = time.perf_counter()
        mods = Modules()
        wl = workload(mods, ROOT, seed)
        raw = time.perf_counter() - start
        setup.append(raw * REFERENCE_NOMINAL_S * 2 / (before + reference_seconds()))
        return mods, wl, raw

    mods, wl, spent = set_up()
    wl.references()
    cells = layers.grid(mods, ROOT)

    meter = Meter()
    warm_up = wl.round(meter)

    def loop(budget, tracer=None):
        done = []
        deadline = time.perf_counter() + budget
        while len(done) < MIN_ROUNDS or time.perf_counter() < deadline:
            gc.collect()
            if tracer is not None:
                tracer.round = len(done)
            done.append(wl.round(meter))
        return done

    result = {"workload": wl, "setup": setup, "cells": cells}
    if not trace:
        result["rounds"] = loop(seconds)
        result["checked"] = [warm_up] + result["rounds"]
    else:
        plain = loop(seconds * (1 - TRACED_SHARE))
        tracer = Tracer()
        with tracer.installed(layers.trace_sites(mods)):
            traced = loop(seconds * TRACED_SHARE, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
        overhead = median([r.total_s for r in traced]) - median([r.total_s for r in plain])
        probe = layers.probes(mods, ROOT)
        result.update(
            rounds=plain,
            checked=[warm_up] + plain + traced,
            layers=layers.per_layer(tracer, traced, overhead, probe, cells),
            probe=probe,
            tracer=tracer,
        )
    # The other set-ups come after the rounds.  Each one imports diagforge
    # afresh; run before the rounds, seventy such imports left the reference
    # loop a third slower and so moved round_s by a tenth.
    while len(setup) < SETUP_REPEATS or spent < SETUP_MIN_S:
        spent += set_up()[2]
    return result


def report(result: dict, trace: bool) -> tuple[dict, int, int]:
    """Print the readable report; return (metrics for the JSON line, attempted, failed)."""
    import layers
    from harness import describe, median
    from spans import self_times

    wl, rounds, checked = result["workload"], result["rounds"], result["checked"]
    attempted = sum(r.attempted for r in checked)
    failures = [f for r in checked for f in r.failures]
    image_bytes = sum(size for size, _ in result["cells"].values())
    solved = median([r.solved for r in rounds])
    print(f"== {wl.name}: {len(rounds)} timed rounds after one warm-up round")
    for phase in wl.phases:
        print("  " + describe(phase, [r.phases[phase] for r in rounds], "s"))
    print("  " + describe("round_s", [r.total_s for r in rounds], "s"))
    print("  " + describe("round_raw_s (unscaled)", [r.raw_s for r in rounds], "s"))
    print("  " + describe("setup_s", result["setup"], "s"))
    for line in getattr(wl, "notes", lambda rounds: [])(rounds):
        print("  " + line)
    named_count = {"forge-suite": "classifiers_defeated", "solver-ladder": "rungs_solved"}.get(wl.name, "solved")
    print(f"  {named_count:<24} {solved:g} count per round")
    print(f"  {'tableau_image_bytes':<24} {image_bytes} bytes")
    print(f"  {'failed_frac':<24} {len(failures) / attempted:g} ({len(failures)} of {attempted} operations)")
    for f in failures[:10]:
        print(f"    failed: {f}")
    if not trace:
        metrics = {
            "round_s": (median([r.total_s for r in rounds]), "s"),
            "setup_s": (median(result["setup"]), "s"),
            "solved": (solved, "count"),
            "tableau_image_bytes": (image_bytes, "bytes"),
        }
        return metrics, attempted, len(failures)
    values = result["layers"]
    print(f"  per-layer, median over {len(result['checked']) - len(rounds) - 1} traced rounds:")
    metrics = {}
    for name, unit in layers.PER_LAYER:
        metrics[name] = (values[name], unit)
        extra = f"  ({result['probe']['estimate_base']})" if name == "tableau.estimate_over_actual" else ""
        print(f"    {name:<52} {values[name]:.6g} {unit}{extra}")
    print("  self time by span, all traced rounds (total s, self s, calls):")
    spans = result["tracer"].spans
    totals: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, [0.0, 0.0, 0])
        t[0] += s.duration
        t[1] += own
        t[2] += 1
    for name, (total, own, calls) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"    {name:<36} {total:10.4f} {own:10.4f} {calls:8d}")
    return metrics, attempted, len(failures)


def main(argv=None) -> int:
    from_args = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    from_args.add_argument("--workload", required=True)
    from_args.add_argument("--seed", type=int, required=True)
    from_args.add_argument("--seconds", type=float, required=True)
    from_args.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = from_args.parse_args(argv)

    src = ROOT / "src"
    if not (src / "diagforge" / "__init__.py").is_file() or not (ROOT / "classifiers").is_dir():
        print(f"error: no diagforge checkout around {HERE} (need src/diagforge and classifiers/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    watched = {d: tree_digest(ROOT / d) for d in ("src", "classifiers")}
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        m, a, f = report(result, bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        attempted += a
        failed += f
    untouched = all(tree_digest(ROOT / d) == digest for d, digest in watched.items())
    if not untouched:
        print("  failed: the run changed files under src/ or classifiers/")
    print(json.dumps({"correct": failed == 0 and untouched, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.pycache_prefix = str(OUT / "pycache")
    sys.exit(main())
