"""Timing, the round loop and the report.

Timings are taken on a shared host whose speed moves by more than a tenth
from one second to the next.  Every timed operation is therefore followed by
a short fixed reference computation, and the operation's time is scaled by
REFERENCE_NOMINAL_S over the mean reference time measured around it.  The
scaled value is "seconds at the reference speed"; the raw wall time is
reported beside it.
"""

from __future__ import annotations

import gc
import importlib
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

REFERENCE_NOMINAL_S = 0.006
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S of
# wall time, and setup_s is the median: a set-up of 60 ms repeats some 70
# times, one of 600 ms seven times.
SETUP_REPEATS = 5
SETUP_MIN_S = 4.0
MIN_ROUNDS = 3

MODULES = ("errors", "cnf", "machine", "tableau", "goedel", "diagonal")


def _reference_work() -> int:
    # Dict inserts on tuple keys and a growing list of tuples: the operations
    # the encoder and the goedel coder spend their time on, written without
    # diagforge so that no change to it moves this loop.  Of the loops tried,
    # this one tracked the host's slowdowns best on forge-suite, simulate and
    # goedel alike.
    table: dict[tuple, int] = {}
    rows = []
    for i in range(12000):
        key = ("reg", i >> 4, i & 15)
        table[key] = len(table) + 1
        rows.append((table[key], -i, i & 7))
    return len(rows)


def reference_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout()


TIMED_OUT = object()


class Meter:
    """Times operations one after another, each followed by a reference sample."""

    def __init__(self):
        self.reference = reference_seconds()

    def run(self, fn, *args, cap: float | None = None):
        """Returns (result, raw seconds, scaled seconds).

        With a cap, in seconds at the reference speed, an operation still
        running after the cap is stopped by SIGALRM and charged the cap; its
        result is TIMED_OUT.  The alarm is set in wall time at the speed the
        last reference sample measured, so a slow spell of the host does not
        make an operation time out that decides in time at the reference speed.
        """
        if cap is not None:
            raw_cap = cap * self.reference / REFERENCE_NOMINAL_S
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, raw_cap)
        start = time.perf_counter()
        try:
            try:
                result = fn(*args)
            finally:
                raw = time.perf_counter() - start
                if cap is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:  # also when the alarm lands just as fn returns
            result = TIMED_OUT
        finally:
            if cap is not None:
                signal.signal(signal.SIGALRM, previous)
        before, self.reference = self.reference, reference_seconds()
        if result is TIMED_OUT:
            return result, raw_cap, cap
        return result, raw, raw * REFERENCE_NOMINAL_S * 2 / (before + self.reference)


@dataclass
class Round:
    """What one round of a workload did and how it went."""

    phases: dict[str, float] = field(default_factory=dict)  # scaled seconds
    ops: dict[str, float] = field(default_factory=dict)  # raw seconds per operation
    raw_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    solved: int = 0
    timed_out: list[str] = field(default_factory=list)  # operations stopped at their cap
    capped_s: float = 0.0  # the caps charged for them

    def timed(self, phase: str, op: str, raw: float, scaled: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + scaled
        self.ops[op] = self.ops.get(op, 0.0) + raw
        self.raw_s += raw

    def check(self, ok: bool, what: str) -> bool:
        """One attempted operation and whether its output passed its check."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def total_s(self) -> float:
        return sum(self.phases.values())


class Modules:
    """diagforge's layer modules, imported afresh from the checkout's src/."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "diagforge" or m.startswith("diagforge.")]:
            del sys.modules[name]
        for module in MODULES:
            setattr(self, module, importlib.import_module(f"diagforge.{module}"))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, and its value."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct < 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def describe(name: str, values, unit: str) -> str:
    """One report line: median, the tail percentile the sample supports, count."""
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.6g}" if t else "no tail percentile (fewer than 20 samples)"
    return f"{name:<24} median {median(values):.6g} {unit}  {tail_text}  n={len(values)}"
