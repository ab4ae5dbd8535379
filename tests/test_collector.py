"""The calls that pause the cyclic collector: its state after them, and the
premise that makes the pause safe, that none of them leaves a cycle."""

import pytest

from diagforge._collector import pause_collector
from diagforge.cnf import UNSAT, CnfFormula, solve_dpll
from diagforge.diagonal import (
    _FIRST_BOUND,
    BoundNotFound,
    MisclassificationCertificate,
    build_diagonal_program,
    forge,
    verify_certificate,
)
from diagforge.errors import InputError
from diagforge.goedel import Not, Prov, Var, diagonalize
from diagforge.machine import REGION_PCS, _region
from diagforge.tableau import encode

from conftest import SHIPPED, load_classifier


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_paused_calls_leave_the_collector_as_they_found_it(collector, const_sat, scan_all, enabled):
    gc = collector
    if enabled:
        gc.enable()
    else:
        gc.disable()
    # decided true, x1 and x2 make both clauses false: it learns (-1, -2)
    learns = CnfFormula.of(3, [[-1, -2, 3], [-1, -2, -3]])
    assert solve_dpll(learns).witness.values == (True, False, True)
    assert gc.isenabled() is enabled
    assert solve_dpll(CnfFormula.of(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])).tag == UNSAT
    assert gc.isenabled() is enabled
    cert = forge(const_sat, 1 << 16)  # forge calls solve_dpll inside
    assert isinstance(cert, MisclassificationCertificate)
    assert gc.isenabled() is enabled
    assert isinstance(forge(scan_all, 1 << 8), BoundNotFound)
    assert gc.isenabled() is enabled
    with pytest.raises(InputError, match=f"t_cap must be at least {_FIRST_BOUND}"):
        forge(const_sat, _FIRST_BOUND - 1)
    assert gc.isenabled() is enabled
    assert verify_certificate(cert).ok
    assert gc.isenabled() is enabled

    @pause_collector
    def fails():
        assert not gc.isenabled()
        raise KeyError("inside")

    with pytest.raises(KeyError, match="inside"):
        fails()
    assert gc.isenabled() is enabled


def _paused_calls():
    """(id, call) for each paused entry point on shipped inputs."""
    classifiers = {name: load_classifier(f"{name}.asm") for name in SHIPPED}
    calls = [(f"forge-{name}", lambda p=p: forge(p, 1 << 16)) for name, p in classifiers.items()]
    calls.append(("forge-t_cap-too-small", lambda: forge(classifiers["const_sat"], _FIRST_BOUND - 1)))
    for name in ("const_sat", "const_unsat", "first_byte_zero"):
        cert = forge(load_classifier(f"{name}.asm"), 1 << 16)  # runs a copy, not the calls' classifier
        calls.append((f"verify-{name}", lambda c=cert: verify_certificate(c)))
        calls.append((f"solve_dpll-{name}", lambda c=cert: solve_dpll(c.forged)))
    psi64, _ = encode(build_diagonal_program(classifiers["parity_first_byte"], 1), (), 64)
    calls.append(("solve_dpll-parity-t64", lambda: solve_dpll(psi64)))
    calls.append(("diagonalize", lambda: diagonalize(Not(Prov(Var("x"))))))
    return calls


def test_paused_calls_leave_no_cycle(collector):
    # reference counting alone frees what these calls drop, so pausing the
    # collector around them only saves scans; a back-pointer would show here
    gc = collector
    gc.disable()
    calls = _paused_calls()
    # the set-up's forges warmed the region cache; from a cold one, each forge
    # below compiles every region it enters, of its classifier and of its D
    _region.cache_clear()
    for name, call in calls:
        gc.collect()
        try:
            result = call()
        except InputError:
            result = None
        assert gc.collect() == 0, name
        del result
        assert gc.collect() == 0, name


def test_compiling_regions_leaves_no_cycle(collector):
    # with a cold region cache, the paused calls compile the regions they
    # enter; building and compiling a region's source must leave no cycle
    gc = collector
    gc.disable()
    _region.cache_clear()
    gc.collect()
    for name in ("scan_all", "parity_first_byte"):
        classifier = load_classifier(f"{name}.asm")
        for p in (classifier, build_diagonal_program(classifier, 1)):
            for record in (False, True):  # run's variant, then the one that records reads
                for index in range(len(p.instructions) // REGION_PCS + 1):
                    _region(p, index, record)
                assert gc.collect() == 0, (name, record)
