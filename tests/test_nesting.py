"""The grammar ``compile_program`` reads from a schedule's nesting, checked
against the schedule's events: every builder and transform, schedules read
back from JSON, and the kernel's work on the benchmark's scan cases.

Each case's grammar must expand to the steps event by event, its net pulse
must be the label-by-label product exactly, and its propagators must match
``test_kernel``'s expm oracle."""

from collections import Counter

import numpy as np
import pytest

from ddkit.errors import PreconditionError
from ddkit.kernel import Plan
from ddkit.operators import pauli, qubit_full_moos
from ddkit.sequences import (
    Event,
    Schedule,
    cdd_nested,
    cdd_uniform,
    conjugated,
    first_order_schedule,
    hahn_echo,
    nudd,
    schedule_from_json,
    schedule_to_json,
    sdd_schedule,
    udd_schedule,
)
from ddkit.simulate import ModelSpec, _propagators, compile_program, order_scan
from oracles import event_steps, expand_grammar, joined_steps
from test_kernel import TOL, oracle_propagator

EPS = np.finfo(float).eps
Q1, Q2 = qubit_full_moos(1), qubit_full_moos(2)
# Y1 lies outside both MOOS: the echo pulse of the non-MOOS wraps.
Y1 = {1: pauli("y", 1, 1), 2: pauli("y", 1, 2)}

# name: (schedule, MOOS, extra operators)
BUILT = {
    "udd(5)": (udd_schedule("X1", 5), Q1, ()),
    "first_order(2)": (first_order_schedule(Q2), Q2, ()),
    "first_order(2,closing)": (first_order_schedule(Q2, True), Q2, ()),
    "cdd_uniform(1,3)": (cdd_uniform(Q1, 3), Q1, ()),
    "cdd_nested(2,(2,1,0,2))": (cdd_nested(Q2, (2, 1, 0, 2)), Q2, ()),
    "nudd(2,(2,2,2,3))": (nudd(Q2, (2, 2, 2, 3)), Q2, ()),
    "nudd(1,(1,2),odd)": (nudd(Q1, (1, 2), allow_odd_inner=True), Q1, ()),
}
TRANSFORMED = {
    "sdd(first_order(2))": (sdd_schedule(first_order_schedule(Q2)), Q2, ()),
    "sdd(first_order(2,closing))": (sdd_schedule(first_order_schedule(Q2, True)), Q2, ()),
    "sdd(nudd(1,(1,2),odd))": (sdd_schedule(nudd(Q1, (1, 2), allow_odd_inner=True)), Q1, ()),
    "conjugated(nudd(2,(2,2,2,3)))": (conjugated(nudd(Q2, (2, 2, 2, 3)), "Z1"), Q2, ()),
    "conjugated(sdd(udd(4)))": (conjugated(sdd_schedule(udd_schedule("Z1", 4)), "X1"), Q1, ()),
    "hahn_echo(cdd_nested(2,(1,1,1,1)))": (
        hahn_echo(cdd_nested(Q2, (1, 1, 1, 1)), "Y1"), Q2, (Y1[2],)),
    "hahn_echo(conjugated(udd(3)))": (
        hahn_echo(conjugated(udd_schedule("Z1", 3), "X1"), "Y1"), Q1, (Y1[1],)),
    "sdd(hahn_echo(nudd(1,(2,3))))": (
        sdd_schedule(hahn_echo(nudd(Q1, (2, 3)), "Y1")), Q1, (Y1[1],)),
}
CASES = {**BUILT, **TRANSFORMED}


@pytest.mark.parametrize("case", sorted(CASES))
def test_grammar_expands_to_the_event_steps(case):
    schedule, moos, extra = CASES[case]
    assert schedule.nesting is not None
    got = joined_steps(expand_grammar(compile_program(schedule, moos, extra).grammar))
    want = event_steps(schedule)
    assert [key for _, _, key in got] == [key for _, _, key in want]
    assert max(abs(a[0] - b[0]) for a, b in zip(got, want)) <= 4 * EPS


@pytest.mark.parametrize("case", sorted(CASES))
def test_net_pulse_and_propagators_match_the_expm_oracle(case):
    # every pulse is a signed permutation, so the net pulse is exact
    schedule, moos, extra = CASES[case]
    program = compile_program(schedule, moos, extra)
    model = ModelSpec("general", moos.dim, 4, 1.0).realize(2)
    times = (0.1, 0.6)
    u = _propagators(program, [model], times)[0]
    for i, t in enumerate(times):
        want_u, want_net = oracle_propagator(schedule, moos, model, t, extra=extra)
        assert np.array_equal(program.net.matrix, want_net)
        assert np.linalg.norm(u[i] - want_u, ord=2) <= TOL


READ_BACK = sorted(BUILT) + ["sdd(first_order(2))", "sdd(first_order(2,closing))"]


@pytest.mark.parametrize("case", READ_BACK)
def test_read_back_schedule_compiles_to_the_builders_grammar(case):
    # the reader keeps no nesting; compile_program takes its rebuild's
    schedule, moos, extra = CASES[case]
    back = schedule_from_json(schedule_to_json(schedule))
    assert back.nesting is None and back == schedule
    assert compile_program(back, moos, extra).grammar == compile_program(schedule, moos, extra).grammar


def test_schedule_unlike_its_rebuild_runs_flat():
    # one event time an ulp away from the builder's
    schedule = nudd(Q1, (2, 3))
    events = list(schedule.events)
    events[4] = Event(np.nextafter(events[4].time, 1.0), events[4].ops)
    moved = Schedule(schedule.scheme, schedule.orders, events, schedule.closing_ops,
                     schedule.intervals)
    top, rules = compile_program(moved, Q1).grammar
    assert rules == () and list(top) == event_steps(moved)


def test_read_back_transformed_deep_schedule_runs_flat_over_the_budget():
    # a transformed schedule keeps its inner scheme, so it is not its rebuild
    schedule = conjugated(cdd_uniform(Q2, 4), "X1")
    back = schedule_from_json(schedule_to_json(schedule))
    top, rules = compile_program(back, Q2).grammar
    assert rules == () and len(top) == 2**16
    spec = ModelSpec("general", 4, 4, 1.0)
    with pytest.raises(PreconditionError,
                       match=r"^sweep budget exceeded: 6291456 products > 1000000$"):
        order_scan(back, Q2, spec)
    # built, it runs as two symbols per layer and the pulses of its top
    top, rules = compile_program(schedule, Q2).grammar
    assert len(top) + len(rules) <= 2 * 16 + 2


class _Counted(Plan):
    """A plan that counts the kernel's operations by kind."""

    def __init__(self, grammar):
        self.ops = Counter()
        super().__init__(grammar)

    def emit(self, op, a, b, c=None):
        self.ops[op] += 1


# perfbench's scan cases, with the dense operations (pulse, product and
# driven) of the Re-Pair grammar that compiled them before the nesting did.
SCAN_CASES = {
    "udd(4)": (udd_schedule("Z1", 4), Q1, 3),
    "nudd(2,3)": (nudd(Q1, (2, 3)), Q1, 7),
    "cdd_uniform(3)": (cdd_uniform(Q1, 3), Q1, 10),
    "nudd(2,2,2,3)": (nudd(Q2, (2, 2, 2, 3)), Q2, 35),
    "cdd_nested(2,2,2,2)": (cdd_nested(Q2, (2, 2, 2, 2)), Q2, 14),
}


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_cases_do_no_more_dense_kernel_work(name):
    schedule, moos, before = SCAN_CASES[name]
    ops = _Counted(compile_program(schedule, moos).grammar).ops
    assert ops["pulse"] + ops["product"] + ops["driven"] <= before + 1


@pytest.mark.parametrize("n", range(1, 6))
def test_deep_cdd_grammar_grows_with_its_layers(n):
    # 2^(4n) intervals, two symbols per layer
    top, rules = compile_program(cdd_uniform(Q2, n), Q2).grammar
    assert len(top) + len(rules) <= 2 * (4 * n)
