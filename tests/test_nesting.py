"""The grammar ``compile_program`` reads from a schedule's nesting, checked
against the schedule's events: every builder and transform, schedules read
back from JSON (which keep no nesting and run flat), the kernel's work and
the sweep budget's count on the benchmark's scan cases.

Each case's grammar must expand to the steps event by event, its net pulse
must be the label-by-label product exactly, and its propagators must match
``test_kernel``'s expm oracle."""

from collections import Counter

import numpy as np
import pytest

from ddkit import simulate
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
from ddkit.simulate import ModelSpec, RunConfig, _propagators, compile_program, order_scan
from oracles import event_steps, expand_grammar, joined_steps, splice_single_rules
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_runs_a_rule_named_once_in_place(case):
    # the plan is that of the grammar with every rule named once spliced into
    # the symbol naming it: only a rule named more than once gets a matrix
    schedule, moos, extra = CASES[case]
    grammar = compile_program(schedule, moos, extra).grammar
    spliced = splice_single_rules(grammar)
    names = Counter(s for seq in (spliced[0], *spliced[1]) for s in seq if isinstance(s, int))
    assert all(names[i] > 1 for i in range(len(spliced[1])))
    assert expand_grammar(spliced) == expand_grammar(grammar)
    assert Plan(grammar).ops == Plan(spliced).ops


READ_BACK = sorted(BUILT) + ["sdd(first_order(2))", "sdd(first_order(2,closing))"]


@pytest.mark.parametrize("case", READ_BACK)
def test_read_back_schedule_runs_flat(case):
    # the reader keeps no nesting, so the program is one step per event and
    # runs the built schedule's propagators
    schedule, moos, extra = CASES[case]
    back = schedule_from_json(schedule_to_json(schedule))
    assert back.nesting is None and back == schedule
    program = compile_program(back, moos, extra)
    top, rules = program.grammar
    assert rules == () and list(top) == event_steps(back)
    model = ModelSpec("general", moos.dim, 4, 1.0).realize(2)
    times = (0.1, 0.6)
    built = _propagators(compile_program(schedule, moos, extra), [model], times)
    assert np.linalg.norm(_propagators(program, [model], times) - built, ord=2,
                          axis=(-2, -1)).max() <= TOL


def test_schedule_unlike_its_rebuild_runs_flat():
    # made from events, one time an ulp away from the builder's: no nesting
    schedule = nudd(Q1, (2, 3))
    events = list(schedule.events)
    events[4] = Event(np.nextafter(events[4].time, 1.0), events[4].ops)
    moved = Schedule(schedule.scheme, schedule.orders, events, schedule.closing_ops,
                     schedule.intervals)
    top, rules = compile_program(moved, Q1).grammar
    assert rules == () and list(top) == event_steps(moved)


def test_read_back_transformed_deep_schedule_runs_flat_over_the_budget():
    # read back, it has no nesting, so it runs flat
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


# perfbench's scan cases, with the dense operations (pulse, product and
# driven) of the Re-Pair grammar that compiled them before the nesting did,
# and the products the sweep budget charges a point.
SCAN_CASES = {
    "udd(4)": (udd_schedule("Z1", 4), Q1, 3, 5),
    "nudd(2,3)": (nudd(Q1, (2, 3)), Q1, 7, 9),
    "cdd_uniform(3)": (cdd_uniform(Q1, 3), Q1, 10, 12),
    "nudd(2,2,2,3)": (nudd(Q2, (2, 2, 2, 3)), Q2, 35, 38),
    "cdd_nested(2,2,2,2)": (cdd_nested(Q2, (2, 2, 2, 2)), Q2, 14, 16),
}


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_cases_do_no_more_dense_kernel_work(name):
    schedule, moos, before, _ = SCAN_CASES[name]
    ops = Counter(op for op, *_ in Plan(compile_program(schedule, moos).grammar).ops)
    assert ops["pulse"] + ops["product"] + ops["driven"] <= before + 1


def test_chunked_order_scan_plans_its_program_once(monkeypatch):
    # four chunks run one plan: the grammar is walked once, not once to size
    # the chunks and once more per chunk
    init, propagators, walks, chunks = Plan.__init__, simulate._propagators, [], []

    def walking(self, grammar):
        walks.append(grammar)
        init(self, grammar)

    def counting(*args):
        chunks.append(1)
        return propagators(*args)

    monkeypatch.setattr(Plan, "__init__", walking)
    monkeypatch.setattr(simulate, "_propagators", counting)
    order_scan(nudd(Q2, (2, 2, 2, 3)), Q2, ModelSpec("general", 4, 4, 1.0))
    assert len(chunks) == 4
    assert len(walks) == 1


def _charged(monkeypatch, schedule, moos):
    """The products ``order_scan`` charges one point of ``schedule``: its
    last check of the sweep budget, on a grid of one T and one seed."""
    charged = []
    monkeypatch.setattr(simulate, "check_sweep_budget", charged.append)
    order_scan(schedule, moos, ModelSpec("general", moos.dim, 4, 1.0),
               RunConfig(t_grid=(0.1,), seeds=(0,)))
    return charged[-1]


# The products the budget charges a point: the scan cases', and builder
# SDD's, whose silent midpoint the nesting runs as a step of its own.
BUDGET_COUNTS = {
    **{name: (schedule, moos, n) for name, (schedule, moos, _, n) in SCAN_CASES.items()},
    "sdd(first_order(1))": (sdd_schedule(first_order_schedule(Q1)), Q1, 8),
    "sdd(first_order(2))": (sdd_schedule(first_order_schedule(Q2)), Q2, 16),
}


@pytest.mark.parametrize("name", sorted(BUDGET_COUNTS))
def test_budget_counts_the_grammar_products(monkeypatch, name):
    schedule, moos, products = BUDGET_COUNTS[name]
    assert _charged(monkeypatch, schedule, moos) == products


@pytest.mark.parametrize("read_back", [True, False], ids=["read_back_cdd", "udd"])
def test_over_budget_sweep_is_rejected_before_compiling(monkeypatch, read_back):
    # 2^20 intervals x 96 points: a flat program's intervals, or those of
    # the outermost block, bound the products from below
    if read_back:
        schedule = schedule_from_json(schedule_to_json(cdd_uniform(Q1, 10)))
        assert schedule.nesting is None
    else:
        schedule = udd_schedule("Z1", 2**20 - 1)

    def fail(*args):
        raise AssertionError("compiled before the budget was checked")

    monkeypatch.setattr(simulate, "compile_program", fail)
    with pytest.raises(PreconditionError,
                       match=r"^sweep budget exceeded: 100663296 products > 1000000$"):
        order_scan(schedule, Q1, ModelSpec())


@pytest.mark.parametrize("n", range(1, 6))
def test_deep_cdd_grammar_grows_with_its_layers(n):
    # 2^(4n) intervals, two symbols per layer
    top, rules = compile_program(cdd_uniform(Q2, n), Q2).grammar
    assert len(top) + len(rules) <= 2 * (4 * n)
