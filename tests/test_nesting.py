"""The grammar ``compile_program`` reads from a schedule's nesting, checked
against the schedule's events: every builder and transform, schedules made
from events or read back from JSON (each one block, which runs flat) and
their transforms, the kernel's work and the sweep budget's count on the
benchmark's scan cases.

Each case's grammar must expand to the steps event by event, its net pulse
must be the label-by-label product exactly, and its propagators must match
``test_kernel``'s expm oracle."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    udd_lengths,
    udd_schedule,
)
from ddkit.simulate import ModelSpec, RunConfig, _propagators, compile_program, order_scan
from oracles import event_steps, expand_grammar, joined_steps, splice_single_rules
from test_kernel import TOL, oracle_propagator
from test_simulate import _transformed

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


def _moved(schedule, i):
    """``schedule`` made from its events, event ``i`` an ulp later."""
    events = list(schedule.events)
    events[i] = Event(np.nextafter(events[i].time, 1.0), events[i].ops)
    return Schedule(schedule.scheme, schedule.orders, events, schedule.closing_ops,
                    schedule.intervals)


def _read_back(schedule):
    return schedule_from_json(schedule_to_json(schedule))


# Schedules no builder made, each one block, with their MOOS and the echo
# pulse of their Hahn echo; their transforms nest that block.
DERIVED = {
    "moved(nudd(1,(2,3)))": (_moved(nudd(Q1, (2, 3)), 4), Q1, Y1[1]),
    "read_back(first_order(2,closing))": (_read_back(first_order_schedule(Q2, True)), Q2, Y1[2]),
}
for _name, (_schedule, _moos, _y) in DERIVED.items():
    TRANSFORMED.update({
        f"conjugated({_name})": (conjugated(_schedule, "X1"), _moos, ()),
        f"hahn_echo({_name})": (hahn_echo(_schedule, "Y1"), _moos, (_y,)),
        f"sdd({_name})": (sdd_schedule(_schedule), _moos, ()),
    })
CASES = {**BUILT, **{name: (s, moos, ()) for name, (s, moos, _) in DERIVED.items()},
         **TRANSFORMED}


@pytest.mark.parametrize("case", [*sorted(CASES), "cdd_uniform(1,10)"])
def test_json_round_trip_keeps_the_table_and_the_codes(case):
    # builders, transforms (SDD's silent midpoints among them), schedules
    # made from events, and the largest schedule a builder makes
    schedule = CASES[case][0] if case in CASES else cdd_uniform(Q1, 10)
    back = _read_back(schedule)
    assert back == schedule and back.ops_table == schedule.ops_table
    assert np.array_equal(back.codes, schedule.codes)


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


def _runs_flat(schedule, grammar):
    """Whether ``grammar`` is one rule of the steps event by event, which the
    kernel runs as it runs them flat."""
    steps = event_steps(schedule)
    top, rules = grammar
    return (top == (0,) and len(rules) == 1 and list(rules[0]) == steps
            and Plan(grammar).ops == Plan((tuple(steps), ())).ops)


@pytest.mark.parametrize("make", [_read_back, lambda s: _moved(s, 0)],
                         ids=["read_back", "moved"])
def test_nesting_of_a_schedule_no_builder_made_is_one_block(make):
    # made on first read, not by the reader or the events constructor: the
    # differences of (0, times, 1), and the schedule's own table and codes
    # at its boundaries, shared and not copied
    schedule = make(sdd_schedule(conjugated(udd_schedule("Z1", 3), "X1")))
    assert "nesting" not in vars(schedule)
    (block,) = schedule.nesting
    edges = np.concatenate(((0.0,), schedule.times, (1.0,)))
    assert block.rule is None
    assert block.lengths.dtype == np.float64 and not block.lengths.flags.writeable
    assert block.lengths.tobytes() == np.diff(edges).tobytes()
    assert block.table is schedule.ops_table and block.codes is schedule.codes
    assert np.array_equal(block.inner, np.full(len(block.lengths), -1))
    assert not block.inner.flags.writeable and block.inner.strides == (0,)


def _built(scheme, moos, data):
    """A ``scheme`` schedule on ``moos`` of orders drawn from ``data``."""
    if scheme == "first_order":
        return first_order_schedule(moos, data.draw(st.booleans()))
    if scheme == "cdd_uniform":
        return cdd_uniform(moos, data.draw(st.integers(1, 2)))
    orders = data.draw(st.lists(st.integers(0, 3), min_size=len(moos), max_size=len(moos)))
    if scheme == "cdd_nested":
        return cdd_nested(moos, orders)
    return nudd(moos, orders, allow_odd_inner=True)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["nudd", "cdd_uniform", "cdd_nested", "first_order"]),
       st.integers(1, 2), st.data())
def test_layers_hold_their_rules_lengths_and_codes_into_their_tables(scheme, n_qubits, data):
    # under any stack of transforms every layer a builder or a transform
    # records has a rule, whose lengths it holds bit for bit; its codes index
    # its table of distinct label tuples, and its blocks are earlier ones
    moos = qubit_full_moos(n_qubits)
    schedule = _built(scheme, moos, data)
    recorded = "nesting" in vars(schedule)  # else no layer had boundaries
    transforms = data.draw(st.lists(st.sampled_from(["sdd", "conjugated", "hahn_echo"]),
                                    max_size=3))
    for i, layer in enumerate(_transformed(schedule, moos, transforms).nesting):
        assert layer.rule is not None or not recorded
        if layer.rule is not None:
            want = [0.5, 0.5] if layer.rule == ("halves",) else udd_lengths(layer.rule[1])
            assert layer.lengths.tobytes() == np.array(want).tobytes()
        assert not layer.lengths.flags.writeable and not layer.codes.flags.writeable
        assert not layer.inner.flags.writeable
        assert layer.codes.dtype == layer.inner.dtype == np.intp
        assert len(set(layer.table)) == len(layer.table)
        assert len(layer.codes) == len(layer.lengths) - 1
        assert all(0 <= c < len(layer.table) for c in layer.codes.tolist())
        assert len(layer.inner) == len(layer.lengths)
        assert all(-1 <= b < i for b in layer.inner.tolist())


def test_transforms_reuse_the_block_of_a_schedule_no_builder_made():
    back = _read_back(nudd(Q1, (2, 3)))
    (block,) = back.nesting
    assert hahn_echo(back, "Y1").nesting[0] is block
    assert sdd_schedule(back).nesting[0] is block
    conj = conjugated(back, "X1").nesting[0]
    assert conj.lengths is block.lengths and conj.inner is block.inner
    assert conj.codes is block.codes
    # the echo's two halves are one rule named twice
    grammar = compile_program(hahn_echo(back, "Y1"), Q1, (Y1[1],)).grammar
    assert grammar == ((1,), (grammar[1][0], (0, 0)))


@pytest.mark.parametrize("transform", ["plain", "conjugated"])
def test_label_less_event_matches_the_expm_oracle(transform):
    # an event without labels is a boundary without pulses; conjugated
    # leaves it so, where the events read (X1, X1), the identity
    schedule = Schedule("custom", (1,), [(0.25, ("Z1",)), (0.5, ()), (0.75, ("X1", "Z1"))],
                        ("X1",), 4)
    if transform == "conjugated":
        schedule = conjugated(schedule, "X1")
    block = schedule.nesting[0]
    assert block.table[block.codes[1]] == ()
    program = compile_program(schedule, Q1)
    model = ModelSpec("general", 2, 4, 1.0).realize(2)
    times = (0.1, 0.6)
    u = _propagators(program, [model], times)[0]
    for i, t in enumerate(times):
        want_u, want_net = oracle_propagator(schedule, Q1, model, t)
        assert np.array_equal(program.net.matrix, want_net)
        assert np.linalg.norm(u[i] - want_u, ord=2) <= TOL


READ_BACK = sorted(BUILT) + ["sdd(first_order(2))", "sdd(first_order(2,closing))"]


@pytest.mark.parametrize("case", READ_BACK)
def test_read_back_schedule_runs_flat(case):
    # read back, the schedule is one block: one rule of one step per event,
    # which runs flat and gives the built schedule's propagators
    schedule, moos, extra = CASES[case]
    back = _read_back(schedule)
    assert len(back.nesting) == 1 and back == schedule
    program = compile_program(back, moos, extra)
    assert _runs_flat(back, program.grammar)
    model = ModelSpec("general", moos.dim, 4, 1.0).realize(2)
    times = (0.1, 0.6)
    built = _propagators(compile_program(schedule, moos, extra), [model], times)
    assert np.linalg.norm(_propagators(program, [model], times) - built, ord=2,
                          axis=(-2, -1)).max() <= TOL


def test_schedule_unlike_its_rebuild_runs_flat():
    # made from events, one time an ulp away from the builder's: one block
    moved = _moved(nudd(Q1, (2, 3)), 4)
    assert len(moved.nesting) == 1
    assert _runs_flat(moved, compile_program(moved, Q1).grammar)


def test_read_back_transformed_deep_schedule_runs_flat_over_the_budget():
    # read back, it is one block of 2^16 intervals, which runs flat
    schedule = conjugated(cdd_uniform(Q2, 4), "X1")
    back = _read_back(schedule)
    top, rules = compile_program(back, Q2).grammar
    assert top == (0,) and len(rules) == 1 and len(rules[0]) == 2**16
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
    init, eigenbasis, walks, chunks = Plan.__init__, simulate._eigenbasis, [], []

    def walking(self, grammar):
        walks.append(grammar)
        init(self, grammar)

    def counting(*args):
        chunks.append(1)
        return eigenbasis(*args)

    monkeypatch.setattr(Plan, "__init__", walking)
    monkeypatch.setattr(simulate, "_eigenbasis", counting)
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


def test_bound_before_compiling_is_below_the_products(monkeypatch):
    # 100 intervals and no events: one step, which both checks charge
    charged = []
    monkeypatch.setattr(simulate, "check_sweep_budget", charged.append)
    order_scan(Schedule("udd", (99,), (), (), 100), Q1, ModelSpec(),
               RunConfig(t_grid=(0.1,), seeds=(0,)))
    assert charged == [1, 1]


@pytest.mark.parametrize("read_back", [True, False], ids=["read_back_cdd", "udd"])
def test_over_budget_sweep_is_rejected_before_compiling(monkeypatch, read_back):
    # 2^20 intervals x 96 points: the intervals of the outermost block, one
    # block when read back, bound the products from below
    if read_back:
        schedule = _read_back(cdd_uniform(Q1, 10))
        assert len(schedule.nesting) == 1
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
