import gc
import json
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ddkit.errors import PreconditionError
from ddkit.jsonio import load_object
from ddkit.linalg import spectral_norm
from ddkit import sequences
from ddkit.operators import Moos, pauli, qubit_full_moos
from ddkit.sequences import (
    MAX_INTERVALS,
    Event,
    Schedule,
    cdd_nested,
    cdd_uniform,
    first_order_schedule,
    nudd,
    schedule_from_json,
    schedule_to_json,
    sdd_schedule,
    udd_lengths,
    udd_schedule,
    udd_times,
)
from ddkit.simulate import compile_program

MOOS1 = qubit_full_moos(1)  # {Z1, X1}
MOOS2 = qubit_full_moos(2)


def unrolled_first_order(labels):
    """Independent oracle: literal unrolling of X -> X(T/2) Omega X(T/2)."""
    events = []  # (time, label) without closing brackets
    for lab in labels:
        events = (
            [(t / 2, l) for t, l in events]
            + [(0.5, lab)]
            + [(0.5 + t / 2, l) for t, l in events]
        )
    return events


def test_udd_times_small_orders():
    assert udd_times(0) == []
    assert udd_times(1) == pytest.approx([0.5])
    assert udd_times(2) == pytest.approx([0.25, 0.75])


def test_udd_times_n3_half_angle():
    # sin^2(pi/8) = (1 - cos(pi/4))/2 = (1 - sqrt(2)/2)/2
    lo = (1 - math.sqrt(2) / 2) / 2
    assert udd_times(3) == pytest.approx([lo, 0.5, 1 - lo], abs=1e-15)


def test_udd_times_mirror_symmetry():
    for n in range(1, 9):
        ts = udd_times(n)
        for a, b in zip(ts, reversed(ts)):
            assert a + b == pytest.approx(1.0, abs=1e-15)


def test_udd_lengths_are_mirror_exact_and_sum_to_udd_times():
    # each running sum telescopes to sin^2(k theta), to rounding
    eps = np.finfo(float).eps
    for n in range(21):
        lengths = udd_lengths(n)
        assert len(lengths) == n + 1
        assert lengths == lengths[::-1]  # bit for bit
        sums = np.cumsum(lengths)
        assert np.abs(sums[:-1] - udd_times(n)).max(initial=0.0) <= 4 * eps
        assert abs(sums[-1] - 1.0) <= 4 * eps
    with pytest.raises(PreconditionError):
        udd_lengths(-1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 100, 12345, 2**16 - 1, 2**20 - 1])
def test_udd_builders_match_the_per_interval_formulas_bit_for_bit(n):
    theta = math.pi / (2 * n + 2)
    times = [math.sin(k * math.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]
    lengths = [math.sin((2 * min(j, n - j) + 1) * theta) * math.sin(theta) for j in range(n + 1)]
    for got, want in ((udd_times(n), times), (udd_lengths(n), lengths)):
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("build", [udd_times, udd_lengths, lambda n: udd_schedule("Z1", n)],
                         ids=["udd_times", "udd_lengths", "udd_schedule"])
def test_udd_order_above_max_intervals_is_rejected_before_allocating(build):
    # np.arange(1, n + 1) at n = 2^40 would ask numpy for 8 TiB
    want = f"udd would have {2**40 + 1} control intervals, more than MAX_INTERVALS = 2^20"
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as err:
            build(2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == want
    assert peak < 2**20
    with pytest.raises(PreconditionError, match=r"^udd would have 1048577 control intervals"):
        build(MAX_INTERVALS)


def test_udd_schedule_structure():
    s = udd_schedule("Z1", 3)
    assert [e.time for e in s.events] == pytest.approx(udd_times(3))
    assert all(e.ops == ("Z1",) for e in s.events)
    assert s.closing_ops == ()
    assert s.intervals == 4


def test_first_order_hahn_echo():
    s = first_order_schedule(Moos((pauli("z", 1, 1),)))
    assert [(e.time, e.ops) for e in s.events] == [(0.5, ("Z1",))]
    assert s.intervals == 2


def test_first_order_two_elements():
    s = first_order_schedule(MOOS1)
    assert [(e.time, e.ops) for e in s.events] == [
        (0.25, ("Z1",)),
        (0.5, ("X1",)),
        (0.75, ("Z1",)),
    ]


def test_first_order_l3_matches_unrolled_oracle():
    moos = Moos((pauli("z", 1, 2), pauli("x", 1, 2), pauli("z", 2, 2)))
    s = first_order_schedule(moos)
    oracle = unrolled_first_order(moos.labels)
    assert len(s.events) == 7 and s.intervals == 8
    assert [(e.time, e.ops[0]) for e in s.events] == [
        (pytest.approx(t), l) for t, l in oracle
    ]
    assert Counter(s.op_labels) == {"Z1": 4, "X1": 2, "Z2": 1}


def test_first_order_closing_net_pulse_is_identity():
    for moos in (MOOS1, MOOS2):
        s = first_order_schedule(moos, include_closing=True)
        net = compile_program(s, moos).net
        assert spectral_norm(net.matrix - np.eye(moos.dim)) <= 1e-12


def test_sdd_interval_count_checked_before_building():
    # SDD doubles the intervals of its inner schedule; an empty schedule
    # carries the count without building any events.
    assert sdd_schedule(Schedule("free", (), (), (), MAX_INTERVALS // 2)).intervals == MAX_INTERVALS
    with pytest.raises(PreconditionError) as err:
        sdd_schedule(Schedule("free", (), (), (), MAX_INTERVALS // 2 + 1))
    assert f"sdd would have {MAX_INTERVALS + 2} control intervals" in str(err.value)


def test_first_order_size_cap():
    big = Moos(
        tuple(pauli("z", q, 8) for q in range(1, 9))
        + tuple(pauli("x", q, 8) for q in range(1, 6))
    )  # 13 elements
    with pytest.raises(PreconditionError):
        first_order_schedule(big)


def test_sdd_of_hahn_echo():
    s = sdd_schedule(first_order_schedule(Moos((pauli("z", 1, 1),))))
    assert [(e.time, e.ops) for e in s.events] == [(0.25, ("Z1",)), (0.75, ("Z1",))]
    assert s.intervals == 4


def test_sdd_mirror_symmetry():
    s = sdd_schedule(first_order_schedule(MOOS2))
    assert s.intervals == 2 * 16
    times = [e.time for e in s.events]
    multisets = {e.time: Counter(e.ops) for e in s.events}
    for e in s.events:
        mirror = 1.0 - e.time
        assert any(abs(t - mirror) < 1e-12 for t in times)
        match = min(times, key=lambda t: abs(t - mirror))
        assert multisets[match] == Counter(e.ops)


def test_cdd_l1_n1_is_hahn_echo_with_bracket():
    s = cdd_uniform(Moos((pauli("z", 1, 1),)), 1)
    assert [(e.time, e.ops) for e in s.events] == [(0.5, ("Z1",))]
    assert s.closing_ops == ("Z1",)
    assert s.intervals == 2


def test_cdd_l1_n2_unrolled():
    s = cdd_uniform(Moos((pauli("z", 1, 1),)), 2)
    assert s.intervals == 4
    assert [e.time for e in s.events] == pytest.approx([0.25, 0.5, 0.75])
    # midpoint pulse is the inner closing bracket composed with the outer pulse
    assert [e.ops for e in s.events] == [("Z1",), ("Z1", "Z1"), ("Z1",)]
    net = compile_program(s, Moos((pauli("z", 1, 1),))).net
    assert spectral_norm(net.matrix - np.eye(2)) <= 1e-12


def test_cdd_interval_counts():
    assert cdd_uniform(MOOS1, 2).intervals == 16  # 2 elements, N = 2
    assert cdd_uniform(MOOS1, 3).intervals == 64
    with pytest.raises(PreconditionError):
        cdd_uniform(MOOS2, 6)  # N*L = 24 > budget


def test_cdd_nested_orders_11_matches_first_order():
    nested = cdd_nested(MOOS1, (1, 1))
    plain = first_order_schedule(MOOS1, include_closing=True)
    assert [(e.time, e.ops) for e in nested.events] == [
        (e.time, e.ops) for e in plain.events
    ]
    assert nested.closing_ops == plain.closing_ops


def test_cdd_nested_counts_and_budget():
    assert cdd_nested(MOOS1, (2, 3)).intervals == 32
    assert len(cdd_nested(MOOS1, (2, 3)).events) + 1 == 32
    with pytest.raises(PreconditionError):
        cdd_nested(MOOS1, (11, 10))


def test_nudd_22_exact_times():
    s = nudd(MOOS1, (2, 2))
    assert s.intervals == 9 and len(s.events) + 1 == 9
    outer = [e.time for e in s.events if "X1" in e.ops]
    inner = [e.time for e in s.events if e.ops == ("Z1",)]
    assert outer == pytest.approx([0.25, 0.75])
    expected_inner = []
    for a, b in [(0.0, 0.25), (0.25, 0.75), (0.75, 1.0)]:
        expected_inner += [a + (b - a) * f for f in udd_times(2)]
    assert inner == pytest.approx(expected_inner)


def test_nudd_rejects_odd_inner():
    with pytest.raises(PreconditionError) as err:
        nudd(MOOS1, (1, 2))
    assert "even" in str(err.value)
    nudd(MOOS1, (2, 1))  # odd outermost order is allowed


def test_nudd_counterexample_structure():
    # inner order 1, outer order 2: each outer block is
    # Omega1 e^{-iHtau} Omega1 e^{-iHtau} with tau = T/8 spacing in the
    # middle block twice as long, and Omega2 at the block boundaries
    s = nudd(MOOS1, (1, 2), allow_odd_inner=True)
    assert s.intervals == 6 and len(s.events) == 5
    assert [e.time for e in s.events] == pytest.approx([0.125, 0.25, 0.5, 0.75, 0.875])
    assert [e.ops for e in s.events] == [
        ("Z1",), ("Z1", "X1"), ("Z1",), ("Z1", "X1"), ("Z1",),
    ]
    assert s.closing_ops == ("Z1",)
    assert Counter(s.op_labels) == {"Z1": 6, "X1": 2}


def test_nudd_interval_formula():
    assert nudd(
        Moos(MOOS2.elements[:3]), (2, 3, 2), allow_odd_inner=True
    ).intervals == 36
    assert nudd(MOOS1, (4, 4)).intervals == 25


def test_nudd_inner_block_self_similarity():
    s = nudd(MOOS1, (2, 4))
    bounds = [0.0] + [e.time for e in s.events if "X1" in e.ops] + [1.0]
    rescaled = []
    for a, b in zip(bounds, bounds[1:]):
        inner = [
            (e.time - a) / (b - a) for e in s.events
            if e.ops == ("Z1",) and a < e.time < b
        ]
        rescaled.append(inner)
    for block in rescaled[1:]:
        assert block == pytest.approx(rescaled[0], abs=1e-12)
    # even inner order: each block is mirror symmetric
    for block in rescaled:
        assert block == pytest.approx([1 - t for t in reversed(block)], abs=1e-12)


def test_net_pulse_operator_examples():
    z = Moos((pauli("z", 1, 1),))
    hahn = compile_program(udd_schedule("Z1", 1), z).net
    assert np.array_equal(hahn.matrix, pauli("z", 1, 1).matrix)
    udd2 = compile_program(udd_schedule("Z1", 2), z).net
    assert np.array_equal(udd2.matrix, np.eye(2))
    nudd22 = compile_program(nudd(MOOS1, (2, 2)), MOOS1).net
    assert spectral_norm(nudd22.matrix - np.eye(2)) <= 1e-12


def test_net_pulse_unknown_label():
    with pytest.raises(PreconditionError):
        compile_program(udd_schedule("Q9", 1), MOOS1)


def test_schedule_validation():
    with pytest.raises(PreconditionError):
        Schedule("udd", (1,), (Event(0.0, ("Z1",)),), (), 2)
    with pytest.raises(PreconditionError):
        Schedule("udd", (2,), (Event(0.5, ("Z1",)), Event(0.5, ("Z1",))), (), 3)


def _same_columns(got, want):
    """Equal, with the same label table and the same codes."""
    return (got == want and got.ops_table == want.ops_table
            and np.array_equal(got.codes, want.codes))


def test_schedule_json_round_trip_bit_exact():
    for s in (
        udd_schedule("Z1", 3),
        nudd(MOOS1, (2, 3)),
        cdd_uniform(MOOS1, 2),
        sdd_schedule(first_order_schedule(MOOS1, include_closing=True)),
    ):
        text = schedule_to_json(s)
        again = schedule_from_json(text)
        assert _same_columns(again, s)
        assert schedule_to_json(again) == text
        assert not any(ch.isspace() for ch in text)  # written compact


def test_writer_is_json_dumps_of_the_columns():
    s = cdd_uniform(MOOS1, 1)
    doc = {"scheme": "cdd", "orders": [1, 1], "times": [0.25, 0.5, 0.75],
           "ops_table": [["Z1"], ["Z1", "X1"]], "codes": [0, 1, 0],
           "closing": ["Z1", "X1"], "intervals": 4}
    assert schedule_to_json(s) == json.dumps(doc, separators=(",", ":"))


_GOOD_SCHEDULE = {
    "scheme": "udd", "orders": [2], "times": [0.25, 0.75], "ops_table": [["Z1"]],
    "codes": [0, 0], "closing": [], "intervals": 3,
}


def _schedule_text(**changes):
    doc = json.loads(json.dumps(_GOOD_SCHEDULE))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


def _compact(text):
    """``text`` as written by json.dumps with its default separators, in the
    compact layout of ``schedule_to_json`` (no test text has ", " or ": "
    inside a string)."""
    return text.replace(", ", ",").replace(": ", ":")


def _rejection(text):
    with pytest.raises(PreconditionError) as err:
        schedule_from_json(text)
    return str(err.value)


def _rejection_in_both_layouts(text):
    """The message for ``text`` and for its compact layout, which must be
    equal but for the character position json names in a decode error,
    which moves with the layout."""
    spaced, compact = _rejection(text), _rejection(_compact(text))
    position = re.compile(r": line \d+ column \d+ \(char \d+\)$")
    assert position.sub("", spaced) == position.sub("", compact)
    return spaced


# The layout ``schedule_to_json`` wrote before it wrote the columns.
_EVENTS_LAYOUT = json.dumps({
    "scheme": "udd", "orders": [2],
    "events": [{"t": 0.25, "ops": ["Z1"]}, {"t": 0.75, "ops": ["Z1"]}],
    "closing": [], "intervals": 3,
})


@pytest.mark.parametrize("text, needle", [
    ('{"scheme": "udd", "orders": [2', "malformed schedule JSON"),
    ("[1, 2]", "must be an object, got list"),
    (_EVENTS_LAYOUT, "schedule JSON is missing key 'times'"),
    (_schedule_text(times=None, ops_table=None, codes=None), "missing key 'times'"),
    (_schedule_text(ops_table=None), "missing key 'ops_table'"),
    (_schedule_text(codes=None), "missing key 'codes'"),
    (_schedule_text(scheme=7), "'scheme' must be a string"),
    (_schedule_text(orders=["2"]), "'orders': every item must be an integer"),
    (_schedule_text(times=["0.25", 0.75]), "'times': every item must be a finite number, got str"),
    (_schedule_text(times=0.25), "'times' must be a list, got float"),
    (_schedule_text(ops_table=[[7]]), "'ops_table': every item must be a list of strings"),
    (_schedule_text(closing=[None]), "'closing': every item must be a string"),
    (_schedule_text(intervals=-3), "intervals -3 is fewer than len(events) + 1 = 3"),
    (_schedule_text(intervals=2), "intervals 2 is fewer than len(events) + 1 = 3"),
    (_schedule_text(intervals=3.0), "'intervals' must be an integer"),
    (_schedule_text(intervals=True), "'intervals' must be an integer"),
], ids=[
    "truncated", "not_object", "events_layout", "no_events", "no_ops_table", "event_no_ops",
    "scheme_int", "order_str", "time_str", "times_not_list", "label_int", "closing_label_null",
    "intervals_negative", "intervals_too_few", "intervals_float", "intervals_bool",
])
def test_schedule_from_json_rejects_bad_input(text, needle):
    assert needle in _rejection_in_both_layouts(text)


def test_schedule_from_json_accepts_silent_sdd_midpoints():
    # each SDD of an unbracketed schedule adds a midpoint boundary with no pulse
    once = sdd_schedule(first_order_schedule(MOOS1))
    twice = sdd_schedule(once)
    assert once.intervals == len(once.events) + 2
    assert twice.intervals == len(twice.events) + 4
    for s in (once, twice):
        assert _same_columns(schedule_from_json(schedule_to_json(s)), s)


_CODES = "'codes': every code must index 'ops_table', of 1 entries"
_TABLE = "'ops_table': every item must be a list of strings"


@pytest.mark.parametrize("text, needle", [
    (_schedule_text(codes=[0, {}]), "'codes': every item must be an integer, got dict"),
    (_schedule_text().replace("0.25", "NaN"), "'times': every item must be a finite number, got float"),
    (_schedule_text().replace("0.25", "1" + "0" * 400),
     "'times': every item must be a finite number, got int"),
    (_schedule_text(times=[True, 0.75]), "'times': every item must be a finite number, got bool"),
    (_schedule_text(ops_table=["Z1"]), "'ops_table': every item must be a list, got str"),
    # the columns are read in the writer's key order
    (_schedule_text(times=None, codes=None), "schedule JSON is missing key 'times'"),
    (_schedule_text(codes=[0, -1]), _CODES),
    (_schedule_text(codes=[0, 1]), _CODES),
    (_schedule_text(codes=[0, 10**30]), _CODES),
    (_schedule_text(codes=[0, True]), "'codes': every item must be an integer, got bool"),
    (_schedule_text(codes=[0, 0.0]), "'codes': every item must be an integer, got float"),
    (_schedule_text(codes=[0]), "keys 'times' and 'codes' differ in length: 2 and 1"),
    (_schedule_text(codes=[0, 0, 0]), "keys 'times' and 'codes' differ in length: 2 and 3"),
    (_schedule_text(ops_table=[["X1", ["Z1"]]]), _TABLE),
    (_schedule_text(ops_table=[["X1", {}]]), _TABLE),
    (_schedule_text(ops_table=[["Z1"], ["X1"]]), "'ops_table': entry 1 is no event's"),
    (_schedule_text(times=[], codes=[]), "'ops_table': entry 0 is no event's"),
], ids=["event_not_object", "time_nan", "time_int_beyond_float", "time_bool", "ops_string",
        "missing_time_before_missing_ops", "code_negative", "code_out_of_range",
        "code_beyond_int64", "code_bool", "code_float", "fewer_codes", "more_codes",
        "label_list", "label_dict", "entry_unused", "entry_without_events"])
def test_schedule_from_json_names_the_bad_event_key(text, needle):
    assert needle in _rejection_in_both_layouts(text)


@pytest.mark.parametrize("key, bad, needle", [
    ("ops_table", ["Z1", 7], _TABLE),
    ("times", None, "'times': every item must be a finite number, got NoneType"),
    ("codes", ..., "keys 'times' and 'codes' differ in length: 10000 and 9999"),
    ("codes", "Z1", "'codes': every item must be an integer, got str"),
    ("codes", 10**30, _CODES.replace("of 1", "of 2")),
    ("codes", -1, _CODES.replace("of 1", "of 2")),
    ("codes", True, "'codes': every item must be an integer, got bool"),
], ids=["label", "time", "missing_ops", "not_object", "code_beyond_int64", "code_negative",
        "code_bool"])
def test_schedule_from_json_finds_one_bad_event_among_10000(key, bad, needle):
    # the last event is the bad one: its time, its code (... drops it), or
    # its label list
    doc = dict(_GOOD_SCHEDULE, times=[(k + 1) / 10001 for k in range(10000)],
               ops_table=[["Z1"], ["X1"]], codes=[0] * 9999 + [1], intervals=10001)
    good = json.dumps(doc)
    doc[key] = doc[key][:-1] + ([] if bad is ... else [bad])
    assert needle in _rejection_in_both_layouts(json.dumps(doc))
    assert len(schedule_from_json(good).events) == 10000
    assert schedule_from_json(_compact(good)) == schedule_from_json(good)


def test_cdd_nested_rejects_negative_orders():
    # used to fail later with "intervals 4 is fewer than len(events) + 1 = 8"
    for orders in ((-1, 3), (2, -2)):
        with pytest.raises(PreconditionError) as err:
            cdd_nested(MOOS1, orders)
        assert str(err.value) == "CDD orders must be >= 0"
    assert cdd_nested(MOOS1, (0, 0)) == Schedule("cdd_nested", (0, 0), (), (), 1)


@pytest.mark.parametrize("build, needle", [
    (lambda: nudd(MOOS1, (2,)), "got 1 orders for an MOOS of size 2"),
    (lambda: nudd(MOOS1, (2, 2, 2)), "got 3 orders for an MOOS of size 2"),
    (lambda: cdd_nested(MOOS1, (2,)), "got 1 orders for an MOOS of size 2"),
    (lambda: udd_schedule("Z1", -1), "UDD order must be >= 0"),
], ids=["nudd_too_few", "nudd_too_many", "cdd_nested_too_few", "udd_negative"])
def test_builders_reject_bad_orders(build, needle):
    with pytest.raises(PreconditionError) as err:
        build()
    assert needle in str(err.value)


def test_event_is_a_named_tuple():
    e = Event(0.5, ("Z1", "X1"))
    assert (e.time, e.ops) == (0.5, ("Z1", "X1")) == tuple(e)
    assert e == Event(0.5, ("Z1", "X1")) != Event(0.5, ("X1", "Z1"))
    assert nudd(MOOS1, (2, 2)).op_labels.count("X1") == 2


@pytest.fixture
def gc_state():
    """Restore the collector's state after a test that switches it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


_SMALL_TEXT = schedule_to_json(nudd(MOOS1, (2, 3)))


@pytest.mark.parametrize("call, raises", [
    (lambda: schedule_from_json(_SMALL_TEXT), False),
    (lambda: schedule_from_json('{"scheme": "x", "times": [0.5]}'), True),
    (lambda: cdd_uniform(MOOS1, 3), False),
    (lambda: cdd_uniform(MOOS1, 0), True),
], ids=["load", "load_malformed", "build", "build_rejected"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_gc_state_is_restored(gc_state, call, raises, enabled):
    # neither loading nor building touches the cyclic collector; the
    # caller's state, on or off, holds afterwards whether the call returns
    # or raises
    (gc.enable if enabled else gc.disable)()
    if raises:
        with pytest.raises(PreconditionError):
            call()
    else:
        call()
    assert gc.isenabled() == enabled


def test_large_schedule_round_trip_sets_off_no_per_event_collections():
    # 65,535 Event tuples (a tuple subclass stays tracked) and a dict and a
    # list per parsed event used to set off hundreds of collections
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()  # empty young generations: only the calls below count
    gc.callbacks.append(count)
    try:
        sched = cdd_uniform(MOOS1, 8)
        back = schedule_from_json(schedule_to_json(sched))
    finally:
        gc.callbacks.remove(count)
    assert back == sched and len(sched.events) == 2**16 - 1
    assert len(starts) <= 2, starts


def test_other_layout_reads_a_2_to_the_16_interval_schedule(monkeypatch):
    # json.dumps's spacing is not the writer's; the text is read as the
    # writer's is, by one json.loads of the whole text
    whole = []
    monkeypatch.setattr(sequences, "load_object", lambda *a: whole.append(a) or load_object(*a))
    sched = cdd_uniform(MOOS1, 8)
    back = schedule_from_json(json.dumps(json.loads(schedule_to_json(sched))))
    assert _same_columns(back, sched)
    assert len(whole) == 1


def test_reading_leaves_the_collector_alone(monkeypatch):
    def switch():
        raise AssertionError("the reader switched the cyclic collector")

    monkeypatch.setattr(gc, "disable", switch)
    monkeypatch.setattr(gc, "enable", switch)
    sched = nudd(MOOS1, (2, 3))
    text = schedule_to_json(sched)
    for layout in (text, json.dumps(json.loads(text))):
        assert schedule_from_json(layout) == sched


def test_schedule_from_json_rejects_more_than_max_intervals():
    # used to load, and only sdd_schedule of it failed
    doc = {"scheme": "x", "orders": [], "times": [], "ops_table": [], "codes": [],
           "closing": [], "intervals": 10**30}
    assert _rejection_in_both_layouts(json.dumps(doc)) == (
        f"schedule JSON has {10**30} control intervals, more than MAX_INTERVALS = 2^20")
    text = json.dumps(dict(doc, intervals=MAX_INTERVALS))
    for layout in (text, _compact(text)):
        assert schedule_from_json(layout).intervals == MAX_INTERVALS
    # checked before any column is looked at
    doc.update(times="bad", codes=[10**30] * 3, intervals=MAX_INTERVALS + 1)
    assert "more than MAX_INTERVALS = 2" in _rejection_in_both_layouts(json.dumps(doc))


@pytest.mark.parametrize("label, kind", [(["Z1"], "list"), ({}, "dict")])
@pytest.mark.parametrize("count", [1, 10000])
def test_schedule_from_json_names_unhashable_labels(label, kind, count):
    # the last event's label list holds a label that cannot be a dict key
    table = [["Z1"], ["X1", label]][-count:]
    doc = dict(_GOOD_SCHEDULE, times=[(k + 1) / (count + 1) for k in range(count)],
               ops_table=table, codes=[0] * (count - 1) + [len(table) - 1],
               intervals=count + 1)
    assert _TABLE in _rejection_in_both_layouts(json.dumps(doc))


def _layouts(text):
    """``text`` as written, with whitespace around it, re-spaced by
    json.dumps, indented, and with its keys in reverse order."""
    doc = json.loads(text)
    return (text, text + "\n", f" \t{text}\r\n", json.dumps(doc), json.dumps(doc, indent=2),
            json.dumps(dict(reversed(doc.items()))))


@pytest.mark.parametrize("sched", [
    udd_schedule("Z1", 1),
    nudd(MOOS1, (2, 3)),
    sdd_schedule(first_order_schedule(MOOS1)),
    cdd_uniform(MOOS1, 8),
], ids=["one_event", "nudd", "sdd_silent_midpoints", "cdd_2_to_the_16"])
def test_every_layout_is_read_by_one_load_object_call(monkeypatch, sched):
    whole = []
    monkeypatch.setattr(sequences, "load_object", lambda *a: whole.append(a) or load_object(*a))
    layouts = _layouts(schedule_to_json(sched))
    for layout in layouts:
        assert _same_columns(schedule_from_json(layout), sched)
    assert len(whole) == len(layouts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, np.float64(1.0),
                                 10**400],
                         ids=["nan", "inf", "-inf", "zero", "one", "negative", "float64_one",
                              "int_beyond_float"])
def test_schedule_names_the_first_time_outside_the_unit_interval(bad):
    for times in ([bad], [0.25, bad, 2.0], [0.1, 0.2, 0.3, bad]):
        events = tuple(Event(t, ("Z1",)) for t in times)
        with pytest.raises(PreconditionError) as err:
            Schedule("udd", (len(times),), events, (), len(times) + 1)
        assert str(err.value) == f"event time {bad} outside the open interval (0, 1)"


@pytest.mark.parametrize("times", [
    (0.5, 0.5), (0.25, 0.5, 0.5 + 1e-13), (0.1, 0.3, 0.2), (0.75, 0.25),
], ids=["repeated", "within_tolerance", "out_of_order", "decreasing"])
def test_schedule_rejects_times_that_do_not_increase(times):
    events = tuple(Event(t, ("Z1",)) for t in times)
    with pytest.raises(PreconditionError, match="event times must be strictly increasing"):
        Schedule("udd", (len(times),), events, (), len(times) + 1)
    spaced = tuple(Event(t, ("Z1",)) for t in (0.25, 0.25 + 2e-12, 0.5))
    assert len(Schedule("udd", (3,), spaced, (), 4).events) == 3
