import json
import math
from collections import Counter

import numpy as np
import pytest

from ddkit.errors import PreconditionError
from ddkit.linalg import spectral_norm
from ddkit.operators import Moos, pauli, qubit_full_moos
from ddkit.sequences import (
    Event,
    Schedule,
    cdd_nested,
    cdd_uniform,
    first_order_schedule,
    net_pulse_operator,
    nudd,
    schedule_from_json,
    schedule_to_json,
    sdd_schedule,
    udd_schedule,
    udd_times,
)

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
        net = net_pulse_operator(s, moos)
        assert spectral_norm(net.matrix - np.eye(moos.dim)) <= 1e-12


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
    net = net_pulse_operator(s, Moos((pauli("z", 1, 1),)))
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
    hahn = net_pulse_operator(udd_schedule("Z1", 1), z)
    assert np.array_equal(hahn.matrix, pauli("z", 1, 1).matrix)
    udd2 = net_pulse_operator(udd_schedule("Z1", 2), z)
    assert np.array_equal(udd2.matrix, np.eye(2))
    nudd22 = net_pulse_operator(nudd(MOOS1, (2, 2)), MOOS1)
    assert spectral_norm(nudd22.matrix - np.eye(2)) <= 1e-12


def test_net_pulse_unknown_label():
    with pytest.raises(PreconditionError):
        net_pulse_operator(udd_schedule("Q9", 1), MOOS1)


def test_schedule_validation():
    with pytest.raises(PreconditionError):
        Schedule("udd", (1,), (Event(0.0, ("Z1",)),), (), 2)
    with pytest.raises(PreconditionError):
        Schedule("udd", (2,), (Event(0.5, ("Z1",)), Event(0.5, ("Z1",))), (), 3)


def test_schedule_json_round_trip_bit_exact():
    for s in (
        udd_schedule("Z1", 3),
        nudd(MOOS1, (2, 3)),
        cdd_uniform(MOOS1, 2),
        sdd_schedule(first_order_schedule(MOOS1, include_closing=True)),
    ):
        text = schedule_to_json(s)
        again = schedule_from_json(text)
        assert again == s
        assert schedule_to_json(again) == text
        assert not any(ch.isspace() for ch in text)  # written compact


_GOOD_SCHEDULE = {
    "scheme": "udd", "orders": [2],
    "events": [{"t": 0.25, "ops": ["Z1"]}, {"t": 0.75, "ops": ["Z1"]}],
    "closing": [], "intervals": 3,
}


def _schedule_text(**changes):
    doc = json.loads(json.dumps(_GOOD_SCHEDULE))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("text, needle", [
    ('{"scheme": "udd", "orders": [2', "malformed schedule JSON"),
    ("[1, 2]", "must be an object, got list"),
    (_schedule_text(events=None), "missing key 'events'"),
    (_schedule_text(events=[{"t": 0.5}]), "missing key 'ops'"),
    (_schedule_text(scheme=7), "'scheme' must be a string"),
    (_schedule_text(orders=["2"]), "'orders': every item must be an integer"),
    (_schedule_text(events=[{"t": "0.5", "ops": ["Z1"]}]), "'t' must be a finite number"),
    (_schedule_text(events=[{"t": 0.5, "ops": [7]}], intervals=2), "'ops': every item must be a string"),
    (_schedule_text(closing=[None]), "'closing': every item must be a string"),
    (_schedule_text(intervals=-3), "intervals -3 is fewer than len(events) + 1 = 3"),
    (_schedule_text(intervals=2), "intervals 2 is fewer than len(events) + 1 = 3"),
    (_schedule_text(intervals=3.0), "'intervals' must be an integer"),
    (_schedule_text(intervals=True), "'intervals' must be an integer"),
], ids=[
    "truncated", "not_object", "no_events", "event_no_ops", "scheme_int",
    "order_str", "time_str", "label_int", "closing_label_null", "intervals_negative",
    "intervals_too_few", "intervals_float", "intervals_bool",
])
def test_schedule_from_json_rejects_bad_input(text, needle):
    with pytest.raises(PreconditionError) as err:
        schedule_from_json(text)
    assert needle in str(err.value)


def test_schedule_from_json_accepts_silent_sdd_midpoints():
    # each SDD of an unbracketed schedule adds a midpoint boundary with no pulse
    once = sdd_schedule(first_order_schedule(MOOS1))
    twice = sdd_schedule(once)
    assert once.intervals == len(once.events) + 2
    assert twice.intervals == len(twice.events) + 4
    for s in (once, twice):
        assert schedule_from_json(schedule_to_json(s)) == s

