"""Property tests of every schedule builder, of the two schedule transforms,
of the schedule JSON writer and reader, and of the net pulse.

The builders work on columns and the writer assembles its text by hand, so
both are checked against independent references: per-event versions of the
recursions written out below (times must agree bit for bit), ``json.dumps``
of the documented dict form (the byte oracle of the writer), and SHA-256
digests of ``ddkit sequence --out`` files.  The reader's split of the
writer's text is checked against ``json.loads`` of the whole text, on
mutated and on crafted text.  The net pulse, which
``compile_program`` takes from its grammar, is checked against the product
of the pulses event by event.
"""

import functools
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkit import acceptance, sequences
from ddkit.cli import main
from ddkit.errors import PreconditionError
from ddkit.operators import Moos, Operator, pauli, qubit_full_moos
from ddkit.sequences import (
    MAX_INTERVALS,
    Event,
    Schedule,
    cdd_nested,
    cdd_uniform,
    compose_pulses,
    conjugated,
    first_order_schedule,
    hahn_echo,
    nudd,
    schedule_from_json,
    schedule_to_json,
    sdd_schedule,
    udd_schedule,
    udd_times,
)
from ddkit.simulate import ModelSpec, RunConfig, compile_program, order_scan

MOOS3 = qubit_full_moos(3)  # Z1, X1, Z2, X2, Z3, X3 (8x8)


@functools.lru_cache(maxsize=None)
def _moos(indices: tuple[int, ...]) -> Moos:
    return Moos(tuple(MOOS3.elements[i] for i in indices))


# ---------------------------------------------------------------------------
# Per-event reference builders: each event is a (time, ops) pair and every
# recursion step is unrolled literally.


def _ref_scale(events, a, b):
    return [(a + (b - a) * t, ops) for t, ops in events]


def _ref_bracketed(labels, orders):
    events, closing = [], ()
    for lab, n in zip(labels, orders):
        for _ in range(n):
            mid = closing + (lab,)
            events = _ref_scale(events, 0.0, 0.5) + [(0.5, mid)] + _ref_scale(events, 0.5, 1.0)
            closing = mid
    return events, closing


def _ref_first_order(labels):
    size = len(labels)
    events = []
    for k in range(1, 2**size):
        j = 0
        while not (k >> j) & 1:
            j += 1
        events.append((k / 2**size, (labels[j],)))
    return events, ()


def _ref_cdd_uniform(labels, n):
    base, base_closing = _ref_bracketed(labels, (1,) * len(labels))
    events, closing = base, base_closing
    for _ in range(n - 1):
        bounds = [0.0] + [t for t, _ in base] + [1.0]
        out = []
        for i, (t, ops) in enumerate(base):
            out += _ref_scale(events, bounds[i], bounds[i + 1])
            out.append((t, closing + ops))
        out += _ref_scale(events, bounds[-2], bounds[-1])
        events, closing = out, closing + base_closing
    return events, closing


def _ref_sdd(events, closing):
    mid = closing + closing[::-1]
    return (
        _ref_scale(events, 0.0, 0.5)
        + ([(0.5, mid)] if mid else [])
        + [(1.0 - 0.5 * t, ops[::-1]) for t, ops in reversed(events)]
    ), ()


def _ref_nudd(labels, orders, level, a, b):
    if level == 0:
        return [], ()
    lab, n = labels[level - 1], orders[level - 1]
    bounds = [a] + [a + (b - a) * f for f in udd_times(n)] + [b]
    events = []
    for i in range(n + 1):
        sub, edge = _ref_nudd(labels, orders, level - 1, bounds[i], bounds[i + 1])
        events += sub
        if i < n:
            events.append((bounds[i + 1], edge + (lab,)))
    if n % 2 == 1 and level < len(labels):
        edge += (lab,)
    return events, edge


# ---------------------------------------------------------------------------
# One strategy per scheme.  Each draws a schedule of at most 2^10 intervals
# and returns (schedule, moos, reference (events, closing), number of silent
# SDD midpoints, whether the net pulse must be the identity).

_subsets = st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True).map(tuple)


@st.composite
def _udd(draw):
    n = draw(st.integers(0, 40))
    lab = draw(st.sampled_from(MOOS3.labels))
    return (udd_schedule(lab, n), MOOS3, ([(t, (lab,)) for t in udd_times(n)], ()),
            0, False)


@st.composite
def _first_order(draw):
    idx = draw(_subsets)
    moos, labels = _moos(idx), _moos(idx).labels
    closing = draw(st.booleans())
    ref = _ref_bracketed(labels, (1,) * len(labels)) if closing else _ref_first_order(labels)
    return first_order_schedule(moos, include_closing=closing), moos, ref, 0, closing


@st.composite
def _sdd(draw):
    idx = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(tuple))
    moos, labels = _moos(idx), _moos(idx).labels
    closing = draw(st.booleans())
    sched = first_order_schedule(moos, include_closing=closing)
    ref = _ref_bracketed(labels, (1,) * len(labels)) if closing else _ref_first_order(labels)
    silent = 0
    for _ in range(draw(st.integers(1, 3))):
        silent = 2 * silent + (0 if sched.closing_ops else 1)
        sched, ref = sdd_schedule(sched), _ref_sdd(*ref)
    return sched, moos, ref, silent, False


@st.composite
def _cdd(draw):
    idx = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(tuple))
    n = draw(st.integers(1, 10 // len(idx)))
    moos = _moos(idx)
    return cdd_uniform(moos, n), moos, _ref_cdd_uniform(moos.labels, n), 0, True


@st.composite
def _cdd_nested(draw):
    idx = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(tuple))
    orders = tuple(draw(st.lists(st.integers(0, 4), min_size=len(idx), max_size=len(idx))))
    if sum(orders) > 10:
        orders = tuple(min(n, 10 // len(idx)) for n in orders)
    moos = _moos(idx)
    return (cdd_nested(moos, orders), moos, _ref_bracketed(moos.labels, orders), 0, True)


@st.composite
def _nudd(draw):
    idx = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True).map(tuple))
    odd = draw(st.booleans())
    inner = st.integers(0, 5) if odd else st.integers(0, 2).map(lambda k: 2 * k)
    orders = tuple(draw(st.lists(inner, min_size=len(idx) - 1, max_size=len(idx) - 1)))
    orders += (draw(st.integers(0, 6)),)
    moos = _moos(idx)
    ref = _ref_nudd(moos.labels, orders, len(orders), 0.0, 1.0)
    all_even = all(n % 2 == 0 for n in orders)
    return nudd(moos, orders, allow_odd_inner=odd), moos, ref, 0, all_even


SCHEMES = {
    "udd": _udd(), "first_order": _first_order(), "sdd": _sdd(),
    "cdd": _cdd(), "cdd_nested": _cdd_nested(), "nudd": _nudd(),
}


def _dict_form(s: Schedule) -> str:
    """The byte oracle: json.dumps of the documented dict form."""
    doc = {
        "scheme": s.scheme,
        "orders": list(s.orders),
        "events": [{"t": e.time, "ops": list(e.ops)} for e in s.events],
        "closing": list(s.closing_ops),
        "intervals": s.intervals,
    }
    return json.dumps(doc, separators=(",", ":"))


def _net_reference(s: Schedule, moos: Moos, extra=()) -> np.ndarray:
    """The net pulse event by event, left to right: each event's pulses
    composed, then multiplied onto the product so far, the closing last."""
    net = np.eye(moos.dim, dtype=complex)
    for ops in [e.ops for e in s.events] + [s.closing_ops]:
        if ops:
            net = compose_pulses(ops, moos, extra) @ net
    return net


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_properties(scheme):
    @settings(max_examples=40, deadline=None)
    @given(SCHEMES[scheme])
    def check(case):
        sched, moos, (ref_events, ref_closing), silent, net_identity = case
        times = [e.time for e in sched.events]
        assert all(0.0 < t < 1.0 for t in times)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert sched.intervals == len(sched.events) + 1 + silent
        # bit-exact times and identical label tuples against the reference
        assert [(e.time, e.ops) for e in sched.events] == ref_events
        assert sched.closing_ops == ref_closing
        assert all(type(e) is Event and type(e.ops) is tuple for e in sched.events)
        net = compile_program(sched, moos).net.matrix
        assert np.array_equal(net, _net_reference(sched, moos))
        if net_identity:
            assert np.abs(net - np.eye(moos.dim)).max() <= 1e-12
        text = schedule_to_json(sched)
        assert text == _dict_form(sched)
        assert schedule_from_json(text) == sched

    check()


@st.composite
def _hand_built(draw, label=st.text(max_size=4), scheme=st.text(max_size=6)):
    """Schedules built directly, with arbitrary text for scheme and labels."""
    raw = sorted(draw(st.lists(st.floats(1e-9, 1 - 1e-9), max_size=30)))
    times = []
    for t in raw:
        if not times or t - times[-1] > 1e-11:
            times.append(t)
    events = tuple(
        Event(t, tuple(draw(st.lists(label, max_size=3)))) for t in times
    )
    return Schedule(
        draw(scheme),
        tuple(draw(st.lists(st.integers(-5, 2**70), max_size=3))),
        events,
        tuple(draw(st.lists(label, max_size=3))),
        len(events) + 1 + draw(st.integers(0, 3)),
    )


@settings(max_examples=200, deadline=None)
@given(_hand_built())
def test_writer_matches_json_dumps_on_any_text(sched):
    text = schedule_to_json(sched)
    assert text == _dict_form(sched)
    assert schedule_from_json(text) == sched


# Text that json writes escaped (a quote, a backslash, non-ASCII, a lone
# surrogate) and the writer's own separators, which must stay inside strings.
_JSON_TEXT = st.one_of(
    st.text(max_size=4),
    st.sampled_from(['"', "\\", "é", "\u2028", "\ud800", '},{"t":', ',"ops":',
                     ',"events":[', '],"closing":', '"},{"t":0.5,"ops":["']),
)
# Characters that make or break JSON structure, and two that make none.
_MUTANTS = list('{}[],:"\\ \n0123456789.-+eEINaflnrstu') + ["Z", "é"]


def _read(text):
    """What ``schedule_from_json`` returns for ``text``, or the type and
    message of what it raises."""
    try:
        return schedule_from_json(text)
    except Exception as exc:  # compared with the other way's, never hidden
        return type(exc), str(exc)


def _same_reading(got, want):
    if isinstance(want, Schedule):
        return (isinstance(got, Schedule) and got == want and got.ops_table == want.ops_table
                and np.array_equal(got.codes, want.codes))
    return got == want


@settings(max_examples=150, deadline=None)
@given(_hand_built(_JSON_TEXT, _JSON_TEXT))
def test_writer_text_reads_back_in_any_layout(sched):
    text = schedule_to_json(sched)
    for layout in (text, text + "\n", json.dumps(json.loads(text))):
        assert schedule_from_json(layout) == sched


@settings(max_examples=400, deadline=None)
@given(_hand_built(_JSON_TEXT, _JSON_TEXT), st.data())
def test_split_reading_is_the_json_loads_reading_of_mutated_text(sched, data):
    # one character inserted, deleted or replaced anywhere in the writer's
    # text: the reader's split must give what json.loads of the whole text
    # gives, the same schedule or the same message
    text = schedule_to_json(sched)
    at = data.draw(st.integers(0, len(text) - 1))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    char = "" if edit == "delete" else data.draw(st.sampled_from(_MUTANTS))
    mutated = text[:at] + char + text[at + (edit != "insert"):]
    with mock.patch.object(sequences, "_split_columns", return_value=None):
        want = _read(mutated)
    assert _same_reading(_read(mutated), want)


def _events_between(events, closing='"closing":[],"intervals":3'):
    return '{"scheme":"x","orders":[2],"events":[' + events + "]," + closing + "}"


_ONE = '{"t":0.5,"ops":["Z1"]}'


@pytest.mark.parametrize("text", [
    # the separators out of turn: the first event has no labels
    _events_between('{"t":0.25},{"t":["Z1"],"ops":0.5,"ops":["X1"]}'),
    # two numbers where one time belongs
    _events_between('{"t":0.25,0.5,"ops":["Z1"]}'),
    # a second events key after the closing one
    _events_between(_ONE, '"closing":[],"events":5,"intervals":3'),
    # a separator inside a nested value of the header, or of the labels
    '{"scheme":"x","orders":[{"a":1,"events":[' + _ONE + '],"closing":2}]},'
    '{"closing":[],"intervals":3}',
    _events_between('{"t":0.5,"ops":[{"a":[1],"ops":2}]}'),
    # duplicate header keys, read as json reads them: the last one counts
    '{"scheme":"a","scheme":"b","orders":[2],"events":[' + _ONE + '],"closing":[],'
    '"closing":["Z1"],"intervals":2}',
    _events_between('{"t":NaN,"ops":["Z1"]}'),
    "\ufeff" + _events_between(_ONE),
    _events_between('{"t":0.5, "ops":["Z1"]}'),
    _events_between("").replace(',"events":[]', ""),
], ids=["out_of_turn", "two_times", "events_key_after", "nested_header", "nested_label",
        "duplicate_keys", "nan_time", "byte_order_mark", "spaced_event", "no_events_key"])
def test_split_reading_is_the_json_loads_reading_of_crafted_text(text):
    with mock.patch.object(sequences, "_split_columns", return_value=None):
        want = _read(text)
    assert _same_reading(_read(text), want)


def test_writer_formats_float_subclasses_as_json_does():
    sched = Schedule("udd", (1,), (Event(np.float64(0.5), ("Z1",)),), (), 2)
    assert schedule_to_json(sched) == _dict_form(sched)
    assert '"t":0.5,' in schedule_to_json(sched)


@pytest.mark.parametrize("sched", [
    cdd_uniform(qubit_full_moos(1), 4),
    cdd_nested(qubit_full_moos(2), (2, 1, 0, 3)),
    first_order_schedule(qubit_full_moos(2)),
    sdd_schedule(first_order_schedule(qubit_full_moos(2), include_closing=True)),
    nudd(qubit_full_moos(2), (3, 2, 1, 2), allow_odd_inner=True),
], ids=["cdd", "cdd_nested", "first_order", "sdd", "nudd"])
def test_events_with_the_same_pulses_share_one_label_tuple(sched):
    for s in (sched, schedule_from_json(schedule_to_json(sched))):
        assert len({id(e.ops) for e in s.events}) == len({e.ops for e in s.events})


# ---------------------------------------------------------------------------
# The transforms: plain schedules that keep the JSON round trip, with the
# interval counts and net pulses their constructions imply.


@settings(max_examples=60, deadline=None)
@given(st.one_of(*SCHEMES.values()), st.data())
def test_transforms_intervals_and_net_pulses(case, data):
    sched, moos = case[:2]
    c, w = (moos.by_label(data.draw(st.sampled_from(moos.labels))) for _ in range(2))
    conj, echo = conjugated(sched, c.label), hahn_echo(sched, w.label)
    assert conj.intervals == sched.intervals
    assert echo.intervals == 2 * sched.intervals
    net = compile_program(sched, moos).net.matrix
    assert np.abs(compile_program(conj, moos).net.matrix - net @ c.matrix).max() <= 1e-12
    want = w.matrix @ net @ w.matrix @ net
    assert np.abs(compile_program(echo, moos).net.matrix - want).max() <= 1e-12
    for s in (conj, echo):
        assert schedule_from_json(schedule_to_json(s)) == s
        assert np.array_equal(compile_program(s, moos).net.matrix, _net_reference(s, moos))


@settings(max_examples=100, deadline=None)
@given(_hand_built(), st.text(max_size=4))
def test_transforms_round_trip_any_text(sched, label):
    for s in (conjugated(sched, label), hahn_echo(sched, label)):
        text = schedule_to_json(s)
        assert text == _dict_form(s)
        assert schedule_from_json(text) == s


def test_hahn_echo_rejects_more_than_max_intervals():
    half = Schedule("free", (0,), (), (), MAX_INTERVALS // 2)
    assert hahn_echo(half, "Z1").intervals == MAX_INTERVALS
    with pytest.raises(PreconditionError, match="hahn_echo would have"):
        hahn_echo(Schedule("free", (0,), (), (), MAX_INTERVALS // 2 + 1), "Z1")


# ---------------------------------------------------------------------------
# Golden digests of `ddkit sequence --out`, recorded when the schedule
# builders still made one event object per event.

GOLDEN = [
    ("--scheme udd --orders 5",
     "09ccbb5018a4f35693e7b695565d32e24e8612f62abf112934f58a315d4dddb9"),
    ("--scheme udd --orders 4 --moos qubit_full:2 --op X2",
     "e749b0810b336180323355d8440a9601cfc65da419b63b55dda24d6307330f21"),
    ("--scheme free",
     "7bf11d88f6e6866e4c1fa5dcb30314926fec80c00cd714982e8c85c230ac0066"),
    ("--scheme first_order --moos qubit_full:2",
     "983eeb00bf9647c2a98389fecafc993866e653ea29c58e5280a522134d7bfcaf"),
    ("--scheme first_order --moos qubit_full:2 --include-closing",
     "2c5ca4a380c291781425622164725309e94246ad61e0bf39715f6d3fe52886ce"),
    ("--scheme sdd --moos qubit_full:2",
     "18fcaef180d8963d594cf2cd549de09686a9d6298ed44beed012c2e6d8e762b1"),
    ("--scheme sdd --moos qubit_full:1 --include-closing",
     "81bcdcb980403a81fef37a71f1b1beaeabfe325214e2e5583b27bb1f3f4f3e26"),
    ("--scheme cdd --orders 3 --moos qubit_full:1",
     "192b87c3218c0c01e8aa5f83addc8e743a682e2682996a5726a466b62f8e21ef"),
    ("--scheme cdd --orders 2 --moos mlevel_full:2",
     "e13caea43682526ac21cd44a8822e76d6d02720144b553a0806fa8d2d6b2e91c"),
    ("--scheme cdd --orders 3 --moos qubit_full:2",
     "138b3c60e357b7f73f0c3f89e10e45d7211e77ca34722872cc9a9e12bf8cf909"),
    ("--scheme cdd_nested --orders 2,1,0,2 --moos qubit_full:2",
     "dca1fcf2c07d6402c43f5ce5c32e5d3bc2b6aa1b479428ac33bdacbaf00930ed"),
    ("--scheme nudd --orders 2,3",
     "ee982cb05ac780df773ff27f960661fc9e8da290810ec5fdc4232d7df03cc0eb"),
    ("--scheme nudd --orders 1,2 --allow-odd-inner",
     "5aa213f6eb165f954bbf7bbf3d6b093692ddab2491b524d82e7c16a2dd40da02"),
    ("--scheme nudd --orders 2,2,2,3 --moos qubit_full:2",
     "c2742a72db61f2ef0caf50ec3fda7ba45c8f97c7942b355de816343ba97e841a"),
    ("--scheme nudd --orders 3,2 --allow-odd-inner",
     "0d4550fecde9cf205cf8018c29b637176f1536006d66e683cdfd89c49ff628be"),
    ("--scheme nudd --orders 4,0 --moos mlevel_diagonal:3",
     "eece83728bb087787894f21d2f22e58348518d65ebf2900a088a43d9c4f5b040"),
]


@pytest.mark.parametrize("args, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_sequence_out_golden_sha256(tmp_path, capsys, args, digest):
    out = tmp_path / "s.json"
    assert main(["sequence", *args.split(), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_writer_matches_json_dumps_on_a_2_to_the_16_interval_schedule():
    # the hypothesis writer tests reach only 30 events
    sched = cdd_uniform(qubit_full_moos(1), 8)
    text = schedule_to_json(sched)
    assert len(sched.events) == 2**16 - 1
    assert text == _dict_form(sched)
    assert schedule_from_json(text) == sched


# ---------------------------------------------------------------------------
# The net pulse from the grammar, against the product event by event.

SCAN_SCHEDULES = {  # perfbench's scan cases
    "udd(4)": (udd_schedule("Z1", 4), qubit_full_moos(1)),
    "nudd(2,3)": (nudd(qubit_full_moos(1), (2, 3)), qubit_full_moos(1)),
    "cdd_uniform(3)": (cdd_uniform(qubit_full_moos(1), 3), qubit_full_moos(1)),
    "nudd(2,2,2,3)": (nudd(qubit_full_moos(2), (2, 2, 2, 3)), qubit_full_moos(2)),
    "cdd_nested(2,2,2,2)": (cdd_nested(qubit_full_moos(2), (2, 2, 2, 2)), qubit_full_moos(2)),
}


@pytest.mark.parametrize("name", sorted(SCAN_SCHEDULES))
def test_grammar_net_is_the_per_event_product_on_scan_schedules(name):
    sched, moos = SCAN_SCHEDULES[name]
    assert np.array_equal(compile_program(sched, moos).net.matrix, _net_reference(sched, moos))


def test_grammar_net_of_the_skew_echo_within_roundoff():
    # criterion 11's echo of (X+Y)/sqrt2 is not a signed permutation, so
    # grouping the products differently may move the last bits
    moos = qubit_full_moos(1)
    skew = Operator("D", (pauli("x", 1, 1).matrix + pauli("y", 1, 1).matrix) / np.sqrt(2), 2)
    echo = hahn_echo(udd_schedule("X1", 2), skew.label)
    net = compile_program(echo, moos, (skew,)).net.matrix
    assert np.abs(net - _net_reference(echo, moos, (skew,))).max() <= 1e-13


# ---------------------------------------------------------------------------
# Columns: equality, the events view, and no library path reading it.


def test_schedules_compare_by_their_columns_not_their_tables():
    # the SDD builder lists the mirrored tuples before the midpoint's; the
    # reader and the constructor list them in order of first appearance
    sched = sdd_schedule(first_order_schedule(qubit_full_moos(2), include_closing=True))
    back = schedule_from_json(schedule_to_json(sched))
    by_hand = Schedule(sched.scheme, sched.orders, sched.events, sched.closing_ops,
                       sched.intervals)
    assert back.ops_table == by_hand.ops_table != sched.ops_table
    assert sched == back == by_hand and by_hand == sched
    events = list(sched.events)
    last_bit = events[:3] + [Event(np.nextafter(events[3].time, 1.0), events[3].ops)] + events[4:]
    one_label = events[:3] + [Event(events[3].time, events[3].ops[:-1] + ("Y9",))] + events[4:]
    for changed in (last_bit, one_label):
        other = Schedule(sched.scheme, sched.orders, tuple(changed), sched.closing_ops,
                         sched.intervals)
        assert other != sched and sched != other and other != back
    with pytest.raises(TypeError):
        hash(sched)


def test_events_view_is_the_event_tuples():
    assert nudd(qubit_full_moos(1), (2, 3)).events == (
        Event(0.03661165235168155, ("Z1",)),
        Event(0.10983495705504466, ("Z1",)),
        Event(0.14644660940672624, ("X1",)),
        Event(0.23483495705504465, ("Z1",)),
        Event(0.4116116523516814, ("Z1",)),
        Event(0.4999999999999999, ("X1",)),
        Event(0.5883883476483184, ("Z1",)),
        Event(0.7651650429449552, ("Z1",)),
        Event(0.8535533905932737, ("X1",)),
        Event(0.8901650429449552, ("Z1",)),
        Event(0.9633883476483184, ("Z1",)),
    )


def test_no_library_path_reads_the_events_view(monkeypatch, tmp_path, capsys):
    def walked(self):
        raise AssertionError("a library path walked the events")

    monkeypatch.setattr(Schedule, "events", property(walked))
    monkeypatch.setattr(Schedule, "op_labels", property(walked))
    moos1, moos2 = qubit_full_moos(1), qubit_full_moos(2)
    built = [
        (udd_schedule("Z1", 3), moos1),
        (first_order_schedule(moos2), moos2),
        (first_order_schedule(moos2, include_closing=True), moos2),
        (sdd_schedule(first_order_schedule(moos1)), moos1),
        (sdd_schedule(first_order_schedule(moos1, include_closing=True)), moos1),
        (cdd_uniform(moos1, 2), moos1),
        (cdd_nested(moos2, (1, 2, 0, 1)), moos2),
        (nudd(moos1, (2, 3)), moos1),
        (nudd(moos1, (1, 2), allow_odd_inner=True), moos1),
    ]
    built += [(f(s, "X1"), m) for s, m in built[:4] for f in (conjugated, hahn_echo)]
    for s, moos in built:
        assert schedule_from_json(schedule_to_json(s)) == s
        compile_program(s, moos)
    config = RunConfig(t_grid=(0.1, 0.2), seeds=(0,))
    order_scan(nudd(moos1, (2, 3)), moos1, ModelSpec(), config)
    out = tmp_path / "s.json"
    assert main(["sequence", "--scheme", "sdd", "--moos", "qubit_full:2", "--out", str(out)]) == 0
    assert "pulse multiset: X1 x8, X2 x2, Z1 x16, Z2 x4" in capsys.readouterr().out
    assert acceptance.criterion_pulse_counts().passed
