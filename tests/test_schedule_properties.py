"""Property tests of every schedule builder, of the two schedule transforms,
of the schedule JSON writer and reader, and of the net pulse.

The builders work on columns, so they are checked against independent
references: per-event versions of the recursions written out below (times
must agree bit for bit).  The writer is checked against ``json.dumps`` of
the documented dict form made from the events view, and ``ddkit sequence
--out`` files against SHA-256 digests of their bytes and of the schedules
they hold.  The reader is checked on the writer's text in other layouts, on
mutated text and on crafted text.  The net pulse, which ``compile_program``
takes from its grammar, is checked against the product of the pulses event
by event.
"""

import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkit import acceptance, cli
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
        "times": [float(e.time) for e in s.events],
        "ops_table": [list(o) for o in s.ops_table],
        "codes": [s.ops_table.index(e.ops) for e in s.events],
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
# surrogate) and text that looks like the writer's own keys and separators,
# which must stay inside strings.
_JSON_TEXT = st.one_of(
    st.text(max_size=4),
    st.sampled_from(['"', "\\", "é", "\u2028", "\ud800", '],"codes":[', ',"times":',
                     '"ops_table":[["', '"],["', "]]"]),
)
# Characters that make or break JSON structure, and two that make none.
_MUTANTS = list('{}[],:"\\ \n0123456789.-+eEINaflnrstu') + ["Z", "é"]


def _read(text):
    """What ``schedule_from_json`` returns for ``text``, or the type and
    message of what it raises."""
    try:
        return schedule_from_json(text)
    except Exception as exc:  # compared with what is allowed, never hidden
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
    doc = json.loads(text)
    for layout in (text, text + "\n", json.dumps(doc), json.dumps(doc, indent=1),
                   json.dumps(dict(reversed(doc.items())))):
        assert _same_reading(schedule_from_json(layout), sched)


def _mutated_text_reads_as_its_document_or_is_rejected(sched, text, data):
    # one character inserted, deleted or replaced anywhere in text that
    # reads as sched: the reader gives a schedule, the same one where json
    # reads the same document, or a PreconditionError, never another exception
    at = data.draw(st.integers(0, len(text) - 1))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    char = "" if edit == "delete" else data.draw(st.sampled_from(_MUTANTS))
    mutated = text[:at] + char + text[at + (edit != "insert"):]
    got = _read(mutated)
    if isinstance(got, Schedule):
        assert _same_reading(schedule_from_json(schedule_to_json(got)), got)
    else:
        assert got[0] is PreconditionError, got
    try:
        same = json.loads(mutated) == json.loads(text)
    except ValueError:
        same = False
    if same:
        assert _same_reading(got, sched)


@settings(max_examples=300, deadline=None)
@given(_hand_built(_JSON_TEXT, _JSON_TEXT), st.data())
def test_mutated_text_reads_as_its_document_or_is_rejected(sched, data):
    _mutated_text_reads_as_its_document_or_is_rejected(sched, schedule_to_json(sched), data)


@settings(max_examples=200, deadline=None)
@given(_hand_built(_JSON_TEXT, _JSON_TEXT), st.data())
def test_mutated_indented_text_reads_as_its_document_or_is_rejected(sched, data):
    # a layout the writer does not make: every key and list item on a line
    # of its own, and the keys in reverse order
    doc = json.loads(schedule_to_json(sched))
    text = json.dumps(dict(reversed(doc.items())), indent=1)
    assert _same_reading(schedule_from_json(text), sched)
    _mutated_text_reads_as_its_document_or_is_rejected(sched, text, data)


def _columns(**changes):
    doc = {"scheme": "x", "orders": [2], "times": [0.25, 0.5], "ops_table": [["Z1"], ["X1"]],
           "codes": [0, 1], "closing": [], "intervals": 3}
    return json.dumps(dict(doc, **changes), separators=(",", ":"))


_X = Schedule("x", (2,), (Event(0.25, ("Z1",)), Event(0.5, ("X1",))), (), 3)

# Each text with the schedule it reads as, or a part of its message.
CRAFTED = {
    # duplicate keys, read as json reads them: the last one counts
    "duplicate_keys": (_columns()[:-1] + ',"scheme":"y","closing":["Z1"]}',
                       Schedule("y", (2,), _X.events, ("Z1",), 3)),
    # a key that is not the writer's is ignored, as is the old events list
    "extra_key": (_columns(note="hand-edited", events=[]), _X),
    # a label list listed twice is one entry
    "repeated_entry": (_columns(times=[0.25, 0.5, 0.75], ops_table=[["Z1"], ["X1"], ["Z1"]],
                                codes=[0, 1, 2], intervals=4),
                       Schedule("x", (2,), (*_X.events, Event(0.75, ("Z1",))), (), 4)),
    "empty_labels": (_columns(ops_table=[[], ["X1"]]),
                     Schedule("x", (2,), (Event(0.25, ()), Event(0.5, ("X1",))), (), 3)),
    "integer_time": (_columns(times=[0.25, 1]), "event time 1 outside the open interval (0, 1)"),
    "nan_time": (_columns().replace("0.5", "NaN"),
                 "'times': every item must be a finite number, got float"),
    "infinite_time": (_columns().replace("0.5", "-Infinity"),
                      "'times': every item must be a finite number, got float"),
    "nested_labels": (_columns(ops_table=[["Z1"], [["X1"]]]), "'ops_table': every item must"),
    "codes_object": (_columns(codes={"0": 0}), "'codes' must be a list, got dict"),
    "codes_nested": (_columns(codes=[0, [1]]), "'codes': every item must be an integer, got list"),
    "byte_order_mark": ("\ufeff" + _columns(), "malformed schedule JSON"),
    "bytes": (_columns().encode(), _X),
    "bad_utf8": (b"\xff" + _columns().encode(), "malformed schedule JSON"),
}


@pytest.mark.parametrize("text, want", CRAFTED.values(), ids=CRAFTED.keys())
def test_crafted_text_reads_as_its_json_document(text, want):
    got = _read(text)
    if isinstance(want, Schedule):
        assert got == want
    else:
        assert got[0] is PreconditionError and want in got[1], got


def test_writer_formats_float_subclasses_as_json_does():
    sched = Schedule("udd", (1,), (Event(np.float64(0.5), ("Z1",)),), (), 2)
    assert schedule_to_json(sched) == _dict_form(sched)
    assert '"times":[0.5],' in schedule_to_json(sched)


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
# Golden digests of `ddkit sequence --out`, recorded when the file first
# held the schedule's columns; the content digests below pin the schedules
# themselves, unchanged since the builders made one event object per event.

GOLDEN = [
    ("--scheme udd --orders 5",
     "20f510e450021484c8747ad2cac129057686cf9a62172ec04811d86a391d1d4a"),
    ("--scheme udd --orders 4 --moos qubit_full:2 --op X2",
     "ad18a51748921475935ec15a715851b9900ac4a309d85804bbfd8545677ff9ec"),
    ("--scheme free",
     "89e19ed80146890f641f87846ad1b3a3c078e8213fd52806797d923a150c1ae9"),
    ("--scheme first_order --moos qubit_full:2",
     "0dbaf27242f69ae61314c31ea54f8759e2ddc78edadace17a83d4a996540c0f7"),
    ("--scheme first_order --moos qubit_full:2 --include-closing",
     "c866780e6445472772f2c2ff46ba39e6e65ef92f61c1d330a8fb1060848e1a37"),
    ("--scheme sdd --moos qubit_full:2",
     "c21d02ec675d097b8c9956e0cd719827b5482180d660de0fd4d3c26e09bfc4f9"),
    ("--scheme sdd --moos qubit_full:1 --include-closing",
     "beba50e672efa1adb413c2dc024cd454d39396af201596365c3ac8f08ff2976d"),
    ("--scheme cdd --orders 3 --moos qubit_full:1",
     "f9f063721d8ffe4f025c6b8942ef7565db001a024cdc5b0406b62595337cb2f4"),
    ("--scheme cdd --orders 2 --moos mlevel_full:2",
     "a2af4690fced2b21cad6d2d294a6b375621c8665df7977218a236781bebdd871"),
    ("--scheme cdd --orders 3 --moos qubit_full:2",
     "810a350503331d8d6f82546db1ca01a50cce5663549c9b56154d08a6f14e2d82"),
    ("--scheme cdd_nested --orders 2,1,0,2 --moos qubit_full:2",
     "7ea306c67509b9043b95b5e1c7807e8b2c93c0c3bf060892301928745f79dc8b"),
    ("--scheme nudd --orders 2,3",
     "8ee280286e0a81408bdb24d41afaf433318322511dd925bcb02b9710fbb5f229"),
    ("--scheme nudd --orders 1,2 --allow-odd-inner",
     "e242b08cf61d7b0cd7b1bada9dee7e4bc0e66c7206fcda5b6c0fe40ef281acb6"),
    ("--scheme nudd --orders 2,2,2,3 --moos qubit_full:2",
     "11c6590e1fb4f002cd85d0f9a1a309d6669cc239fe25e51bf9468408e164952d"),
    ("--scheme nudd --orders 3,2 --allow-odd-inner",
     "2424db3bdec5aba0e93d9499222e85178343bbcde61230eef11d815c808f8ab3"),
    ("--scheme nudd --orders 4,0 --moos mlevel_diagonal:3",
     "3478522a4dfaa6d135c4c6acf94e54424f6519ea148c578d4c016f789bde63a7"),
]


@pytest.mark.parametrize("args, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_sequence_out_golden_sha256(tmp_path, capsys, args, digest):
    out = tmp_path / "s.json"
    assert main(["sequence", *args.split(), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the schedule each GOLDEN command writes, taken from the
# schedule's columns, not from the file: the bytes of its times, then the
# repr of (each event's labels, its closing, its intervals).  They pin what
# the file digests above hold, whatever the file's layout.
GOLDEN_CONTENT = {
    "--scheme udd --orders 5":
        "432d368ed0bfe2a7b55408f3ae76db6f2a7fd4d3b7b590cbd9f5dff27eec615a",
    "--scheme udd --orders 4 --moos qubit_full:2 --op X2":
        "87924b390646b52f262da511bbeede8003132118d75730092c6e277ca470ff7e",
    "--scheme free":
        "dfbbbd16673a74e53060501ffc39c5d29b0841c6c4d7bd005e565f4f89ce0dee",
    "--scheme first_order --moos qubit_full:2":
        "16de50da671bcdb353e246eaa8f7bbf49de6a021680e6d42adec9a1b4432804e",
    "--scheme first_order --moos qubit_full:2 --include-closing":
        "091658889d2bb3f2d8c002b2b3dbfe66c7fca5f532896e02642c0d33f302d2fb",
    "--scheme sdd --moos qubit_full:2":
        "ba886aa61edd9b10e2c0cdfb41d9b4c62dd8a4bc413cc6c8cfce114f37dca11a",
    "--scheme sdd --moos qubit_full:1 --include-closing":
        "a018dafdfbc37fc973b8e77f3f79eb9ac304337dada1027fe87c8776ecb2dc3a",
    "--scheme cdd --orders 3 --moos qubit_full:1":
        "595b9461f60c2ba3b5efa95ef497985765f1839cb87b29f431a5c1faa6107965",
    "--scheme cdd --orders 2 --moos mlevel_full:2":
        "df9a7797b1c6553c5dd2057d21e876e9ce0e510b740aa452a7768e9e2f42d04d",
    "--scheme cdd --orders 3 --moos qubit_full:2":
        "71f413bf994678f043b35badf05dceecfa6e06cc811ec862414b8ec504d17431",
    "--scheme cdd_nested --orders 2,1,0,2 --moos qubit_full:2":
        "4d90649a0d8925f1c7bce013b65feebcd507838026a7fca9ae17d0e183a3964e",
    "--scheme nudd --orders 2,3":
        "c833aac1c388a050e435924f47751b22f4a04cb0d27e6571c589b3c532739201",
    "--scheme nudd --orders 1,2 --allow-odd-inner":
        "781cbb111efcee44e4e7f3a8428c592a65308ea583b59e51d86addc78c71b640",
    "--scheme nudd --orders 2,2,2,3 --moos qubit_full:2":
        "ae05bbef886fa0a2442548f4776a553d16e145e419f1665555a2a31565aad55f",
    "--scheme nudd --orders 3,2 --allow-odd-inner":
        "411d50572c8e6556ea6416eb68d6b5472614f0530b0fb9ec9bf556b9a2aba294",
    "--scheme nudd --orders 4,0 --moos mlevel_diagonal:3":
        "70534d5ff5ac7c13101b5ded883d4269e6e4dcbfd61cfbaa3aea5c73cf1450c6",
}


def _content_digest(s: Schedule) -> str:
    labels = tuple(map(s.ops_table.__getitem__, s.codes.tolist()))
    digest = hashlib.sha256(s.times.tobytes())
    digest.update(repr((labels, s.closing_ops, s.intervals)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("args", GOLDEN_CONTENT)
def test_sequence_out_golden_content_sha256(tmp_path, capsys, monkeypatch, args):
    # the schedule the command writes, and the one its file reads back as
    written = []
    monkeypatch.setattr(cli, "schedule_to_json", lambda s: written.append(s) or schedule_to_json(s))
    out = tmp_path / "s.json"
    assert main(["sequence", *args.split(), "--out", str(out)]) == 0
    capsys.readouterr()
    back = schedule_from_json(out.read_text())
    assert _content_digest(written[0]) == _content_digest(back) == GOLDEN_CONTENT[args]


def test_writer_matches_json_dumps_on_a_2_to_the_16_interval_schedule():
    # the hypothesis writer tests reach only 30 events
    sched = cdd_uniform(qubit_full_moos(1), 8)
    text = schedule_to_json(sched)
    assert len(sched.events) == 2**16 - 1
    assert text == _dict_form(sched)
    assert schedule_from_json(text) == sched


def test_reader_peak_memory_on_a_2_to_the_16_interval_schedule():
    # json.loads of the columns makes a float per time and a list of codes
    # that are the cached small ints, and no string, dict or list per event
    sched = cdd_uniform(qubit_full_moos(1), 8)
    text = schedule_to_json(sched)
    tracemalloc.start()
    try:
        read = schedule_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == sched
    assert peak <= 6 * 10**6


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
    # the SDD builder lists the mirrored tuples before the midpoint's, and
    # the reader keeps the written table; the constructor lists them in
    # order of first appearance
    sched = sdd_schedule(first_order_schedule(qubit_full_moos(2), include_closing=True))
    back = schedule_from_json(schedule_to_json(sched))
    by_hand = Schedule(sched.scheme, sched.orders, sched.events, sched.closing_ops,
                       sched.intervals)
    assert back.ops_table == sched.ops_table != by_hand.ops_table
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
