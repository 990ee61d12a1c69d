"""Pulse-schedule compilation: UDD, the first-order iterated MOOS scheme,
SDD mirror symmetrization, both CDD recursions, and NUDD nesting.

All but SDD are one construction, ``_nest``: layers nested in each other's
free intervals, UDD layers for UDD and NUDD, order-1 layers at the midpoint
for CDD and the first-order scheme.  Two transforms make new schedules from
old: ``conjugated`` conjugates every free interval by one pulse, and
``hahn_echo`` runs a schedule twice, each run closed by an echo pulse.

Schedules live on the normalized time axis [0, 1]; the physical total time T
is applied at simulation time.  Pulses at a common instant are stored as one
event carrying an ordered label list and are composed in that order (the
first label acts first).
"""

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .jsonio import all_of_kind, get_field, get_list, load_object
from .operators import Moos, Operator

__all__ = [
    "Event",
    "Schedule",
    "udd_times",
    "udd_schedule",
    "first_order_schedule",
    "sdd_schedule",
    "cdd_uniform",
    "cdd_nested",
    "nudd",
    "conjugated",
    "hahn_echo",
    "compose_pulses",
    "net_pulse_operator",
    "schedule_to_json",
    "schedule_from_json",
]

MAX_FIRST_ORDER_SIZE = 12
# Most control intervals a builder makes; each checks before building a list.
_LOG2_MAX_INTERVALS = 20
MAX_INTERVALS = 2**_LOG2_MAX_INTERVALS
_TIME_TOL = 1e-12
_HALF = (0.5,)  # exact; udd_times(1) is 0.49999999999999994


class Event(NamedTuple):
    """An instant in (0, 1) with an ordered tuple of pulse labels."""

    time: float
    ops: tuple[str, ...]


@dataclass(frozen=True)
class Schedule:
    """An ordered pulse schedule on normalized time [0, 1].

    ``closing_ops`` are the pulses applied at time 1: the leftover labels of
    the nested layers (CDD brackets, odd inner NUDD levels).
    ``intervals`` is the number of control intervals of the scheme: at least
    ``len(events) + 1``, and more for SDD, whose midpoint boundary is silent
    when the inner schedule has no closing pulses.
    """

    scheme: str
    orders: tuple[int, ...]
    events: tuple[Event, ...]
    closing_ops: tuple[str, ...]
    intervals: int

    def __post_init__(self):
        times = [e.time for e in self.events]
        for t in times:
            if not (0.0 < t < 1.0):
                raise PreconditionError(f"event time {t} outside the open interval (0, 1)")
        if any(t2 - t1 <= _TIME_TOL for t1, t2 in zip(times, times[1:])):
            raise PreconditionError("event times must be strictly increasing")
        if self.intervals < len(self.events) + 1:
            raise PreconditionError(
                f"intervals {self.intervals} is fewer than len(events) + 1 = "
                f"{len(self.events) + 1}"
            )

    @property
    def op_labels(self) -> tuple[str, ...]:
        """All pulse labels in chronological order, closing pulses last."""
        out: list[str] = []
        for e in self.events:
            out.extend(e.ops)
        out.extend(self.closing_ops)
        return tuple(out)


def udd_times(n: int) -> list[float]:
    """Uhrig pulse fractions sin^2(k pi / (2N+2)) for k = 1..N."""
    if n < 0:
        raise PreconditionError("UDD order must be >= 0")
    return [math.sin(k * math.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# The builders work on two columns: a list of times and a list of label
# tuples, where events with the same pulses share one tuple.  Each public
# builder turns the columns into Event tuples once, at the end.


def _events(times, ops) -> tuple[Event, ...]:
    # tuple.__new__ is the constructor Event's own __new__ calls, minus one
    # Python frame per event.
    return tuple(map(tuple.__new__, repeat(Event), zip(times, ops)))


def _columns(events) -> tuple[list, list]:
    return [e.time for e in events], [e.ops for e in events]


def _too_many_intervals(scheme: str, intervals) -> PreconditionError:
    return PreconditionError(
        f"{scheme} would have {intervals} control intervals, more than "
        f"MAX_INTERVALS = 2^{_LOG2_MAX_INTERVALS}"
    )


def _nest(scheme: str, orders, layers) -> Schedule:
    """``layers`` are (label, interior fractions, leftover) triples,
    innermost first.  Each layer puts boundaries at a + (b - a) * f inside
    every interval (a, b) of the layers outside it.  A layer's pulse is the
    inner layers' leftover labels followed by its own; a layer with
    ``leftover`` appends its label to them, and what is left after the
    outermost layer is the closing."""
    ops: list[tuple[str, ...]] = []
    leftover: tuple[str, ...] = ()
    for label, fracs, keep in layers:
        # The inner layers' pattern in each of this layer's intervals, with
        # this layer's pulse between them.
        ops = [*ops, leftover + (label,)] * (len(fracs) + 1)
        ops.pop()
        if keep:
            leftover += (label,)
    times = _boundaries([fracs for _, fracs, _ in layers])
    return Schedule(scheme, orders, _events(times, ops), leftover, len(times) + 1)


def _boundaries(fractions) -> list[float]:
    # _nest's boundary times, outermost layer first and all intervals of a
    # layer at once; the arrays are freed on return.
    edges = np.array([0.0, 1.0])
    for fracs in reversed(fractions):
        if fracs:
            a = edges[:-1, None]
            edges = np.append(np.hstack((a, a + (edges[1:, None] - a) * fracs)), 1.0)
    return edges[1:-1].tolist()


def udd_schedule(op_label: str, n: int) -> Schedule:
    """Nth-order UDD of a single operator; the leftover Omega^N rotation is
    not emitted as a closing pulse (the error metric compensates for it)."""
    if n + 1 > MAX_INTERVALS:
        raise _too_many_intervals("udd", n + 1)
    return _nest("udd", (n,), [(op_label, udd_times(n), False)])


def first_order_schedule(moos: Moos, include_closing: bool = False) -> Schedule:
    """First-order iterated scheme over the whole MOOS: 2^L equal intervals,
    one halving layer per element, the first innermost, so it toggles
    fastest.  With ``include_closing`` every layer keeps its end bracket,
    inner brackets compose with the boundary pulses, and the net pulse
    operator is exactly the identity.
    """
    size = len(moos)
    if size > MAX_FIRST_ORDER_SIZE:
        raise PreconditionError(f"MOOS size {size} exceeds {MAX_FIRST_ORDER_SIZE}")
    layers = [(lab, _HALF, include_closing) for lab in moos.labels]
    return _nest("first_order", (1,) * size, layers)


def sdd_schedule(inner: Schedule) -> Schedule:
    """Mirror symmetrization: the inner schedule compressed into [0, 1/2]
    followed by its time mirror.  An inner closing bracket collides with the
    mirror's opening bracket at the midpoint and the two compose in order."""
    if 2 * inner.intervals > MAX_INTERVALS:
        raise _too_many_intervals("sdd", 2 * inner.intervals)
    times, ops = _columns(inner.events)
    closing = tuple(inner.closing_ops)
    mid = [closing + closing[::-1]] if closing else []
    own = {o: o for o in ops}
    mirrored = {o: own.get(o[::-1], o[::-1]) for o in own}
    return Schedule(
        "sdd",
        inner.orders,
        _events(
            [0.5 * t for t in times] + [0.5] * len(mid) + [1.0 - 0.5 * t for t in reversed(times)],
            ops + mid + [mirrored[o] for o in reversed(ops)],
        ),
        (),
        2 * inner.intervals,
    )


def cdd_uniform(moos: Moos, n: int) -> Schedule:
    """Concatenated DD: N recursive substitutions of the bracketed
    first-order pattern X -> Omega X(T/2) Omega X(T/2) into its own free
    intervals; 2^(N*L) intervals."""
    size = len(moos)
    if n < 1:
        raise PreconditionError("CDD order must be >= 1")
    if n * size > _LOG2_MAX_INTERVALS:
        raise _too_many_intervals("cdd", f"2^{n * size}")
    return _nest("cdd", (n,) * size, [(lab, _HALF, True) for lab in moos.labels * n])


def cdd_nested(moos: Moos, orders) -> Schedule:
    """Per-operator CDD recursion: level l halves the intervals N_l times,
    with level 1 (the first MOOS element) innermost; 2^(sum N_l) intervals."""
    orders = tuple(int(x) for x in orders)
    if len(orders) != len(moos):
        raise PreconditionError(
            f"got {len(orders)} orders for an MOOS of size {len(moos)}"
        )
    if any(n < 0 for n in orders):
        raise PreconditionError("CDD orders must be >= 0")
    if sum(orders) > _LOG2_MAX_INTERVALS:
        raise _too_many_intervals("cdd_nested", f"2^{sum(orders)}")
    labels = chain.from_iterable(map(repeat, moos.labels, orders))
    return _nest("cdd_nested", orders, [(lab, _HALF, True) for lab in labels])


def nudd(moos: Moos, orders, allow_odd_inner: bool = False) -> Schedule:
    """Nested UDD: the last MOOS element at the outermost UDD timing, each
    level's free intervals subdivided at the rescaled Uhrig fractions of the
    inner levels.

    Inner orders must be even (the symmetry hypothesis under which nesting
    is guaranteed) unless ``allow_odd_inner`` is set for counterexample
    studies.
    An odd inner level leaves one leftover pulse at the end of each of its
    blocks; those compose with the outer pulses at shared boundaries, and the
    one at time 1 goes to the closing list.  The outermost level keeps no
    leftover, as in ``udd_schedule``.
    """
    orders = tuple(int(x) for x in orders)
    if len(orders) != len(moos):
        raise PreconditionError(
            f"got {len(orders)} orders for an MOOS of size {len(moos)}"
        )
    if any(n < 0 for n in orders):
        raise PreconditionError("UDD orders must be >= 0")
    for l, n_l in enumerate(orders[:-1], start=1):
        if n_l % 2 == 1 and not allow_odd_inner:
            raise PreconditionError(
                f"inner level {l} has odd UDD order {n_l}; nesting requires "
                f"even inner orders (pass allow_odd_inner to override)"
            )
    intervals = math.prod(n + 1 for n in orders)
    if intervals > MAX_INTERVALS:
        raise _too_many_intervals("nudd", intervals)
    outer = len(orders) - 1
    return _nest("nudd", orders, [
        (lab, udd_times(n), n % 2 == 1 and l < outer)
        for l, (lab, n) in enumerate(zip(moos.labels, orders))
    ])


def conjugated(schedule: Schedule, label: str) -> Schedule:
    """Every free interval conjugated by the pulse ``label`` (C): each
    event's pulses become (C, *ops, C) and the closing (C, *closing).  The
    leading C is left out: it is a right factor of the propagator and of the
    net pulse, so every preservation error is unchanged."""
    times, ops = _columns(schedule.events)
    own = {o: (label, *o, label) for o in ops}
    return replace(schedule, events=_events(times, map(own.__getitem__, ops)),
                   closing_ops=(label, *schedule.closing_ops))


def hahn_echo(schedule: Schedule, label: str) -> Schedule:
    """Hahn echo of the pulse ``label`` (W): the schedule in each half of
    [0, 1], each half closed by its closing pulses and then W."""
    if 2 * schedule.intervals > MAX_INTERVALS:
        raise _too_many_intervals("hahn_echo", 2 * schedule.intervals)
    times, ops = _columns(schedule.events)
    half, echo = [0.5 * t for t in times], (*schedule.closing_ops, label)
    return replace(schedule, events=_events(half + [0.5] + [0.5 + t for t in half],
                                            ops + [echo] + ops),
                   closing_ops=echo, intervals=2 * schedule.intervals)


def compose_pulses(labels, moos: Moos, extra=()) -> np.ndarray:
    """Product of the pulses ``labels``, each one of the ``extra`` system
    operators or else a MOOS element, the first label acting first: the
    matrix product runs latest-applied leftmost."""
    named = {op.label: op for op in extra}
    product = np.eye(moos.dim, dtype=complex)
    for lab in labels:
        try:
            op = named[lab] if lab in named else moos.by_label(lab)
        except KeyError:
            raise PreconditionError(
                f"schedule references label {lab!r} not present in the MOOS"
            )
        product = op.matrix @ product
    return product


def net_pulse_operator(schedule: Schedule, moos: Moos) -> Operator:
    """Ordered product of all pulse operators (closing pulses included)."""
    return Operator("net", compose_pulses(schedule.op_labels, moos), moos.dim)


_dumps = partial(json.dumps, separators=(",", ":"))


def schedule_to_json(schedule: Schedule) -> str:
    """Compact JSON: byte for byte ``json.dumps`` of the dict form

        {"scheme": ..., "orders": [...], "events": [{"t": ..., "ops": [...]}, ...],
         "closing": [...], "intervals": ...}

    with ``separators=(",", ":")``.  The events are written without building
    that dict: each time as ``float.__repr__`` (how json writes a float) and
    each distinct label tuple encoded once."""
    times, ops = _columns(schedule.events)
    encoded = {o: _dumps(o) for o in set(ops)}
    events = ",".join(map(
        '{{"t":{},"ops":{}}}'.format,
        map(float.__repr__, times),
        map(encoded.__getitem__, ops),
    ))
    return (
        f'{{"scheme":{_dumps(schedule.scheme)},"orders":{_dumps(list(schedule.orders))},'
        f'"events":[{events}],"closing":{_dumps(list(schedule.closing_ops))},'
        f'"intervals":{_dumps(schedule.intervals)}}}'
    )


def schedule_from_json(text: str) -> Schedule:
    doc = load_object(text, "schedule")
    items = get_list(doc, "events", dict, "schedule")
    try:
        times = [e["t"] for e in items]
        labels = [e["ops"] for e in items]
        valid = (
            all_of_kind(times, float)
            and all_of_kind(labels, list)
            and all_of_kind(list(chain.from_iterable(labels)), str)
        )
    except KeyError:
        valid = False
    if not valid:  # walk the events in order to name the first bad key
        times, labels = [], []
        for e in items:
            times.append(get_field(e, "t", float, "schedule event"))
            labels.append(get_list(e, "ops", str, "schedule event"))
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    ops = [shared.setdefault(o, o) for o in map(tuple, labels)]
    scheme = get_field(doc, "scheme", str, "schedule")
    orders = tuple(get_list(doc, "orders", int, "schedule"))
    closing = tuple(get_list(doc, "closing", str, "schedule"))
    intervals = get_field(doc, "intervals", int, "schedule")
    # Drop the parsed document before the events are made, so that the two
    # are not held at once: it is the larger of them.
    del doc, items, labels
    return Schedule(scheme, orders, _events(times, ops), closing, intervals)
