"""Pulse-schedule compilation: UDD, the first-order iterated MOOS scheme,
SDD mirror symmetrization, both CDD recursions, and NUDD nesting.

Schedules live on the normalized time axis [0, 1]; the physical total time T
is applied at simulation time.  Pulses at a common instant are stored as one
event carrying an ordered label list and are composed in that order (the
first label acts first).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .jsonio import get_field, get_list, load_object
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
    "net_pulse_operator",
    "schedule_to_json",
    "schedule_from_json",
]

MAX_FIRST_ORDER_SIZE = 12
MAX_CDD_BUDGET = 20
_TIME_TOL = 1e-12


@dataclass(frozen=True)
class Event:
    """An instant in (0, 1) with an ordered list of pulse labels."""

    time: float
    ops: tuple[str, ...]


@dataclass(frozen=True)
class Schedule:
    """An ordered pulse schedule on normalized time [0, 1].

    ``closing_ops`` are the pulses applied at time 1 (bracketed pulses of the
    recursion, or the leftover inner-block pulses of odd-order NUDD levels).
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


def udd_schedule(op_label: str, n: int) -> Schedule:
    """Nth-order UDD of a single operator; the leftover Omega^N rotation is
    not emitted as a closing pulse (the error metric compensates for it)."""
    events = tuple(Event(t, (op_label,)) for t in udd_times(n))
    return Schedule("udd", (n,), events, (), n + 1)


# ---------------------------------------------------------------------------
# internal builders working on raw (events, closing) pairs


def _scale(events, a: float, b: float):
    return [Event(a + (b - a) * e.time, e.ops) for e in events]


def _halve(events, closing, op_label: str):
    """One step of the bracketed recursion X -> Omega X(T/2) Omega X(T/2):
    X in the first half, composed (X-closing then Omega) pulse at the
    midpoint, X in the second half, Omega appended to the closing bracket."""
    new_events = (
        _scale(events, 0.0, 0.5)
        + [Event(0.5, tuple(closing) + (op_label,))]
        + _scale(events, 0.5, 1.0)
    )
    return new_events, list(closing) + [op_label]


def first_order_schedule(moos: Moos, include_closing: bool = False) -> Schedule:
    """First-order iterated scheme over the whole MOOS: 2^L equal intervals.

    Without closing pulses the pattern is the binary-carry (ruler) sequence:
    at boundary k the element whose index equals the number of trailing zero
    bits of k is applied, so the first MOOS element toggles fastest.  With
    ``include_closing`` every recursion level keeps its end bracket, inner
    brackets compose with the boundary pulses, and the net pulse operator is
    exactly the identity.
    """
    size = len(moos)
    if size > MAX_FIRST_ORDER_SIZE:
        raise PreconditionError(f"MOOS size {size} exceeds {MAX_FIRST_ORDER_SIZE}")
    labels = moos.labels
    if include_closing:
        events: list[Event] = []
        closing: list[str] = []
        for lab in labels:
            events, closing = _halve(events, closing, lab)
    else:
        events = []
        for k in range(1, 2**size):
            j = (k & -k).bit_length() - 1  # trailing zero bits of k
            events.append(Event(k / 2**size, (labels[j],)))
        closing = []
    return Schedule("first_order", (1,) * size, tuple(events), tuple(closing), 2**size)


def sdd_schedule(inner: Schedule) -> Schedule:
    """Mirror symmetrization: the inner schedule compressed into [0, 1/2]
    followed by its time mirror.  An inner closing bracket collides with the
    mirror's opening bracket at the midpoint and the two compose in order."""
    first = _scale(inner.events, 0.0, 0.5)
    mid_ops = tuple(inner.closing_ops) + tuple(reversed(inner.closing_ops))
    mid = [Event(0.5, mid_ops)] if mid_ops else []
    second = [
        Event(1.0 - 0.5 * e.time, tuple(reversed(e.ops)))
        for e in reversed(inner.events)
    ]
    return Schedule(
        "sdd",
        inner.orders,
        tuple(first + mid + second),
        (),
        2 * inner.intervals,
    )


def _substitute(outer_events, outer_closing, inner_events, inner_closing):
    """Fill every free interval of the outer pattern with the inner schedule;
    inner closing pulses compose with the outer pulse at shared boundaries."""
    bounds = [0.0] + [e.time for e in outer_events] + [1.0]
    events: list[Event] = []
    for i, e in enumerate(outer_events):
        events.extend(_scale(inner_events, bounds[i], bounds[i + 1]))
        events.append(Event(e.time, tuple(inner_closing) + tuple(e.ops)))
    events.extend(_scale(inner_events, bounds[-2], bounds[-1]))
    closing = list(inner_closing) + list(outer_closing)
    return events, closing


def cdd_uniform(moos: Moos, n: int) -> Schedule:
    """Concatenated DD: N recursive substitutions of the bracketed
    first-order pattern into its own free intervals; 2^(N*L) intervals."""
    size = len(moos)
    if n < 1:
        raise PreconditionError("CDD order must be >= 1")
    if n * size > MAX_CDD_BUDGET:
        raise PreconditionError(
            f"CDD budget exceeded: N*L = {n * size} > {MAX_CDD_BUDGET}"
        )
    base = first_order_schedule(moos, include_closing=True)
    events = list(base.events)
    closing = list(base.closing_ops)
    for _ in range(n - 1):
        events, closing = _substitute(base.events, base.closing_ops, events, closing)
    return Schedule("cdd", (n,) * size, tuple(events), tuple(closing), 2 ** (n * size))


def cdd_nested(moos: Moos, orders) -> Schedule:
    """Per-operator CDD recursion: level l halves the intervals N_l times,
    with level 1 (the first MOOS element) innermost; 2^(sum N_l) intervals."""
    orders = tuple(int(x) for x in orders)
    if len(orders) != len(moos):
        raise PreconditionError(
            f"got {len(orders)} orders for an MOOS of size {len(moos)}"
        )
    if sum(orders) > MAX_CDD_BUDGET:
        raise PreconditionError(
            f"CDD budget exceeded: sum of orders {sum(orders)} > {MAX_CDD_BUDGET}"
        )
    events: list[Event] = []
    closing: list[str] = []
    for lab, n_l in zip(moos.labels, orders):
        for _ in range(n_l):
            events, closing = _halve(events, closing, lab)
    return Schedule("cdd_nested", orders, tuple(events), tuple(closing), 2 ** sum(orders))


def nudd(moos: Moos, orders, allow_odd_inner: bool = False) -> Schedule:
    """Nested UDD: the last MOOS element at the outermost UDD timing, each
    level's free intervals recursively subdivided at the rescaled Uhrig
    fractions of the inner levels.

    Inner orders must be even (the symmetry hypothesis under which nesting
    is guaranteed) unless ``allow_odd_inner`` is set for counterexample
    studies.
    An odd inner level leaves one leftover pulse at the end of each of its
    blocks; those compose with the outer pulses at shared boundaries, and the
    one at time 1 goes to the closing list.
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
    labels = moos.labels

    def build(level: int, a: float, b: float):
        """Events inside (a, b) and the pulses left at the right edge b."""
        if level == 0:
            return [], []
        lab = labels[level - 1]
        n = orders[level - 1]
        bounds = [a] + [a + (b - a) * f for f in udd_times(n)] + [b]
        events: list[Event] = []
        for i in range(len(bounds) - 1):
            sub_events, sub_edge = build(level - 1, bounds[i], bounds[i + 1])
            events.extend(sub_events)
            if i < len(bounds) - 2:
                events.append(Event(bounds[i + 1], tuple(sub_edge) + (lab,)))
                last_edge = None
            else:
                last_edge = sub_edge
        edge = list(last_edge) + ([lab] if n % 2 == 1 and level < len(labels) else [])
        return events, edge

    events, edge = build(len(labels), 0.0, 1.0)
    intervals = math.prod(n + 1 for n in orders)
    return Schedule("nudd", orders, tuple(events), tuple(edge), intervals)


def net_pulse_operator(schedule: Schedule, moos: Moos) -> Operator:
    """Ordered product of all pulse operators (closing pulses included);
    the matrix product runs latest-applied leftmost."""
    net = np.eye(moos.dim, dtype=complex)
    for lab in schedule.op_labels:
        try:
            op = moos.by_label(lab)
        except KeyError:
            raise PreconditionError(
                f"schedule references label {lab!r} not present in the MOOS"
            )
        net = op.matrix @ net
    return Operator("net", net, moos.dim)


def schedule_to_json(schedule: Schedule) -> str:
    """Compact JSON (no indentation or spaces), which CPython encodes in C."""
    doc = {
        "scheme": schedule.scheme,
        "orders": list(schedule.orders),
        "events": [{"t": e.time, "ops": list(e.ops)} for e in schedule.events],
        "closing": list(schedule.closing_ops),
        "intervals": schedule.intervals,
    }
    return json.dumps(doc, separators=(",", ":"))


def schedule_from_json(text: str) -> Schedule:
    doc = load_object(text, "schedule")
    events = tuple(
        Event(get_field(e, "t", float, "schedule event"),
              tuple(get_list(e, "ops", str, "schedule event")))
        for e in get_list(doc, "events", dict, "schedule")
    )
    return Schedule(
        get_field(doc, "scheme", str, "schedule"),
        tuple(get_list(doc, "orders", int, "schedule")),
        events,
        tuple(get_list(doc, "closing", str, "schedule")),
        get_field(doc, "intervals", int, "schedule"),
    )
