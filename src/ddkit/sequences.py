"""Pulse-schedule compilation: UDD, the first-order iterated MOOS scheme,
SDD mirror symmetrization, both CDD recursions, and NUDD nesting.

All but SDD are one construction, ``_nest``: layers nested in each other's
free intervals, UDD layers for UDD and NUDD, order-1 layers at the midpoint
for CDD and the first-order scheme.  Two transforms make new schedules from
old: ``conjugated`` conjugates every free interval by one pulse, and
``hahn_echo`` runs a schedule twice, each run closed by an echo pulse.

Every schedule has a nesting (``Schedule.nesting``, ``Layer``), from which
``simulate.compile_program`` reads its grammar: the one the builders and the
transforms record, or else one block made from the event times.  A layer is
held as columns, as the schedule is: its interval lengths, a table of its
distinct label tuples with one code per boundary, and the block in each
interval.  It also names the rule of its lengths: ``("udd", N)``, the UDD
closed form (``udd_lengths``), or ``("halves",)``; a block made from event
times has none, and shares the schedule's own ``ops_table`` and ``codes``.

Schedules live on the normalized time axis [0, 1]; the physical total time T
is applied at simulation time.  Pulses at a common instant are stored as one
event carrying an ordered label list and are composed in that order (the
first label acts first).

A ``Schedule`` holds its events as columns: a float64 array of the event
times, a tuple of the distinct label tuples, and one integer code per event
into that tuple.  The builders and the transforms work on the columns with
array operations and make no Python object per event; ``Schedule.events``
makes ``Event`` tuples only when it is read.

The JSON form is those columns too: the writer is one ``json.dumps``, and
the reader one ``json.loads`` of the whole text, whatever its layout,
followed by checks of each key.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, as_index
from .jsonio import all_of_kind, get_field, get_list, load_object
from .operators import Moos

__all__ = [
    "Event",
    "Schedule",
    "Layer",
    "udd_times",
    "udd_lengths",
    "udd_schedule",
    "first_order_schedule",
    "sdd_schedule",
    "cdd_uniform",
    "cdd_nested",
    "nudd",
    "conjugated",
    "hahn_echo",
    "compose_pulses",
    "schedule_to_json",
    "schedule_from_json",
]

MAX_FIRST_ORDER_SIZE = 12
# Most control intervals a builder makes; each checks before building a list.
_LOG2_MAX_INTERVALS = 20
MAX_INTERVALS = 2**_LOG2_MAX_INTERVALS
_MORE_THAN_MAX = f"more than MAX_INTERVALS = 2^{_LOG2_MAX_INTERVALS}"
_TIME_TOL = 1e-12
_HALVES = ("halves",)  # the rule of a layer of two halves


class Event(NamedTuple):
    """An instant in (0, 1) with an ordered tuple of pulse labels."""

    time: float
    ops: tuple[str, ...]


class Layer(NamedTuple):
    """A block of a nesting, held as columns as a ``Schedule`` holds its events.

    ``rule`` names the law of its lengths: ``("udd", N)`` for the N+1 UDD
    lengths ``udd_lengths(N)``, ``("halves",)`` for two exact halves, or None
    for a block made from event times.  ``lengths`` is a read-only float64
    array of its intervals' lengths, as fractions of the block.  Boundary i,
    between intervals i and i+1, carries the labels ``table[codes[i]]``:
    ``table`` holds the block's distinct label tuples, and ``codes`` is a
    read-only intp array.  ``inner`` is a read-only intp array of the index
    of the block in each interval, or -1 for a free one; a uniform column is
    a zero-stride view, so a layer makes no Python object per interval.
    Blocks follow the blocks in them; the last is the whole."""

    rule: tuple | None
    lengths: np.ndarray
    table: tuple[tuple[str, ...], ...]
    codes: np.ndarray
    inner: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class Schedule:
    """An ordered pulse schedule on normalized time [0, 1], held as columns.

    ``times`` is a read-only float64 array of the event times, and event i
    applies the labels ``ops_table[codes[i]]``: ``ops_table`` holds each
    distinct label tuple once, and ``codes`` is a read-only integer array.
    ``closing_ops`` are the pulses applied at time 1: the leftover labels of
    the nested layers (CDD brackets, odd inner NUDD levels).
    ``intervals`` is the number of control intervals of the scheme: at least
    ``len(times) + 1``, and more for SDD, whose midpoint boundary is silent
    when the inner schedule has no closing pulses.

    ``Schedule(scheme, orders, events, closing_ops, intervals)`` makes the
    columns from (time, ops) pairs such as ``Event``s; the builders make
    them directly.  Either way each time must lie in (0, 1), the first that
    does not is named as given, and each must exceed the one before it by
    more than 1e-12.

    Two schedules are equal when their scheme, orders, times (bit for bit),
    labels per event, closing and intervals are, in whatever order their
    tables list the label tuples; ``nesting`` (one block unless a builder or
    a transform made the schedule) is not compared.  A schedule is not hashable.
    """

    scheme: str
    orders: tuple[int, ...]
    times: np.ndarray
    ops_table: tuple[tuple[str, ...], ...]
    codes: np.ndarray
    closing_ops: tuple[str, ...]
    intervals: int

    __hash__ = None

    def __init__(self, scheme, orders, events, closing_ops, intervals):
        table: dict[tuple, int] = {}
        codes = [table.setdefault(tuple(ops), len(table)) for _, ops in events]
        self._set(scheme, orders, [t for t, _ in events], tuple(table), codes,
                  closing_ops, intervals)

    @classmethod
    def _of(cls, scheme, orders, times, ops_table, codes, closing_ops, intervals,
            nesting=()):
        """A schedule from its columns, checked as one made from events."""
        self = object.__new__(cls)
        self._set(scheme, orders, times, ops_table, codes, closing_ops, intervals)
        if nesting:
            vars(self)["nesting"] = nesting
        return self

    def _set(self, scheme, orders, given, ops_table, codes, closing_ops, intervals):
        try:
            times = np.asarray(given, dtype=float)
        except OverflowError:  # an integer beyond the float range, so outside
            times = np.array(given, dtype=object)
        inside = (times > 0.0) & (times < 1.0)  # False for NaN
        if not inside.all():
            t = given[inside.argmin()]
            raise PreconditionError(f"event time {t} outside the open interval (0, 1)")
        if (times[1:] - times[:-1] <= _TIME_TOL).any():
            raise PreconditionError("event times must be strictly increasing")
        if intervals < len(times) + 1:
            raise PreconditionError(
                f"intervals {intervals} is fewer than len(events) + 1 = {len(times) + 1}"
            )
        codes = np.asarray(codes, dtype=np.intp)
        index: dict[tuple, int] = {}
        merged = [index.setdefault(o, len(index)) for o in ops_table]
        if len(index) < len(ops_table):  # one entry per distinct tuple
            codes, ops_table = np.array(merged, dtype=np.intp)[codes], tuple(index)
        times.flags.writeable = codes.flags.writeable = False
        vars(self).update(scheme=scheme, orders=orders, times=times, ops_table=ops_table,
                          codes=codes, closing_ops=closing_ops, intervals=intervals)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        if ((self.scheme, self.orders, self.closing_ops, self.intervals)
                != (other.scheme, other.orders, other.closing_ops, other.intervals)
                or not np.array_equal(self.times, other.times)):
            return False
        # Each tuple of this table as a code of the other's, -1 if it has none.
        index = {o: i for i, o in enumerate(other.ops_table)}
        remap = np.array([index.get(o, -1) for o in self.ops_table], dtype=np.intp)
        return np.array_equal(remap[self.codes], other.codes)

    @cached_property
    def nesting(self) -> tuple[Layer, ...]:
        """The nesting a builder or a transform recorded, or else the schedule
        as one block with no rule, made on first read: its lengths the
        differences of (0, times, 1), its boundaries the schedule's own
        ``ops_table`` and ``codes`` (shared, not copied), and no block nested
        in any interval."""
        lengths = np.diff(self.times, prepend=0.0, append=1.0)
        lengths.flags.writeable = False
        return (Layer(None, lengths, self.ops_table, self.codes, _column(-1, len(lengths))),)

    @property
    def events(self) -> tuple[Event, ...]:
        """The events as ``Event`` tuples, made from the columns on each read."""
        ops = map(self.ops_table.__getitem__, self.codes.tolist())
        # tuple.__new__ is the constructor Event's own __new__ calls, minus
        # one Python frame per event.
        return tuple(map(tuple.__new__, repeat(Event), zip(self.times.tolist(), ops)))

    @property
    def op_labels(self) -> tuple[str, ...]:
        """All pulse labels in chronological order, closing pulses last."""
        ops = map(self.ops_table.__getitem__, self.codes.tolist())
        return (*chain.from_iterable(ops), *self.closing_ops)


def udd_times(n: int) -> list[float]:
    """Uhrig pulse fractions sin^2(k pi / (2N+2)) for k = 1..N."""
    n = _check_udd_order(n)
    angles = np.arange(1, n + 1) * math.pi / (2 * n + 2)
    return list(map(pow, map(math.sin, angles.tolist()), repeat(2)))


def udd_lengths(n: int) -> list[float]:
    """The N+1 UDD interval lengths sin((2j+1) theta) sin(theta), theta =
    pi / (2N+2), whose first k sum to sin^2(k theta); length j is computed
    at min(j, N-j), once, so mirrored lengths are equal bit for bit."""
    n = _check_udd_order(n)
    theta = math.pi / (2 * n + 2)
    angles = (2 * np.arange(n // 2 + 1) + 1) * theta
    half = list(map(mul, map(math.sin, angles.tolist()), repeat(math.sin(theta))))
    return half + half[: (n + 1) // 2][::-1]


def _check_udd_order(n: int) -> int:
    n = as_index(n, "UDD order")
    if n < 0:
        raise PreconditionError("UDD order must be >= 0")
    if n + 1 > MAX_INTERVALS:
        raise _too_many_intervals("udd", n + 1)
    return n


def _too_many_intervals(scheme: str, intervals) -> PreconditionError:
    return PreconditionError(f"{scheme} would have {intervals} control intervals, {_MORE_THAN_MAX}")


def _check_orders(moos: Moos, orders, scheme: str) -> tuple[int, ...]:
    orders = tuple(as_index(x, f"{scheme} order") for x in orders)
    if len(orders) != len(moos):
        raise PreconditionError(
            f"got {len(orders)} orders for an MOOS of size {len(moos)}"
        )
    if any(n < 0 for n in orders):
        raise PreconditionError(f"{scheme} orders must be >= 0")
    return orders


def _layer(rule, key, inner) -> tuple[list[float], Layer]:
    """The interior boundary fractions of a layer of ``rule``, and the layer:
    the rule's lengths, the labels ``key`` at every boundary, and the block
    ``inner`` (one index for all intervals, or one per interval) in its
    intervals.  UDD's fractions and lengths are its closed forms; a
    halving's are exact (``udd_times(1)`` is 0.49999999999999994)."""
    if rule == _HALVES:
        fracs, lengths = [0.5], [0.5, 0.5]
    else:
        fracs, lengths = udd_times(rule[1]), udd_lengths(rule[1])
    lengths = np.array(lengths)
    lengths.flags.writeable = False
    return fracs, Layer(rule, lengths, (key,), _column(0, len(fracs)),
                        _column(inner, len(lengths)))


def _column(values, n: int) -> np.ndarray:
    """``values`` (one value for all n, or n values) as a read-only intp
    array of length n: a zero-stride view when it is one value."""
    return np.broadcast_to(np.asarray(values, dtype=np.intp), (n,))


def _nest(scheme: str, orders, layers) -> Schedule:
    """``layers`` are (label, rule, leftover) tuples, innermost first.  Each
    layer puts boundaries at a + (b - a) * f, f the interior fractions of
    its rule, inside every interval (a, b) of the layers outside it.  A
    layer's pulse is the inner layers' leftover labels followed by its own;
    a layer with ``leftover`` appends its label to them, and what is left
    after the outermost layer is the closing.  Each layer with boundaries is
    a ``Layer`` of the nesting, each of its intervals holding the layer
    before it (-1, none, for the first)."""
    table: list[tuple[str, ...]] = []
    nesting: list[Layer] = []
    fractions: list[list[float]] = []
    codes = np.empty(0, dtype=np.intp)
    leftover: tuple[str, ...] = ()
    for label, rule, keep in layers:
        fracs, layer = _layer(rule, leftover + (label,), len(nesting) - 1)
        if fracs:
            # The inner layers' pattern in each of this layer's intervals,
            # with this layer's pulse between them.
            codes = np.tile(np.append(codes, len(table)), len(fracs) + 1)[:-1]
            table.append(layer.table[0])
            nesting.append(layer)
            fractions.append(fracs)
        if keep:
            leftover += (label,)
    times = _boundaries(fractions)
    return Schedule._of(scheme, orders, times, tuple(table), codes, leftover, len(times) + 1,
                        tuple(nesting))


def _boundaries(fractions) -> np.ndarray:
    # _nest's boundary times, outermost layer first and all intervals of a
    # layer at once.
    edges = np.array([0.0, 1.0])
    for fracs in reversed(fractions):
        a = edges[:-1, None]
        edges = np.append(np.hstack((a, a + (edges[1:, None] - a) * fracs)), 1.0)
    return edges[1:-1]


def udd_schedule(op_label: str, n: int) -> Schedule:
    """Nth-order UDD of a single operator; the leftover Omega^N rotation is
    not emitted as a closing pulse (the error metric compensates for it)."""
    n = _check_udd_order(n)
    return _nest("udd", (n,), [(op_label, ("udd", n), False)])


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
    return _nest("first_order", (1,) * size,
                 [(lab, _HALVES, include_closing) for lab in moos.labels])


def sdd_schedule(inner: Schedule) -> Schedule:
    """Mirror symmetrization: the inner schedule compressed into [0, 1/2]
    followed by its time mirror.  An inner closing bracket collides with the
    mirror's opening bracket at the midpoint and the two compose in order.
    The nesting adds each inner block mirrored, with its rule, as UDD and
    halving lengths are mirror-symmetric bit for bit: its columns reversed,
    and each label tuple of its table."""
    if 2 * inner.intervals > MAX_INTERVALS:
        raise _too_many_intervals("sdd", 2 * inner.intervals)
    half, closing, n = 0.5 * inner.times, tuple(inner.closing_ops), len(inner.ops_table)
    mid = [closing + closing[::-1]] if closing else []
    nesting, k = inner.nesting, len(inner.nesting)  # the mirrors are numbered k on
    nesting += (*(Layer(b.rule, b.lengths[::-1], tuple(o[::-1] for o in b.table), b.codes[::-1],
                        _column(np.where(b.inner < 0, -1, b.inner + k)[::-1], len(b.inner)))
                  for b in nesting),
                _layer(_HALVES, closing + closing[::-1], (k - 1, 2 * k - 1))[1])
    # The mirror's tuples are the table's reversed, coded n on; the
    # constructor merges those that read the same both ways.
    return Schedule._of(
        "sdd",
        inner.orders,
        np.concatenate((half, [0.5] * len(mid), 1.0 - half[::-1])),
        (*inner.ops_table, *(o[::-1] for o in inner.ops_table), *mid),
        np.concatenate((inner.codes, np.full(len(mid), 2 * n), inner.codes[::-1] + n)),
        (),
        2 * inner.intervals,
        nesting,
    )


def cdd_uniform(moos: Moos, n: int) -> Schedule:
    """Concatenated DD: N recursive substitutions of the bracketed
    first-order pattern X -> Omega X(T/2) Omega X(T/2) into its own free
    intervals; 2^(N*L) intervals."""
    size, n = len(moos), as_index(n, "CDD order")
    if n < 1:
        raise PreconditionError("CDD order must be >= 1")
    if n * size > _LOG2_MAX_INTERVALS:
        raise _too_many_intervals("cdd", f"2^{n * size}")
    return _nest("cdd", (n,) * size, [(lab, _HALVES, True) for lab in moos.labels * n])


def cdd_nested(moos: Moos, orders) -> Schedule:
    """Per-operator CDD recursion: level l halves the intervals N_l times,
    with level 1 (the first MOOS element) innermost; 2^(sum N_l) intervals."""
    orders = _check_orders(moos, orders, "CDD")
    if sum(orders) > _LOG2_MAX_INTERVALS:
        raise _too_many_intervals("cdd_nested", f"2^{sum(orders)}")
    labels = chain.from_iterable(map(repeat, moos.labels, orders))
    return _nest("cdd_nested", orders, [(lab, _HALVES, True) for lab in labels])


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
    orders = _check_orders(moos, orders, "UDD")
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
        (lab, ("udd", n), n % 2 == 1 and l < outer)
        for l, (lab, n) in enumerate(zip(moos.labels, orders))
    ])


def conjugated(schedule: Schedule, label: str) -> Schedule:
    """Every free interval conjugated by the pulse ``label`` (C): each
    event's pulses become (C, *ops, C) and the closing (C, *closing).  The
    leading C is left out: it is a right factor of the propagator and of the
    net pulse, so every preservation error is unchanged.  The nesting's
    pulses are conjugated alike, in each block's table; a boundary without
    pulses stays so (C C = I)."""
    nesting = tuple(b._replace(table=tuple(o and (label, *o, label) for o in b.table))
                    for b in schedule.nesting)
    return Schedule._of(schedule.scheme, schedule.orders, schedule.times,
                        tuple((label, *o, label) for o in schedule.ops_table),
                        schedule.codes, (label, *schedule.closing_ops), schedule.intervals,
                        nesting)


def hahn_echo(schedule: Schedule, label: str) -> Schedule:
    """Hahn echo of the pulse ``label`` (W): the schedule in each half of
    [0, 1], each half closed by its closing pulses and then W; the nesting
    adds that block of two."""
    if 2 * schedule.intervals > MAX_INTERVALS:
        raise _too_many_intervals("hahn_echo", 2 * schedule.intervals)
    half, echo, codes = 0.5 * schedule.times, (*schedule.closing_ops, label), schedule.codes
    nesting = schedule.nesting
    return Schedule._of(schedule.scheme, schedule.orders,
                        np.concatenate((half, [0.5], 0.5 + half)),
                        (*schedule.ops_table, echo),
                        np.concatenate((codes, [len(schedule.ops_table)], codes)),
                        echo, 2 * schedule.intervals,
                        (*nesting, _layer(_HALVES, echo, len(nesting) - 1)[1]))


def compose_pulses(labels, moos: Moos, extra=()) -> np.ndarray:
    """Product of the pulses ``labels``, each one of the ``extra`` system
    operators or else a MOOS element, the first label acting first: the
    matrix product runs latest-applied leftmost."""
    named = {op.label: op for op in (*moos.elements, *extra)}  # extra ones win
    product = np.eye(moos.dim, dtype=complex)
    for lab in labels:
        if lab not in named:
            raise PreconditionError(
                f"schedule references label {lab!r} not present in the MOOS"
            )
        product = named[lab].matrix @ product
    return product


def schedule_to_json(schedule: Schedule) -> str:
    """Compact JSON, ``json.dumps`` with ``separators=(",", ":")`` of the
    schedule's columns:

        {"scheme": ..., "orders": [...], "times": [...], "ops_table": [[...], ...],
         "codes": [...], "closing": [...], "intervals": ...}

    Each time is written as ``float.__repr__`` writes it, so it reads back
    bit for bit; ``ops_table`` lists each distinct label list once, and
    ``codes`` holds one index into it per event."""
    return json.dumps({
        "scheme": schedule.scheme,
        "orders": schedule.orders,
        "times": schedule.times.tolist(),
        "ops_table": schedule.ops_table,
        "codes": schedule.codes.tolist(),
        "closing": schedule.closing_ops,
        "intervals": schedule.intervals,
    }, separators=(",", ":"))


def schedule_from_json(text: str) -> Schedule:
    """Inverse of ``schedule_to_json``, for text in any layout: one
    ``json.loads`` of the whole text, then each key read and checked, so
    that a bad one is named.  A schedule of more than ``MAX_INTERVALS``
    intervals is rejected before any array is made.  Every code must index
    ``ops_table``, and every entry there must be some event's."""
    doc = load_object(text, "schedule")
    scheme = get_field(doc, "scheme", str, "schedule")
    orders = tuple(get_list(doc, "orders", int, "schedule"))
    closing = tuple(get_list(doc, "closing", str, "schedule"))
    intervals = get_field(doc, "intervals", int, "schedule")
    if intervals > MAX_INTERVALS:
        raise PreconditionError(
            f"schedule JSON has {intervals} control intervals, {_MORE_THAN_MAX}"
        )
    times = get_list(doc, "times", float, "schedule")
    table = get_list(doc, "ops_table", list, "schedule")
    if not all_of_kind(list(chain.from_iterable(table)), str):
        raise PreconditionError("schedule JSON key 'ops_table': every item must be "
                                "a list of strings")
    codes = get_list(doc, "codes", int, "schedule")
    if len(codes) != len(times):
        raise PreconditionError(f"schedule JSON keys 'times' and 'codes' differ in length: "
                                f"{len(times)} and {len(codes)}")
    try:
        codes = np.array(codes, dtype=np.intp)
    except OverflowError:  # a code beyond the integer range
        codes = None
    if codes is None or len(codes) and not 0 <= codes.min() <= codes.max() < len(table):
        raise PreconditionError(f"schedule JSON key 'codes': every code must index "
                                f"'ops_table', of {len(table)} entries")
    used = np.bincount(codes, minlength=len(table))
    if not used.all():
        raise PreconditionError(f"schedule JSON key 'ops_table': entry {used.argmin()} "
                                f"is no event's")
    return Schedule._of(scheme, orders, times, tuple(map(tuple, table)), codes, closing,
                        intervals)
