"""Pulse-schedule compilation: UDD, the first-order iterated MOOS scheme,
SDD mirror symmetrization, both CDD recursions, and NUDD nesting.

All but SDD are one construction, ``_nest``: layers nested in each other's
free intervals, UDD layers for UDD and NUDD, order-1 layers at the midpoint
for CDD and the first-order scheme.  Two transforms make new schedules from
old: ``conjugated`` conjugates every free interval by one pulse, and
``hahn_echo`` runs a schedule twice, each run closed by an echo pulse.

Every schedule has a nesting (``Schedule.nesting``, ``Layer``), from which
``simulate.compile_program`` reads its grammar: the one the builders and the
transforms record, UDD lengths in closed form (``udd_lengths``), or else one
block made from the event times.

Schedules live on the normalized time axis [0, 1]; the physical total time T
is applied at simulation time.  Pulses at a common instant are stored as one
event carrying an ordered label list and are composed in that order (the
first label acts first).

A ``Schedule`` holds its events as columns: a float64 array of the event
times, a tuple of the distinct label tuples, and one integer code per event
into that tuple.  The builders, the transforms and the JSON writer work on
the columns with array operations and make no Python object per event;
``Schedule.events`` makes ``Event`` tuples only when it is read.

The JSON writer encodes the time column with one ``json.dumps`` and each
distinct label tuple once.  The reader takes text in the writer's layout
apart at the writer's fixed separators: one ``json.loads`` for each half of
the header, one for the times of each slice of about ``_CHUNK_CHARS``
characters of events, and one per distinct label list.  It makes no dict or
list per event, and holds the strings of one slice's events at a time.  It
does so only where the parts show that ``json.loads`` of the whole text
gives the same document and every event is valid; other text (another
spacing or key order, an extra key, a bad event, malformed text) is parsed
whole by ``json.loads``, and its events are read by one checked walk in
order into ``Schedule``'s events constructor.  Both ways end in the same
header checks and the same ``Schedule`` checks, so a text reads the same
either way, to the schedule or the message.  Either way the label tuples
are coded in first-appearance order.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, count, repeat
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
_HALF = (0.5,)  # exact; udd_times(1) is 0.49999999999999994
_HALVES = (0.5, 0.5)


class Event(NamedTuple):
    """An instant in (0, 1) with an ordered tuple of pulse labels."""

    time: float
    ops: tuple[str, ...]


class Layer(NamedTuple):
    """A block of a nesting: intervals of ``lengths`` (fractions of it), one
    label tuple in ``keys`` per boundary between them, and per interval the
    block in it, or None.  Blocks follow the blocks in them; the last is the whole."""

    lengths: tuple[float, ...]
    keys: tuple[tuple[str, ...], ...]
    inner: tuple[int | None, ...]


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
        as one block, made on first read: the differences of (0, times, 1),
        each event's labels at its boundary, and no block nested in any."""
        lengths = np.diff(np.concatenate(((0.0,), self.times, (1.0,)))).tolist()
        keys = tuple(map(self.ops_table.__getitem__, self.codes.tolist()))
        return (Layer(tuple(lengths), keys, (None,) * len(lengths)),)

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


def _nest(scheme: str, orders, layers) -> Schedule:
    """``layers`` are (label, interior fractions, interval lengths,
    leftover) tuples, innermost first.  Each layer puts boundaries at
    a + (b - a) * f inside every interval (a, b) of the layers outside it.
    A layer's pulse is the inner layers' leftover labels followed by its
    own; a layer with ``leftover`` appends its label to them, and what is
    left after the outermost layer is the closing.  Each layer with
    fractions is a ``Layer`` of the nesting."""
    table: list[tuple[str, ...]] = []
    nesting: list[Layer] = []
    codes = np.empty(0, dtype=np.intp)
    leftover: tuple[str, ...] = ()
    for label, fracs, lengths, keep in layers:
        if fracs:
            # The inner layers' pattern in each of this layer's intervals,
            # with this layer's pulse between them.
            codes = np.tile(np.append(codes, len(table)), len(fracs) + 1)[:-1]
            table.append(leftover + (label,))
            inner = len(nesting) - 1 if nesting else None
            keys = (table[-1],) * len(fracs)
            nesting.append(Layer(tuple(lengths), keys, (inner,) * len(lengths)))
        if keep:
            leftover += (label,)
    times = _boundaries([fracs for _, fracs, _, _ in layers])
    return Schedule._of(scheme, orders, times, tuple(table), codes, leftover, len(times) + 1,
                        tuple(nesting))


def _boundaries(fractions) -> np.ndarray:
    # _nest's boundary times, outermost layer first and all intervals of a
    # layer at once.
    edges = np.array([0.0, 1.0])
    for fracs in reversed(fractions):
        if fracs:
            a = edges[:-1, None]
            edges = np.append(np.hstack((a, a + (edges[1:, None] - a) * fracs)), 1.0)
    return edges[1:-1]


def udd_schedule(op_label: str, n: int) -> Schedule:
    """Nth-order UDD of a single operator; the leftover Omega^N rotation is
    not emitted as a closing pulse (the error metric compensates for it)."""
    n = _check_udd_order(n)
    return _nest("udd", (n,), [(op_label, udd_times(n), udd_lengths(n), False)])


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
    layers = [(lab, _HALF, _HALVES, include_closing) for lab in moos.labels]
    return _nest("first_order", (1,) * size, layers)


def sdd_schedule(inner: Schedule) -> Schedule:
    """Mirror symmetrization: the inner schedule compressed into [0, 1/2]
    followed by its time mirror.  An inner closing bracket collides with the
    mirror's opening bracket at the midpoint and the two compose in order.
    The nesting adds each inner block mirrored: every tuple reversed."""
    if 2 * inner.intervals > MAX_INTERVALS:
        raise _too_many_intervals("sdd", 2 * inner.intervals)
    half, closing, n = 0.5 * inner.times, tuple(inner.closing_ops), len(inner.ops_table)
    mid = [closing + closing[::-1]] if closing else []
    nesting, k = inner.nesting, len(inner.nesting)  # the mirrors are numbered k on
    nesting += (*(Layer(b.lengths[::-1], _mapped(b.keys[::-1], lambda o: o[::-1]), tuple(
        None if i is None else i + k for i in b.inner[::-1])) for b in nesting),
        Layer(_HALVES, (closing + closing[::-1],), (k - 1, 2 * k - 1)))
    # The mirror's tuples are the table's reversed, coded n on; the
    # constructor merges those that read the same both ways.
    return Schedule._of(
        "sdd",
        inner.orders,
        np.concatenate((half, _HALF * len(mid), 1.0 - half[::-1])),
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
    return _nest("cdd", (n,) * size, [(lab, _HALF, _HALVES, True) for lab in moos.labels * n])


def cdd_nested(moos: Moos, orders) -> Schedule:
    """Per-operator CDD recursion: level l halves the intervals N_l times,
    with level 1 (the first MOOS element) innermost; 2^(sum N_l) intervals."""
    orders = _check_orders(moos, orders, "CDD")
    if sum(orders) > _LOG2_MAX_INTERVALS:
        raise _too_many_intervals("cdd_nested", f"2^{sum(orders)}")
    labels = chain.from_iterable(map(repeat, moos.labels, orders))
    return _nest("cdd_nested", orders, [(lab, _HALF, _HALVES, True) for lab in labels])


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
        (lab, udd_times(n), udd_lengths(n), n % 2 == 1 and l < outer)
        for l, (lab, n) in enumerate(zip(moos.labels, orders))
    ])


def conjugated(schedule: Schedule, label: str) -> Schedule:
    """Every free interval conjugated by the pulse ``label`` (C): each
    event's pulses become (C, *ops, C) and the closing (C, *closing).  The
    leading C is left out: it is a right factor of the propagator and of the
    net pulse, so every preservation error is unchanged.  The nesting's
    pulses are conjugated alike; a boundary without pulses stays so (C C = I)."""
    nesting = tuple(b._replace(keys=_mapped(b.keys, lambda o: o and (label, *o, label)))
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
                        np.concatenate((half, _HALF, 0.5 + half)),
                        (*schedule.ops_table, echo),
                        np.concatenate((codes, [len(schedule.ops_table)], codes)),
                        echo, 2 * schedule.intervals,
                        (*nesting, Layer(_HALVES, (echo,), (len(nesting) - 1,) * 2)))


def _mapped(keys, f):
    """``f`` of each label tuple of ``keys``, called once per distinct one."""
    new = {o: f(o) for o in dict.fromkeys(keys)}
    return tuple(map(new.__getitem__, keys))


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


_dumps = partial(json.dumps, separators=(",", ":"))
# The writer's fixed separators, at which the reader splits its text.
_EVENTS = ',"events":['  # after the orders, opening the event list
_FIRST = '{"t":'  # opening the first event
_OPS = ',"ops":'  # between an event's time and its labels
_NEXT = '},{"t":'  # between an event's labels and the next event's time
_CLOSING = '],"closing":'  # closing the event list


def schedule_to_json(schedule: Schedule) -> str:
    """Compact JSON: byte for byte ``json.dumps`` of the dict form

        {"scheme": ..., "orders": [...], "events": [{"t": ..., "ops": [...]}, ...],
         "closing": [...], "intervals": ...}

    with ``separators=(",", ":")``.  The events are written without building
    that dict, as columns: one ``json.dumps`` of the time column writes every
    time as json does (``float.__repr__``) and is split at its commas, and
    each distinct label tuple is encoded once, with the text that closes its
    event and opens the next.  The events are the times and these tails,
    interleaved."""
    codes = schedule.codes.tolist()
    head = f'{{"scheme":{_dumps(schedule.scheme)},"orders":{_dumps(list(schedule.orders))}{_EVENTS}'
    end = (
        f'{_CLOSING}{_dumps(list(schedule.closing_ops))},'
        f'"intervals":{_dumps(schedule.intervals)}}}'
    )
    if not codes:
        return head + end
    tails = [f"{_OPS}{_dumps(o)}{_NEXT}" for o in schedule.ops_table]
    # One join makes the whole text: the head, each event's time and tail,
    # and the end, which the last tail opens instead of a next event.
    pieces = [None] * (2 * len(codes) + 1)
    pieces[0] = head + _FIRST
    pieces[1::2] = _dumps(schedule.times.tolist())[1:-1].split(",")
    pieces[2::2] = map(tails.__getitem__, codes)
    pieces[-1] = pieces[-1][: -len(_NEXT)] + "}" + end
    return "".join(pieces)


# The reader splits the events in slices of about this many characters, so
# that the strings it makes per event at once stay cache-sized; slices of
# 2^14 to 2^18 characters read a 2^16-event text alike, and 2^12 a little
# slower.
_CHUNK_CHARS = 2**16


def _slice_columns(chunk: str):
    """The times and the label texts of the events ``chunk``, split at
    ``_OPS`` and ``_NEXT``, or None unless the parts alternate as written
    and the times parse, joined by commas, to one finite number per event
    (a number holds no comma, so each part is one number)."""
    parts = chunk.replace(_NEXT, _OPS).split(_OPS)
    times, labels = parts[::2], parts[1::2]
    n = len(labels)
    if len(times) != n:
        return None
    rebuilt = [_NEXT] * (4 * n - 1)
    rebuilt[::4], rebuilt[1::4], rebuilt[2::4] = times, [_OPS] * n, labels
    if "".join(rebuilt) != chunk:
        return None
    try:
        times = json.loads(f"[{','.join(times)}]")
    except ValueError:
        return None
    return (times, labels) if len(times) == n and all_of_kind(times, float) else None


def _split_columns(text):
    """The header and the columns of ``text`` split at the writer's
    separators, or None unless the split shows that ``json.loads(text)``
    gives the same document and every event is valid.

    The text must be the object's opening keys, ``_EVENTS``, the events,
    ``_CLOSING`` and the object's closing keys.  Each part is parsed on its
    own, and together they show the whole document: the opening part closed
    by "}" parses to an object with the keys scheme and orders only, so the
    split is at the top level, and the closing part opened by "{" parses to
    one with the keys closing and intervals only.  The events are read in
    slices of about ``_CHUNK_CHARS`` characters, each ending at a ``_NEXT``
    or at the last event, and each must pass ``_slice_columns``.  Slices
    meet at ``_NEXT``, so together they show that times and label lists
    alternate as written over all the events.  The label texts are coded in
    first-appearance order over all the slices, and each distinct one must
    parse to a list of strings (such a list holds neither separator).
    ``json.loads`` reads what this rejects."""
    if not isinstance(text, str):
        return None
    i, j = text.find(_EVENTS), text.rfind(_CLOSING)
    first = i + len(_EVENTS)
    if i < 0 or j < first:
        return None
    try:
        head = json.loads(text[:i] + "}")
        tail = json.loads("{" + text[j:].removeprefix("],"))
    except ValueError:
        return None
    # Text that parses and ends with "}" (or starts with "{") is an object.
    if list(head) != ["scheme", "orders"] or list(tail) != ["closing", "intervals"]:
        return None
    start, stop = first + len(_FIRST), j - 1
    if not (text.startswith(_FIRST, first) and text.endswith("}", start, j)):
        return None
    # Each label text is stored with the index of its first appearance, and
    # each event gets the index stored for its text.
    table, counter, times, firsts = {}, count(), [], []
    pos = start
    while pos <= stop:
        end = text.find(_NEXT, pos + _CHUNK_CHARS, stop)
        end = stop if end < 0 else end
        columns = _slice_columns(text[pos:end])
        if columns is None:
            return None
        times += columns[0]
        firsts.append(np.fromiter(map(table.setdefault, columns[1], counter), dtype=np.intp,
                                  count=len(columns[1])))
        pos = end + len(_NEXT)
    # The stored indices increase, so a text's code is the rank of its first
    # appearance among them.
    codes = np.searchsorted(np.fromiter(table.values(), dtype=np.intp, count=len(table)),
                            np.concatenate(firsts))
    try:
        ops = list(map(json.loads, table))
    except ValueError:
        return None
    if not (all_of_kind(ops, list) and all_of_kind(list(chain.from_iterable(ops)), str)):
        return None
    return head | tail, times, tuple(map(tuple, ops)), codes


def schedule_from_json(text: str) -> Schedule:
    """Inverse of ``schedule_to_json``.

    Text in the writer's layout is split at its fixed separators, a slice
    of events at a time, and its header, the times of each slice and its
    distinct label lists are each parsed once, with no dict or list per
    event (``_split_columns``).  That is done only where it
    shows that ``json.loads`` of the whole text gives the same document, and
    every event is valid; any other input is parsed by ``json.loads``.
    Either way the same header checks follow, so a result or a message does
    not depend on the way taken.

    A schedule of more than ``MAX_INTERVALS`` intervals is rejected from the
    header keys, before the events of a parsed document are read.  Those
    are then walked in order, each time and label list checked as it is
    reached so that the first bad key is named, into the ``Schedule``
    events constructor."""
    split = _split_columns(text)
    doc = load_object(text, "schedule") if split is None else split[0]
    scheme = get_field(doc, "scheme", str, "schedule")
    orders = tuple(get_list(doc, "orders", int, "schedule"))
    closing = tuple(get_list(doc, "closing", str, "schedule"))
    intervals = get_field(doc, "intervals", int, "schedule")
    if intervals > MAX_INTERVALS:
        raise PreconditionError(
            f"schedule JSON has {intervals} control intervals, {_MORE_THAN_MAX}"
        )
    if split is not None:
        return Schedule._of(scheme, orders, *split[1:], closing, intervals)
    events = [(get_field(e, "t", float, "schedule event"),
               tuple(get_list(e, "ops", str, "schedule event")))
              for e in get_list(doc, "events", dict, "schedule")]
    return Schedule(scheme, orders, events, closing, intervals)
