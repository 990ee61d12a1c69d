"""Controlled propagators, preservation-error measurement, time sweeps, and
log-log fits of the achieved decoupling order.

Every propagation, of a schedule or of a shaped pulse, runs one segment
program.  A step (fraction of T, drive, pulse) evolves over that fraction of
the total time T, freely by exp(-i frac T H) or, with a drive (axis A,
angle), by exp(-i (frac T H + angle A x I)); then one system pulse acts, or
none.  A negative fraction runs time backwards.  ``compile_program`` turns a
schedule into undriven steps, each pulse the product of all pulses of that
instant, each a MOOS element or one of the ``extra`` named system
operators.  It has no other mode: a conjugated run and a Hahn echo are
schedules (``sequences.conjugated``, ``sequences.hahn_echo``).  The product
of the pulses is the net pulse the preservation error compensates;
``Program.net`` runs the program's own plan at T = 0 for it.

The kernel runs a program for a batch of models and total times at once, in
each model's eigenbasis H = V diag(lambda) V^dag: a free step is a phase
multiply by exp(-i frac T lambda), a pulse one batched product with
V^dag (P x I) V, and all driven steps together one batched ``eigh`` of
frac T diag(lambda) + angle V^dag (A x I) V.  Its result is the product W in
the eigenbasis.  Only the schedule error rotates it back, U = V W V^dag
(``_rotated``); a pulse error reads |W - I| = |U - I| as it is.  Sweep points
(T x seed) are independent, so results never depend on how a sweep is batched.

A program's steps are a grammar, read from the schedule's nesting
(``_nested_grammar``): one rule per distinct block of the nesting at one
scale, its symbols in turn.  ``kernel.Plan``, made once per program on the
first read of ``Program.plan``, runs a rule named once in place and forms
the matrix of a rule named more often on its first use, freeing it after its
last, so one block (of a schedule made from events or read from JSON) runs
flat, and NUDD's nested blocks, CDD's self-similar ones and the two halves
of a Hahn echo run once each.  A sweep of T or of pulse durations runs in
``_sweep``: at most MAX_PRODUCTS grammar
products over all its points (``check_sweep_budget``), in chunks whose
numbered kernel matrices and driven stack take no more memory than a flat
program's would.  ``order_scan`` also checks a lower bound read from the
schedule before it compiles.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import PreconditionError, UnfittableError, as_index
from .kernel import Plan, run
from .linalg import kron
from .model import HamiltonianModel, check_model, random_model
from .operators import Moos, Operator, check_dimension, check_labels
from .sequences import Schedule, compose_pulses, hahn_echo

__all__ = [
    "RunConfig",
    "ModelSpec",
    "OperatorFit",
    "ScalingResult",
    "Program",
    "compile_program",
    "propagate",
    "propagate_wrapped",
    "preservation_error",
    "fit_loglog",
    "fit_operator",
    "order_scan",
    "median",
]

DEFAULT_T_GRID = np.geomspace(0.02, 0.6, 12)
DEFAULT_SEEDS = tuple(range(8))
# Products a sweep may form: grammar products x total times x seeds.
MAX_PRODUCTS = 10**6
MIN_FIT_POINTS = 4
MAX_FIT_RESIDUAL = 0.1
# Bytes of the kernel's matrices a sweep holds at once; larger sweeps run in
# chunks (``_sweep``).
BATCH_BYTES = 2**25
# Bytes of one matrix of a chunk, below which splitting a sweep costs more in
# per-call overhead than it saves: at d = 16 on the default grid, chunks of
# one seed (12 points, 48 KB) run 1.7x slower than the whole sweep, chunks of
# two or more seeds as fast.
MIN_CHUNK_BYTES = 2**17


@dataclass(frozen=True)
class RunConfig:
    """Sweep grid and fit-window settings.

    ``threads`` is deprecated: the sweep is batched, so a value above one is
    accepted with a warning and changes nothing.
    """

    t_grid: tuple[float, ...] = tuple(DEFAULT_T_GRID)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    error_floor: float = 1e-12
    error_ceiling: float = 1e-2
    threads: int = 1

    def __post_init__(self):
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise PreconditionError("t_grid must not be empty")
        if not all(0.0 < t < math.inf for t in grid):
            raise PreconditionError("every total time in t_grid must be positive and finite")
        if any(t2 <= t1 for t1, t2 in zip(grid, grid[1:])):
            raise PreconditionError("t_grid must be strictly increasing")
        seeds = tuple(as_index(s, "seed") for s in self.seeds)
        if not seeds:
            raise PreconditionError("seeds must not be empty")
        _check_floor(self.error_floor)
        if not self.error_floor < self.error_ceiling:
            raise PreconditionError(
                f"error_floor {self.error_floor} must be below error_ceiling "
                f"{self.error_ceiling}"
            )
        if self.threads < 1:
            raise PreconditionError(f"threads must be >= 1, got {self.threads}")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "seeds", seeds)


def _check_floor(floor: float) -> None:
    """Below zero, an exact error of 0 would enter a fit as log(0)."""
    if not 0.0 <= floor < math.inf:
        raise PreconditionError(f"error_floor must be non-negative and finite, got {floor}")


@dataclass(frozen=True)
class ModelSpec:
    """Descriptor of a model ensemble; one model per sweep seed."""

    structure: str = "general"
    sys_dim: int = 2
    bath_dim: int = 4
    norm_bound: float = 1.0

    def __post_init__(self):
        check_model(self.structure, self.sys_dim, self.bath_dim, self.norm_bound)

    def realize(self, seed: int) -> HamiltonianModel:
        return random_model(
            self.structure, self.sys_dim, self.bath_dim, self.norm_bound, seed
        )


@dataclass(frozen=True)
class OperatorFit:
    label: str
    slope: float
    intercept: float
    rms_residual: float
    points_used: int
    status: str  # "ok", "exact", or "unfittable"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ScalingResult:
    """Raw errors indexed [operator][i_t, i_seed], their per-T medians, and
    the per-operator log-log fits."""

    config: RunConfig
    errors: dict[str, np.ndarray]
    medians: dict[str, np.ndarray]
    fits: dict[str, OperatorFit]

    def rows(self):
        """Flat (operator, T, seed, error) tuples sorted by key."""
        out = []
        for label in sorted(self.errors):
            err = self.errors[label]
            for i, t in enumerate(self.config.t_grid):
                for j, seed in enumerate(self.config.seeds):
                    out.append((label, t, seed, float(err[i, j])))
        return out


@dataclass(frozen=True)
class Program:
    """A step grammar (top, rules), the pulses its steps name, and the
    dimension ``dim`` they act on.

    A step (fraction of T, drive, pulse key) is evolution over that fraction
    of T, driven when ``drive`` is (axis key, angle) and free when it is
    None, then the system pulse ``pulses[key]`` unless the key is None;
    ``pulses`` also holds the drive axes.  A symbol is a step or the index
    of a rule; rule i is a tuple of symbols, which run in turn, and refers
    only to steps and to rules before it.  A flat program is
    ``Program((steps, ()), ...)``."""

    grammar: tuple
    pulses: dict
    dim: int

    @cached_property
    def plan(self) -> Plan:
        return Plan(self.grammar)

    @cached_property
    def net(self) -> Operator:
        """The program run by its plan at T = 0, where every phase is 1: the
        ordered product of the pulses of all steps (and of a driven step's
        drive alone), grouped as a propagator groups them, so it is exact
        when the pulses' products are, as for signed permutations."""
        pulses = {key: p[None] for key, p in self.pulses.items()}
        net = run(self.plan, np.zeros((1, self.dim, 1)), pulses)[0, :, 0]
        return Operator("net", net, self.dim)


def check_sweep_budget(products: int) -> None:
    """Reject a sweep that would form more than MAX_PRODUCTS products."""
    if products > MAX_PRODUCTS:
        raise PreconditionError(f"sweep budget exceeded: {products} products > {MAX_PRODUCTS}")


def compile_program(schedule: Schedule, moos: Moos, extra=()) -> Program:
    """Segment program of ``schedule``: one free step per interval, closed
    by the product of the pulses at its end.  A pulse label names one of the
    ``extra`` system operators, else a MOOS element; an extra operator may
    share a MOOS element's label only with the same matrix.

    The grammar comes from the schedule's nesting, one block for a schedule
    made from events or read from JSON.  The net pulse is not formed here:
    ``Program.net`` runs the plan on its first read."""
    check_dimension(extra, moos.dim, "MOOS")
    check_labels((*moos.elements, *extra))
    # One pulse per distinct label tuple, keyed by the tuple.
    pulses = {ops: compose_pulses(ops, moos, extra)
              for ops in (*schedule.ops_table, schedule.closing_ops) if ops}
    grammar = _nested_grammar(schedule.nesting, schedule.closing_ops)
    return Program(grammar, pulses, moos.dim)


def _nested_grammar(nesting, closing):
    """The grammar of a nesting of ``sequences.Layer`` blocks, read from
    their columns: one rule per distinct (block, scale, pulses after it),
    found from the outermost block in.  A scale is the multiset of the
    lengths of the intervals around a block, and a step's fraction their
    product with its own length in sorted order, so NUDD's equal orders
    share blocks.

    A block is its intervals in turn, each a free step or the block nested
    in it, with its pulses between them and after it the pulses that follow
    it.  A pulse rides on the step before it; after a block followed by
    different pulses at different places it is a step of fraction 0, in a
    rule of the block's rule and that step.  Whether a rule gets a matrix of
    its own is ``kernel.Plan``'s decision: it runs a rule named once in
    place, so UDD, one rule, runs flat.  The top sequence is the outermost
    block's rule, whose last step carries ``closing``.  Its free steps are
    made from whole columns, so a block that nests nothing is no Python loop."""
    blocks = [_columns(b) for b in nesting]
    # Per block and scale: the pulse tuples that follow it, in order found.
    seen = [{} for _ in nesting]
    seen[-1][()] = {closing: None}
    for (distinct, _, _, nested), at in zip(reversed(blocks), reversed(seen)):
        for scale, trails in at.items():
            subs = _scales(scale, distinct)
            trail = next(iter(trails)) if len(trails) == 1 else ()  # after its last interval
            for _, inner, length, after in nested:
                seen[inner].setdefault(subs[length], {})[trail if after is None else after] = None
    rules, symbols = [], [{} for _ in nesting]  # per block, scale and pulses after
    for (distinct, index, keys, nested), at, made in zip(blocks, seen, symbols):
        for scale, trails in at.items():
            subs = _scales(scale, distinct)
            fracs = [math.prod(subs[length]) for length in distinct]
            trail = next(iter(trails)) if len(trails) == 1 else ()  # after its last interval
            seq = [*zip(map(fracs.__getitem__, index), repeat(None), [*keys, trail or None])]
            for i, inner, length, after in nested:
                seq[i] = symbols[inner][subs[length]][trail if after is None else after]
            rule = _rule(seq, rules)  # its last step carries the pulses after it if one tuple
            made[scale] = {after: rule if len(trails) == 1 or not after
                           else _rule([rule, (0.0, None, after)], rules) for after in trails}
    return (symbols[-1][()][closing],), tuple(rules)


def _columns(block):
    """``block``'s distinct lengths, each interval's index among them, the
    labels at each boundary (None for none), and (interval, inner block,
    length, labels after it, None after the last) per interval holding a block."""
    lengths, table, codes = block.lengths, block.table, block.codes
    ordered = np.sort(lengths)
    below = ordered[:-1][ordered[1:] != ordered[:-1]]  # all distinct lengths but the largest
    index = below.searchsorted(lengths).tolist()
    distinct = [*below.tolist(), *ordered[-1:].tolist()]
    keys = np.fromiter((o or None for o in table), object, len(table))[codes].tolist()
    nested = [(i, int(block.inner[i]), distinct[index[i]],
               table[codes[i]] if i < len(codes) else None)
              for i in (block.inner >= 0).nonzero()[0].tolist()]
    return distinct, index, keys, nested


def _scales(scale, distinct):
    """The scale of each of the ``distinct`` lengths inside ``scale``."""
    return {length: tuple(sorted((*scale, length))) for length in distinct}


def _rule(seq, rules):
    """The index of a new rule of ``seq``'s symbols."""
    rules.append(tuple(seq))
    return len(rules) - 1


def _eigenbasis(program: Program, models, times):
    """The product W of ``program`` for every model and total time in each
    model's eigenbasis, x[model, row, time, column] as ``kernel.run`` gives
    it, and the models' eigenvectors V [model, row, column]."""
    sys_dim, bath_dim = models[0].sys_dim, models[0].bath_dim
    if program.dim != sys_dim:
        raise PreconditionError(
            f"MOOS dimension {program.dim} != model system dimension {sys_dim}")
    evals = np.stack([m.eig()[0] for m in models])
    vecs = np.stack([m.eig()[1] for m in models])
    vecs_h = vecs.conj().swapaxes(-1, -2)
    eye_b = np.eye(bath_dim)
    lifted = {key: vecs_h @ kron(p, eye_b) @ vecs for key, p in program.pulses.items()}
    return run(program.plan, evals[:, :, None] * np.asarray(times, dtype=float), lifted), vecs


def _rotated(w, vecs) -> np.ndarray:
    """U = V W V^dag of ``_eigenbasis``'s output, as an array indexed
    [model, time] of full-space matrices, written over W."""
    u = vecs[:, None] @ w.transpose(0, 2, 1, 3)
    return np.matmul(u, vecs.conj().swapaxes(-1, -2)[:, None], out=w.reshape(u.shape))


def _propagators(program: Program, models, times) -> np.ndarray:
    """Propagators of ``program`` for every model and total time, as an
    array indexed [model, time] of full-space matrices."""
    return _rotated(*_eigenbasis(program, models, times))


def _sweep(program: Program, times, seeds, realize, dim: int):
    """Yields (seed slice, time slice, W, V) of ``program``, ``_eigenbasis``
    of one chunk of the sweep's points at a time, once the grammar's
    products at every point are charged; a chunk's models, ``realize(seed)``
    of dimension ``dim``, are made when it runs.  A flat program holds two
    matrices a point (the running product and the next), so a chunk's
    kernel matrices number at most two a point of the whole sweep, unless
    one would be under MIN_CHUNK_BYTES, and take at most BATCH_BYTES.  They
    are its ``Plan.size`` numbered matrices and, for each driven step, two
    of the driven stack: the matrix given to the batched ``eigh`` and its
    eigenvectors.  That bound leaves out the rotation back of a schedule
    error (one matrix more), a driven step's exponential (two more) and
    numpy's ufunc buffers (about 2 x 8192 complex entries a call)."""
    top, rules = program.grammar
    n_t, n_s = len(times), len(seeds)
    check_sweep_budget((len(top) + sum(len(rule) - 1 for rule in rules)) * n_t * n_s)
    n_mats = program.plan.size + 2 * len(program.plan.driven)
    point_bytes = 16 * dim**2
    points = max(2 * n_t * n_s // n_mats, MIN_CHUNK_BYTES // point_bytes)
    points = max(1, min(points, BATCH_BYTES // (point_bytes * n_mats)))
    t_step = min(n_t, points)
    s_step = points // t_step
    for j in range(0, n_s, s_step):
        chunk = slice(j, j + s_step)
        models = [realize(seed) for seed in seeds[chunk]]
        for i in range(0, n_t, t_step):
            span = slice(i, i + t_step)
            yield chunk, span, *_eigenbasis(program, models, times[span])


def propagate(schedule: Schedule, model: HamiltonianModel, moos: Moos, total_time: float):
    """Propagator of the scheduled evolution over physical time ``total_time``.

    Pulses are instantaneous MOOS operators lifted as Omega (x) I_bath and
    composed in event list order; closing pulses are applied at the end.  The
    net pulse is ``compile_program(schedule, moos).net``.
    """
    return _propagators(compile_program(schedule, moos), [model], (total_time,))[0, 0]


def propagate_wrapped(
    schedule: Schedule,
    model: HamiltonianModel,
    moos: Moos,
    total_time: float,
    wrap: Operator,
):
    """Propagator and net pulse of ``sequences.hahn_echo`` of ``wrap`` around
    the schedule.  ``wrap`` need not belong to the MOOS; when it neither
    commutes nor anticommutes with the protected operators, the outer echo
    interferes with the inner protection."""
    program = compile_program(hahn_echo(schedule, wrap.label), moos, (wrap,))
    return _propagators(program, [model], (total_time,))[0, 0], program.net


def preservation_error(u: np.ndarray, omega: Operator, net_pulse: Operator, bath_dim: int):
    """Spectral norm of D = U^dag (Omega x I) U - P^dag (Omega x I) P with
    P = net_pulse (x) I, compensating the known leftover rotation.  D is
    Hermitian, so its norm is the largest |eigenvalue|.

    ``u`` is one propagator (the result is a float) or a stack of them
    indexed [..., row, column] (the result is an array of the stack's shape).
    """
    eye_b = np.eye(bath_dim)
    q = kron(omega.matrix, eye_b)
    p = kron(net_pulse.matrix, eye_b)
    norm = _preservation_error(u, q, p.conj().T @ q @ p)
    return float(norm) if u.ndim == 2 else norm


def _preservation_error(u: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``preservation_error`` of each U of the stack, from Q = Omega x I and
    R = P^dag Q P, which a scan forms once per operator."""
    diff = u.conj().swapaxes(-1, -2) @ q @ u - r
    return np.abs(np.linalg.eigvalsh(diff)[..., [0, -1]]).max(axis=-1)


def fit_loglog(points, floor: float, ceiling: float):
    """Ordinary least squares of log(error) vs log(T) on points surviving the
    floor/ceiling filter; returns (slope, intercept, rms_residual, n_used).

    The line is the closed form on the centred x = log T - mean(log T) and
    y = log e - mean(log e): slope = x.y / x.x and intercept =
    mean(log e) - slope * mean(log T), the least-squares solution of the
    two-column Vandermonde system without building or factoring it.  Kept
    points that all share one T fix no slope and raise ``UnfittableError``;
    a T not positive and finite, or a floor below 0 or not finite, raises
    ``PreconditionError``.
    """
    _check_floor(floor)
    t, e = np.array(points, dtype=float).reshape(-1, 2).T
    bad = ~((0.0 < t) & (t < math.inf))
    if bad.any():
        raise PreconditionError(
            f"fit total time {points[bad.argmax()][0]} must be positive and finite")
    keep = (floor < e) & (e < ceiling)
    n = int(np.count_nonzero(keep))
    if n < 2:
        raise UnfittableError(
            f"only {n} of {len(points)} points inside ({floor:.1e}, {ceiling:.1e})"
        )
    log_t = np.log(t[keep])
    log_e = np.log(e[keep])
    if log_t.min() == log_t.max():
        raise UnfittableError(f"all {n} points inside the fit window share one T")
    mean_t = log_t.sum() / n
    mean_e = log_e.sum() / n
    x = log_t - mean_t
    y = log_e - mean_e
    slope = (x @ y) / (x @ x)
    resid = y - slope * x
    rms = math.sqrt((resid @ resid) / n)
    return float(slope), float(mean_e - slope * mean_t), rms, n


def fit_operator(label: str, t_grid, errors, floor: float, ceiling: float) -> OperatorFit:
    """Log-log fit of one operator's errors over ``t_grid``.  The status is
    "exact" when every error is at most ``floor``, "ok" when at least
    MIN_FIT_POINTS points lie inside (floor, ceiling) and the rms residual is
    at most MAX_FIT_RESIDUAL, else "unfittable"."""
    if np.all(np.asarray(errors) <= floor):
        return OperatorFit(label, math.nan, math.nan, 0.0, 0, "exact")
    try:
        slope, intercept, rms, n_used = fit_loglog(np.column_stack((t_grid, errors)),
                                                   floor, ceiling)
    except UnfittableError:
        return OperatorFit(label, math.nan, math.nan, math.nan, 0, "unfittable")
    ok = n_used >= MIN_FIT_POINTS and rms <= MAX_FIT_RESIDUAL
    return OperatorFit(label, slope, intercept, rms, n_used, "ok" if ok else "unfittable")


def median(values) -> np.ndarray:
    """``np.median`` over the last axis, from a sort: the middle value of
    each row, or the mean of the two middle values, and NaN for a row that
    holds NaN (a sort puts it last).  ``np.median`` itself imports
    ``numpy.ma`` on its first call, 10-15 ms of start-up."""
    s = np.sort(values, axis=-1)
    n = s.shape[-1]
    mid = s[..., n // 2] if n % 2 else (s[..., n // 2 - 1] + s[..., n // 2]) / 2
    return np.where(np.isnan(s[..., -1]), s[..., -1], mid)


def order_scan(
    schedule: Schedule,
    moos: Moos,
    model_spec: ModelSpec,
    config: RunConfig = RunConfig(),
    operators: list[Operator] | None = None,
    extra=(),
) -> ScalingResult:
    """Sweep total time T over a seeded model ensemble, measure the
    preservation error of each protected operator, and fit the slope of
    log(median error) vs log(T).

    The fitted slope estimates the decoupling order plus one; the status is
    ``fit_operator``'s.  ``extra`` names system operators the schedule's
    pulses may use besides the MOOS, as in ``compile_program``.
    """
    if operators is None:
        operators = list(moos.elements)
    if not operators:
        raise PreconditionError("operators must not be empty")
    check_dimension(operators, moos.dim, "MOOS")
    check_labels(operators)
    if config.threads > 1:
        warnings.warn(
            "RunConfig.threads is deprecated and ignored: the sweep is batched",
            DeprecationWarning,
            stacklevel=2,
        )
    n_t, n_s = len(config.t_grid), len(config.seeds)
    # Checked before compiling, at a lower bound of the grammar's products:
    # the intervals of the outermost block.
    check_sweep_budget(len(schedule.nesting[-1].lengths) * n_t * n_s)
    program = compile_program(schedule, moos, extra)
    errors = {op.label: np.zeros((n_t, n_s)) for op in operators}
    lifted = []  # (errors, Q, R) per operator, formed once the budget is checked
    dim, eye_b = model_spec.sys_dim * model_spec.bath_dim, np.eye(model_spec.bath_dim)
    for chunk, span, w, vecs in _sweep(program, config.t_grid, config.seeds,
                                       model_spec.realize, dim):
        u = _rotated(w, vecs)
        if not lifted:
            p = kron(program.net.matrix, eye_b)
            lifted = [(errors[op.label], q, p.conj().T @ q @ p)
                      for op in operators for q in [kron(op.matrix, eye_b)]]
        for err, q, r in lifted:
            err[span, chunk] = _preservation_error(u, q, r).T

    medians = {label: median(err) for label, err in errors.items()}
    fits = {
        label: fit_operator(label, config.t_grid, med, config.error_floor, config.error_ceiling)
        for label, med in medians.items()
    }
    return ScalingResult(config, errors, medians, fits)
