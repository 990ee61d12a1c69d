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
of the pulses is the net pulse the preservation error compensates.

The kernel runs a program for a batch of models and total times at once, in
each model's eigenbasis H = V diag(lambda) V^dag: a free step is a phase
multiply by exp(-i frac T lambda), a driven step one batched ``eigh`` of
frac T diag(lambda) + angle V^dag (A x I) V, a pulse one batched product with
V^dag (P x I) V, and the result is rotated back as V W V^dag.  Sweep points
(T x seed) are independent, so results never depend on how a sweep is batched.

The steps run as a Re-Pair grammar (``_grammar``, built once per program): a
rule is a repeated pair of adjacent symbols, built bottom-up as one batched
product of its two matrices, and a rule symbol in the top sequence is one
batched product; a step of the top sequence runs as above.  A program whose
repeats do not pay has no rules.  A sweep may form at most MAX_PRODUCTS
grammar products over all its points (``check_sweep_budget``).
"""

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.ma  # noqa: F401  np.median imports it on its first call; load it with the module

from .errors import PreconditionError, UnfittableError
from .linalg import kron
from .model import HamiltonianModel, check_model, random_model
from .operators import Moos, Operator
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
]

DEFAULT_T_GRID = np.geomspace(0.02, 0.6, 12)
DEFAULT_SEEDS = tuple(range(8))
# Products a sweep may form: grammar products x total times x seeds.
MAX_PRODUCTS = 10**6
# The kernel's work in units of one step of the top sequence (a phase
# multiply and one product per model): forming a leaf matrix of a rule, and
# one batched [model, time, d, d] product, as measured at d = 4 and 8.
LEAF_COST = 1
PRODUCT_COST = 2
MIN_FIT_POINTS = 4
MAX_FIT_RESIDUAL = 0.1
# Bytes of propagators and rule matrices a sweep holds at once; larger
# sweeps run in chunks.
BATCH_BYTES = 2**25


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
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise PreconditionError("seeds must not be empty")
        if not self.error_floor < self.error_ceiling:
            raise PreconditionError(
                f"error_floor {self.error_floor} must be below error_ceiling "
                f"{self.error_ceiling}"
            )
        if self.threads < 1:
            raise PreconditionError(f"threads must be >= 1, got {self.threads}")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "seeds", seeds)


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
    """Steps (fraction of T, drive, pulse key): evolution over that fraction
    of T, driven when ``drive`` is (axis key, angle) and free when it is
    None, then the system pulse ``pulses[key]`` unless the key is None.
    ``pulses`` also holds the drive axes.  ``net`` is the ordered product of
    the pulses of all steps."""

    steps: tuple[tuple[float, object, object], ...]
    pulses: dict
    net: Operator

    @cached_property
    def grammar(self):
        """``_grammar`` of the steps, built once per program."""
        return _grammar(self.steps)


def _check_dims(ops, moos: Moos) -> None:
    for op in ops:
        if op.acts_on != moos.dim:
            raise PreconditionError(
                f"operator {op.label!r} acts on dimension {op.acts_on}, "
                f"MOOS dimension is {moos.dim}"
            )


def check_sweep_budget(products: int) -> None:
    """Reject a sweep that would form more than MAX_PRODUCTS products."""
    if products > MAX_PRODUCTS:
        raise PreconditionError(f"sweep budget exceeded: {products} products > {MAX_PRODUCTS}")


def compile_program(schedule: Schedule, moos: Moos, extra=()) -> Program:
    """Segment program of ``schedule``: one free step per interval, closed
    by the product of the pulses at its end.  A pulse label names one of the
    ``extra`` system operators, else a MOOS element; an extra operator may
    share a MOOS element's label only with the same matrix."""
    _check_dims(extra, moos)
    named = {op.label: op.matrix for op in moos.elements}
    for op in extra:
        if not np.array_equal(named.setdefault(op.label, op.matrix), op.matrix):
            raise PreconditionError(f"two different operators are labelled {op.label!r}")
    pulses = {}  # one system matrix per distinct pulse
    steps = []
    prev = 0.0
    net = np.eye(moos.dim, dtype=complex)
    stops = [(e.time, e.ops) for e in schedule.events] + [(1.0, schedule.closing_ops)]
    for time, ops in stops:
        key = tuple(ops) or None
        if key is not None:
            if key not in pulses:
                pulses[key] = compose_pulses(key, moos, extra)
            net = pulses[key] @ net
        steps.append((time - prev, None, key))
        prev = time
    return Program(tuple(steps), pulses, Operator("net", net, moos.dim))


def _grammar(steps):
    """Re-Pair grammar of a step sequence: (top, rules).

    A symbol is a step or the index of a rule; rule i is (earlier, later)
    and refers only to steps and to rules before it.  Each round counts the
    adjacent pairs of symbols, without overlaps, and replaces every pair that
    occurs more than half as often as the most frequent one by a new rule,
    most frequent first, skipping a pair that shares a symbol with one
    already taken (so no two replaced pairs overlap), until no pair occurs
    twice.  Of the grammars the rounds pass through, the flat one included,
    the cheapest by the kernel's work is kept: LEAF_COST for each step a rule
    uses, PRODUCT_COST for each rule and for each rule symbol of the top
    sequence, and 1 for each step in it.  The rounds stop early once the
    rules alone cost more than that cheapest grammar.
    """
    if len(set(zip(steps, steps[1:]))) == len(steps) - 1:
        return tuple(steps), ()  # no adjacent pair repeats
    code = {}
    seq = np.array([code.setdefault(step, len(code)) for step in steps], dtype=np.int64)
    terms = list(code)
    n_terms, base = len(terms), len(terms) + len(steps)
    rules, leaves = [], set()
    best_cost, best = len(seq), (seq, 0)
    while len(seq) > 1 and len(rules) * PRODUCT_COST < best_cost:
        keys = seq[:-1] * base + seq[1:]
        pos = np.arange(len(keys))
        # In a run a a a a, count and replace the pairs at even offsets only.
        run_start = np.maximum.accumulate(np.where(np.r_[True, keys[1:] != keys[:-1]], pos, 0))
        pos = pos[(pos - run_start) % 2 == 0]
        pairs, counts = np.unique(keys[pos], return_counts=True)
        order = np.argsort(-counts, kind="stable")
        if counts[order[0]] < 2:
            break
        chosen, used = [], set()
        for k in order:
            if 2 * counts[k] <= counts[order[0]]:
                break
            a, b = divmod(int(pairs[k]), base)
            if a not in used and b not in used:
                used.update((a, b))
                chosen.append(pairs[k])
        chosen = np.sort(chosen)
        hit = pos[np.isin(keys[pos], chosen)]
        ids = n_terms + len(rules) + np.searchsorted(chosen, keys[hit])
        new = [divmod(int(c), base) for c in chosen]
        leaves.update(s for rule in new for s in rule if s < n_terms)
        rules += new
        seq = np.delete(seq, hit + 1)
        seq[hit - np.arange(len(hit))] = ids
        n_steps = np.count_nonzero(seq < n_terms)
        cost = (len(leaves) * LEAF_COST + n_steps
                + (len(rules) + len(seq) - n_steps) * PRODUCT_COST)
        if cost < best_cost:
            best_cost, best = cost, (seq, len(rules))
    seq, n_rules = best

    def symbol(s):
        return terms[s] if s < n_terms else s - n_terms

    return (tuple(symbol(s) for s in seq.tolist()),
            tuple((symbol(a), symbol(b)) for a, b in rules[:n_rules]))


def _propagators(program: Program, models, times) -> np.ndarray:
    """Propagators of ``program`` for every model and total time, as an
    array indexed [model, time] of full-space matrices."""
    sys_dim, bath_dim = models[0].sys_dim, models[0].bath_dim
    if program.net.acts_on != sys_dim:
        raise PreconditionError(
            f"MOOS dimension {program.net.acts_on} != system dimension {sys_dim}"
        )
    evals = np.stack([m.eig()[0] for m in models])
    vecs = np.stack([m.eig()[1] for m in models])
    vecs_h = vecs.conj().swapaxes(-1, -2)
    eye_b = np.eye(bath_dim)
    n_models, dim = vecs.shape[:2]
    energy = evals[:, :, None] * np.asarray(times, dtype=float)
    lifted = {key: vecs_h @ kron(p, eye_b) @ vecs for key, p in program.pulses.items()}

    def driven(frac, drive):
        axis, angle = drive
        diag = (frac * energy).swapaxes(1, 2)[..., None] * np.eye(dim)
        vals, q = np.linalg.eigh(angle * lifted[axis][:, None] + diag)
        return (q * np.exp(-1j * vals)[..., None, :]) @ q.conj().swapaxes(-1, -2)

    def leaf(step):
        frac, drive, key = step
        if drive is not None:
            m = driven(frac, drive)
            return m if key is None else lifted[key][:, None] @ m
        phase = np.exp(-1j * frac * energy).swapaxes(1, 2)[:, :, None, :]
        return phase * (np.eye(dim) if key is None else lifted[key][:, None])

    # Rule matrices, indexed [model, time, row, column], are built bottom-up
    # and each one, like each leaf, is freed after its last use.
    top, rules = program.grammar
    uses = Counter(s for rule in rules for s in rule)
    uses.update(s for s in top if isinstance(s, int))
    mats = {}

    def operand(s):
        m = mats.pop(s) if s in mats else leaf(s)
        uses[s] -= 1
        if uses[s]:
            mats[s] = m
        return m

    for i, (a, b) in enumerate(rules):
        mats[i] = operand(b) @ operand(a)
    # The eigenbasis propagators are held as w[model, row, time, column], so
    # that one pulse is one product per model over every time at once.
    w = np.zeros((n_models, dim, len(times), dim), dtype=complex)
    w[:, np.arange(dim), :, np.arange(dim)] = 1.0
    phases = {}
    for s in top:
        if isinstance(s, int):
            w = (operand(s) @ w.swapaxes(1, 2)).swapaxes(1, 2)
            continue
        frac, drive, key = s
        if drive is not None:
            w = (driven(frac, drive) @ w.swapaxes(1, 2)).swapaxes(1, 2)
        elif frac:
            if frac not in phases:
                phases[frac] = np.exp(-1j * frac * energy)[..., None]
            w *= phases[frac]
        if key is not None:
            w = (lifted[key] @ w.reshape(n_models, dim, -1)).reshape(w.shape)
    return vecs[:, None] @ w.transpose(0, 2, 1, 3) @ vecs_h[:, None]


def propagate(
    schedule: Schedule,
    model: HamiltonianModel,
    moos: Moos,
    total_time: float,
    return_net_pulse: bool = False,
):
    """Propagator of the scheduled evolution over physical time ``total_time``.

    Pulses are instantaneous MOOS operators lifted as Omega (x) I_bath and
    composed in event list order; closing pulses are applied at the end.
    """
    program = compile_program(schedule, moos)
    u = _propagators(program, [model], (total_time,))[0, 0]
    return (u, program.net) if return_net_pulse else u


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
    diff = u.conj().swapaxes(-1, -2) @ q @ u - p.conj().T @ q @ p
    norm = np.abs(np.linalg.eigvalsh(diff)[..., [0, -1]]).max(axis=-1)
    return float(norm) if u.ndim == 2 else norm


def fit_loglog(points, floor: float, ceiling: float):
    """Ordinary least squares of log(error) vs log(T) on points surviving the
    floor/ceiling filter; returns (slope, intercept, rms_residual, n_used)."""
    kept = [(t, e) for t, e in points if floor < e < ceiling]
    if len(kept) < 2:
        raise UnfittableError(
            f"only {len(kept)} of {len(points)} points inside "
            f"({floor:.1e}, {ceiling:.1e})"
        )
    log_t = np.log([t for t, _ in kept])
    log_e = np.log([e for _, e in kept])
    slope, intercept = np.polyfit(log_t, log_e, 1)
    resid = log_e - (slope * log_t + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(slope), float(intercept), rms, len(kept)


def fit_operator(label: str, t_grid, errors, floor: float, ceiling: float) -> OperatorFit:
    """Log-log fit of one operator's errors over ``t_grid``.  The status is
    "exact" when every error is at most ``floor``, "ok" when at least
    MIN_FIT_POINTS points lie inside (floor, ceiling) and the rms residual is
    at most MAX_FIT_RESIDUAL, else "unfittable"."""
    if np.all(np.asarray(errors) <= floor):
        return OperatorFit(label, math.nan, math.nan, 0.0, 0, "exact")
    try:
        slope, intercept, rms, n_used = fit_loglog(list(zip(t_grid, errors)), floor, ceiling)
    except UnfittableError:
        return OperatorFit(label, math.nan, math.nan, math.nan, 0, "unfittable")
    ok = n_used >= MIN_FIT_POINTS and rms <= MAX_FIT_RESIDUAL
    return OperatorFit(label, slope, intercept, rms, n_used, "ok" if ok else "unfittable")


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
    _check_dims(operators, moos)
    if config.threads > 1:
        warnings.warn(
            "RunConfig.threads is deprecated and ignored: the sweep is batched",
            DeprecationWarning,
            stacklevel=2,
        )
    program = compile_program(schedule, moos, extra)
    top, rules = program.grammar
    # A boundary the schedule declares but the program merges (SDD's silent
    # midpoint) is charged as one product.
    silent = schedule.intervals - len(schedule.events) - 1
    check_sweep_budget((len(top) + len(rules) + silent) * len(config.t_grid) * len(config.seeds))

    n_t, n_s = len(config.t_grid), len(config.seeds)
    errors = {op.label: np.zeros((n_t, n_s)) for op in operators}
    # The propagators, and at most every rule and leaf matrix besides them.
    leaves = {s for rule in rules for s in rule if not isinstance(s, int)}
    point_bytes = 16 * (model_spec.sys_dim * model_spec.bath_dim) ** 2 * (
        1 + len(rules) + len(leaves))
    t_step = max(1, min(n_t, BATCH_BYTES // point_bytes))
    s_step = max(1, BATCH_BYTES // (point_bytes * t_step))
    for j in range(0, n_s, s_step):
        models = [model_spec.realize(seed) for seed in config.seeds[j:j + s_step]]
        for i in range(0, n_t, t_step):
            u = _propagators(program, models, config.t_grid[i:i + t_step])
            for op in operators:
                err = preservation_error(u, op, program.net, model_spec.bath_dim)
                errors[op.label][i:i + t_step, j:j + s_step] = err.T

    medians = {label: np.median(err, axis=1) for label, err in errors.items()}
    fits = {
        label: fit_operator(label, config.t_grid, med, config.error_floor, config.error_ceiling)
        for label, med in medians.items()
    }
    return ScalingResult(config, errors, medians, fits)
