"""Controlled propagators, preservation-error measurement, time sweeps, and
log-log fits of the achieved decoupling order.

Every propagation, of a schedule or of a shaped pulse, runs one segment
program.  A step (fraction of T, drive, pulse) evolves over that fraction of
the total time T, freely by exp(-i frac T H) or, with a drive (axis A,
angle), by exp(-i (frac T H + angle A x I)); then one system pulse acts, or
none.  A negative fraction runs time backwards.  ``compile_program`` turns a
schedule into undriven steps, each pulse the product of all pulses of that
instant.  Conjugating every free block by C turns each pulse P into C P C and
adds a leading C; a Hahn echo of W runs two half-time copies of the program,
each closed by W.  The product of the pulses is the net pulse the
preservation error compensates.

The kernel runs a program for a batch of models and total times at once, in
each model's eigenbasis H = V diag(lambda) V^dag: a free step is a phase
multiply by exp(-i frac T lambda), a driven step one batched ``eigh`` of
frac T diag(lambda) + angle V^dag (A x I) V, a pulse one batched product with
V^dag (P x I) V, and the result is rotated back as V W V^dag.  Sweep points
(T x seed) are independent, so results never depend on how a sweep is batched.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.ma  # noqa: F401  np.median imports it on its first call; load it with the module

from .errors import PreconditionError, UnfittableError
from .linalg import kron
from .model import HamiltonianModel, random_model
from .operators import Moos, Operator
from .sequences import Schedule

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
MAX_EXPONENTIALS = 10**6
MIN_FIT_POINTS = 4
MAX_FIT_RESIDUAL = 0.1
# Bytes of propagators a sweep holds at once; larger sweeps run in chunks.
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


def compile_program(
    schedule: Schedule,
    moos: Moos,
    interval_conj: Operator | None = None,
    wrap: Operator | None = None,
) -> Program:
    """Segment program of ``schedule``; ``interval_conj`` conjugates every
    free block by a system operator, ``wrap`` puts a Hahn echo of a system
    operator around the whole run (see the module docstring)."""
    for op in (interval_conj, wrap):
        if op is not None and op.acts_on != moos.dim:
            raise PreconditionError(
                f"operator {op.label!r} acts on dimension {op.acts_on}, "
                f"MOOS dimension is {moos.dim}"
            )
    eye = np.eye(moos.dim, dtype=complex)
    pulses = {}  # one system matrix per distinct pulse
    steps = []
    prev = 0.0
    stops = [(e.time, e.ops) for e in schedule.events] + [(1.0, schedule.closing_ops)]
    for time, ops in stops:
        key = tuple(ops) or None
        if key is not None and key not in pulses:
            p = eye
            for lab in key:  # the first label acts first
                p = moos.by_label(lab).matrix @ p
            pulses[key] = p
        steps.append((time - prev, None, key))
        prev = time

    if interval_conj is not None:
        c, last = interval_conj.matrix, len(steps) - 1
        pulses["C"] = c
        conj_steps = [(0.0, None, "C")]
        for i, (frac, _, key) in enumerate(steps):
            # The C closing this block, the pulse, then the C opening the next.
            p = eye if key is None else pulses[key]
            pulses.setdefault(("C", key, i == last), p @ c if i == last else c @ p @ c)
            conj_steps.append((frac, None, ("C", key, i == last)))
        steps = conj_steps

    if wrap is not None:
        *body, (frac, _, key) = [(frac / 2, None, key) for frac, _, key in steps]
        pulses["W", key] = wrap.matrix @ (eye if key is None else pulses[key])
        steps = 2 * (body + [(frac, None, ("W", key))])

    pulses = {key: pulses[key] for _, _, key in steps if key is not None}  # each one is lifted
    net = eye
    for _, _, key in steps:
        if key is not None:
            net = pulses[key] @ net
    return Program(tuple(steps), pulses, Operator("net", net, moos.dim))


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
    # The eigenbasis propagators are held as w[model, row, time, column], so
    # that one pulse is one product per model over every time at once.
    n_models, dim = vecs.shape[:2]
    energy = evals[:, :, None] * np.asarray(times, dtype=float)
    w = np.zeros((n_models, dim, len(times), dim), dtype=complex)
    w[:, np.arange(dim), :, np.arange(dim)] = 1.0
    lifted = {key: vecs_h @ kron(p, eye_b) @ vecs for key, p in program.pulses.items()}
    phases = {}
    for frac, drive, key in program.steps:
        if drive is not None:
            axis, angle = drive
            diag = (frac * energy).swapaxes(1, 2)[..., None] * np.eye(dim)
            vals, q = np.linalg.eigh(angle * lifted[axis][:, None] + diag)
            step = (q * np.exp(-1j * vals)[..., None, :]) @ q.conj().swapaxes(-1, -2)
            w = (step @ w.swapaxes(1, 2)).swapaxes(1, 2)
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
    interval_conj: Operator | None = None,
    return_net_pulse: bool = False,
):
    """Propagator of the scheduled evolution over physical time ``total_time``.

    Pulses are instantaneous MOOS operators lifted as Omega (x) I_bath and
    composed in event list order; closing pulses are applied at the end.
    ``interval_conj`` conjugates every free-evolution block by the given
    system operator (used for the MOOS-compatibility property checks); the
    conjugating pulses then also enter the net pulse product.
    """
    program = compile_program(schedule, moos, interval_conj)
    u = _propagators(program, [model], (total_time,))[0, 0]
    return (u, program.net) if return_net_pulse else u


def propagate_wrapped(
    schedule: Schedule,
    model: HamiltonianModel,
    moos: Moos,
    total_time: float,
    wrap: Operator,
):
    """Hahn echo of ``wrap`` around the scheduled evolution: the schedule run
    over each half of the total time with a wrap pulse at the midpoint and at
    the end.  ``wrap`` need not belong to the MOOS; when it neither commutes
    nor anticommutes with the protected operators, the outer echo interferes
    with the inner protection."""
    program = compile_program(schedule, moos, wrap=wrap)
    return _propagators(program, [model], (total_time,))[0, 0], program.net


def preservation_error(u: np.ndarray, omega: Operator, net_pulse: Operator, bath_dim: int):
    """Spectral norm of U^dag (Omega x I) U - P^dag (Omega x I) P with
    P = net_pulse (x) I, compensating the known leftover rotation.

    ``u`` is one propagator (the result is a float) or a stack of them
    indexed [..., row, column] (the result is an array of the stack's shape).
    """
    eye_b = np.eye(bath_dim)
    q = kron(omega.matrix, eye_b)
    p = kron(net_pulse.matrix, eye_b)
    diff = u.conj().swapaxes(-1, -2) @ q @ u - p.conj().T @ q @ p
    norm = np.linalg.norm(diff, ord=2, axis=(-2, -1))
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
    interval_conj: Operator | None = None,
    wrap_op: Operator | None = None,
) -> ScalingResult:
    """Sweep total time T over a seeded model ensemble, measure the
    preservation error of each protected operator, and fit the slope of
    log(median error) vs log(T).

    The fitted slope estimates the decoupling order plus one; the status is
    ``fit_operator``'s.
    ``interval_conj`` and ``wrap_op`` act as in ``propagate`` and
    ``propagate_wrapped``.
    """
    if operators is None:
        operators = list(moos.elements)
    work = schedule.intervals * len(config.t_grid) * len(config.seeds)
    if work > MAX_EXPONENTIALS:
        raise PreconditionError(
            f"sweep budget exceeded: {work} exponentials > {MAX_EXPONENTIALS}"
        )
    if config.threads > 1:
        warnings.warn(
            "RunConfig.threads is deprecated and ignored: the sweep is batched",
            DeprecationWarning,
            stacklevel=2,
        )
    program = compile_program(schedule, moos, interval_conj, wrap_op)

    n_t, n_s = len(config.t_grid), len(config.seeds)
    errors = {op.label: np.zeros((n_t, n_s)) for op in operators}
    point_bytes = 16 * (model_spec.sys_dim * model_spec.bath_dim) ** 2
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
