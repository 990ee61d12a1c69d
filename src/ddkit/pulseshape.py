"""Finite-amplitude pulse envelopes approximating ideal pi pulses.

A shaped pulse H(t) = v(t) * Omega replaces an instantaneous pi pulse with an
error O(tau_p^2) in the pulse duration once the two first-order moment
integrals eta_11 and eta_12 vanish (together with the pi/2 area constraint).
Envelopes here are piecewise constant; sign changes are allowed.  A shape
runs as a segment program of ``simulate``, one driven step per segment, built
once per pulse axis, and a scan over pulse durations as a sweep of
``simulate._sweep``, in chunks.  A designed envelope depends on its family
alone, so each family's root is solved once per process and stretched to
every requested duration.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DDKitError, PreconditionError
from .jsonio import get_field, get_list, load_object
from .linalg import expm_i_eig, require_hermitian
from .model import HamiltonianModel
from .operators import Operator, check_dimension
from .simulate import (
    Program,
    RunConfig,
    ScalingResult,
    _propagators,
    _sweep,
    fit_operator,
)

__all__ = [
    "PulseShape",
    "PulseDesignError",
    "rectangular_pulse",
    "eta_integrals",
    "design_pulse",
    "propagate_pulse",
    "pulse_error_scan",
    "pulse_to_json",
    "pulse_from_json",
]

TARGET_AREA = math.pi / 2  # exp(-i*area*Omega) = -i*Omega, a pi pulse
ETA_TOL = 1e-10
# The pulse durations ``pulse scan`` sweeps by default, and the fit window
# of ``pulse_error_scan``.
DEFAULT_TAU_GRID = tuple(np.geomspace(0.003, 0.1, 10).tolist())
ERROR_FLOOR = 1e-13
ERROR_CEILING = 1e-1


class PulseDesignError(DDKitError):
    """The root finder failed; carries the best residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class PulseShape:
    """Piecewise-constant envelope v(t) on [0, tau_p].

    ``segments`` is a tuple of (len_frac, amp) pairs; fractions sum to 1.
    ``tau_s`` is the instant the equivalent ideal pulse acts at.
    """

    tau_p: float
    tau_s: float
    segments: tuple[tuple[float, float], ...]
    _programs: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple((float(f), float(a)) for f, a in self.segments)
        values = (self.tau_p, self.tau_s, *(x for seg in segs for x in seg))
        if not all(math.isfinite(x) for x in values):
            raise PreconditionError("tau_p, tau_s and every segment value must be finite")
        _check_duration(self.tau_p)
        if not (0.0 <= self.tau_s <= self.tau_p):
            raise PreconditionError("tau_s must lie inside [0, tau_p]")
        if not segs or any(f <= 0 for f, _ in segs):
            raise PreconditionError("segment fractions must be positive")
        if abs(sum(f for f, _ in segs) - 1.0) > 1e-12:
            raise PreconditionError("segment fractions must sum to 1")
        object.__setattr__(self, "segments", segs)

    @property
    def area(self) -> float:
        return sum(f * self.tau_p * a for f, a in self.segments)

    def boundaries(self) -> list[float]:
        edges = [0.0]
        for f, _ in self.segments:
            edges.append(edges[-1] + f * self.tau_p)
        edges[-1] = self.tau_p
        return edges

    def rescaled(self, tau_p: float) -> "PulseShape":
        """Same shape at a new duration; amplitudes scale to preserve area."""
        _check_duration(tau_p)
        ratio = self.tau_p / tau_p
        segments = tuple((f, a * ratio) for f, a in self.segments)
        _check_amplitudes(segments, tau_p)
        return PulseShape(tau_p, self.tau_s * tau_p / self.tau_p, segments)


def _check_duration(tau_p: float) -> None:
    if not 0.0 < tau_p < math.inf:
        raise PreconditionError(f"pulse duration must be positive and finite, got {tau_p}")


def _check_amplitudes(segments, tau_p: float) -> None:
    """Reject a duration so short that an amplitude of ``segments``, which
    scales as 1/tau_p at a fixed area, overflows."""
    if not all(math.isfinite(a) for _, a in segments):
        raise PreconditionError(
            f"pulse duration {tau_p} is too short: its amplitude overflows")


def rectangular_pulse(tau_p: float = 1.0) -> PulseShape:
    """Constant amplitude pi/(2 tau_p), centered: the zero-parameter family."""
    _check_duration(tau_p)
    segments = ((1.0, TARGET_AREA / tau_p),)
    _check_amplitudes(segments, tau_p)
    return PulseShape(tau_p, tau_p / 2, segments)


def _symmetric_shape(amps) -> PulseShape:
    """Mirror-symmetric equal-length segments of unit total duration from the
    first-half amplitudes: amps (a1, .., ak) gives 2k-1 segments
    (a1, .., ak, .., a1)."""
    full = tuple(amps) + tuple(reversed(amps[:-1]))
    n = len(full)
    return PulseShape(1.0, 0.5, tuple((1.0 / n, a) for a in full))


def eta_integrals(shape: PulseShape) -> tuple[float, float]:
    """First-order error moments (eta_11, eta_12) of the envelope, summed
    segment by segment about each segment's midpoint.

    eta_11 = int (t - tau_s) v(t) cos(phi0 - psi(t)) dt and eta_12 the sine
    counterpart, with psi(t) = 2 int_{tau_s}^t v and phi0 the area imbalance
    about tau_s, so that phi0 - psi(t) = area - 2 int_0^t v.  Inside a
    segment of amplitude a that phase is theta - 2 a s at a distance s from
    the midpoint, where it is theta, and ``_segment_moments`` integrates
    each segment in that form.

    Both moments scale as tau_p at a fixed area, so they are evaluated on the
    shape stretched to tau_p = 1 and scaled back; at tau_p = 1 the stretch is
    exact.  An amplitude whose stretched phase rate 2 a overflows raises
    ``PreconditionError`` before any moment is summed.
    """
    tau_p = shape.tau_p
    for _, a in shape.segments:
        if not math.isfinite(2 * (a * tau_p)):
            raise PreconditionError(
                f"segment amplitude {a} is too large: its phase rate 2 * amp * tau_p overflows")
    amps = [a * tau_p for _, a in shape.segments]
    edges = [e / tau_p for e in shape.boundaries()]
    spans = list(zip(amps, edges, edges[1:]))
    area = sum(a * (t1 - t0) for a, t0, t1 in spans)
    tau_s = shape.tau_s / tau_p
    eta11 = eta12 = before = 0.0  # before: the integral of v up to the segment
    for amp, t0, t1 in spans:
        mid = (t0 + t1) / 2
        theta = area - 2 * (before + amp * (mid - t0))
        m11, m12 = _segment_moments(theta, mid - tau_s, (t1 - t0) / 2, -2 * amp)
        eta11 += amp * m11
        eta12 += amp * m12
        before += amp * (t1 - t0)
    return eta11 * tau_p, eta12 * tau_p


def _segment_moments(theta: float, c: float, half: float, b: float) -> tuple[float, float]:
    """The integrals over s in [-half, half] of (c + s) cos(theta + b s) and
    (c + s) sin(theta + b s), as 2 half (c sinc(x) cos theta - half g(x)
    sin theta) and its sine counterpart, with x = b half and g(x) =
    (sinc(x) - cos x) / x summed as its series below |x| = 1/2, where the
    difference would cancel."""
    x = b * half
    sinc = math.sin(x) / x if x else 1.0
    if abs(x) < 0.5:
        g, term = 0.0, x / 3
        for k in range(1, 10):  # term k is (-1)^(k+1) 2k x^(2k-1) / (2k+1)!
            g += term
            term *= -x * x / (2 * k * (2 * k + 3))
    else:
        g = (sinc - math.cos(x)) / x
    p, q = 2 * half * c * sinc, 2 * half * half * g
    return (p * math.cos(theta) - q * math.sin(theta),
            p * math.sin(theta) + q * math.cos(theta))


_FAMILIES = ("sym3", "sym5", "rect")


def design_pulse(family: str = "sym3", tau_p: float = 1.0) -> PulseShape:
    """Solve for an envelope with area pi/2 and eta_11 = eta_12 = 0.

    Symmetric families ('sym3', 'sym5': mirrored equal-length segments) have
    eta_11 = 0 by parity, leaving the area constraint and the eta_12 root.
    Damped Newton with a finite-difference Jacobian and at most 200
    iterations, from one start: negative outer wings, the known qualitative
    solution.  There are no restarts and nothing random, so the result
    depends on the family alone; 'rect' has no free parameter and reports
    its residual.  The moments scale as tau_p at a fixed area, so the solve
    runs at tau_p = 1 and the root found there is stretched to ``tau_p``.
    That root is solved once per family per process (``_design_root``); the
    inputs are checked on every call, before it is reached.
    """
    _check_duration(tau_p)
    if family == "rect":
        shape = rectangular_pulse(tau_p)
        _, eta12 = eta_integrals(shape)
        raise PulseDesignError(
            f"the rectangular family has no free parameters; "
            f"residual |eta_12| = {abs(eta12):.3e}",
            abs(eta12),
        )
    if family not in _FAMILIES:
        raise PreconditionError(f"unknown family {family!r}; choose from {_FAMILIES}")
    return _design_root(family).rescaled(tau_p)


@functools.cache
def _design_root(family: str) -> PulseShape:
    """``design_pulse``'s Newton solve at tau_p = 1 for 'sym3' or 'sym5',
    cached by family: at most two entries.  A failed solve raises and is
    not cached."""
    n_amps = {"sym3": 2, "sym5": 3}[family]

    def residual(x):
        shape = _symmetric_shape(x)
        _, eta12 = eta_integrals(shape)
        return np.array([shape.area - TARGET_AREA, eta12])

    x = np.full(n_amps, TARGET_AREA)
    x[0] = -x[0]
    best = math.inf
    for _ in range(200):
        r = residual(x)
        nrm = float(np.linalg.norm(r))
        best = min(best, nrm)
        if nrm < 1e-13:
            shape = _symmetric_shape(x)
            eta11, eta12 = eta_integrals(shape)
            if abs(eta11) <= ETA_TOL and abs(eta12) <= ETA_TOL:
                return shape
            break
        jac = np.zeros((2, n_amps))
        h = 1e-7 * max(1.0, float(np.max(np.abs(x))))
        for k in range(n_amps):
            xp = x.copy()
            xp[k] += h
            jac[:, k] = (residual(xp) - r) / h
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam > 1e-6:
            xn = x + lam * step
            if float(np.linalg.norm(residual(xn))) < nrm:
                x = xn
                break
            lam /= 2
        else:
            break
    raise PulseDesignError(
        f"no root found for family {family!r}; best residual {best:.3e}", best
    )


def _pulse_program(shape: PulseShape, model: HamiltonianModel, omega: Operator,
                   reference: bool = False) -> Program:
    """One driven step per segment, whose angle len_frac * tau_p * amp is the
    segment's share of the pulse area at every duration.  ``reference``
    appends U_ref^dag (see ``pulse_error_scan``), whose P^dag is taken from
    the eigendecomposition of the pulse axis checked once below.  The shape
    keeps the program per axis (read back from its key's bytes) and
    ``reference`` for every model; the dimension is checked on every call."""
    check_dimension((omega,), model.sys_dim, "system")
    key = (omega.matrix.tobytes(), reference)
    if key not in shape._programs:
        axis = require_hermitian(np.frombuffer(key[0], complex).reshape(omega.matrix.shape))
        pulses = {"A": axis}
        steps = [(f, ("A", f * shape.tau_p * a), None) for f, a in shape.segments]
        if reference:
            s = shape.tau_s / shape.tau_p
            pulses["P"] = expm_i_eig(*np.linalg.eigh(axis), -shape.area)  # P^dag
            steps += [(s - 1, None, "P"), (-s, None, None)]
        shape._programs[key] = Program((tuple(steps), ()), pulses, model.sys_dim)
    return shape._programs[key]


def propagate_pulse(shape: PulseShape, model: HamiltonianModel, omega: Operator) -> np.ndarray:
    """Time-ordered propagator under H + v(t) Omega (x) I."""
    return _propagators(_pulse_program(shape, model, omega), [model], [shape.tau_p])[0, 0]


def _pulse_errors(shape: PulseShape, models, omega: Operator, tau_grid) -> np.ndarray:
    """``pulse_error_scan``'s errors, indexed [model, tau], from one sweep
    that charges every step of every model against the sweep budget."""
    program = _pulse_program(shape, models[0], omega, True)
    errs = np.empty((len(models), len(tau_grid)))
    for chunk, span, w, _ in _sweep(program, tau_grid, models, lambda m: m, models[0].dim):
        a = w.transpose(0, 2, 1, 3) - np.eye(w.shape[-1])
        _, exp = np.frexp(np.abs(a).max(axis=(-2, -1)))
        a = np.ldexp(a.view(float), -exp[..., None, None]).view(complex)
        lam = np.linalg.eigvalsh(a.conj().swapaxes(-1, -2) @ a)[..., -1]
        errs[chunk, span] = np.ldexp(np.sqrt(np.maximum(lam, 0.0)), exp)
    return errs


def pulse_error_scan(
    shape: PulseShape,
    model: HamiltonianModel,
    omega: Operator,
    tau_grid,
) -> ScalingResult:
    """Error of the shaped pulse against the ideal instantaneous pulse over a
    grid of durations, with the fitted slope of log(error) vs log(tau_p).

    The ideal reference is U_ref = exp(-i (tau_p - tau_s) H) (P (x) I)
    exp(-i tau_s H) with P = exp(-i * area * Omega).  The program runs the
    shape and then U_ref^dag, by backward free evolution, over the grid in
    chunks; the error is the spectral norm |U_ref^dag U - I| = |U - U_ref|,
    read from the kernel's product in each model's eigenbasis, W =
    V^dag U_ref^dag U V, as |W - I|: V is unitary, so there is no rotation
    back.
    The fit window is (ERROR_FLOOR, ERROR_CEILING).  Each step at each
    duration is charged against the sweep budget.  The errors come from
    ``_pulse_errors``, which sweeps a list of models at once.

    The norm of A = W - I is sqrt(lambda_max(A^dag A)), from one
    batched product and one batched ``eigvalsh`` instead of an SVD.  The
    Gram matrix loses only the small singular values; the largest keeps a
    relative error of O(eps).  Each A is first scaled by the exact power of
    two that brings its largest |entry| into [1/2, 1), so the squares cannot
    underflow (an error of 1e-200 would square to 0), and the scale is put
    back on the norm.  ``linalg.spectral_norm`` keeps its SVD: a model's
    normalisation that moved by one ulp would reshuffle near-floor errors.
    """
    config = RunConfig(t_grid=tau_grid, seeds=(model.seed,),
                       error_floor=ERROR_FLOOR, error_ceiling=ERROR_CEILING)
    errs = _pulse_errors(shape, [model], omega, config.t_grid)[0]
    fit = fit_operator(omega.label, config.t_grid, errs, ERROR_FLOOR, ERROR_CEILING)
    label = omega.label
    return ScalingResult(config, {label: errs[:, None]}, {label: errs.copy()}, {label: fit})


def pulse_to_json(shape: PulseShape) -> str:
    return json.dumps(
        {
            "tau_p": shape.tau_p,
            "tau_s": shape.tau_s,
            "segments": [{"len_frac": f, "amp": a} for f, a in shape.segments],
        },
        indent=2,
    )


def pulse_from_json(text: str) -> PulseShape:
    doc = load_object(text, "pulse")
    segments = tuple(
        (get_field(s, "len_frac", float, "pulse segment"),
         get_field(s, "amp", float, "pulse segment"))
        for s in get_list(doc, "segments", dict, "pulse")
    )
    return PulseShape(
        get_field(doc, "tau_p", float, "pulse"),
        get_field(doc, "tau_s", float, "pulse"),
        segments,
    )
