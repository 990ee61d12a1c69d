"""Finite-amplitude pulse envelopes approximating ideal pi pulses.

A shaped pulse H(t) = v(t) * Omega replaces an instantaneous pi pulse with an
error O(tau_p^2) in the pulse duration once the two first-order moment
integrals eta_11 and eta_12 vanish (together with the pi/2 area constraint).
Envelopes here are piecewise constant; sign changes are allowed.  A shape
runs as a segment program of ``simulate``, one driven step per segment, so a
scan over pulse durations is one batched call of the propagation kernel.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DDKitError, PreconditionError
from .jsonio import get_field, get_list, load_object
from .linalg import expm_i, require_hermitian
from .model import HamiltonianModel, check_seed
from .operators import Operator
from .simulate import (
    Program,
    RunConfig,
    ScalingResult,
    _propagators,
    check_sweep_budget,
    fit_operator,
)

__all__ = [
    "PulseShape",
    "PulseDesignError",
    "rectangular_pulse",
    "eta_integrals",
    "eta_integrals_quadrature",
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

    def __post_init__(self):
        segs = tuple((float(f), float(a)) for f, a in self.segments)
        values = (self.tau_p, self.tau_s, *(x for seg in segs for x in seg))
        if not all(math.isfinite(x) for x in values):
            raise PreconditionError("tau_p, tau_s and every segment value must be finite")
        if self.tau_p <= 0:
            raise PreconditionError("pulse duration must be positive")
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

    def envelope(self, t: float) -> float:
        edges = self.boundaries()
        for j, (_, amp) in enumerate(self.segments):
            if t <= edges[j + 1]:
                return amp
        return self.segments[-1][1]

    def rescaled(self, tau_p: float) -> "PulseShape":
        """Same shape at a new duration; amplitudes scale to preserve area."""
        ratio = self.tau_p / tau_p
        return PulseShape(
            tau_p,
            self.tau_s * tau_p / self.tau_p,
            tuple((f, a * ratio) for f, a in self.segments),
        )


def rectangular_pulse(tau_p: float = 1.0) -> PulseShape:
    """Constant amplitude pi/(2 tau_p), centered: the zero-parameter family."""
    return PulseShape(tau_p, tau_p / 2, ((1.0, TARGET_AREA / tau_p),))


def _symmetric_shape(amps) -> PulseShape:
    """Mirror-symmetric equal-length segments of unit total duration from the
    first-half amplitudes: amps (a1, .., ak) gives 2k-1 segments
    (a1, .., ak, .., a1)."""
    full = tuple(amps) + tuple(reversed(amps[:-1]))
    n = len(full)
    return PulseShape(1.0, 0.5, tuple((1.0 / n, a) for a in full))


def eta_integrals(shape: PulseShape) -> tuple[float, float]:
    """First-order error moments (eta_11, eta_12) of the envelope, from the
    closed-form per-segment antiderivatives.

    eta_11 = int (t - tau_s) v(t) cos(phi0 - psi(t)) dt and eta_12 the sine
    counterpart, with psi(t) = 2 int_{tau_s}^t v and phi0 the area imbalance
    about tau_s.

    Both moments scale as tau_p at a fixed area, so they are evaluated on the
    shape stretched to tau_p = 1, where b**2 below neither overflows nor
    vanishes, and scaled back; at tau_p = 1 the stretch is exact.
    """
    tau_p = shape.tau_p
    segments = [(f, a * tau_p) for f, a in shape.segments]
    tau_s = shape.tau_s / tau_p
    edges = [e / tau_p for e in shape.boundaries()]
    # cumulative integral of v at segment starts
    v_cum = [0.0]
    for (f, a), j in zip(segments, range(len(segments))):
        v_cum.append(v_cum[-1] + a * (edges[j + 1] - edges[j]))
    area = v_cum[-1]

    def v_int(t: float) -> float:
        for j in range(len(segments)):
            if t <= edges[j + 1] or j == len(segments) - 1:
                return v_cum[j] + segments[j][1] * (t - edges[j])
        raise AssertionError

    v_at_s = v_int(tau_s)
    phi0 = area - 2 * v_at_s

    eta11 = 0.0
    eta12 = 0.0
    for j, (_, amp) in enumerate(segments):
        if amp == 0.0:
            continue
        t0, t1 = edges[j], edges[j + 1]
        # phi0 - psi(t) = A + B t inside the segment
        b = -2.0 * amp
        a_coef = phi0 + 2 * v_at_s - 2 * v_cum[j] + 2 * amp * t0

        def f_cos(t):
            return (t - tau_s) * math.sin(a_coef + b * t) / b + math.cos(
                a_coef + b * t
            ) / b**2

        def f_sin(t):
            return -(t - tau_s) * math.cos(a_coef + b * t) / b + math.sin(
                a_coef + b * t
            ) / b**2

        eta11 += amp * (f_cos(t1) - f_cos(t0))
        eta12 += amp * (f_sin(t1) - f_sin(t0))
    return eta11 * tau_p, eta12 * tau_p


def eta_integrals_quadrature(shape: PulseShape, tol: float = 1e-12):
    """Blind adaptive-quadrature evaluation of the same two integrals,
    independent of the closed form; used as a cross-check."""
    from scipy import integrate  # here, so that `import ddkit` does not load scipy

    edges = shape.boundaries()

    def psi(t):
        lo, hi = min(shape.tau_s, t), max(shape.tau_s, t)
        total = 0.0
        for j, (_, amp) in enumerate(shape.segments):
            a, b = max(edges[j], lo), min(edges[j + 1], hi)
            if b > a:
                total += amp * (b - a)
        return 2.0 * math.copysign(1.0, t - shape.tau_s) * total if t != shape.tau_s else 0.0

    phi0 = psi(shape.tau_p) / 2 + psi(0.0) / 2  # int_s^p v - int_0^s v

    def integrand(t, trig):
        return (t - shape.tau_s) * shape.envelope(t) * trig(phi0 - psi(t))

    pts = edges[1:-1]
    eta11, _ = integrate.quad(
        integrand, 0.0, shape.tau_p, args=(math.cos,), points=pts,
        epsabs=tol, epsrel=0.0, limit=200,
    )
    eta12, _ = integrate.quad(
        integrand, 0.0, shape.tau_p, args=(math.sin,), points=pts,
        epsabs=tol, epsrel=0.0, limit=200,
    )
    return eta11, eta12


_FAMILIES = ("sym3", "sym5", "rect")


def design_pulse(family: str = "sym3", tau_p: float = 1.0, seed: int = 0) -> PulseShape:
    """Solve for an envelope with area pi/2 and eta_11 = eta_12 = 0.

    Symmetric families ('sym3', 'sym5': mirrored equal-length segments) have
    eta_11 = 0 by parity, leaving the area constraint and the eta_12 root.
    Damped Newton with a finite-difference Jacobian, 200 iterations and 20
    random restarts; 'rect' has no free parameter and reports its residual.
    The moments scale as tau_p at a fixed area, so the solve runs at
    tau_p = 1 and the root found there is stretched to ``tau_p``.
    """
    if not 0.0 < tau_p < math.inf:
        raise PreconditionError(f"pulse duration must be positive and finite, got {tau_p}")
    check_seed(seed)
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
    n_amps = {"sym3": 2, "sym5": 3}[family]

    def residual(x):
        shape = _symmetric_shape(x)
        _, eta12 = eta_integrals(shape)
        return np.array([shape.area - TARGET_AREA, eta12])

    rng = np.random.Generator(np.random.Philox(key=seed))
    best = math.inf
    for restart in range(20):
        if restart == 0:
            x = np.full(n_amps, TARGET_AREA)
            x[0] = -x[0]  # negative wings, the known qualitative solution
        else:
            x = rng.uniform(-4.0, 4.0, n_amps) * TARGET_AREA
        for _ in range(200):
            r = residual(x)
            nrm = float(np.linalg.norm(r))
            best = min(best, nrm)
            if nrm < 1e-13:
                shape = _symmetric_shape(x)
                eta11, eta12 = eta_integrals(shape)
                if abs(eta11) <= ETA_TOL and abs(eta12) <= ETA_TOL:
                    return shape.rescaled(tau_p)
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
    appends U_ref^dag (see ``pulse_error_scan``)."""
    if omega.acts_on != model.sys_dim:
        raise PreconditionError(
            f"operator {omega.label!r} acts on dimension {omega.acts_on}, "
            f"system dimension is {model.sys_dim}"
        )
    pulses = {"A": require_hermitian(omega.matrix)}
    steps = [(f, ("A", f * shape.tau_p * a), None) for f, a in shape.segments]
    if reference:
        s = shape.tau_s / shape.tau_p
        pulses["P"] = expm_i(omega.matrix, -shape.area)  # P^dag
        steps += [(s - 1, None, "P"), (-s, None, None)]
    net = pulses["P"] if reference else np.eye(omega.acts_on)
    return Program(tuple(steps), pulses, Operator("net", net, omega.acts_on))


def propagate_pulse(shape: PulseShape, model: HamiltonianModel, omega: Operator) -> np.ndarray:
    """Time-ordered propagator under H + v(t) Omega (x) I."""
    return _propagators(_pulse_program(shape, model, omega), [model], [shape.tau_p])[0, 0]


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
    shape and then U_ref^dag, by backward free evolution, for the whole grid
    in one batch; the error is the spectral norm |U_ref^dag U - I| = |U - U_ref|.
    The fit window is (ERROR_FLOOR, ERROR_CEILING).  Each step at each
    duration is charged against ``check_sweep_budget``.
    """
    config = RunConfig(t_grid=tau_grid, seeds=(model.seed,),
                       error_floor=ERROR_FLOOR, error_ceiling=ERROR_CEILING)
    program = _pulse_program(shape, model, omega, True)
    check_sweep_budget(len(program.steps) * len(config.t_grid))
    u = _propagators(program, [model], config.t_grid)[0]
    errs = np.linalg.norm(u - np.eye(model.dim), ord=2, axis=(-2, -1))

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
