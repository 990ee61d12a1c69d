"""Oracles the tests check the library against, kept out of the library
because no library path needs them: blind adaptive quadrature of the pulse
moment integrals (scipy), the split of a Hamiltonian into the parts that
commute and anticommute with a pulse, a pulse's envelope at one instant,
the spectral norm from an SVD, a
log-log line from ``np.polyfit``, a schedule's steps event by event, the
steps a program's grammar expands to, and a grammar with its rules named
once spliced in."""

import math
from collections import Counter

import numpy as np
from scipy import integrate


def envelope(shape, t: float) -> float:
    """The amplitude of the segment of ``shape`` that holds instant ``t``;
    at a boundary, that of the segment it ends."""
    edges = shape.boundaries()
    for j, (_, amp) in enumerate(shape.segments):
        if t <= edges[j + 1]:
            return amp
    return shape.segments[-1][1]


def eta_integrals_quadrature(shape, tol: float = 1e-12):
    """Blind adaptive-quadrature evaluation of the two moment integrals of
    ``pulseshape.eta_integrals``, independent of its closed form."""
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
        return (t - shape.tau_s) * envelope(shape, t) * trig(phi0 - psi(t))

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


def decompose(model, omega):
    """Split H into the part commuting with Omega (x) I and the part
    anticommuting with it: C = (H + WHW)/2, A = (H - WHW)/2."""
    w = model.lift(omega)
    whw = w @ model.h_total @ w
    c_part = (model.h_total + whw) / 2
    a_part = (model.h_total - whw) / 2
    return c_part, a_part



def spectral_norm_svd(a):
    """Largest singular value of each matrix of a stack (..., d, d), from a
    batched SVD."""
    return np.linalg.norm(a, ord=2, axis=(-2, -1))


def fit_loglog_polyfit(points, floor, ceiling):
    """(slope, intercept, rms_residual, n_used) of log(error) vs log(T) on
    the points inside (floor, ceiling), from ``np.polyfit``'s least-squares
    solve of the Vandermonde system."""
    kept = [(t, e) for t, e in points if floor < e < ceiling]
    log_t = np.log([t for t, _ in kept])
    log_e = np.log([e for _, e in kept])
    slope, intercept = np.polyfit(log_t, log_e, 1)
    resid = log_e - (slope * log_t + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))), len(kept)


def event_steps(schedule):
    """The schedule's steps event by event: (difference of two event times,
    None, the labels at the later one or None), the closing last."""
    times = [0.0, *(e.time for e in schedule.events), 1.0]
    ops = [e.ops for e in schedule.events] + [schedule.closing_ops]
    return [(b - a, None, tuple(o) or None) for a, b, o in zip(times, times[1:], ops)]


def expand_grammar(grammar):
    """The steps a grammar (top, rules) stands for, in order; a rule that
    refers to itself or to a later rule fails."""
    top, rules = grammar
    for i, rule in enumerate(rules):
        assert all(not isinstance(s, int) or s < i for s in rule), "rule refers forward"

    def expand(s):
        return [s] if not isinstance(s, int) else [step for r in rules[s] for step in expand(r)]

    return [step for s in top for step in expand(s)]


def joined_steps(steps):
    """Each step without a pulse joined to the next one, their fractions
    added: an SDD's silent midpoint, or a step of its own for a pulse."""
    out, frac = [], 0.0
    for step in steps[:-1]:
        frac += step[0]
        if step[2] is not None:
            out.append((frac, *step[1:]))
            frac = 0.0
    return [*out, (frac + steps[-1][0], *steps[-1][1:])]


def splice_single_rules(grammar):
    """The grammar (top, rules) with each rule named once replaced by its
    symbols where it is named, and the rules named more often renumbered in
    their order."""
    top, rules = grammar
    names = Counter(s for seq in (top, *rules) for s in seq if isinstance(s, int))
    kept, index = [], {}

    def splice(seq):
        out = []
        for s in seq:
            if not isinstance(s, int):
                out.append(s)
            elif names[s] == 1:
                out += splice(rules[s])
            else:
                out.append(index[s])
        return out

    for i, rule in enumerate(rules):
        if names[i] > 1:
            index[i] = len(kept)
            kept.append(tuple(splice(rule)))
    return tuple(splice(top)), tuple(kept)
