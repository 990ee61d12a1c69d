"""Acceptance suite: end-to-end checks of the compiled schedules, the
measured decoupling orders, the MOOS constructions, and the pulse designs.

Each criterion returns a CriterionResult with the measured numbers and the
tolerance it was judged against; `run_all` executes the whole suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import spectral_norm_le
from .operators import (
    Moos,
    Operator,
    build_moos,
    lie_closure,
    mlevel_diagonal_moos,
    mlevel_full_moos,
    pauli,
    qubit_dephasing_moos,
    qubit_full_moos,
)
from .pulseshape import (
    DEFAULT_TAU_GRID,
    _pulse_errors,
    design_pulse,
    eta_integrals,
    pulse_error_scan,
    rectangular_pulse,
)
from .sequences import (
    cdd_nested,
    cdd_uniform,
    conjugated,
    first_order_schedule,
    hahn_echo,
    nudd,
    sdd_schedule,
    udd_schedule,
)
from .simulate import ModelSpec, RunConfig, median, order_scan
from .model import random_model

__all__ = ["CriterionResult", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str


def _fit_ok(fit, lo: float, hi: float) -> tuple[bool, str]:
    ok = fit.ok and lo <= fit.slope <= hi
    return ok, f"{fit.label}: slope {fit.slope:.3f} in [{lo}, {hi}] ({fit.status})"


_GENERAL_2x4 = ModelSpec("general", 2, 4, 1.0)
_DEFAULT_CFG = RunConfig()


def criterion_udd_ladder() -> CriterionResult:
    """UDD order N gives fitted slope N+1 for the protected operator."""
    moos = qubit_full_moos(1)
    z = moos.by_label("Z1")
    parts, ok = [], True
    for n in range(1, 5):
        res = order_scan(udd_schedule("Z1", n), moos, _GENERAL_2x4, _DEFAULT_CFG, operators=[z])
        fit = res.fits["Z1"]
        lo, hi = (n + 1 - 0.3, n + 1 + 0.5) if n <= 3 else (n + 1 - 0.5, n + 1 + 0.7)
        good = fit.ok and lo <= fit.slope <= hi
        ok &= good
        parts.append(f"N={n}: {fit.slope:.3f} in [{lo:.1f},{hi:.1f}]")
    return CriterionResult(1, "UDD order ladder", ok, "; ".join(parts))


def criterion_first_order() -> CriterionResult:
    """First-order MOOS scheme protects every element to order >= 1."""
    parts, ok = [], True
    for n_qubits in (1, 2):
        moos = qubit_full_moos(n_qubits)
        spec = ModelSpec("general", 2**n_qubits, 4, 1.0)
        res = order_scan(first_order_schedule(moos), moos, spec, _DEFAULT_CFG)
        for lab, fit in sorted(res.fits.items()):
            good = fit.ok and fit.slope >= 1.7
            ok &= good
            parts.append(f"L={n_qubits} {lab}: {fit.slope:.2f}")
    return CriterionResult(2, "first-order MOOS scheme", ok, "; ".join(parts) + " (all >= 1.7)")


def criterion_sdd() -> CriterionResult:
    """SDD lifts the first-order single-qubit scheme to second order."""
    moos = qubit_full_moos(1)
    sched = sdd_schedule(first_order_schedule(moos))
    res = order_scan(sched, moos, _GENERAL_2x4, _DEFAULT_CFG)
    checks = [_fit_ok(res.fits[lab], 2.7, math.inf) for lab in ("Z1", "X1")]
    return CriterionResult(3, "SDD second order", all(c for c, _ in checks),
                           "; ".join(m for _, m in checks))


def criterion_cdd() -> CriterionResult:
    """Second-order CDD on one qubit: slopes >= 2.7 and 2^(N*L) intervals."""
    moos = qubit_full_moos(1)
    sched = cdd_uniform(moos, 2)
    count_ok = sched.intervals == 2 ** (2 * len(moos)) == len(sched.times) + 1
    res = order_scan(sched, moos, _GENERAL_2x4, _DEFAULT_CFG)
    checks = [_fit_ok(res.fits[lab], 2.7, math.inf) for lab in ("Z1", "X1")]
    ok = count_ok and all(c for c, _ in checks)
    return CriterionResult(4, "CDD order", ok,
                           f"intervals {sched.intervals} (want 16); " + "; ".join(m for _, m in checks))


def criterion_nudd_even() -> CriterionResult:
    """NUDD (2,3): inner operator to order 2, outer to order 3."""
    moos = qubit_full_moos(1)
    res = order_scan(nudd(moos, (2, 3)), moos, _GENERAL_2x4, _DEFAULT_CFG)
    ok_z, msg_z = _fit_ok(res.fits["Z1"], 2.7, math.inf)
    ok_x, msg_x = _fit_ok(res.fits["X1"], 3.7, math.inf)
    return CriterionResult(5, "NUDD/QDD even inner", ok_z and ok_x, f"{msg_z}; {msg_x}")


def criterion_odd_inner_counterexample() -> CriterionResult:
    """Odd inner order spoils the outer UDD: second-order outer sequence
    leaves the outer operator protected only to first order."""
    moos = qubit_full_moos(1)
    sched = nudd(moos, (1, 2), allow_odd_inner=True)
    spec = ModelSpec("qdd_counterexample", 2, 4, 1.0)
    res = order_scan(sched, moos, spec, _DEFAULT_CFG)
    fx, fz = res.fits["X1"], res.fits["Z1"]
    ok = fx.ok and 1.7 <= fx.slope <= 2.4 and fz.ok and fz.slope >= 1.7
    return CriterionResult(
        6, "odd-inner counterexample", ok,
        f"outer X1 slope {fx.slope:.3f} in [1.7, 2.4]; inner Z1 slope {fz.slope:.3f} >= 1.7",
    )


def criterion_pulse_counts() -> CriterionResult:
    """Interval-count formulas hold exactly for every scheme."""
    parts, ok = [], True
    moos2 = qubit_full_moos(1)   # 2 elements
    moos4 = qubit_full_moos(2)   # 4 elements

    for moos in (moos2, moos4):
        s = first_order_schedule(moos)
        good = s.intervals == 2 ** len(moos) == len(s.times) + 1
        ok &= good
        parts.append(f"first_order L={len(moos)}: {s.intervals}")
    for n in (1, 2, 3):
        s = cdd_uniform(moos2, n)
        ok &= s.intervals == 2 ** (n * len(moos2)) == len(s.times) + 1
        parts.append(f"cdd N={n}: {s.intervals}")
    for orders in ((1,), (2, 3), (3, 4), (2, 2)):
        moos = moos2 if len(orders) == 2 else Moos((pauli("z", 1, 1),))
        s = cdd_nested(moos, orders)
        ok &= s.intervals == 2 ** sum(orders) == len(s.times) + 1
        parts.append(f"cdd_nested {orders}: {s.intervals}")
    for orders in ((2, 2), (2, 3), (4, 4), (1, 2), (2, 3, 2)):
        moos = moos4 if len(orders) == 3 else moos2
        moos = Moos(moos.elements[: len(orders)])
        s = nudd(moos, orders, allow_odd_inner=True)
        want = math.prod(n + 1 for n in orders)
        ok &= s.intervals == want == len(s.times) + 1
        parts.append(f"nudd {orders}: {s.intervals}")
    return CriterionResult(7, "pulse-count formulas", ok, "; ".join(parts))


def criterion_moos_suites() -> CriterionResult:
    """All MOOS constructions validate; divisibility and trace obstructions."""
    parts, ok = [], True
    # Moos() rejects an element that is not unitary Hermitian and an
    # anticommuting member with a trace, so each suite is validated on its
    # first build in the process.
    for make, arg in ((qubit_dephasing_moos, 2), (qubit_full_moos, 1), (qubit_full_moos, 2),
                      (mlevel_diagonal_moos, 5), (mlevel_full_moos, 4), (mlevel_full_moos, 6)):
        make(arg)
    parts.append("constructions 1-6 validated")
    labels6 = mlevel_full_moos(6).labels
    six_ok = "Sx1" in labels6 and "Sx2" not in labels6
    ok &= six_ok
    parts.append(f"mlevel_full(6) = {labels6}")
    diag5 = mlevel_diagonal_moos(5)
    ok &= len(diag5) == 3
    parts.append(f"mlevel_diagonal(5) size {len(diag5)}")
    x = pauli("x", 1, 1)
    skew = Operator("D", (pauli("x", 1, 1).matrix + pauli("y", 1, 1).matrix) / np.sqrt(2), 2)
    try:
        Moos((x, skew))
        ok = False
        parts.append("custom {X, (X+Y)/sqrt2} was wrongly accepted")
    except PreconditionError:
        parts.append("custom {X, (X+Y)/sqrt2} rejected")
    return CriterionResult(8, "MOOS suites", ok, "; ".join(parts))


def criterion_lie_closure() -> CriterionResult:
    """Closure dimensions and the encoded-qubit noise-generator check."""
    parts, ok = [], True
    cases = [
        (Moos((pauli("z", 1, 1),)), 1),
        (Moos((pauli("x", 1, 1), pauli("y", 1, 1))), 3),
        (qubit_full_moos(1), 3),
        (qubit_full_moos(2), 15),
    ]
    for moos, want in cases:
        got = len(lie_closure(moos))
        ok &= got == want
        parts.append(f"{'{' + ','.join(moos.labels) + '}'}: dim {got} (want {want})")
    xx = Operator("XX", np.kron(pauli("x", 1, 1).matrix, pauli("x", 1, 1).matrix), 4)
    encoded = Moos((xx, pauli("z", 1, 2), pauli("z", 2, 2)))
    closure = lie_closure(encoded)
    zz = np.kron(pauli("z", 1, 1).matrix, pauli("z", 1, 1).matrix)
    # projection of zz onto the closure span
    proj = sum(
        (np.trace(b.matrix.conj().T @ zz) / 4) * b.matrix for b in closure
    )
    in_span = spectral_norm_le(proj - zz, 1e-9)
    commutes = all(
        spectral_norm_le(zz @ op.matrix - op.matrix @ zz, 1e-10)
        for op in encoded.elements
    )
    ok &= in_span and commutes
    parts.append(f"encoded: ZZ in closure {in_span}, commutes with MOOS {commutes}")
    return CriterionResult(9, "Lie closure dimensions", ok, "; ".join(parts))


def criterion_pulse_shaping() -> CriterionResult:
    """Designed envelope: vanishing first-order moments, second-order error
    scaling, and a >= 10x error advantage over the rectangular pulse."""
    parts, ok = [], True
    shape = design_pulse("sym3")
    e11, e12 = eta_integrals(shape)
    design_ok = (
        abs(e11) <= 1e-10 and abs(e12) <= 1e-10 and abs(shape.area - math.pi / 2) <= 1e-10
    )
    ok &= design_ok
    parts.append(f"|eta11| = {abs(e11):.1e}, |eta12| = {abs(e12):.1e}, area residual "
                 f"{abs(shape.area - math.pi / 2):.1e}")

    moos = qubit_full_moos(1)
    z = moos.by_label("Z1")
    model = random_model("general", 2, 4, 1.0, 0)
    res = pulse_error_scan(shape, model, z, DEFAULT_TAU_GRID)
    fit = res.fits["Z1"]
    slope_ok = fit.ok and 1.8 <= fit.slope <= 2.3
    ok &= slope_ok
    parts.append(f"designed slope {fit.slope:.3f} in [1.8, 2.3]")

    models = [random_model("general", 2, 4, 1.0, seed) for seed in range(8)]
    ratios = (_pulse_errors(rectangular_pulse(), models, z, (0.01,))
              / _pulse_errors(shape, models, z, (0.01,)))[:, 0]
    med = float(median(ratios))
    ok &= med >= 10.0
    parts.append(f"rect/designed error ratio at tau_p|H| = 0.01: median {med:.1f} (want >= 10)")
    return CriterionResult(10, "pulse shaping", ok, "; ".join(parts))


def criterion_conjugation_robustness() -> CriterionResult:
    """MOOS-partner conjugation leaves the protection intact; a non-MOOS
    echo wrapped around the sequence destroys it.

    Conjugating every free block of the sigma_z-protecting run by sigma_x
    must not move the slope.  The degradation leg follows the construction
    the interference argument actually applies to: (sigma_x + sigma_y)/sqrt2
    neither commutes nor anticommutes with sigma_x, so a Hahn echo of it
    wrapped around a sigma_x-protecting run drops that slope to ~1.
    """
    moos = qubit_full_moos(1)
    z, x = moos.by_label("Z1"), moos.by_label("X1")
    skew = Operator("D", (pauli("x", 1, 1).matrix + pauli("y", 1, 1).matrix) / np.sqrt(2), 2)

    sched_z = udd_schedule("Z1", 2)
    base = order_scan(sched_z, moos, _GENERAL_2x4, _DEFAULT_CFG, operators=[z]).fits["Z1"]
    conj = order_scan(
        conjugated(sched_z, x.label), moos, _GENERAL_2x4, _DEFAULT_CFG, operators=[z]
    ).fits["Z1"]
    leg1 = base.ok and conj.ok and abs(base.slope - conj.slope) <= 0.3

    sched_x = udd_schedule("X1", 2)
    cfg = RunConfig(t_grid=tuple(np.geomspace(0.002, 0.06, 12)))
    deg = order_scan(
        hahn_echo(sched_x, skew.label), moos, _GENERAL_2x4, cfg, operators=[x], extra=(skew,)
    ).fits["X1"]
    leg2 = deg.ok and deg.slope <= 1.5
    return CriterionResult(
        11, "conjugation robustness", leg1 and leg2,
        f"baseline {base.slope:.3f} vs sigma_x-conjugated {conj.slope:.3f} (|diff| <= 0.3); "
        f"non-MOOS wrap slope {deg.slope:.3f} (<= 1.5)",
    )


CRITERIA = [
    criterion_udd_ladder,
    criterion_first_order,
    criterion_sdd,
    criterion_cdd,
    criterion_nudd_even,
    criterion_odd_inner_counterexample,
    criterion_pulse_counts,
    criterion_moos_suites,
    criterion_lie_closure,
    criterion_pulse_shaping,
    criterion_conjugation_robustness,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
