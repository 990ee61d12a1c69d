"""Independent oracles for the batched shaped-pulse path.

``propagate_pulse`` is checked against an ODE integration of the
Schroedinger equation, ``pulse_error_scan`` against a per-duration loop of
2-D exponentials, and the batched ``expm_i`` and ``propagator`` against
their 2-D calls, bit for bit.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ddkit.errors import PreconditionError
from ddkit.linalg import expm_i, kron
from ddkit.model import random_model
from ddkit.operators import Operator, pauli
from ddkit.pulseshape import (
    PulseShape,
    design_pulse,
    propagate_pulse,
    pulse_error_scan,
    rectangular_pulse,
)

SZ = pauli("z", 1, 1)
SX = pauli("x", 1, 1)
SHAPES = {
    "rect": rectangular_pulse(),
    "sym3": design_pulse("sym3"),
    "sym5": design_pulse("sym5"),
    # not mirror-symmetric, so a reversed segment order shows
    "asym": PulseShape(1.0, 0.3, ((0.25, 2.0), (0.5, -1.0), (0.25, 4.0))),
}
MODEL = random_model("general", 2, 2, 1.0, 3)


def _ode_propagator(shape, model, omega):
    """U(tau_p) from dU/dt = -i (H + v(t) Omega (x) I) U, integrated with
    DOP853 one segment at a time so the envelope is smooth on each piece."""
    d = model.dim
    lifted = kron(omega.matrix, np.eye(model.bath_dim))
    edges = shape.boundaries()
    u = np.eye(d, dtype=complex)
    for j, (_, amp) in enumerate(shape.segments):
        h = model.h_total + amp * lifted

        def rhs(_t, y, h=h):
            return (-1j * h @ y.reshape(d, d)).ravel()

        sol = solve_ivp(rhs, (edges[j], edges[j + 1]), u.ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-12)
        assert sol.success
        u = sol.y[:, -1].reshape(d, d)
    return u


@pytest.mark.parametrize("family", sorted(SHAPES))
@pytest.mark.parametrize("omega", [SZ, SX], ids=["Z1", "X1"])
def test_propagate_pulse_matches_ode(family, omega):
    shape = SHAPES[family].rescaled(0.4)
    u = propagate_pulse(shape, MODEL, omega)
    assert np.max(np.abs(u - _ode_propagator(shape, MODEL, omega))) <= 1e-9


def _loop_errors(shape, model, omega, tau_grid):
    """Per-duration errors from 2-D exponentials of the rescaled shape, with
    no cached eigendecomposition and no batching."""
    lifted = kron(omega.matrix, np.eye(model.bath_dim))
    errs = []
    for tau in tau_grid:
        s = shape.rescaled(tau)
        edges = s.boundaries()
        u = np.eye(model.dim, dtype=complex)
        for j, (_, amp) in enumerate(s.segments):
            u = expm_i(model.h_total + amp * lifted, edges[j + 1] - edges[j]) @ u
        p = kron(expm_i(omega.matrix, s.area), np.eye(model.bath_dim))
        ref = expm_i(model.h_total, tau - s.tau_s) @ p @ expm_i(model.h_total, s.tau_s)
        errs.append(np.linalg.norm(u - ref, ord=2))
    return np.array(errs)


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_pulse_error_scan_matches_per_tau_loop(family):
    m = random_model("general", 2, 4, 1.0, 5)
    tau_grid = np.geomspace(0.003, 0.1, 10)
    for omega in (SZ, SX):
        res = pulse_error_scan(SHAPES[family], m, omega, tau_grid)
        want = _loop_errors(SHAPES[family], m, omega, tau_grid)
        assert np.max(np.abs(res.errors[omega.label][:, 0] - want)) <= 1e-12


def test_non_hermitian_omega_rejected():
    skew = Operator("S", np.array([[0, 1], [0, 0]], dtype=complex), 2)
    with pytest.raises(PreconditionError, match="not Hermitian"):
        propagate_pulse(SHAPES["sym3"], MODEL, skew)
    with pytest.raises(PreconditionError, match="not Hermitian"):
        pulse_error_scan(SHAPES["sym3"], MODEL, skew, [0.01, 0.02])


def test_pulse_error_scan_zero_duration_limit_is_the_ideal_pulse():
    # no amplitude pi/2 / tau is formed, so tau = 1e-310 no longer overflows:
    # a pulse of vanishing duration is the ideal pulse
    res = pulse_error_scan(SHAPES["rect"], MODEL, SZ, [1e-310, 0.01])
    err = res.errors["Z1"][0, 0]
    assert np.isfinite(err) and err <= 1e-12


def test_pulse_operator_dimension_mismatch_rejected():
    z4 = pauli("z", 1, 2)
    msg = "operator 'Z1' acts on dimension 4, system dimension is 2"
    with pytest.raises(PreconditionError, match=msg):
        propagate_pulse(SHAPES["sym3"], MODEL, z4)
    with pytest.raises(PreconditionError, match=msg):
        pulse_error_scan(SHAPES["sym3"], MODEL, z4, [0.01, 0.02])


def _random_hermitian_stack(rng, shape, d):
    a = rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))
    return (a + a.conj().swapaxes(-1, -2)) / 2


def test_batched_expm_i_equals_2d_calls_bitwise():
    rng = np.random.default_rng(7)
    hs = _random_hermitian_stack(rng, (3, 4), 6)
    ts = rng.uniform(-2.0, 2.0, (3, 4))
    stack = expm_i(hs, ts)
    assert stack.shape == (3, 4, 6, 6)
    for i in range(3):
        for k in range(4):
            assert np.array_equal(stack[i, k], expm_i(hs[i, k], ts[i, k]))
    # a scalar time over a stack, and a time array over one matrix
    scalar = expm_i(hs, 0.7)
    over_t = expm_i(hs[0, 0], ts[0])
    for k in range(4):
        assert np.array_equal(scalar[1, k], expm_i(hs[1, k], 0.7))
        assert np.array_equal(over_t[k], expm_i(hs[0, 0], ts[0, k]))


def test_batched_expm_i_checks_every_matrix():
    rng = np.random.default_rng(8)
    hs = _random_hermitian_stack(rng, (5,), 4)
    hs[-1, 0, 1] += 1e-6
    with pytest.raises(PreconditionError, match="not Hermitian"):
        expm_i(hs, np.ones(5))
    with pytest.raises(PreconditionError, match="square matrix"):
        expm_i(np.zeros((2, 3, 4)), 1.0)


def test_batched_propagator_equals_scalar_calls_bitwise():
    m = random_model("general", 2, 4, 1.0, 2)
    ts = np.array([[0.0, 0.01, 0.3], [1.7, -0.5, 12.0]])
    stack = m.propagator(ts)
    assert stack.shape == (2, 3, 8, 8)
    for i in range(2):
        for k in range(3):
            assert np.array_equal(stack[i, k], m.propagator(float(ts[i, k])))
