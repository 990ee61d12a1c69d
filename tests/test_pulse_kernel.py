"""Independent oracles for the batched shaped-pulse path.

``propagate_pulse`` is checked against an ODE integration of the
Schroedinger equation, ``pulse_error_scan`` against a per-duration loop of
2-D exponentials and its norms, read in the kernel's eigenbasis, against an
SVD of the rotated propagators, and the batched ``expm_i``,
``propagator``, driven-step exponentials and model-batched pulse errors
against their one-at-a-time calls, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ddkit import kernel, pulseshape, simulate
from ddkit.errors import PreconditionError
from ddkit.linalg import expm_i, expm_i_eig, kron
from ddkit.model import HamiltonianModel, random_model
from ddkit.operators import Operator, pauli
from ddkit.pulseshape import (
    DEFAULT_TAU_GRID,
    PulseShape,
    _pulse_errors,
    _pulse_program,
    design_pulse,
    propagate_pulse,
    pulse_error_scan,
    rectangular_pulse,
)
from ddkit.simulate import Program, _eigenbasis, _propagators
from oracles import spectral_norm_svd
from test_simulate import _walks

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


@pytest.mark.parametrize("tau_grid", [DEFAULT_TAU_GRID, (0.01,)], ids=["default", "one"])
@pytest.mark.parametrize("omega", [SZ, SX], ids=["Z1", "X1"])
@pytest.mark.parametrize("family", sorted(SHAPES))
def test_batched_pulse_errors_equal_per_model_scans_bitwise(family, omega, tau_grid):
    # models are independent batch entries of the kernel, and the scaling,
    # Gram product and eigvalsh take one matrix at a time
    models = [random_model("general", 2, 4, 1.0, seed) for seed in range(8)]
    errs = _pulse_errors(SHAPES[family], models, omega, tau_grid)
    assert errs.shape == (8, len(tau_grid))
    for k, m in enumerate(models):
        want = pulse_error_scan(SHAPES[family], m, omega, tau_grid).errors[omega.label][:, 0]
        assert errs[k].tobytes() == want.tobytes()


def test_batched_pulse_errors_charge_every_model_against_the_budget(monkeypatch):
    # steps x durations x models: a budget one model fills rejects two
    shape, grid = SHAPES["rect"], DEFAULT_TAU_GRID
    models = [random_model("general", 2, 4, 1.0, seed) for seed in range(2)]
    steps = len(_pulse_program(shape, models[0], SZ, reference=True).grammar[0])
    monkeypatch.setattr(simulate, "MAX_PRODUCTS", steps * len(grid))
    eigenbasis, calls = simulate._eigenbasis, []

    def counting(*args):
        calls.append(1)
        return eigenbasis(*args)

    monkeypatch.setattr(simulate, "_eigenbasis", counting)
    with pytest.raises(PreconditionError, match="sweep budget exceeded"):
        _pulse_errors(shape, models, SZ, grid)
    assert not calls
    assert _pulse_errors(shape, models[:1], SZ, grid).shape == (1, len(grid))
    assert len(calls) == 1


def test_chunked_pulse_errors_equal_the_whole_sweep_bitwise(monkeypatch):
    # with chunks capped small, the sweep over eight models runs as several
    # kernel calls and gives the one call's errors bit for bit
    shape, grid = SHAPES["sym3"], DEFAULT_TAU_GRID
    models = [random_model("general", 2, 4, 1.0, seed) for seed in range(8)]
    whole = _pulse_errors(shape, models, SZ, grid)
    eigenbasis, calls = simulate._eigenbasis, []

    def counting(program, chunk_models, times):
        calls.append((len(chunk_models), len(times)))
        return eigenbasis(program, chunk_models, times)

    monkeypatch.setattr(simulate, "_eigenbasis", counting)
    monkeypatch.setattr(simulate, "MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(simulate, "BATCH_BYTES", 16 * 8 * 8 * 2 * 7)
    chunked = _pulse_errors(shape, models, SZ, grid)
    assert len(calls) > 1
    assert chunked.tobytes() == whole.tobytes()


class _Asked(Exception):
    pass


def test_large_pulse_sweep_asks_for_chunks_within_the_batch_bytes(monkeypatch):
    # 300,000 durations at d = 128 pass the sweep budget (3 steps each); the
    # kernel used to be asked for one [1, 128, 300000, 128] matrix (78.6 GB)
    # and to hold two.  The spy stops the sweep before anything is allocated,
    # and a kernel that runs at all fails the test at once, so a spy that no
    # longer sits where the sweep calls cannot start the real sweep.
    def asked(program, models, times):
        plan = program.plan
        raise _Asked(len(models) * len(times) * 16 * 128**2 * (plan.size + 2 * len(plan.driven)))

    def ran(*args):
        raise AssertionError("the kernel ran: the spy no longer stops the sweep")

    monkeypatch.setattr(simulate, "_eigenbasis", asked)
    monkeypatch.setattr(simulate, "run", ran)
    m = random_model("general", 2, 64, 1.0, 0)
    with pytest.raises(_Asked) as err:
        pulse_error_scan(rectangular_pulse(), m, SZ, np.geomspace(1e-3, 1e-1, 300_000))
    assert 0 < err.value.args[0] <= simulate.BATCH_BYTES


def _error_stack(shape, model, omega, tau_grid):
    """W - I over the grid, W = V^dag U_ref^dag U V the kernel's product in
    the model's eigenbasis, from the same kernel call ``pulse_error_scan``
    makes."""
    program = _pulse_program(shape, model, omega, reference=True)
    w, _ = _eigenbasis(program, [model], tau_grid)
    return w[0].transpose(1, 0, 2) - np.eye(model.dim)


@pytest.mark.parametrize("family", ["rect", "sym3", "sym5"])
def test_pulse_errors_match_the_svd_norm(family):
    # the largest eigenvalue of the Gram matrix gives the largest singular
    # value of the same matrix to a relative O(eps)
    shape = SHAPES[family]
    for seed in range(8):
        m = random_model("general", 2, 4, 1.0, seed)
        for omega in (SZ, SX):
            errs = pulse_error_scan(shape, m, omega, DEFAULT_TAU_GRID).errors[omega.label][:, 0]
            want = spectral_norm_svd(_error_stack(shape, m, omega, DEFAULT_TAU_GRID))
            assert np.max(np.abs(errs - want) / want) <= 1e-13


@pytest.mark.parametrize("family", ["rect", "sym3", "sym5"])
def test_eigenbasis_errors_match_the_svd_of_the_rotated_propagators(family):
    # |W - I| = |V (W - I) V^dag| = |U - I|: the errors read in the kernel's
    # eigenbasis keep the SVD norm of U_ref^dag U - I, rotated back, to an
    # absolute 1e-15 (the errors range down to ~3e-7)
    shape = SHAPES[family]
    for seed in range(8):
        m = random_model("general", 2, 4, 1.0, seed)
        for omega in (SZ, SX):
            program = _pulse_program(shape, m, omega, reference=True)
            u = _propagators(program, [m], DEFAULT_TAU_GRID)[0]
            want = spectral_norm_svd(u - np.eye(m.dim))
            errs = pulse_error_scan(shape, m, omega, DEFAULT_TAU_GRID).errors[omega.label][:, 0]
            assert np.max(np.abs(errs - want)) <= 1e-15


def test_pulse_errors_far_below_the_square_root_of_the_smallest_double():
    # errors near 1e-202 square to below the smallest double; the scan scales
    # each matrix by a power of two first, so they keep the SVD's values
    h = np.diag([1e-200, -1e-200, 3e-201, 0.0]).astype(complex)
    m = HamiltonianModel("general", 2, 2, 1.0, 0, h)
    shape = rectangular_pulse()
    errs = pulse_error_scan(shape, m, SZ, DEFAULT_TAU_GRID).errors["Z1"][:, 0]
    want = spectral_norm_svd(_error_stack(shape, m, SZ, DEFAULT_TAU_GRID))
    assert want[0] == pytest.approx(1.5e-203, rel=1e-6)
    assert want[-1] == pytest.approx(5.0e-202, rel=1e-6)
    assert np.max(np.abs(errs - want) / want) <= 1e-13


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


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_pulse_program_runs_flat(name, reference):
    # one driven step per segment, and the reference's two, in turn
    shape = SHAPES[name]
    program = _pulse_program(shape, random_model("general", 2, 4, 1.0, 0), SZ, reference)
    top, rules = program.grammar
    assert rules == () and len(top) == len(shape.segments) + 2 * reference


def test_pulse_train_grammar_matches_the_flat_program():
    # eight back-to-back shaped pulses as one rule that occurs eight times:
    # driven steps run as leaves of a rule, as the flat program runs them
    m = random_model("general", 2, 4, 1.0, 0)
    one = _pulse_program(SHAPES["sym3"], m, SX, reference=True)
    steps = one.grammar[0]
    train = Program(((0,) * 8, (steps,)), one.pulses, one.dim)
    flat = Program((steps * 8, ()), one.pulses, one.dim)
    times = [0.01, 0.05]
    assert np.abs(_propagators(train, [m], times) - _propagators(flat, [m], times)).max() <= 1e-12


def _counting_eigh(monkeypatch):
    """The shapes of the arrays ``np.linalg.eigh`` takes from now on."""
    eigh, shapes = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes


@pytest.mark.parametrize("family, steps", [("sym3", 2), ("sym5", 3), ("rect", 1)])
def test_identical_driven_steps_are_exponentiated_once(monkeypatch, family, steps):
    # every distinct driven step of the scan, at every duration, is in one
    # batched eigh (sym3's mirrored outer segments, and sym5's two mirrored
    # pairs, are one step each); the reference pulse's eigh of the axis runs
    # on the first scan of the shape and axis only
    m = random_model("general", 2, 4, 1.0, 0)
    m.eig()
    shape = replace(SHAPES[family])  # equal, with no program built yet
    shapes = _counting_eigh(monkeypatch)
    grid = np.geomspace(0.003, 0.1, 10)
    first = pulse_error_scan(shape, m, SZ, grid).errors["Z1"]
    assert len(shapes) == 2
    assert (steps, 1, 10, 8, 8) in shapes and (2, 2) in shapes
    shapes.clear()
    again = pulse_error_scan(shape, m, SZ, grid).errors["Z1"]
    assert shapes == [(steps, 1, 10, 8, 8)]
    assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("family", ["sym3", "sym5", "asym"])
def test_batched_driven_exponentials_equal_per_step_calls_bitwise(family):
    # each step's exponential from the one eigh of the stack built in place
    # equals the one from an eigh of that step's own matrix, angle A +
    # frac T diag(lambda) with the diagonal added as a full matrix, bit for bit
    models = [random_model("general", 2, 4, 1.0, seed) for seed in (0, 1)]
    program = _pulse_program(SHAPES[family], models[0], SX, reference=True)
    steps = program.plan.driven
    evals = np.stack([m.eig()[0] for m in models])
    vecs = np.stack([m.eig()[1] for m in models])
    vecs_h = vecs.conj().swapaxes(-1, -2)
    lifted = {"A": vecs_h @ kron(SX.matrix, np.eye(4)) @ vecs}
    energy = evals[:, :, None] * np.asarray(DEFAULT_TAU_GRID)
    lam, v = kernel._eigh_driven(steps, energy, lifted)
    assert lam.shape == (len(steps), 2, len(DEFAULT_TAU_GRID), 8)
    for k, (frac, (axis, angle), _) in enumerate(steps):
        diag = (frac * energy).swapaxes(1, 2)[..., None] * np.eye(8)
        want = expm_i_eig(*np.linalg.eigh(angle * lifted[axis][:, None] + diag))
        assert expm_i_eig(lam[k], v[k]).tobytes() == want.tobytes()


def _pulse_pass(shapes):
    """The perfbench ``pulse`` pass's 48 scans of ``shapes``: Z1 and X1,
    model seeds 0-7; their errors in order."""
    return [pulse_error_scan(shape, random_model("general", 2, 4, 1.0, seed), omega,
                             DEFAULT_TAU_GRID).errors[omega.label]
            for seed in range(8) for omega in (SZ, SX) for shape in shapes]


def test_a_pulse_pass_plans_each_grammar_once(monkeypatch):
    # a shape's scan program is built once per axis and shared by every
    # model: 48 scans of three shapes plan 6 programs cold and none warm,
    # with equal errors
    shapes = [replace(SHAPES[family]) for family in ("sym3", "sym5", "rect")]
    walks = _walks(monkeypatch)
    cold = _pulse_pass(shapes)
    assert len(walks) == 6
    warm = _pulse_pass(shapes)
    assert len(walks) == 6
    assert all(a.tobytes() == b.tobytes() for a, b in zip(cold, warm))


def test_a_benchmark_pulse_pass_builds_six_programs_and_54_eighs(monkeypatch):
    # the benchmark makes its shapes anew each pass, and its models are warm:
    # one program, one plan and one axis eigh per (shape, axis), and one
    # batched eigh of the driven steps per scan
    for seed in range(8):
        random_model("general", 2, 4, 1.0, seed).eig()
    built = []

    def program(*args):
        built.append(Program(*args))
        return built[-1]

    monkeypatch.setattr(pulseshape, "Program", program)
    walks = _walks(monkeypatch)
    eighs = _counting_eigh(monkeypatch)
    errs = _pulse_pass([design_pulse("sym3"), design_pulse("sym5"), rectangular_pulse()])
    assert len(built) == 6 and len(walks) == 6
    assert len(eighs) == 54 and eighs.count((2, 2)) == 6
    assert len(errs) == 48


def test_one_shapes_program_is_shared_across_models():
    # keyed by the axis's bytes and ``reference``: any model of the system's
    # dimension, and an equal axis under another label, share one program
    shape = replace(SHAPES["sym5"])
    m4, m8 = random_model("general", 2, 4, 1.0, 0), random_model("general", 2, 8, 1.0, 1)
    program = _pulse_program(shape, m4, SX, True)
    assert _pulse_program(shape, m8, SX, True) is program
    assert _pulse_program(shape, m4, Operator("other", SX.matrix.copy(), 2), True) is program
    assert _pulse_program(shape, m4, SZ, True) is not program
    assert _pulse_program(shape, m4, SX, False) is not program
    assert len(shape._programs) == 3
    # the kept axis is read back from the key, so it cannot change with omega
    assert not program.pulses["A"].flags.writeable
    assert np.array_equal(program.pulses["A"], SX.matrix)


def test_a_non_hermitian_axis_is_rejected_on_every_call():
    skew = Operator("S", np.array([[0, 1], [0, 0]], dtype=complex), 2)
    shape = replace(SHAPES["sym3"])
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not Hermitian"):
            pulse_error_scan(shape, MODEL, skew, [0.01, 0.02])
        with pytest.raises(PreconditionError, match="not Hermitian"):
            propagate_pulse(shape, MODEL, skew)
    assert not shape._programs


def test_an_operator_of_the_wrong_dimension_is_rejected_after_a_memo_hit():
    # the Z1 program kept for a two-level system is not handed to a
    # four-level one
    shape = replace(SHAPES["sym3"])
    pulse_error_scan(shape, MODEL, SZ, [0.01, 0.02])
    propagate_pulse(shape, MODEL, SZ)
    m4 = random_model("general", 4, 2, 1.0, 0)
    msg = "operator 'Z1' acts on dimension 2, system dimension is 4"
    with pytest.raises(PreconditionError, match=msg):
        pulse_error_scan(shape, m4, SZ, [0.01, 0.02])
    with pytest.raises(PreconditionError, match=msg):
        propagate_pulse(shape, m4, SZ)


def test_a_rescaled_shape_builds_its_own_program():
    shape = replace(SHAPES["sym3"])
    program = _pulse_program(shape, MODEL, SZ, True)
    longer = shape.rescaled(2.0)
    assert not longer._programs
    other = _pulse_program(longer, MODEL, SZ, True)
    assert other is not program
    assert [*shape._programs.values()][0] is program and len(shape._programs) == 1
    assert [*longer._programs.values()][0] is other and len(longer._programs) == 1


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_errors_from_a_kept_program_equal_a_fresh_one_bitwise(family):
    shape = replace(SHAPES[family])
    models = [random_model("general", 2, 4, 1.0, seed) for seed in range(3)]
    for omega in (SZ, SX):
        fresh = [pulse_error_scan(replace(shape), m, omega, DEFAULT_TAU_GRID) for m in models]
        for _ in range(2):  # the first call builds the program, the second hits
            kept = [pulse_error_scan(shape, m, omega, DEFAULT_TAU_GRID) for m in models]
            for a, b in zip(kept, fresh):
                assert a.errors[omega.label].tobytes() == b.errors[omega.label].tobytes()
                assert a.fits == b.fits
