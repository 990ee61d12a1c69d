import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddkit import simulate
from ddkit.errors import PreconditionError, UnfittableError
from ddkit.kernel import run
from ddkit.linalg import expm_i, kron, spectral_norm
from ddkit.model import HamiltonianModel, random_model
from ddkit.operators import Moos, Operator, pauli, qubit_full_moos
from ddkit.sequences import (
    Schedule,
    cdd_nested,
    cdd_uniform,
    conjugated,
    first_order_schedule,
    hahn_echo,
    nudd,
    sdd_schedule,
    udd_schedule,
)
from ddkit.simulate import (
    ModelSpec,
    Program,
    RunConfig,
    _propagators,
    compile_program,
    fit_loglog,
    order_scan,
    preservation_error,
    propagate,
    propagate_wrapped,
)
from oracles import event_steps, expand_grammar, fit_loglog_polyfit, joined_steps

MOOS1 = qubit_full_moos(1)
SZ = pauli("z", 1, 1)
SX = pauli("x", 1, 1)
GENERAL = ModelSpec("general", 2, 4, 1.0)
EMPTY = Schedule("free", (0,), (), (), 1)
SMALL_T = RunConfig(t_grid=tuple(np.geomspace(0.002, 0.06, 12)))


def test_propagate_empty_schedule_is_free_evolution():
    m = random_model("general", 2, 4, 1.0, 0)
    u = propagate(EMPTY, m, MOOS1, 0.4)
    assert np.allclose(u, m.propagator(0.4), atol=1e-13)


def test_propagate_hahn_echo_pure_sigma_z_is_exact():
    # H = w sigma_z with no bath: the echo refocuses exactly, U = sigma_x
    h = 0.8 * kron(SZ.matrix, np.eye(1))
    m = HamiltonianModel("general", 2, 1, 1.0, 0, h)
    moos = MOOS1
    for t in (0.1, 1.0, 7.3):
        u = propagate(udd_schedule("X1", 1), m, moos, t)
        net = compile_program(udd_schedule("X1", 1), moos).net
        assert spectral_norm(u - SX.matrix) <= 1e-12
        assert np.array_equal(net.matrix, SX.matrix)


def test_propagate_unitary():
    m = random_model("general", 2, 4, 1.0, 3)
    for sched in (udd_schedule("Z1", 3), nudd(MOOS1, (2, 2)), first_order_schedule(MOOS1)):
        u = propagate(sched, m, MOOS1, 0.9)
        assert spectral_norm(u.conj().T @ u - np.eye(8)) <= 1e-11


def test_propagate_dimension_mismatch():
    m = random_model("general", 4, 2, 1.0, 0)
    with pytest.raises(PreconditionError):
        propagate(udd_schedule("Z1", 1), m, MOOS1, 0.5)


def test_propagate_wrapped_is_hahn_echo_of_wrap():
    # SX is the MOOS element X1 itself: an extra operator with a MOOS label
    # and the same matrix is accepted
    m = random_model("general", 2, 4, 1.0, 1)
    u, net = propagate_wrapped(EMPTY, m, MOOS1, 0.6, SX)
    w = m.lift(SX)
    half = m.propagator(0.3)
    assert np.allclose(u, w @ half @ w @ half, atol=1e-13)
    assert np.array_equal(net.matrix, np.eye(2))
    echo = propagate(hahn_echo(EMPTY, "X1"), m, MOOS1, 0.6)
    echo_net = compile_program(hahn_echo(EMPTY, "X1"), MOOS1).net
    assert np.array_equal(u, echo) and np.array_equal(net.matrix, echo_net.matrix)


def test_preservation_error_exact_cases():
    eye = Operator("net", np.eye(2), 2)
    p = kron(SZ.matrix, np.eye(4))
    u = expm_i(p, 0.4)  # commutes with sigma_z (x) I
    assert preservation_error(u, SZ, eye, 4) <= 1e-14
    assert preservation_error(kron(SX.matrix, np.eye(4)), SZ,
                              Operator("net", SX.matrix, 2), 4) <= 1e-14


def test_preservation_error_small_rotation_closed_form():
    # U = e^{-i theta X} about an axis anticommuting with sigma_z:
    # U^dag Z U = cos(2 theta) Z + sin(2 theta) Y, so the defect against the
    # identity net pulse has norm 2|sin(theta)| -> 2 theta + O(theta^3)
    eye = Operator("net", np.eye(2), 2)
    for theta in (1e-3, 1e-2, 0.1):
        u = expm_i(kron(SX.matrix, np.eye(1)), theta)
        err = preservation_error(u, SZ, eye, 1)
        assert err == pytest.approx(2 * abs(math.sin(theta)), rel=1e-10)


def test_fit_loglog_exact_cubic():
    slope, intercept, rms, n = fit_loglog([(1.0, 1.0), (2.0, 8.0)], 1e-30, 1e9)
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert rms <= 1e-12 and n == 2


def test_fit_loglog_floor_filter_error():
    msg = r"^only 1 of 3 points inside \(1\.0e-12, 1\.0e-02\)$"
    with pytest.raises(UnfittableError, match=msg):
        fit_loglog([(1.0, 1e-20), (2.0, 1e-5), (3.0, 1.0)], 1e-12, 1e-2)


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_fit_loglog_names_the_first_time_that_is_not_positive_and_finite(bad):
    # T = 0 used to warn of a log of zero, and T = nan to return a nan "fit"
    points = [(0.1, 1e-5), (bad, 1e-4), (0.3, 1e-3), (-1.0, 1e-3)]
    with pytest.raises(PreconditionError) as err:
        fit_loglog(points, 1e-12, 1e-2)
    assert str(err.value) == f"fit total time {bad} must be positive and finite"


@pytest.mark.parametrize("floor", [-1.0, -1e-300, math.nan, math.inf],
                         ids=["negative", "tiny_negative", "nan", "inf"])
def test_fit_loglog_rejects_a_floor_that_is_negative_or_not_finite(floor):
    # a negative floor used to keep an error of 0 and fit its log
    with pytest.raises(PreconditionError) as err:
        fit_loglog([(0.1, 0.0), (0.2, 1e-4), (0.3, 1e-3)], floor, 1e-2)
    assert str(err.value) == f"error_floor must be non-negative and finite, got {floor}"


def test_fit_loglog_points_at_one_t_are_unfittable():
    # no slope through points that share one T; numpy's lstsq used to warn
    # and then fail to converge here
    with pytest.raises(UnfittableError, match="all 3 points"):
        fit_loglog([(1.0, 1e-5), (1.0, 2e-5), (1.0, 3e-5)], 1e-12, 1e-2)
    with pytest.raises(UnfittableError, match="all 2 points"):
        fit_loglog([(0.1, 1e-5), (0.1, 2e-5), (0.2, 1e-20)], 1e-12, 1e-2)


@settings(max_examples=200, deadline=None)
@given(
    log_ts=st.lists(st.floats(-5.0, 3.0), min_size=2, max_size=30),
    slope=st.floats(-6.0, 6.0),
    intercept=st.floats(-30.0, 5.0),
    noise_seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-3, 0.3]),
)
def test_fit_loglog_matches_polyfit(log_ts, slope, intercept, noise_seed, noise):
    rng = np.random.Generator(np.random.Philox(key=noise_seed))
    log_es = slope * np.array(log_ts) + intercept + noise * rng.standard_normal(len(log_ts))
    points = list(zip(np.exp(log_ts), np.exp(log_es)))
    floor, ceiling = math.exp(intercept - 10.0), math.exp(intercept + 10.0)
    kept = [math.log(t) for t, e in points if floor < e < ceiling]
    # points closer than this to one T condition neither fit well
    assume(len(kept) >= 2 and np.ptp(kept) >= 0.1)
    got = fit_loglog(points, floor, ceiling)
    want = fit_loglog_polyfit(points, floor, ceiling)
    assert got[3] == want[3]
    assert got[:3] == pytest.approx(want[:3], rel=1e-10, abs=1e-10)


def test_fit_loglog_noisy_power_law():
    rng = np.random.Generator(np.random.Philox(key=42))
    ts = np.geomspace(0.01, 1.0, 30)
    errs = 0.37 * ts**2.5 * (1 + 0.01 * rng.standard_normal(30))
    slope, _, _, _ = fit_loglog(list(zip(ts, errs)), 1e-30, 1e9)
    assert slope == pytest.approx(2.5, abs=0.05)


def test_fit_operator_status_rule():
    ts = (0.1, 0.2, 0.4, 0.8)
    exact = simulate.fit_operator("Z1", ts, [1e-13, 0.0, 1e-12, 5e-13], 1e-12, 1e-2)
    assert exact.status == "exact" and exact.points_used == 0
    # one point above the floor is not "exact", and too few to fit
    assert simulate.fit_operator("Z1", ts, [1e-13, 0.0, 1e-12, 1e-3], 1e-12, 1e-2).status \
        == "unfittable"
    ok = simulate.fit_operator("Z1", ts, [1e-9 * t**3 for t in ts], 1e-12, 1e-2)
    assert ok.status == "ok" and ok.slope == pytest.approx(3.0, abs=1e-9)


def test_order_scan_synthetic_quartic_slope():
    # inject an exact power law through the fitting path
    cfg = RunConfig()
    slope, _, rms, _ = fit_loglog(
        [(t, 0.123 * t**4) for t in cfg.t_grid], cfg.error_floor, 1.0
    )
    assert slope == pytest.approx(4.0, abs=1e-9)
    assert rms <= 1e-12


def test_order_scan_udd2_slope():
    res = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, operators=[SZ])
    fit = res.fits["Z1"]
    assert fit.ok
    assert 2.7 <= fit.slope <= 3.5


def test_order_scan_free_evolution_slope_one():
    res = order_scan(EMPTY, MOOS1, GENERAL, SMALL_T, operators=[SZ])
    fit = res.fits["Z1"]
    assert fit.ok
    assert 0.8 <= fit.slope <= 1.2


def test_order_scan_exact_symmetry_reported():
    # pure-dephasing bath with a sigma_z target and no pulses: [H, Z (x) I] = 0
    spec = ModelSpec("pure_dephasing", 2, 4, 1.0)
    res = order_scan(EMPTY, MOOS1, spec, operators=[SZ])
    assert res.fits["Z1"].status == "exact"


def test_order_scan_monotone_in_regime():
    res = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, operators=[SZ])
    med = res.medians["Z1"]
    pairs = list(zip(med, med[1:]))
    frac = sum(b >= a for a, b in pairs) / len(pairs)
    assert frac >= 0.9


def test_order_scan_rows_shape_and_determinism():
    res1 = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, operators=[SZ])
    res2 = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, operators=[SZ])
    rows1, rows2 = res1.rows(), res2.rows()
    assert len(rows1) == 12 * 8
    assert rows1 == rows2


def test_order_scan_threaded_matches_serial():
    # threads is deprecated: a value above one is accepted with one warning
    # and gives the same rows as the default
    cfg = RunConfig(threads=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        serial = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, operators=[SZ])
    with pytest.warns(DeprecationWarning) as record:
        threaded = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, cfg, operators=[SZ])
    assert len(record) == 1
    assert serial.rows() == threaded.rows()


@pytest.mark.parametrize("batch_bytes", [1, 16 * 8 * 8 * 5])
def test_order_scan_chunking_is_invisible(monkeypatch, batch_bytes):
    # one sweep point per chunk, then chunks of five times that split the
    # grid unevenly: the rows stay bit-identical
    whole = order_scan(nudd(MOOS1, (2, 2)), MOOS1, GENERAL).rows()
    monkeypatch.setattr(simulate, "BATCH_BYTES", batch_bytes)
    assert order_scan(nudd(MOOS1, (2, 2)), MOOS1, GENERAL).rows() == whole


_POSITIVE = "every total time in t_grid must be positive and finite"
_INCREASING = "t_grid must be strictly increasing"


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"t_grid": ()}, "t_grid must not be empty"),
        ({"t_grid": (0.0, 0.1)}, _POSITIVE),
        ({"t_grid": (-0.2, -0.1)}, _POSITIVE),
        ({"t_grid": (0.1, math.inf)}, _POSITIVE),
        ({"seeds": ()}, "seeds must not be empty"),
        ({"error_floor": 1e-2, "error_ceiling": 1e-2}, "must be below error_ceiling"),
        ({"error_floor": 1e-1, "error_ceiling": 1e-2}, "must be below error_ceiling"),
        ({"threads": 0}, "threads must be >= 1, got 0"),
        ({"t_grid": (0.2, 0.1)}, _INCREASING),
        ({"t_grid": (0.1, 0.1)}, _INCREASING),
        ({"error_floor": -1.0}, "error_floor must be non-negative and finite, got -1.0"),
        ({"error_floor": math.nan}, "error_floor must be non-negative and finite, got nan"),
        ({"error_floor": -math.inf}, "error_floor must be non-negative and finite, got -inf"),
    ],
    ids=["empty_grid", "zero_time", "negative_times", "infinite_time",
         "empty_seeds", "floor_equals_ceiling", "floor_above_ceiling", "zero_threads",
         "decreasing_grid", "repeated_time", "negative_floor", "nan_floor",
         "minus_infinite_floor"],
)
def test_run_config_rejects_invalid(kwargs, needle):
    # each of these used to be accepted and end in a silent "exact" fit, an
    # "unfittable" exit, a crash inside the sweep, or a silent serial run
    with pytest.raises(PreconditionError) as err:
        RunConfig(**kwargs)
    assert needle in str(err.value)


def test_order_scan_budget_cap():
    cfg = RunConfig(t_grid=tuple(np.geomspace(0.01, 0.5, 200)),
                    seeds=tuple(range(100)))
    big = Schedule("udd", (99,), tuple(), (), 100)
    with pytest.raises(PreconditionError):
        order_scan(big, MOOS1, GENERAL, cfg, operators=[SZ])


def test_order_scan_budget_counts_grammar_products():
    # 65,536 intervals x 96 points used to exceed the budget; the grammar
    # runs them as a few dozen products
    moos = qubit_full_moos(2)
    res = order_scan(cdd_uniform(moos, 4), moos, ModelSpec("general", 4, 4, 1.0), RunConfig())
    assert all(np.isfinite(err).all() for err in res.errors.values())


_EPS = np.finfo(float).eps


def _flat_program(schedule, moos, extra=()):
    """``compile_program``'s program run flat: the steps event by event."""
    program = compile_program(schedule, moos, extra)
    return Program((tuple(event_steps(schedule)), ()), program.pulses, program.dim)


def _transformed(schedule, moos, transforms):
    for transform in transforms:
        if transform == "sdd":
            schedule = sdd_schedule(schedule)
        elif transform == "conjugated":
            schedule = conjugated(schedule, moos.labels[0])
        else:
            schedule = hahn_echo(schedule, moos.labels[-1])
    return schedule


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["nudd", "cdd_nested"]), st.integers(1, 2), st.data())
def test_grammar_expands_to_the_steps(scheme, n_qubits, data):
    # nestings of any orders under any stack of transforms: the grammar
    # expands to the steps event by event, each fraction within 4 eps
    moos = qubit_full_moos(n_qubits)
    orders = data.draw(st.lists(st.integers(0, 3), min_size=len(moos), max_size=len(moos)))
    if scheme == "nudd":
        schedule = nudd(moos, orders, allow_odd_inner=True)
    else:
        schedule = cdd_nested(moos, orders)
    transforms = data.draw(st.lists(st.sampled_from(["sdd", "conjugated", "hahn_echo"]),
                                    max_size=3))
    schedule = _transformed(schedule, moos, transforms)
    got = joined_steps(expand_grammar(compile_program(schedule, moos).grammar))
    want = event_steps(schedule)
    assert [key for _, _, key in got] == [key for _, _, key in want]
    assert max(abs(a[0] - b[0]) for a, b in zip(got, want)) <= 4 * _EPS


@pytest.mark.parametrize("schedule", [udd_schedule("Z1", 4), udd_schedule("Z1", 9)],
                         ids=["udd(4)", "udd(9)"])
def test_programs_without_repeats_run_flat(schedule):
    # a UDD schedule is one block, one rule named once, which the kernel runs
    # in place: its steps in turn on a running product and the next matrix
    plan = compile_program(schedule, MOOS1).plan
    ops = [op for op, *_ in plan.ops]
    assert "product" not in ops and "copy" not in ops and plan.size == 2
    keys = [c for op, _, _, c in plan.ops if op in ("leaf", "pulse")]
    assert keys == [key for _, _, key in event_steps(schedule) if key is not None]


MOOS2 = qubit_full_moos(2)
GENERAL2 = ModelSpec("general", 4, 4, 1.0)


_DYADIC = {
    "cdd_uniform(1,3)": (cdd_uniform(MOOS1, 3), MOOS1, GENERAL),
    "cdd_uniform(2,2)": (cdd_uniform(MOOS2, 2), MOOS2, GENERAL2),
    "cdd_nested(2,2,2,2)": (cdd_nested(MOOS2, (2, 2, 2, 2)), MOOS2, GENERAL2),
    "first_order(2)": (first_order_schedule(MOOS2), MOOS2, GENERAL2),
    "first_order(2,closing)": (first_order_schedule(MOOS2, True), MOOS2, GENERAL2),
}


@pytest.mark.parametrize("form", ["plain", "conjugated", "hahn_echo"])
@pytest.mark.parametrize("case", sorted(_DYADIC))
def test_dyadic_programs_keep_their_raw_fractions(case, form):
    # dyadic lengths multiply exactly, so the grammar's steps are the
    # differences of the event times bit for bit, and its propagators the
    # flat program's to rounding
    schedule, moos, spec = _DYADIC[case]
    schedule = _transformed(schedule, moos, [form] if form != "plain" else [])
    program, flat = compile_program(schedule, moos), _flat_program(schedule, moos)
    assert joined_steps(expand_grammar(program.grammar)) == event_steps(schedule)
    models = [spec.realize(seed) for seed in (0, 5)]
    times = (0.05, 0.3)
    got, want = _propagators(program, models, times), _propagators(flat, models, times)
    assert np.abs(got - want).max() <= 1e-12


def test_nudd_equal_intervals_compile_to_one_step():
    # 108 intervals of 8 lengths, held by 33 different differences of event
    # times; the lengths in closed form are equal bit for bit, and the
    # grammar runs each repeated block once
    schedule = nudd(MOOS2, (2, 2, 2, 3))
    program = compile_program(schedule, MOOS2)
    steps, raw = joined_steps(expand_grammar(program.grammar)), event_steps(schedule)
    assert len(steps) == len(raw) == 108
    assert len({frac for frac, _, _ in raw}) == 33
    assert len({frac for frac, _, _ in steps}) == 8
    assert max(abs(a[0] - b[0]) for a, b in zip(steps, raw)) <= 4 * _EPS
    top, rules = program.grammar
    assert rules and len(top) < 108


def test_order_scan_holds_no_more_memory_than_a_flat_program():
    # nudd(2,2,2,3) ran flat before its equal intervals were merged; its
    # rules must not raise the scan's peak above the flat run's 2.22 MB,
    # about 5.6 arrays of its [8 seeds, 12 T, 16, 16] propagators
    schedule = nudd(MOOS2, (2, 2, 2, 3))
    order_scan(schedule, MOOS2, GENERAL2)  # realizes the models once per process
    tracemalloc.start()
    try:
        order_scan(schedule, MOOS2, GENERAL2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.6 * 16 * 8 * 12 * 16 * 16


def test_kernel_run_holds_its_plan_matrices_and_little_more():
    # numpy's ufunc buffers stay near 2 x 8192 complex entries, so at 4 MiB a
    # matrix one kernel call holds its Plan.size matrices and no full copy
    program = compile_program(cdd_nested(MOOS2, (2, 2, 2, 2)), MOOS2)
    evals, vecs = random_model("general", 4, 16, 1.0, 0).eig()
    lifted = {key: (vecs.conj().T @ kron(p, np.eye(16)) @ vecs)[None]
              for key, p in program.pulses.items()}
    energy = evals[None, :, None] * np.linspace(0.1, 1.0, 64)
    plan = program.plan
    tracemalloc.start()
    try:
        w = run(plan, energy, lifted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.nbytes >= 4 * 2**20
    assert peak <= (plan.size + 1.5) * w.nbytes


def test_net_pulse_is_one_kernel_run_on_first_read(monkeypatch):
    # compiling forms no net; the first read runs the plan once at T = 0 and
    # later reads reuse it
    calls = []

    def counting(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(simulate, "run", counting)
    program = compile_program(nudd(MOOS2, (2, 2, 2, 3)), MOOS2)
    assert len(calls) == 0
    net = program.net
    assert len(calls) == 1
    assert program.net is net and len(calls) == 1
    assert net.acts_on == program.dim == 4


def test_plans_are_kept_for_the_last_plan_memo_grammars(monkeypatch):
    # PLAN_MEMO + 1 distinct grammars: the last PLAN_MEMO are kept, so the
    # first is walked again and the last is not
    init, walks = simulate.Plan.__init__, []

    def walking(self, grammar):
        walks.append(grammar)
        init(self, grammar)

    monkeypatch.setattr(simulate.Plan, "__init__", walking)
    simulate._plan.cache_clear()
    grammars = [(((1.0 / (k + 1), None, ("Z1",)),), ()) for k in range(simulate.PLAN_MEMO + 1)]
    plans = [Program(g, {("Z1",): SZ.matrix}, 2).plan for g in grammars]
    assert len(walks) == simulate.PLAN_MEMO + 1
    assert simulate._plan.cache_info().currsize == simulate.PLAN_MEMO
    assert Program(grammars[-1], {}, 2).plan is plans[-1] and len(walks) == simulate.PLAN_MEMO + 1
    assert Program(grammars[0], {}, 2).plan is not plans[0]
    assert len(walks) == simulate.PLAN_MEMO + 2


def test_scan_rows_are_equal_with_a_cold_and_a_warm_plan_memo():
    schedule = nudd(MOOS2, (2, 2, 2, 3))
    simulate._plan.cache_clear()
    cold = order_scan(schedule, MOOS2, GENERAL2).rows()
    assert simulate._plan.cache_info().misses == 1
    warm = order_scan(schedule, MOOS2, GENERAL2).rows()
    assert simulate._plan.cache_info().hits == 1
    assert cold == warm


@pytest.mark.parametrize("bounds", [(2**40, 2**40), (1, 1), (2**16 * 5, 2**25)],
                         ids=["one_chunk", "one_point_per_chunk", "uneven_chunks"])
def test_order_scan_chunking_of_rules_is_invisible(monkeypatch, bounds):
    # the rule matrices are formed once per chunk; the rows stay bit-identical
    schedule = nudd(MOOS2, (2, 2, 2, 3))
    whole = order_scan(schedule, MOOS2, GENERAL2).rows()
    min_chunk, batch = bounds
    monkeypatch.setattr(simulate, "MIN_CHUNK_BYTES", min_chunk)
    monkeypatch.setattr(simulate, "BATCH_BYTES", batch)
    assert order_scan(schedule, MOOS2, GENERAL2).rows() == whole


def test_cdd_program_runs_as_a_few_products():
    moos = qubit_full_moos(2)
    program = compile_program(cdd_uniform(moos, 3), moos)
    top, rules = program.grammar
    assert len(joined_steps(expand_grammar(program.grammar))) == 4096
    assert len(top) + len(rules) <= 32


def test_deep_cdd_grammar_matches_the_flat_program():
    # 4,096 steps run as a few dozen products give the step-by-step errors
    moos = qubit_full_moos(2)
    schedule = cdd_uniform(moos, 3)
    program, flat = compile_program(schedule, moos), _flat_program(schedule, moos)
    models = [ModelSpec("general", 4, 4, 1.0).realize(seed) for seed in (0, 5)]
    times = (0.1, 0.4)
    u, v = _propagators(program, models, times), _propagators(flat, models, times)
    for op in moos.elements:
        err = preservation_error(u, op, program.net, 4) - preservation_error(v, op, flat.net, 4)
        assert np.abs(err).max() <= 1e-12


def _no_realize(monkeypatch):
    def realize(self, seed):
        raise AssertionError("a model was realized before the check")

    monkeypatch.setattr(ModelSpec, "realize", realize)


def test_order_scan_rejects_operator_of_wrong_dimension(monkeypatch):
    # used to realize and propagate every model, then fail inside numpy
    _no_realize(monkeypatch)
    with pytest.raises(PreconditionError) as err:
        order_scan(udd_schedule("Z1", 2), MOOS1, ModelSpec(), operators=[pauli("z", 1, 2)])
    assert "operator 'Z1' acts on dimension 4, MOOS dimension is 2" in str(err.value)


def test_order_scan_rejects_extra_operator_of_wrong_dimension(monkeypatch):
    _no_realize(monkeypatch)
    wide = Operator("D", pauli("x", 1, 2).matrix, 4)
    with pytest.raises(PreconditionError) as err:
        order_scan(hahn_echo(udd_schedule("Z1", 2), "D"), MOOS1, ModelSpec(), extra=(wide,))
    assert "operator 'D' acts on dimension 4, MOOS dimension is 2" in str(err.value)


def test_order_scan_rejects_extra_operator_that_relabels_a_moos_element(monkeypatch):
    # X1 would mean sigma_y in the echo and sigma_x everywhere else
    _no_realize(monkeypatch)
    fake = Operator("X1", pauli("y", 1, 1).matrix, 2)
    with pytest.raises(PreconditionError) as err:
        order_scan(hahn_echo(udd_schedule("Z1", 2), "X1"), MOOS1, ModelSpec(), extra=(fake,))
    assert "two different operators are labelled 'X1'" in str(err.value)


def test_order_scan_rejects_two_scanned_operators_under_one_label(monkeypatch):
    # their errors used to share one row of the result: one fit for two operators
    _no_realize(monkeypatch)
    ops = [Operator("A", SZ.matrix, 2), Operator("A", SX.matrix, 2)]
    with pytest.raises(PreconditionError) as err:
        order_scan(udd_schedule("Z1", 2), MOOS1, ModelSpec(), operators=ops)
    assert "two different operators are labelled 'A'" in str(err.value)


def test_order_scan_scans_a_repeated_label_with_the_same_matrix_once():
    config = RunConfig(t_grid=(0.1, 0.2), seeds=(0,))
    res = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, config, operators=[SX, SX])
    assert list(res.errors) == ["X1"] and len(res.rows()) == 2


def test_moos_partner_conjugation_preserves_slope():
    # conjugating every free block by an MOOS partner of the protected
    # operator must not change the fitted order
    base = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, operators=[SZ])
    conj = order_scan(conjugated(udd_schedule("Z1", 2), "X1"), MOOS1, GENERAL, operators=[SZ])
    assert abs(base.fits["Z1"].slope - conj.fits["Z1"].slope) <= 0.3


def test_nudd_non_interference_with_standalone_udd():
    standalone = order_scan(udd_schedule("Z1", 2), MOOS1, GENERAL, operators=[SZ])
    nested = order_scan(nudd(MOOS1, (2, 2)), MOOS1, GENERAL)
    assert abs(nested.fits["Z1"].slope - standalone.fits["Z1"].slope) <= 0.3
    assert nested.fits["X1"].slope >= 2.7


def test_non_moos_wrap_degrades_protection():
    # a Hahn echo of (sigma_x + sigma_y)/sqrt(2) -- neither commuting nor
    # anticommuting with sigma_x -- wrapped around a sigma_x-protecting UDD-2
    # run interferes with the inner sequence and drops the order to ~1
    skew = Operator("D", (SX.matrix + pauli("y", 1, 1).matrix) / np.sqrt(2), 2)
    res = order_scan(hahn_echo(udd_schedule("X1", 2), "D"), MOOS1, GENERAL, SMALL_T,
                     operators=[SX], extra=(skew,))
    fit = res.fits["X1"]
    assert fit.ok
    assert 0.8 <= fit.slope <= 1.2


def test_unknown_pulse_label_is_a_precondition_for_scan_and_propagate():
    # both used to raise a bare KeyError from Moos.by_label
    sched = udd_schedule("Q9", 2)
    needle = "schedule references label 'Q9' not present in the MOOS"
    with pytest.raises(PreconditionError, match=needle):
        order_scan(sched, MOOS1, GENERAL)
    with pytest.raises(PreconditionError, match=needle):
        propagate(sched, random_model("general", 2, 4, 1.0, 0), MOOS1, 0.1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 12])
def test_median_is_bit_equal_to_numpy_median(n):
    rng = np.random.default_rng(n)
    rows = rng.lognormal(-8.0, 3.0, (6, n))
    rows[1, n // 2] = np.nan  # a NaN anywhere in a row makes its median NaN
    rows[2, :] = np.nan
    rows[3, 0] = rows[3, -1] = np.inf
    for values in (rows, rows[0], list(rows[0])):
        assert simulate.median(values).tobytes() == np.median(values, axis=-1).tobytes()


def test_scan_and_pulse_criterion_do_not_import_numpy_ma():
    # np.median imports numpy.ma on its first call, 10-15 ms of start-up
    # that `import ddkit` used to pay by importing it up front.
    src = str(Path(simulate.__file__).resolve().parents[1])
    code = (
        "import sys, ddkit\n"
        "from ddkit.acceptance import criterion_pulse_shaping\n"
        "from ddkit.operators import qubit_full_moos\n"
        "from ddkit.sequences import udd_schedule\n"
        "from ddkit.simulate import ModelSpec, RunConfig, order_scan\n"
        "moos = qubit_full_moos(1)\n"
        "order_scan(udd_schedule('Z1', 2), moos, ModelSpec('general', 2, 2),\n"
        "           RunConfig(seeds=(0, 1, 2)), [moos.by_label('Z1')])\n"
        "assert criterion_pulse_shaping().passed\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
