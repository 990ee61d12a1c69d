import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkit import simulate
from ddkit.errors import PreconditionError, UnfittableError
from ddkit.linalg import expm_i, kron, spectral_norm
from ddkit.model import HamiltonianModel, random_model
from ddkit.operators import Moos, Operator, pauli, qubit_full_moos
from ddkit.sequences import (
    Schedule,
    cdd_uniform,
    conjugated,
    first_order_schedule,
    hahn_echo,
    nudd,
    udd_schedule,
)
from ddkit.simulate import (
    ModelSpec,
    RunConfig,
    _grammar,
    compile_program,
    fit_loglog,
    order_scan,
    preservation_error,
    propagate,
    propagate_wrapped,
)

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
        u, net = propagate(udd_schedule("X1", 1), m, moos, t, return_net_pulse=True)
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
    echo, echo_net = propagate(hahn_echo(EMPTY, "X1"), m, MOOS1, 0.6, return_net_pulse=True)
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
    with pytest.raises(UnfittableError):
        fit_loglog([(1.0, 1e-20), (2.0, 1e-19)], 1e-12, 1e-2)


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_grid": ()},
        {"t_grid": (0.0, 0.1)},
        {"t_grid": (-0.2, -0.1)},
        {"t_grid": (0.1, math.inf)},
        {"seeds": ()},
        {"error_floor": 1e-2, "error_ceiling": 1e-2},
        {"error_floor": 1e-1, "error_ceiling": 1e-2},
        {"threads": 0},
    ],
    ids=["empty_grid", "zero_time", "negative_times", "infinite_time",
         "empty_seeds", "floor_equals_ceiling", "floor_above_ceiling", "zero_threads"],
)
def test_run_config_rejects_invalid(kwargs):
    # each of these used to be accepted and end in a silent "exact" fit, an
    # "unfittable" exit, a crash inside the sweep, or a silent serial run
    with pytest.raises(PreconditionError):
        RunConfig(**kwargs)


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


def _expand(grammar):
    top, rules = grammar
    for i, rule in enumerate(rules):
        assert all(not isinstance(s, int) or s < i for s in rule), "rule refers forward"

    def expand(s):
        return [s] if not isinstance(s, int) else expand(rules[s][0]) + expand(rules[s][1])

    return [step for s in top for step in expand(s)]


_STEPS = st.sampled_from([
    (0.25, None, None),
    (0.25, None, ("X1",)),
    (0.125, None, ("X1",)),
    (0.125, None, ("Z1", "X1")),
    (0.5, ("A", 0.3), None),
    (0.5, ("A", 0.3), "P"),
    (-0.25, None, None),
])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(_STEPS, min_size=1, max_size=4), st.integers(1, 6)),
                max_size=8))
def test_grammar_expands_to_the_steps(blocks):
    # blocks repeated in runs (a a a a, a b a b ...): expanding the grammar
    # gives the steps back, and it never costs more products than they do
    steps = tuple(step for block, n in blocks for step in block * n)
    top, rules = _grammar(steps)
    assert _expand((top, rules)) == list(steps)
    assert len(top) + len(rules) <= len(steps)


@pytest.mark.parametrize("schedule", [udd_schedule("Z1", 4), nudd(MOOS1, (2, 3))],
                         ids=["udd(4)", "nudd(2,3)"])
def test_programs_without_repeats_run_flat(schedule):
    program = compile_program(schedule, MOOS1)
    assert program.grammar == (program.steps, ())


def test_cdd_program_runs_as_a_few_products():
    moos = qubit_full_moos(2)
    program = compile_program(cdd_uniform(moos, 3), moos)
    top, rules = program.grammar
    assert len(program.steps) == 4096
    assert len(top) + len(rules) <= 32
    assert _expand(program.grammar) == list(program.steps)


def test_deep_cdd_grammar_matches_the_flat_program(monkeypatch):
    # 4,096 steps run as a few dozen products give the step-by-step errors
    moos = qubit_full_moos(2)
    args = (cdd_uniform(moos, 3), moos, ModelSpec("general", 4, 4, 1.0),
            RunConfig(t_grid=(0.1, 0.4), seeds=(0, 5)))
    compressed = order_scan(*args)
    monkeypatch.setattr(simulate, "_grammar", lambda steps: (steps, ()))
    flat = order_scan(*args)
    for label, err in flat.errors.items():
        assert np.abs(compressed.errors[label] - err).max() <= 1e-12


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
