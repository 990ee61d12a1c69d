import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ddkit import pulseshape
from ddkit.errors import PreconditionError
from ddkit.linalg import expm_i, kron, spectral_norm
from ddkit.model import HamiltonianModel, random_model
from ddkit.operators import Moos, Operator, composed_pulse, pauli
from ddkit.pulseshape import (
    PulseDesignError,
    PulseShape,
    design_pulse,
    eta_integrals,
    propagate_pulse,
    pulse_error_scan,
    pulse_from_json,
    pulse_to_json,
    rectangular_pulse,
)
from oracles import eta_integrals_quadrature

SZ = pauli("z", 1, 1)
SX = pauli("x", 1, 1)
SY = pauli("y", 1, 1)


def test_pulse_shape_validation():
    with pytest.raises(PreconditionError):
        PulseShape(-1.0, 0.0, ((1.0, 1.0),))
    with pytest.raises(PreconditionError):
        PulseShape(1.0, 2.0, ((1.0, 1.0),))
    with pytest.raises(PreconditionError):
        PulseShape(1.0, 0.5, ((0.5, 1.0), (0.4, 1.0)))  # fractions != 1


@pytest.mark.parametrize("build, needle", [
    (lambda: PulseShape(1.0, 0.5, ((0.0, 1.0), (1.0, 1.0))), "segment fractions must be positive"),
    (lambda: PulseShape(1.0, 0.5, ()), "segment fractions must be positive"),
    (lambda: design_pulse("sym7"), "unknown family 'sym7'; choose from ('sym3', 'sym5', 'rect')"),
], ids=["zero_fraction", "no_segments", "unknown_family"])
def test_pulse_inputs_rejected(build, needle):
    with pytest.raises(PreconditionError) as err:
        build()
    assert needle in str(err.value)


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("tau_p, tau_s, segments", [
    (_INF, 0.5, ((1.0, 1.0),)),
    (_NAN, 0.5, ((1.0, 1.0),)),
    (_INF, _INF, ((1.0, 1.0),)),
    (1.0, _NAN, ((1.0, 1.0),)),
    (1.0, 0.5, ((_NAN, 1.0),)),
    (1.0, 0.5, ((0.5, 1.0), (_INF, 1.0))),
    (1.0, 0.5, ((1.0, _INF),)),
    (1.0, 0.5, ((0.5, 1.0), (0.5, _NAN))),
], ids=["tau_p_inf", "tau_p_nan", "tau_s_inf", "tau_s_nan", "frac_nan", "frac_inf",
        "amp_inf", "amp_nan"])
def test_pulse_shape_rejects_non_finite(tau_p, tau_s, segments):
    # a NaN fraction used to construct and fail later inside the propagator
    with pytest.raises(PreconditionError, match="must be finite"):
        PulseShape(tau_p, tau_s, segments)


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import ddkit, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_rectangular_pulse_area():
    for tau_p in (0.1, 1.0, 3.0):
        r = rectangular_pulse(tau_p)
        assert r.area == pytest.approx(math.pi / 2, abs=1e-14)
        assert r.tau_s == tau_p / 2


@pytest.mark.parametrize("tau_p", [0.0, -0.0], ids=["zero", "negative_zero"])
def test_zero_pulse_duration_is_rejected_before_dividing(tau_p):
    # both used to end in ZeroDivisionError
    for make in (rectangular_pulse, rectangular_pulse().rescaled, design_pulse("sym3").rescaled):
        with pytest.raises(PreconditionError) as err:
            make(tau_p)
        assert str(err.value) == f"pulse duration must be positive and finite, got {tau_p}"


def test_rescaled_preserves_area_and_shape():
    shape = design_pulse("sym3")
    small = shape.rescaled(0.01)
    assert small.area == pytest.approx(shape.area, abs=1e-12)
    assert small.tau_p == 0.01
    assert [f for f, _ in small.segments] == [f for f, _ in shape.segments]


def test_symmetric_envelope_eta11_vanishes():
    for amps in [(1.0, -2.0), (0.5, 3.0, -1.0)]:
        full = tuple(amps) + tuple(reversed(amps[:-1]))
        n = len(full)
        shape = PulseShape(1.0, 0.5, tuple((1.0 / n, a) for a in full))
        eta11, _ = eta_integrals(shape)
        assert abs(eta11) <= 1e-12


def test_rectangular_eta12_closed_form():
    # analytic value: eta12 = -tau_p / pi for the centered constant envelope
    for tau_p in (0.5, 1.0, 2.0):
        eta11, eta12 = eta_integrals(rectangular_pulse(tau_p))
        assert abs(eta11) <= 1e-14
        assert eta12 == pytest.approx(-tau_p / math.pi, abs=1e-12)


def test_eta_closed_form_matches_blind_quadrature():
    shapes = [
        rectangular_pulse(1.3),
        design_pulse("sym3"),
        PulseShape(0.7, 0.3, ((0.25, 2.0), (0.5, -1.0), (0.25, 4.0))),
    ]
    for shape in shapes:
        cf = eta_integrals(shape)
        quad = eta_integrals_quadrature(shape)
        assert cf[0] == pytest.approx(quad[0], abs=1e-11)
        assert cf[1] == pytest.approx(quad[1], abs=1e-11)


@pytest.mark.parametrize("amp", [1e-3, 1e-6, 1e-8])
def test_eta_closed_form_matches_quadrature_at_small_amplitudes(amp):
    # the antiderivatives' 1/b**2 terms cancel as b = -2 amp -> 0; the
    # midpoint form of such a segment does not
    shape = PulseShape(1.0, 0.5, ((0.5, amp), (0.5, 1.0)))
    cf = eta_integrals(shape)
    quad = eta_integrals_quadrature(shape)
    assert cf[0] == pytest.approx(quad[0], abs=1e-12)
    assert cf[1] == pytest.approx(quad[1], abs=1e-12)


@pytest.mark.parametrize("amp", [1e-200, 1e200])
def test_eta_moments_are_finite_at_extreme_amplitudes(amp):
    # b**2 vanished (ZeroDivisionError) or overflowed (OverflowError) here
    eta = eta_integrals(PulseShape(1.0, 0.5, ((0.5, amp), (0.5, 1.0))))
    assert all(math.isfinite(x) for x in eta)
    if amp < 1:  # a segment that small adds nothing to either moment
        zero = eta_integrals(PulseShape(1.0, 0.5, ((0.5, 0.0), (0.5, 1.0))))
        assert eta == pytest.approx(zero, abs=1e-15)


def test_eta_moments_match_quadrature_across_a_phase_turn_of_one_sixteenth():
    # the first segment's phase turns by |b h| = amp, from 0.3 % below 1/16
    # to 2.9 % above: the moments used to be summed about the midpoint below
    # 1/16 and from antiderivatives above it, whose 1/b**2 terms cancelled
    # to 7e-16 off the quadrature
    worst = 0.0
    for k in range(-3, 30):
        shape = PulseShape(1.0, 0.5, ((0.5, 0.0625 * (1 + k * 1e-3)), (0.5, 1.0)))
        cf, quad = eta_integrals(shape), eta_integrals_quadrature(shape)
        worst = max(worst, abs(cf[0] - quad[0]), abs(cf[1] - quad[1]))
    assert worst <= 2e-16


@pytest.mark.parametrize("amp", [1e308, -1e308, 1.7e308])
def test_eta_rejects_an_amplitude_whose_phase_rate_overflows(amp):
    # b = -2 amp was -inf, and math.sin(-inf) raised ValueError
    shape = PulseShape(1.0, 0.5, ((0.5, amp), (0.5, 1.0)))
    with pytest.raises(PreconditionError,
                       match=f"^segment amplitude {re.escape(repr(amp))} is too large"):
        eta_integrals(shape)


def test_eta_closed_form_skips_a_zero_amplitude_segment():
    # a zero segment adds nothing to either moment but still moves psi's
    # start for the segments after it
    shape = PulseShape(1.0, 0.5, ((0.25, 2.0), (0.5, 0.0), (0.25, math.pi - 2)))
    cf = eta_integrals(shape)
    quad = eta_integrals_quadrature(shape)
    assert cf[0] == pytest.approx(quad[0], abs=1e-14)
    assert cf[1] == pytest.approx(quad[1], abs=1e-14)


def test_eta_zero_duration_limit_linear():
    base = rectangular_pulse(1.0)
    etas = [abs(eta_integrals(base.rescaled(tau))[1]) for tau in (0.1, 0.05, 0.025)]
    assert etas[0] / etas[1] == pytest.approx(2.0, rel=1e-6)
    assert etas[1] / etas[2] == pytest.approx(2.0, rel=1e-6)


def test_design_pulse_sym3():
    shape = design_pulse("sym3")
    eta11, eta12 = eta_integrals(shape)
    assert abs(eta11) <= 1e-10 and abs(eta12) <= 1e-10
    assert shape.area == pytest.approx(math.pi / 2, abs=1e-10)
    # mirrored 3-segment envelope
    amps = [a for _, a in shape.segments]
    assert len(amps) == 3 and amps[0] == amps[2]
    # the exponential of the accumulated area is a pi pulse up to phase
    p = expm_i(SZ.matrix, shape.area)
    assert spectral_norm(p - (-1j) * SZ.matrix) <= 1e-10


def test_design_pulse_sym5():
    shape = design_pulse("sym5")
    eta11, eta12 = eta_integrals(shape)
    assert abs(eta11) <= 1e-10 and abs(eta12) <= 1e-10
    assert len(shape.segments) == 5


def test_design_pulse_rect_fails_with_residual():
    with pytest.raises(PulseDesignError) as err:
        design_pulse("rect")
    assert err.value.best_residual == pytest.approx(1 / math.pi, abs=1e-10)


def test_design_pulse_stable_restart():
    # re-running the damped Newton step from the returned amplitudes
    # converges immediately: the residual is already below threshold
    shape = design_pulse("sym3")
    assert np.linalg.norm([
        shape.area - math.pi / 2, eta_integrals(shape)[1]
    ]) < 1e-13


def test_design_pulse_deterministic():
    # against uncached solves, so the cache cannot hide a varying result
    solve = pulseshape._design_root.__wrapped__
    assert design_pulse("sym3") == solve("sym3") == solve("sym3")


def test_design_root_is_solved_once_per_family(monkeypatch):
    lstsq, steps = np.linalg.lstsq, []

    def counting(*args, **kwargs):
        steps.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    pulseshape._design_root.cache_clear()
    design_pulse("sym5")
    solved = len(steps)
    assert solved > 0
    design_pulse("sym5")
    design_pulse("sym5", 0.3)
    assert len(steps) == solved
    info = pulseshape._design_root.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize("family", ["sym3", "sym5"])
@pytest.mark.parametrize("tau_p", [1.0, 0.3, 1e-3])
def test_cached_design_is_the_rescaled_uncached_root(family, tau_p):
    uncached = pulseshape._design_root.__wrapped__(family).rescaled(tau_p)
    assert design_pulse(family, tau_p) == uncached  # tau_p, tau_s and segments


def test_rejected_families_raise_every_call_and_are_never_cached():
    pulseshape._design_root.cache_clear()
    for _ in range(2):
        with pytest.raises(PulseDesignError):
            design_pulse("rect")
        with pytest.raises(PreconditionError):
            design_pulse("sym7")
        with pytest.raises(PreconditionError):
            design_pulse("sym3", 0.0)
    assert pulseshape._design_root.cache_info().currsize == 0


@pytest.mark.parametrize("family", ["sym3", "sym5"])
def test_design_pulse_is_pinned_bit_for_bit(family):
    # one Newton start, no restarts and nothing random: the design depends
    # on the family alone, and its JSON is the same to the last bit.  The
    # digests stay out of the test ids, so a re-pinned design keeps its name.
    pinned = {
        "sym3": "4cb7203f315fb1f1b5fb98c5070a91610baece744bb18ec55a56fc3c8494e7d3",
        "sym5": "43ace4503e5bdd94c6c897ba5b8e2b836e7d135e1a4f40e43a0eaa6936e5614d",
    }
    digest = hashlib.sha256(pulse_to_json(design_pulse(family)).encode()).hexdigest()
    assert digest == pinned[family]
    assert "seed" not in inspect.signature(design_pulse).parameters


def test_composed_pulse_hermitizing_phase():
    zx = composed_pulse([pauli("z", 1, 1), pauli("x", 1, 1)])
    Moos((Operator("c", zx.matrix, 2),))  # a MOOS element must be unitary and Hermitian
    # Z then X applies XZ = -i sigma_y; the Hermitizing factor i gives sigma_y
    assert spectral_norm(zx.matrix - SY.matrix) <= 1e-12
    same = composed_pulse([pauli("z", 1, 1), pauli("z", 1, 1)])
    assert np.array_equal(same.matrix, np.eye(2))


def test_composed_pulse_rejects_skew_product():
    skew = Operator("D", (SX.matrix + SY.matrix) / np.sqrt(2), 2)
    rot = Operator("R", expm_i(SZ.matrix, 0.3) @ skew.matrix, 2)
    with pytest.raises(PreconditionError):
        composed_pulse([rot, pauli("x", 1, 1)])


def test_propagate_pulse_zero_hamiltonian_exact():
    h = np.zeros((4, 4), dtype=complex)
    m = HamiltonianModel("general", 2, 2, 1.0, 0, h)
    for shape in (rectangular_pulse(0.3), design_pulse("sym3").rescaled(0.3)):
        u = propagate_pulse(shape, m, SZ)
        ideal = kron(expm_i(SZ.matrix, shape.area), np.eye(2))
        assert spectral_norm(u - ideal) <= 1e-12


def test_pulse_error_scan_zero_hamiltonian_reports_exact():
    # the same status rule as order_scan: every error at the floor is "exact";
    # the errors are exactly +0.0, with no warning on the way
    m = HamiltonianModel("general", 2, 2, 1.0, 0, np.zeros((4, 4), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pulse_error_scan(rectangular_pulse(), m, SZ, np.geomspace(0.003, 0.1, 10))
    errs = res.errors["Z1"][:, 0]
    assert np.all(errs == 0.0) and not np.any(np.signbit(errs))
    assert res.fits["Z1"].status == "exact"


def test_pulse_error_scan_designed_second_order():
    m = random_model("general", 2, 4, 1.0, 0)
    res = pulse_error_scan(design_pulse("sym3"), m, SZ, np.geomspace(0.003, 0.1, 10))
    fit = res.fits["Z1"]
    assert fit.ok
    assert 1.8 <= fit.slope <= 2.3


def test_pulse_error_scan_rectangular_first_order():
    m = random_model("general", 2, 4, 1.0, 0)
    res = pulse_error_scan(rectangular_pulse(), m, SZ, np.geomspace(0.002, 0.05, 10))
    fit = res.fits["Z1"]
    assert fit.ok
    assert 0.8 <= fit.slope <= 1.2


def test_designed_pulse_beats_rectangular_tenfold():
    shape = design_pulse("sym3")
    rect = rectangular_pulse()
    m = random_model("general", 2, 4, 1.0, 0)
    e_design = pulse_error_scan(shape, m, SZ, [0.01]).medians["Z1"][0]
    e_rect = pulse_error_scan(rect, m, SZ, [0.01]).medians["Z1"][0]
    assert e_rect / e_design >= 10.0


def test_pulse_json_round_trip():
    shape = design_pulse("sym3")
    text = pulse_to_json(shape)
    again = pulse_from_json(text)
    assert again == shape
    assert pulse_to_json(again) == text


_GOOD_PULSE = {"tau_p": 1.0, "tau_s": 0.5, "segments": [{"len_frac": 1.0, "amp": math.pi / 2}]}


@pytest.mark.parametrize("text, needle", [
    ('{"tau_p": 1.0,', "malformed pulse JSON"),
    ('"sym3"', "must be an object, got str"),
    (json.dumps({**_GOOD_PULSE, "segments": [{"amp": 1.0}]}), "missing key 'len_frac'"),
    (json.dumps({k: v for k, v in _GOOD_PULSE.items() if k != "tau_s"}), "missing key 'tau_s'"),
    (json.dumps({**_GOOD_PULSE, "tau_p": "1"}), "'tau_p' must be a finite number"),
    (json.dumps({**_GOOD_PULSE, "segments": [[1.0, 1.0]]}), "'segments': every item must be an object"),
    ('{"tau_p": NaN, "tau_s": 0.5, "segments": []}', "'tau_p' must be a finite number"),
], ids=["truncated", "not_object", "segment_no_len_frac", "no_tau_s", "tau_p_str",
        "segment_list", "tau_p_nan"])
def test_pulse_from_json_rejects_bad_input(text, needle):
    with pytest.raises(PreconditionError) as err:
        pulse_from_json(text)
    assert needle in str(err.value)



def test_pulse_error_scan_budget_counts_steps_times_durations(monkeypatch):
    # three steps (the segment, the ideal pulse, the backward free step) at
    # each of 400,000 durations exceed MAX_PRODUCTS before anything is run
    monkeypatch.setattr(pulseshape, "_propagators", None)
    m = random_model("general", 2, 4, 1.0, 0)
    grid = np.geomspace(1e-3, 1e-1, 400_000)
    with pytest.raises(PreconditionError, match="sweep budget exceeded: 1200000 products"):
        pulse_error_scan(rectangular_pulse(), m, SZ, grid)
