"""The benchmark's span tracer binds ddkit functions by name; a rename in the
library, or a refactor of the schedule or pulse path, must fail here rather
than break traced benchmark runs."""

import types
from pathlib import Path

import numpy as np

from ddkit import acceptance, model, pulseshape, simulate
from ddkit.model import random_model
from ddkit.operators import qubit_full_moos
from ddkit.sequences import udd_schedule

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    """The tracer module, executed from its source without writing bytecode
    next to it."""
    module = types.ModuleType("perfbench_layertrace")
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), module.__dict__)
    return module


def test_layertrace_boundaries_bind_and_restore():
    layertrace = _load_layertrace()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in layertrace.BOUNDARIES if not hasattr(owner, attr)]
    assert not missing

    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in layertrace.BOUNDARIES]
    moos = qubit_full_moos(1)
    config = simulate.RunConfig(t_grid=(0.1, 0.2), seeds=(0,))
    original_scan = simulate.order_scan
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert simulate.order_scan is not original_scan
        simulate.order_scan(udd_schedule("Z1", 2), moos, simulate.ModelSpec(), config)
        simulate.propagate(udd_schedule("Z1", 2), simulate.ModelSpec().realize(0), moos, 0.1)
        # the wrap hook reads the bound "model" argument
        simulate.propagate_wrapped(udd_schedule("Z1", 2), simulate.ModelSpec().realize(0),
                                   moos, 0.1, moos.by_label("X1"))
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, f"{attr} not restored"
    metrics = tracer.metrics()
    assert metrics["simulate.propagate_calls"] == 2
    assert metrics["simulate.fit_points_offered"] == 2 * len(moos)
    assert np.isfinite(metrics["simulate.scan_self_s"])


def test_layertrace_records_the_pulse_path_and_restores():
    layertrace = _load_layertrace()
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in layertrace.BOUNDARIES]
    shape, m = pulseshape.rectangular_pulse(), random_model("general", 2, 4, 1.0, 0)
    z1 = qubit_full_moos(1).by_label("Z1")
    tracer = layertrace.Tracer()
    with tracer.installed():
        pulseshape.pulse_error_scan(shape, m, z1, [0.01, 0.02, 0.04])
        pulseshape.propagate_pulse(shape, m, z1)
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, f"{attr} not restored"
    assert [s[0] for s in tracer.spans if s[3] < 0] == [
        "pulseshape.scan", "pulseshape.propagate_pulse"]
    metrics = tracer.metrics()
    assert metrics["pulseshape.propagate_pulse_calls"] == 1
    assert metrics["simulate.fit_points_offered"] == 3
    assert np.isfinite(metrics["pulseshape.scan_self_s"])
    # no expm_i: the ideal pulse comes from the checked axis's eigh, and
    # the kernel does the rest
    assert metrics["linalg.expm_calls"] == 0
    assert metrics["model.exponentials"] == 0


def test_layertrace_wraps_and_restores_the_cached_random_model():
    layertrace = _load_layertrace()
    tracer = layertrace.Tracer()
    with tracer.installed():
        traced = model.random_model
        assert traced is not random_model and traced.__wrapped__ is random_model
        assert simulate.random_model is traced and acceptance.random_model is traced
        # a cache hit is still one realize span
        traced("general", 2, 4, 1.0, 0)
        traced("general", 2, 4, 1.0, 0)
    assert model.random_model is simulate.random_model is random_model
    assert acceptance.random_model is random_model
    assert random_model.cache_info().maxsize == model.MODEL_CACHE_SIZE
    assert tracer.metrics()["model.realize_calls"] == 2


def test_traced_accept_passes_on_a_warm_cache_count_alike():
    layertrace = _load_layertrace()
    acceptance.run_all()
    signatures = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        with tracer.installed():
            acceptance.run_all()
        signatures.append(layertrace.count_signature(tracer.metrics()))
    assert signatures[0] == signatures[1]
    assert signatures[0]["model.eigh_calls"] == 0
