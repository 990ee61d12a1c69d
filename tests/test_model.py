import numpy as np
import pytest

from ddkit import simulate
from ddkit.errors import PreconditionError
from ddkit.linalg import kron, spectral_norm
from ddkit.model import MODEL_CACHE_SIZE, HamiltonianModel, random_model
from ddkit.operators import Operator, pauli, qubit_full_moos
from ddkit.sequences import cdd_nested, nudd
from oracles import decompose

SZ = pauli("z", 1, 1)
SX = pauli("x", 1, 1)


def test_random_model_deterministic():
    # one cached draw against one draw that bypasses the cache
    a = random_model("general", 2, 4, 1.0, 7)
    b = random_model.__wrapped__("general", 2, 4, 1.0, 7)
    assert a is not b
    assert np.array_equal(a.h_total, b.h_total)


def test_random_model_returns_one_object_per_argument_tuple():
    a = random_model("general", 2, 4, 1.0, 11)
    assert random_model("general", 2, 4, 1.0, 11) is a
    assert random_model("general", 2, 4, 1.0, 12) is not a


def test_random_model_cache_keys_on_argument_types():
    random_model.cache_clear()
    a = random_model("general", 2, 4, 1, 0)
    b = random_model("general", 2, 4, 1.0, 0)
    assert a is not b
    assert random_model.cache_info().currsize == 2
    assert np.array_equal(a.h_total, b.h_total)


def test_random_model_rejections_are_never_cached():
    random_model.cache_clear()
    for _ in range(2):
        with pytest.raises(PreconditionError):
            random_model("bogus", 2, 4, 1.0, 0)
        with pytest.raises(PreconditionError):
            random_model("general", 2, 4, 1.0, -1)
    assert random_model.cache_info().currsize == 0


def test_shared_model_arrays_are_read_only():
    m = random_model("qdd_counterexample", 2, 4, 1.0, 3)
    evals, vecs = m.eig()
    for write in (lambda: m.h_total.__setitem__((0, 0), 0.0),
                  lambda: evals.__setitem__(0, 0.0),
                  lambda: vecs.__setitem__((0, 0), 0.0)):
        with pytest.raises(ValueError):
            write()
    assert m.eig()[0] is evals


def test_user_built_model_keeps_its_array_writable():
    h = kron(SZ.matrix, np.diag([0.3, -0.1]))
    m = HamiltonianModel("general", 2, 2, 1.0, 0, h)
    assert m.h_total is h and h.flags.writeable
    assert not m.eig()[1].flags.writeable


def test_random_model_cache_is_bounded():
    for seed in range(40):
        random_model("general", 2, 2, 1.0, 1000 + seed)
    assert random_model.cache_info().currsize <= MODEL_CACHE_SIZE == 32


@pytest.mark.parametrize("sched", [
    nudd(qubit_full_moos(2), (2, 2, 2, 3)),
    cdd_nested(qubit_full_moos(2), (2, 2, 2, 2)),
], ids=["nudd2223", "cdd_nested2222"])
def test_order_scan_is_the_same_for_every_source_of_models(monkeypatch, sched):
    spec = simulate.ModelSpec("general", 4, 4, 1.0)

    def errors():
        res = simulate.order_scan(sched, qubit_full_moos(2), spec)
        return {k: v.copy() for k, v in res.errors.items()}

    random_model.cache_clear()
    cold = errors()
    warm = errors()
    monkeypatch.setattr(simulate, "random_model", random_model.__wrapped__)
    uncached = errors()
    for label, e in cold.items():
        assert np.array_equal(e, warm[label])
        assert np.array_equal(e, uncached[label])


def test_random_model_seed_sensitivity():
    a = random_model("general", 2, 4, 1.0, 0)
    b = random_model("general", 2, 4, 1.0, 1)
    assert not np.allclose(a.h_total, b.h_total)


def test_general_norm_rescaled():
    for seed in range(4):
        m = random_model("general", 2, 4, 1.0, seed)
        assert spectral_norm(m.h_total) == pytest.approx(1.0, abs=1e-9)


def test_pure_dephasing_commutes_with_sigma_z():
    m = random_model("pure_dephasing", 4, 3, 1.0, 2)
    for q in (1, 2):
        w = m.lift(pauli("z", q, 2))
        assert spectral_norm(w @ m.h_total - m.h_total @ w) <= 1e-12


def test_pure_dephasing_requires_power_of_two():
    with pytest.raises(PreconditionError):
        random_model("pure_dephasing", 3, 4, 1.0, 0)


def _system_block(h, p_mat, bath_dim):
    """J_P = (1/2) tr_sys[(P^dag (x) I) H] for H = sum_P P (x) J_P."""
    lifted = kron(p_mat.conj().T, np.eye(bath_dim))
    return np.trace((lifted @ h).reshape(2, bath_dim, 2, bath_dim),
                    axis1=0, axis2=2) / 2


def test_counterexample_structure_projections():
    m = random_model("qdd_counterexample", 2, 4, 1.0, 5)
    h = m.h_total
    assert spectral_norm(h) <= 1.0 + 1e-9
    sy = np.array([[0, -1j], [1j, 0]])
    paulis = [np.eye(2), SZ.matrix, SX.matrix, sy]
    blocks = [_system_block(h, p, 4) for p in paulis]
    # one bath block of norm 1/4 in each of the four system sectors,
    # including the Omega1*Omega2 cross-coupling sector
    for b in blocks:
        assert spectral_norm(b) == pytest.approx(0.25, abs=1e-9)
        assert spectral_norm(b - b.conj().T) <= 1e-12
    recon = sum(kron(p, b) for p, b in zip(paulis, blocks))
    assert spectral_norm(recon - h) <= 1e-12


def test_counterexample_requires_qubit():
    with pytest.raises(PreconditionError):
        random_model("qdd_counterexample", 4, 4, 1.0, 0)


def test_unknown_structure_rejected():
    with pytest.raises(PreconditionError):
        random_model("bogus", 2, 4, 1.0, 0)
    with pytest.raises(PreconditionError):
        random_model("custom", 2, 4, 1.0, 0)


def test_model_propagator_matches_direct_exponential():
    m = random_model("general", 2, 3, 1.0, 1)
    evals, evecs = np.linalg.eigh(m.h_total)
    direct = (evecs * np.exp(-1j * evals * 0.37)) @ evecs.conj().T
    assert np.allclose(m.propagator(0.37), direct, atol=1e-13)
    u = m.propagator(5.0)
    assert spectral_norm(u.conj().T @ u - np.eye(6)) <= 1e-12


def test_lift_shape_and_dimension_check():
    m = random_model("general", 2, 4, 1.0, 0)
    assert m.lift(SZ).shape == (8, 8)
    with pytest.raises(PreconditionError):
        m.lift(Operator("Z", np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex), 4))


def test_model_rejects_norm_violation():
    h = np.diag([2.0, -2.0]).astype(complex)
    with pytest.raises(PreconditionError):
        HamiltonianModel("general", 2, 1, 1.0, 0, h)


def test_model_rejects_nan_entries():
    # an inf on the diagonal too, without numpy's inf - inf warning on the way
    for row, col, entry in ((2, 5, np.nan), (5, 5, np.inf)):
        h = np.zeros((8, 8), dtype=complex)
        h[row, col] = entry
        with pytest.raises(PreconditionError) as err:
            HamiltonianModel("general", 2, 4, 1.0, 0, h)
        assert "non-finite" in str(err.value)


def test_model_rejects_matrix_of_the_wrong_dimension():
    with pytest.raises(PreconditionError) as err:
        HamiltonianModel("general", 2, 4, 1.0, 0, np.zeros((6, 6), dtype=complex))
    assert "h_total dimension 6 != sys_dim*bath_dim 8" in str(err.value)


def test_decompose_commuting_hamiltonian():
    h = kron(SZ.matrix, np.diag([0.3, -0.1]))
    m = HamiltonianModel("general", 2, 2, 1.0, 0, h)
    c, a = decompose(m, SZ)
    assert spectral_norm(a) == 0.0
    assert np.array_equal(c, h)


def test_decompose_anticommuting_hamiltonian():
    h = kron(SX.matrix, np.diag([0.5, -0.5]))
    m = HamiltonianModel("general", 2, 2, 1.0, 0, h)
    c, a = decompose(m, SZ)
    assert spectral_norm(c) == 0.0
    assert np.array_equal(a, h)


def test_decompose_residuals_and_projection_pair():
    m = random_model("general", 2, 4, 1.0, 3)
    c, a = decompose(m, SZ)
    w = m.lift(SZ)
    assert spectral_norm(c + a - m.h_total) <= 1e-12
    assert spectral_norm(w @ c - c @ w) <= 1e-10
    assert spectral_norm(w @ a + a @ w) <= 1e-10
    # applying decompose to the commuting part returns (C, 0)
    mc = HamiltonianModel("general", 2, 4, spectral_norm(c) + 1e-9, 3, c)
    c2, a2 = decompose(mc, SZ)
    assert spectral_norm(c2 - c) <= 1e-12
    assert spectral_norm(a2) <= 1e-12


@pytest.mark.parametrize("kwargs, needle", [
    ({"sys_dim": -2}, "sys_dim and bath_dim must be >= 1"),
    ({"seed": -1}, "seed must lie in [0, 2^128)"),
    ({"norm_bound": -1.0}, "norm_bound must be finite and >= 0"),
], ids=["sys_dim_negative", "seed_negative", "norm_bound_negative"])
def test_random_model_rejects_bad_input(kwargs, needle):
    args = {"structure": "general", "sys_dim": 2, "bath_dim": 4, "norm_bound": 1.0, "seed": 0}
    with pytest.raises(PreconditionError) as err:
        random_model(**{**args, **kwargs})
    assert needle in str(err.value)


