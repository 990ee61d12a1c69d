import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ddkit.errors import PreconditionError
from ddkit.linalg import (
    expm_i,
    herm_deviation,
    kron,
    require_hermitian,
    spectral_norm,
    spectral_norm_le,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def expm_taylor(h, t, terms=40):
    """Independent scaling-and-squaring Taylor oracle for exp(-i h t)."""
    m = -1j * t * np.asarray(h, dtype=complex)
    k = 0
    while np.max(np.abs(m)) > 0.5:
        m = m / 2
        k += 1
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ m / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def power_iteration_norm(m, steps=10_000):
    """Largest singular value via power iteration on m^dag m."""
    g = np.asarray(m, dtype=complex)
    a = g.conj().T @ g
    v = np.ones(a.shape[0], dtype=complex) / np.sqrt(a.shape[0])
    for _ in range(steps):
        w = a @ v
        v = w / np.linalg.norm(w)
    return float(np.sqrt(np.real(v.conj() @ a @ v)))


SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_expm_i_zero_matrix_gives_identity():
    assert np.allclose(expm_i(np.zeros((2, 2)), 3.7), np.eye(2), atol=1e-14)


def test_expm_i_diagonal():
    u = expm_i(SZ, np.pi / 2)
    assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-14)


def test_expm_i_matches_taylor_oracle():
    h = _random_hermitian(_rng(3), 8)
    u = expm_i(h, 0.3)
    assert spectral_norm(u - expm_taylor(h, 0.3)) <= 1e-10


def test_expm_i_group_property():
    h = _random_hermitian(_rng(5), 6)
    for t1, t2 in [(0.3, 0.7), (-4.0, 9.5), (10.0, -10.0)]:
        lhs = expm_i(h, t1) @ expm_i(h, t2)
        assert spectral_norm(lhs - expm_i(h, t1 + t2)) <= 1e-10


def test_expm_i_unitarity():
    h = _random_hermitian(_rng(7), 5)
    u = expm_i(h, 2.1)
    assert spectral_norm(u.conj().T @ u - np.eye(5)) <= 1e-12


def test_expm_i_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionError):
        expm_i(bad, 1.0)


@pytest.mark.parametrize("entry", [math.nan, complex(0.0, math.nan), math.inf],
                         ids=["nan", "imag_nan", "inf_diagonal"])
def test_expm_i_rejects_non_finite_entries(entry):
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = entry
    with pytest.raises(PreconditionError) as err:
        expm_i(h, 1.0)
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize("entry, want", [
    (math.inf, math.inf), (complex(0.0, -math.inf), math.inf), (math.nan, math.nan),
], ids=["inf_diagonal", "imag_inf_diagonal", "nan_diagonal"])
def test_herm_deviation_of_non_finite_input(entry, want):
    # inf - inf on the diagonal would be nan, with numpy's invalid-value warning
    got = herm_deviation(np.diag([entry, 0.0]))
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_require_hermitian_messages():
    with pytest.raises(PreconditionError,
                       match=r"^matrix has non-finite \(nan or inf\) entries$"):
        require_hermitian(np.diag([math.inf, 0.0]))
    with pytest.raises(PreconditionError, match=r"^matrix is not Hermitian: max-abs deviation "
                       r"1\.000e\+00 exceeds 1\.0e-10$"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_hermitian_rejects_a_deviation_beyond_the_float_range():
    # 1e308 - (-1e308) overflows: numpy's overflow warning used to be raised
    # (an error under the suite's settings) instead of the PreconditionError
    m = np.array([[0.0, 1e308], [-1e308, 0.0]])
    assert herm_deviation(m) == math.inf
    with pytest.raises(PreconditionError,
                       match=r"^matrix is not Hermitian: max-abs deviation inf exceeds 1\.0e-10$"):
        require_hermitian(m)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_pauli_sum():
    assert spectral_norm(SX + SZ) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_spectral_norm_matches_power_iteration():
    m = _rng(11).standard_normal((6, 6)) + 1j * _rng(12).standard_normal((6, 6))
    assert spectral_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-9)


def test_spectral_norm_submultiplicative():
    rng = _rng(13)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = expect[2, 0] = expect[3, 1] = 1.0
    assert np.allclose(kron(SX, np.eye(2)), expect)


def test_kron_index_formula():
    rng = _rng(17)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    k = kron(a, b)
    for i in range(3):
        for j in range(3):
            for p in range(2):
                for q in range(2):
                    assert k[i * 2 + p, j * 2 + q] == pytest.approx(a[i, j] * b[p, q])


# Any float, with the values whose bits a product can get wrong made common.
_ENTRY = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@st.composite
def _square_matrix(draw):
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return draw(arrays(np.float64, (d, d), elements=_ENTRY))
    return draw(arrays(np.complex128, (d, d), elements=st.builds(complex, _ENTRY, _ENTRY)))


@settings(max_examples=100, deadline=None)
@given(a=_square_matrix(), b=_square_matrix())
def test_kron_is_numpy_kron_byte_for_byte(a, b):
    with np.errstate(all="ignore"):
        got = kron(a, b)
        want = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_kron_mixed_product():
    rng = _rng(19)
    a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


@settings(max_examples=400, deadline=None)
@given(
    dim=st.integers(1, 16),
    spectrum=st.sampled_from(["random", "rank_one", "flat"]),
    band=st.sampled_from(["below", "gap", "above"]),
    pos=st.floats(0.0, 1.0),
    tol=st.sampled_from([1e-12, 1e-10, 1e-9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_le_matches_svd(dim, spectrum, band, pos, tol, seed):
    # rank_one makes |m|_F = |m|_2 (the upper bound is tight) and flat, a
    # scaled unitary, makes |m|_F = sqrt(d) |m|_2 (the lower bound is tight).
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if spectrum == "rank_one":
        g = np.outer(g[:, 0], g[0].conj())
    elif spectrum == "flat":
        g = np.linalg.qr(g)[0]
    # |m|_2 lands in [0, tol], in the gap (tol, tol sqrt(d)], or above it
    factor = {
        "below": pos,
        "gap": 1.0 + pos * (np.sqrt(dim) - 1.0),
        "above": np.sqrt(dim) * (1.0 + pos),
    }[band]
    m = g * (tol * factor / spectral_norm(g))
    assert spectral_norm_le(m, tol) == (spectral_norm(m) <= tol)

