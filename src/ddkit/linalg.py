"""Dense complex linear algebra primitives for small (<= 256 x 256) matrices.

Matrices are plain ``numpy.ndarray`` of dtype complex128, square, row-major.
All functions are pure and thread-safe.
"""

import math

import numpy as np

from .errors import PreconditionError

# Tolerances shared between the library and its tests.
HERM_TOL = 1e-10       # max-abs entry deviation allowed from Hermiticity
UNITARY_TOL = 1e-12    # spectral deviation of U^dag U from the identity
MAX_DIM = 256

# Relative slack on both Frobenius bounds in spectral_norm_le.  It is far
# above the rounding error of either computed norm at d <= MAX_DIM, so a bound
# only decides where the SVD would decide the same way.
_BOUND_SLACK = 1e-9

__all__ = [
    "HERM_TOL",
    "UNITARY_TOL",
    "MAX_DIM",
    "as_matrix",
    "herm_deviation",
    "require_hermitian",
    "expm_i",
    "expm_i_eig",
    "spectral_norm",
    "spectral_norm_le",
    "kron",
]


def _as_stack(m) -> np.ndarray:
    """Coerce input to a complex128 stack of square matrices, shape (..., d, d)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] < 1:
        raise PreconditionError("matrix dimension must be >= 1")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array."""
    a = _as_stack(m)
    if a.ndim != 2:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def herm_deviation(m) -> float:
    """Max-abs entry deviation from the Hermitian conjugate over a matrix or a
    stack (..., d, d); 0 for an empty stack, inf for input with an inf entry
    or a deviation beyond the float range, and nan for input with a nan
    entry.  Non-finite input is caught before the subtraction, where an inf
    diagonal entry would form inf - inf; a finite difference that overflows
    (1e308 - -1e308) is inf without a warning."""
    a = _as_stack(m)
    if not np.isfinite(a).all():
        return math.nan if np.isnan(a).any() else math.inf
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)), initial=0.0))


def require_hermitian(m) -> np.ndarray:
    """The input as a complex128 stack, if it is finite and Hermitian to
    HERM_TOL.  Finiteness decides the message: an input that is not finite
    is reported as such, whatever its deviation."""
    a = _as_stack(m)
    dev = herm_deviation(a)
    if not dev <= HERM_TOL:
        if not np.isfinite(a).all():
            raise PreconditionError("matrix has non-finite (nan or inf) entries")
        raise PreconditionError(
            f"matrix is not Hermitian: max-abs deviation {dev:.3e} exceeds {HERM_TOL:.1e}"
        )
    return a


def expm_i(h, t) -> np.ndarray:
    """Unitary exponential exp(-i*h*t) of a Hermitian matrix h.

    ``h`` may be a stack (..., d, d) and ``t`` an array broadcast over its
    leading axes; each matrix of the result equals the 2-D call bit for bit.
    Computed via Hermitian eigendecomposition so the phases are exact and
    the result is unitary to machine precision (no series truncation).
    """
    return expm_i_eig(*np.linalg.eigh(require_hermitian(h)), t)


def expm_i_eig(evals, evecs, t=1.0, out=None) -> np.ndarray:
    """V diag(exp(-i lambda t)) V^dag from a Hermitian eigendecomposition
    (``evals`` lambda [..., d], ``evecs`` V [..., d, d]), with ``t`` broadcast
    over the leading axes; written into ``out`` when it is given."""
    phases = np.exp(-1j * evals * np.asarray(t)[..., None])
    return np.matmul(evecs * phases[..., None, :], evecs.conj().swapaxes(-1, -2), out=out)


def spectral_norm(m) -> float:
    """Largest singular value of m: the LAPACK call ``np.linalg.norm(m, 2)``
    makes, bit for bit, without its axis and dtype bookkeeping."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def spectral_norm_le(m, tol: float) -> bool:
    """Exactly ``spectral_norm(m) <= tol``, without an SVD where the bounds
    |m|_F / sqrt(d) <= |m|_2 <= |m|_F already decide it.

    The SVD runs only when |m|_F lies between tol and tol * sqrt(d), or is
    not finite.
    """
    a = as_matrix(m)
    fro = float(np.linalg.norm(a))
    if fro <= tol * (1.0 - _BOUND_SLACK):
        return True
    if tol * math.sqrt(a.shape[0]) * (1.0 + _BOUND_SLACK) < fro < math.inf:
        return False
    return spectral_norm(a) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product with a's index slowest (leftmost factor).

    The same elementwise products ``np.kron`` forms, bit for bit, without
    its general-rank axis bookkeeping.
    """
    a, b = as_matrix(a), as_matrix(b)
    dim = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(dim, dim)
