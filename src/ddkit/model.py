"""System (x) bath Hamiltonian models with bounded spectral norm.

Random matrices are drawn from the Philox counter-based generator keyed by
the model seed, so every model is bit-reproducible regardless of how a sweep
is scheduled across threads.  The system is the slow (leftmost) Kronecker
factor throughout.

``random_model`` realizes each distinct argument tuple once per process and
hands the same ``HamiltonianModel``, with its cached eigendecomposition, to
every later caller; its least recently used entries are dropped beyond
``MODEL_CACHE_SIZE``.  A shared model is immutable: its ``h_total`` and the
arrays ``eig()`` returns are read-only.  A model built directly keeps its
own ``h_total`` writable.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .linalg import MAX_DIM, kron, require_hermitian, spectral_norm
from .operators import Operator, pauli

__all__ = ["HamiltonianModel", "random_model"]

STRUCTURES = ("general", "pure_dephasing", "qdd_counterexample")
DEFAULT_BATH_DIM = 4
DEFAULT_NORM_BOUND = 1.0
# Realized models kept per process: four 8-seed ensembles, as many as one
# acceptance run (24) or one benchmark scan pass (16) draws.
MODEL_CACHE_SIZE = 32


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hermitian H = H_S + H_B + H_SB on a sys_dim * bath_dim space."""

    structure: str
    sys_dim: int
    bath_dim: int
    norm_bound: float
    seed: int
    h_total: np.ndarray
    _eig: tuple = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        h = require_hermitian(self.h_total)
        if h.shape[0] != self.sys_dim * self.bath_dim:
            raise PreconditionError(
                f"h_total dimension {h.shape[0]} != sys_dim*bath_dim "
                f"{self.sys_dim * self.bath_dim}"
            )
        if spectral_norm(h) > self.norm_bound + 1e-9:
            raise PreconditionError(
                f"spectral norm {spectral_norm(h):.6f} exceeds the declared "
                f"bound {self.norm_bound}"
            )
        object.__setattr__(self, "h_total", h)

    @property
    def dim(self) -> int:
        return self.sys_dim * self.bath_dim

    def eig(self):
        """Cached Hermitian eigendecomposition (evals, vecs) of h_total,
        reused across the many exponentials of a time sweep; both arrays are
        read-only."""
        if self._eig is None:
            evals, vecs = np.linalg.eigh(self.h_total)
            evals.flags.writeable = vecs.flags.writeable = False
            object.__setattr__(self, "_eig", (evals, vecs))
        return self._eig

    def propagator(self, t) -> np.ndarray:
        """exp(-i * h_total * t) from the cached eigendecomposition; an array
        of times gives a stack (..., d, d), each equal to its scalar call."""
        evals, evecs = self.eig()
        phases = np.exp(-1j * evals * np.asarray(t)[..., None])
        return (evecs * phases[..., None, :]) @ evecs.conj().T

    def lift(self, op: Operator) -> np.ndarray:
        """System operator lifted to the full space as Omega (x) I_bath."""
        if op.acts_on != self.sys_dim:
            raise PreconditionError(
                f"operator {op.label!r} acts on dimension {op.acts_on}, "
                f"system dimension is {self.sys_dim}"
            )
        return kron(op.matrix, np.eye(self.bath_dim))


def check_norm_bound(norm_bound: float) -> None:
    """Reject a model norm bound that is negative or not finite."""
    if not (0.0 <= norm_bound < math.inf):
        raise PreconditionError(f"norm_bound must be finite and >= 0, got {norm_bound}")


def check_model(structure: str, sys_dim: int, bath_dim: int, norm_bound: float) -> None:
    """Reject an ensemble ``random_model`` cannot draw: an unknown structure,
    a dimension below 1, a total dimension above MAX_DIM, a bad norm bound."""
    if structure not in STRUCTURES:
        raise PreconditionError(
            f"unknown model structure {structure!r}; choose from {list(STRUCTURES)}"
        )
    if sys_dim < 1 or bath_dim < 1:
        raise PreconditionError(
            f"sys_dim and bath_dim must be >= 1, got {sys_dim} and {bath_dim}"
        )
    if sys_dim * bath_dim > MAX_DIM:
        raise PreconditionError(f"total dimension {sys_dim * bath_dim} exceeds {MAX_DIM}")
    check_norm_bound(norm_bound)


def check_seed(seed: int) -> None:
    """Reject a seed the Philox generator cannot take as its key."""
    if not (0 <= seed < 2**128):
        raise PreconditionError(f"seed must lie in [0, 2^128), got {seed}")


def _random_hermitian(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    s = spectral_norm(h)
    return h * (norm / s) if s > 0 else h


@functools.lru_cache(maxsize=MODEL_CACHE_SIZE, typed=True)
def random_model(
    structure: str,
    sys_dim: int,
    bath_dim: int = DEFAULT_BATH_DIM,
    norm_bound: float = DEFAULT_NORM_BOUND,
    seed: int = 0,
) -> HamiltonianModel:
    """Seeded random model of the requested structure.

    general: dense random Hermitian on the full space, rescaled to the bound.
    pure_dephasing: sum_l sigma_z^(l) (x) B_l + I (x) H_B, rescaled.
    qdd_counterexample: I (x) J0 + Z (x) J1 + X (x) J2 + ZX (x) iJ12 with
    independent random bath blocks of norm norm_bound/4 each.

    Cached: equal arguments of equal types return the same object, whose
    ``h_total`` is read-only.  Rejected arguments raise on every call.
    """
    check_model(structure, sys_dim, bath_dim, norm_bound)
    check_seed(seed)
    dim = sys_dim * bath_dim
    rng = np.random.Generator(np.random.Philox(key=seed))

    if structure == "general":
        h = _random_hermitian(rng, dim, norm_bound)
    elif structure == "pure_dephasing":
        n_qubits = int(math.log2(sys_dim))
        if 2**n_qubits != sys_dim:
            raise PreconditionError("pure_dephasing requires a 2^L system dimension")
        h = np.zeros((dim, dim), dtype=complex)
        for q in range(1, n_qubits + 1):
            b_q = _random_hermitian(rng, bath_dim, 1.0)
            h += kron(pauli("z", q, n_qubits).matrix, b_q)
        h += kron(np.eye(sys_dim), _random_hermitian(rng, bath_dim, 1.0))
        h *= norm_bound / spectral_norm(h)
    else:  # qdd_counterexample
        if sys_dim != 2:
            raise PreconditionError("qdd_counterexample is a single-qubit structure")
        z = pauli("z", 1, 1).matrix
        x = pauli("x", 1, 1).matrix
        quarter = norm_bound / 4
        j0 = _random_hermitian(rng, bath_dim, quarter)
        j1 = _random_hermitian(rng, bath_dim, quarter)
        j2 = _random_hermitian(rng, bath_dim, quarter)
        j12 = _random_hermitian(rng, bath_dim, quarter)
        h = (
            kron(np.eye(2), j0)
            + kron(z, j1)
            + kron(x, j2)
            + kron(z @ x, 1j * j12)
        )
    model = HamiltonianModel(structure, sys_dim, bath_dim, norm_bound, seed, h)
    model.h_total.flags.writeable = False
    return model
