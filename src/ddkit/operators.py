"""Construction and validation of mutually-orthogonal operation sets (MOOS).

An MOOS element is a unitary Hermitian operator; every pair of elements
either commutes or anticommutes.  This module builds the standard qubit and
M-level constructions, validates custom sets, and computes the Lie-algebra
closure of an MOOS (the full set of operators that get protected along with
the MOOS itself).

Qubit ordering convention: qubit 1 is the slowest (leftmost) Kronecker
factor.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .jsonio import get_field, get_list, load_object
from .linalg import HERM_TOL, kron, spectral_norm, spectral_norm_le

__all__ = [
    "Operator",
    "Moos",
    "pauli",
    "sigma_z_level",
    "sigma_x_level",
    "qubit_dephasing_moos",
    "qubit_full_moos",
    "mlevel_diagonal_moos",
    "mlevel_full_moos",
    "build_moos",
    "lie_closure",
    "moos_to_json",
    "moos_from_json",
]

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_QUBITS = 8
MAX_LEVELS = 256


@dataclass(frozen=True)
class Operator:
    """A labelled dense operator on a system of dimension ``acts_on``."""

    label: str
    matrix: np.ndarray
    acts_on: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.acts_on, self.acts_on):
            raise PreconditionError(
                f"operator {self.label!r}: matrix shape {m.shape} does not match "
                f"dimension {self.acts_on}"
            )
        object.__setattr__(self, "matrix", m)

    def unitary_hermitian_deviation(self) -> tuple[float, float]:
        """Residual norms of (Omega^2 - I) and (Omega - Omega^dag)."""
        m = self.matrix
        eye = np.eye(self.acts_on)
        return (
            spectral_norm(m @ m - eye),
            spectral_norm(m - m.conj().T),
        )

    def is_unitary_hermitian(self, tol: float = HERM_TOL) -> bool:
        m = self.matrix
        squares_to_one = spectral_norm_le(m @ m - np.eye(self.acts_on), tol)
        return squares_to_one and spectral_norm_le(m - m.conj().T, tol)


def _pair_relation(a: Operator, b: Operator, work: np.ndarray, tol: float = HERM_TOL):
    """Return (+1, None) for a commuting pair, (-1, None) for an
    anticommuting one, or (0, residuals) if neither holds to tolerance, with
    the residual norms (|[A,B]|, |{A,B}|) computed for that case only.

    ``work`` is a (3, d, d) complex work buffer reused for every pair:
    fresh d x d temporaries per pair go back to the operating system and are
    faulted in again, which at d = 256 costs about half as much as the
    products.
    """
    ab, ba, res = work
    np.matmul(a.matrix, b.matrix, out=ab)
    np.matmul(b.matrix, a.matrix, out=ba)
    if spectral_norm_le(np.subtract(ab, ba, out=res), tol):
        return 1, None
    if spectral_norm_le(np.add(ab, ba, out=res), tol):
        return -1, None
    return 0, (spectral_norm(ab - ba), spectral_norm(ab + ba))


@dataclass(frozen=True)
class Moos:
    """A validated mutually-orthogonal operation set.

    ``signature[i, j]`` is +1 if elements i and j commute and -1 if they
    anticommute.  Validation enforces the unitary-Hermitian property of every
    element, the pairwise (anti)commutation property, and tracelessness of
    both members of every anticommuting pair.
    """

    elements: tuple[Operator, ...]
    signature: np.ndarray = field(init=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise PreconditionError("an MOOS must contain at least one operator")
        dim = elements[0].acts_on
        for op in elements:
            if op.acts_on != dim:
                raise PreconditionError(
                    f"operator {op.label!r} acts on dimension {op.acts_on}, "
                    f"expected {dim}"
                )
            if not op.is_unitary_hermitian():
                d_sq, d_h = op.unitary_hermitian_deviation()
                raise PreconditionError(
                    f"operator {op.label!r} is not unitary Hermitian: "
                    f"|Omega^2 - I| = {d_sq:.3e}, |Omega - Omega^dag| = {d_h:.3e}"
                )
        n = len(elements)
        sig = np.ones((n, n), dtype=int)
        work = np.empty((3, dim, dim), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                rel, residuals = _pair_relation(elements[i], elements[j], work)
                if rel == 0:
                    comm, anti = residuals
                    raise PreconditionError(
                        f"pair ({elements[i].label!r}, {elements[j].label!r}) "
                        f"neither commutes nor anticommutes: "
                        f"|[A,B]| = {comm:.3e}, |{{A,B}}| = {anti:.3e}"
                    )
                sig[i, j] = sig[j, i] = rel
                if rel == -1:
                    for op in (elements[i], elements[j]):
                        tr = abs(np.trace(op.matrix))
                        if tr > HERM_TOL:
                            raise PreconditionError(
                                f"anticommuting MOOS member {op.label!r} has "
                                f"nonzero trace {tr:.3e}"
                            )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "signature", sig)

    @property
    def dim(self) -> int:
        return self.elements[0].acts_on

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(op.label for op in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def by_label(self, label: str) -> Operator:
        for op in self.elements:
            if op.label == label:
                return op
        raise KeyError(f"no MOOS element labelled {label!r}")


def pauli(axis: str, qubit_index: int, num_qubits: int) -> Operator:
    """Single-qubit Pauli operator embedded in an L-qubit register."""
    if axis not in _PAULI:
        raise PreconditionError(f"axis must be one of x, y, z, got {axis!r}")
    if not (1 <= num_qubits <= MAX_QUBITS):
        raise PreconditionError(f"num_qubits must be in 1..{MAX_QUBITS}")
    if not (1 <= qubit_index <= num_qubits):
        raise PreconditionError(
            f"qubit_index {qubit_index} out of range 1..{num_qubits}"
        )
    m = np.eye(1, dtype=complex)
    for q in range(1, num_qubits + 1):
        m = kron(m, _PAULI[axis] if q == qubit_index else np.eye(2))
    return Operator(f"{axis.upper()}{qubit_index}", m, 2**num_qubits)


def sigma_z_level(l: int, m_levels: int) -> Operator:
    """Diagonal M-level operator with entry (-1)^(m_l) at basis state m,
    where m_l is the l-th binary digit of m."""
    n_bits = max(1, math.ceil(math.log2(m_levels)))
    if m_levels > MAX_LEVELS:
        raise PreconditionError(f"system dimension must be <= {MAX_LEVELS}")
    if not (1 <= l <= n_bits):
        raise PreconditionError(f"level-bit index {l} out of range 1..{n_bits}")
    diag = np.array(
        [1.0 if (m >> (l - 1)) & 1 == 0 else -1.0 for m in range(m_levels)]
    )
    return Operator(f"Sz{l}", np.diag(diag).astype(complex), m_levels)


def sigma_x_level(l: int, m_levels: int) -> Operator:
    """M-level permutation operator swapping |m> and |m + 2^(l-1)> for every
    m whose l-th bit is zero.  Requires M divisible by 2^l."""
    if m_levels > MAX_LEVELS:
        raise PreconditionError(f"system dimension must be <= {MAX_LEVELS}")
    if m_levels % (2**l) != 0:
        raise PreconditionError(
            f"sigma_x_level({l}, {m_levels}): M mod 2^l = "
            f"{m_levels % (2 ** l)} != 0, the divisibility condition fails"
        )
    m = np.zeros((m_levels, m_levels), dtype=complex)
    for k in range(m_levels):
        if (k >> (l - 1)) & 1 == 0:
            m[k + 2 ** (l - 1), k] = 1.0
            m[k, k + 2 ** (l - 1)] = 1.0
    return Operator(f"Sx{l}", m, m_levels)


def qubit_dephasing_moos(num_qubits: int) -> Moos:
    """MOOS {sigma_x^(l)} protecting an L-qubit pure-dephasing system."""
    return Moos(tuple(pauli("x", q, num_qubits) for q in range(1, num_qubits + 1)))


def qubit_full_moos(num_qubits: int) -> Moos:
    """MOOS {sigma_z^(l), sigma_x^(l)} protecting all L-qubit operators."""
    ops = []
    for q in range(1, num_qubits + 1):
        ops.append(pauli("z", q, num_qubits))
        ops.append(pauli("x", q, num_qubits))
    return Moos(tuple(ops))


def mlevel_diagonal_moos(m_levels: int) -> Moos:
    """MOOS {Sigma_z^(l)} protecting all diagonal operators of an M-level
    system; contains ceil(log2 M) mutually commuting elements."""
    n_bits = max(1, math.ceil(math.log2(m_levels)))
    return Moos(tuple(sigma_z_level(l, m_levels) for l in range(1, n_bits + 1)))


def mlevel_full_moos(m_levels: int) -> Moos:
    """MOOS {Sigma_x^(l) | M mod 2^l = 0} plus {Sigma_z^(l) | 2^l <= M}."""
    ops = []
    l = 1
    while m_levels % (2**l) == 0:
        ops.append(sigma_x_level(l, m_levels))
        l += 1
    l = 1
    while 2**l <= m_levels:
        ops.append(sigma_z_level(l, m_levels))
        l += 1
    return Moos(tuple(ops))


def build_moos(spec: str) -> Moos:
    """Build a named MOOS from a 'family:size' string, e.g. 'qubit_full:2'."""
    try:
        family, _, arg = spec.partition(":")
        size = int(arg)
    except ValueError:
        raise PreconditionError(f"malformed MOOS spec {spec!r}, want 'family:size'")
    builders = {
        "qubit_dephasing": qubit_dephasing_moos,
        "qubit_full": qubit_full_moos,
        "mlevel_diagonal": mlevel_diagonal_moos,
        "mlevel_full": mlevel_full_moos,
    }
    if family not in builders:
        raise PreconditionError(
            f"unknown MOOS family {family!r}; choose from {sorted(builders)}"
        )
    return builders[family](size)


def _traceless(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d)


def _hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    # Trace inner product normalized by dimension; real for Hermitian inputs.
    return float(np.vdot(a, b).real / a.shape[0])


def lie_closure(moos: Moos, max_dim: int | None = None) -> list[Operator]:
    """Orthonormal basis of the real Lie algebra generated from the MOOS by
    i[. , .], anticommutation, and linear combination (traceless parts only).

    Gram-Schmidt against the current span uses the dimension-normalized trace
    inner product with rank tolerance 1e-9.
    """
    dim = moos.dim
    if max_dim is None:
        max_dim = dim * dim - 1
    if max_dim > dim * dim - 1:
        raise PreconditionError(
            f"max_dim {max_dim} exceeds dim^2 - 1 = {dim * dim - 1}"
        )
    tol = 1e-9
    basis: list[np.ndarray] = []

    def try_add(candidate: np.ndarray) -> bool:
        v = _traceless(candidate)
        for b in basis:
            v = v - _hs_inner(b, v) * b
        nrm = math.sqrt(max(_hs_inner(v, v), 0.0))
        if nrm <= tol:
            return False
        basis.append(v / nrm)
        return True

    for op in moos.elements:
        try_add(op.matrix)

    frontier = list(basis)
    while frontier:
        if len(basis) > max_dim:
            raise PreconditionError(
                f"Lie closure exceeded max_dim {max_dim}: reached {len(basis)}"
            )
        new: list[np.ndarray] = []
        for a in list(basis):
            for b in frontier:
                comm = 1j * (a @ b - b @ a)
                anti = a @ b + b @ a
                for cand in (comm, anti):
                    if try_add(cand):
                        new.append(basis[-1])
        frontier = new
    if len(basis) > max_dim:
        raise PreconditionError(
            f"Lie closure exceeded max_dim {max_dim}: reached {len(basis)}"
        )
    return [Operator(f"G{i}", m, dim) for i, m in enumerate(basis)]


def moos_to_json(moos: Moos) -> str:
    doc = {
        "dim": moos.dim,
        "elements": [
            {
                "label": op.label,
                "re": np.real(op.matrix).tolist(),
                "im": np.imag(op.matrix).tolist(),
            }
            for op in moos.elements
        ],
        "signature": moos.signature.tolist(),
    }
    return json.dumps(doc, separators=(",", ":"))


def _element_from_json(e: dict, dim: int) -> Operator:
    label = get_field(e, "label", str, "MOOS element")
    re_rows = get_list(e, "re", list, "MOOS element")
    im_rows = get_list(e, "im", list, "MOOS element")
    try:
        re = np.array(re_rows, dtype=float)
        im = np.array(im_rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(
            f"MOOS element {label!r}: re and im must be matrices of numbers: {exc}"
        ) from None
    if re.shape != im.shape or not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise PreconditionError(
            f"MOOS element {label!r}: re and im must be finite and of one shape"
        )
    return Operator(label, re + 1j * im, dim)


def moos_from_json(text: str) -> Moos:
    doc = load_object(text, "MOOS")
    dim = get_field(doc, "dim", int, "MOOS")
    return Moos(tuple(
        _element_from_json(e, dim) for e in get_list(doc, "elements", dict, "MOOS")
    ))
