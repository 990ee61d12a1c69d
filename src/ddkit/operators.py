"""Construction and validation of mutually-orthogonal operation sets (MOOS).

An MOOS element is a unitary Hermitian operator; every pair of elements
either commutes or anticommutes.  This module builds the standard qubit and
M-level constructions, validates custom sets, and computes the Lie-algebra
closure of an MOOS (the full set of operators that get protected along with
the MOOS itself).

Every built-in construction is monomial: one nonzero per row and per
column, a permutation with phases.  At every dimension, validation decides
a monomial element, and a pair of monomial elements, in O(d) from their
entries without forming a d x d matrix.  A monomial Omega is unitary
Hermitian only if its permutation is an involution; then Omega^2 - I is
diagonal and Omega - Omega^dag is monomial, and the spectral norm of either
is the largest modulus of its d entries.  When both products of a pair put
row r's entry in the same column, AB -+ BA is monomial in the same way.
Every other element is checked by forming its square, and every other pair
by forming its products, with BLAS.  Every decision and message is that of
the spectral-norm rule on the dense matrices.

``lie_closure`` spans the subset products of the MOOS, which for an MOOS is
the generated Lie algebra; a basis that could exceed ``MAX_CLOSURE_BYTES``
is rejected before any product is formed.

The four standard suites (``qubit_dephasing_moos``, ``qubit_full_moos``,
``mlevel_diagonal_moos``, ``mlevel_full_moos``, and ``build_moos``, which
names them) build and validate each distinct (family, size) once per process
and hand the same ``Moos`` to every later caller; their least recently used
entries are dropped beyond ``MOOS_CACHE_SIZE``.  A size that is rejected
raises on every call and is never kept.  A shared suite is immutable: each
element's ``matrix`` and the suite's ``signature`` are read-only.  A suite
built with ``Moos(...)`` and an operator from ``pauli()`` stay writable.  The
largest suite, 16 elements at d = 256, holds 16 MiB, so the cache holds at
most ``MOOS_CACHE_SIZE`` * 16 MiB = 128 MiB.

Qubit ordering convention: qubit 1 is the slowest (leftmost) Kronecker
factor.
"""

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import combinations

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
    "composed_pulse",
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

# Largest basis lie_closure allocates, in bytes; simulate.BATCH_BYTES's size.
MAX_CLOSURE_BYTES = 2**25
# Standard suites kept per process: the 6 distinct ones an acceptance run
# draws, and two more.
MOOS_CACHE_SIZE = 8


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
        if not np.isfinite(m).all():
            raise PreconditionError(f"operator {self.label!r} has non-finite entries")
        object.__setattr__(self, "matrix", m)

    def unitary_hermitian_deviation(self) -> tuple[float, float]:
        """Residual norms of (Omega^2 - I) and (Omega - Omega^dag); inf for a
        residual that overflows."""
        m = self.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            return (
                _residual_norm(m @ m - np.eye(self.acts_on)),
                _residual_norm(m - m.conj().T),
            )


def _residual_norm(m: np.ndarray) -> float:
    """Spectral norm of m, or inf without an SVD if m has a non-finite entry."""
    return spectral_norm(m) if np.isfinite(m).all() else math.inf


def check_labels(ops) -> None:
    """Reject two different operators under one label.  A label may repeat
    with the same matrix; matrices are compared only when a label repeats."""
    named = {}
    for op in ops:
        prev = named.setdefault(op.label, op.matrix)
        if prev is not op.matrix and not np.array_equal(prev, op.matrix):
            raise PreconditionError(f"two different operators are labelled {op.label!r}")


def check_dimension(ops, dim: int, what: str) -> None:
    """Reject an operator that does not act on the ``what`` dimension ``dim``."""
    for op in ops:
        if op.acts_on != dim:
            raise PreconditionError(
                f"operator {op.label!r} acts on dimension {op.acts_on}, "
                f"{what} dimension is {dim}"
            )


def _monomial(m: np.ndarray):
    """Describe a matrix M with exactly one nonzero per row and per column as
    (src, vals): row r holds vals[r] in column src[r].  None for any other
    matrix, the empty one included."""
    d = len(m)
    nz = m != 0
    if not d or np.count_nonzero(nz) != d:
        return None
    rows = np.arange(d)
    src = nz.argmax(axis=1)
    # d nonzeros, one at (r, src[r]) in every row, fill every column only if
    # src is a permutation.
    if not (nz[rows, src].all() and np.bincount(src, minlength=d).all()):
        return None
    return src, m[rows, src]


def _is_unitary_hermitian(m: np.ndarray, mono) -> bool:
    """Whether |m^2 - I| and |m - m^dag| are at most HERM_TOL; False if m^2
    overflows.

    When ``mono`` describes m, row r of m^2 holds v[r] v[src[r]] in column
    src[src[r]].  If src is not an involution, some row of m^2 - I holds -1
    and an entry of m^2 off the diagonal, so its norm is at least 1.
    Otherwise m^2 - I is diagonal with entries v v[src] - 1, and m - m^dag
    is monomial on m's pattern with entries v - conj(v[src]): each norm is
    the largest modulus of those d entries.  Any other m has its square
    formed by BLAS.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if mono is not None:
            src, v = mono
            return bool(
                np.array_equal(src[src], np.arange(len(src)))
                and np.abs(v * v[src] - 1).max() <= HERM_TOL
                and np.abs(v - v[src].conj()).max() <= HERM_TOL
            )
        sq = m @ m
        diag = np.arange(len(m))
        sq[diag, diag] -= 1
        return bool(
            np.isfinite(sq).all()
            and spectral_norm_le(sq, HERM_TOL)
            and spectral_norm_le(m - m.conj().T, HERM_TOL)
        )


def _pair_relation(a: Operator, b: Operator, monos):
    """Return (+1, None) for a commuting pair, (-1, None) for an
    anticommuting one, or (0, residuals) if neither holds to HERM_TOL, with
    the residual norms (|[A,B]|, |{A,B}|) computed for that case only.

    ``monos`` holds the ``_monomial`` descriptions of A and B (or None).
    When both are monomial, row r of AB holds x[r] in column
    src_b[src_a[r]] and row r of BA holds y[r] in column src_a[src_b[r]].
    If the two column maps agree, AB -+ BA is monomial, its spectral norm
    is exactly max |x -+ y|, and a commuting or anticommuting pair is
    decided in O(d).  Otherwise some row of AB -+ BA holds two entries of
    modulus ~1 (both factors are unitary), so neither relation holds; that
    case, a pair that agrees in its maps but is neither, and every pair with
    a factor that is not monomial form both products by BLAS.
    """
    mono_a, mono_b = monos
    if mono_a is not None and mono_b is not None:
        (src_a, vals_a), (src_b, vals_b) = mono_a, mono_b
        if np.array_equal(src_b[src_a], src_a[src_b]):
            x = vals_a * vals_b[src_a]
            y = vals_b * vals_a[src_b]
            if np.abs(x - y).max() <= HERM_TOL:
                return 1, None
            if np.abs(x + y).max() <= HERM_TOL:
                return -1, None
    ab, ba = a.matrix @ b.matrix, b.matrix @ a.matrix
    if spectral_norm_le(ab - ba, HERM_TOL):
        return 1, None
    if spectral_norm_le(ab + ba, HERM_TOL):
        return -1, None
    return 0, (spectral_norm(ab - ba), spectral_norm(ab + ba))


@dataclass(frozen=True)
class Moos:
    """A validated mutually-orthogonal operation set.

    ``signature[i, j]`` is +1 if elements i and j commute and -1 if they
    anticommute.  Validation enforces one matrix per label
    (``check_labels``), the unitary-Hermitian property of every element, the
    pairwise (anti)commutation property, and tracelessness of both members
    of every anticommuting pair.
    """

    elements: tuple[Operator, ...]
    signature: np.ndarray = field(init=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise PreconditionError("an MOOS must contain at least one operator")
        dim = elements[0].acts_on
        monos = []
        for op in elements:
            if op.acts_on != dim:
                raise PreconditionError(
                    f"operator {op.label!r} acts on dimension {op.acts_on}, "
                    f"expected {dim}"
                )
            monos.append(_monomial(op.matrix))
            if not _is_unitary_hermitian(op.matrix, monos[-1]):
                d_sq, d_h = op.unitary_hermitian_deviation()
                raise PreconditionError(
                    f"operator {op.label!r} is not unitary Hermitian: "
                    f"|Omega^2 - I| = {d_sq:.3e}, |Omega - Omega^dag| = {d_h:.3e}"
                )
        check_labels(elements)
        n = len(elements)
        sig = np.ones((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                rel, residuals = _pair_relation(
                    elements[i], elements[j], (monos[i], monos[j])
                )
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
        raise PreconditionError(f"no MOOS element labelled {label!r}")


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


def _level_bits(m_levels: int) -> int:
    """Number of binary digits ceil(log2 M), at least 1, of a level count M
    checked to lie in 1..MAX_LEVELS."""
    if m_levels < 1:
        raise PreconditionError(f"system dimension must be >= 1, got {m_levels}")
    if m_levels > MAX_LEVELS:
        raise PreconditionError(f"system dimension must be <= {MAX_LEVELS}")
    return max(1, math.ceil(math.log2(m_levels)))


def sigma_z_level(l: int, m_levels: int) -> Operator:
    """Diagonal M-level operator with entry (-1)^(m_l) at basis state m,
    where m_l is the l-th binary digit of m."""
    n_bits = _level_bits(m_levels)
    if not (1 <= l <= n_bits):
        raise PreconditionError(f"level-bit index {l} out of range 1..{n_bits}")
    diag = np.array(
        [1.0 if (m >> (l - 1)) & 1 == 0 else -1.0 for m in range(m_levels)]
    )
    return Operator(f"Sz{l}", np.diag(diag).astype(complex), m_levels)


def sigma_x_level(l: int, m_levels: int) -> Operator:
    """M-level permutation operator swapping |m> and |m + 2^(l-1)> for every
    m whose l-th bit is zero.  Requires M divisible by 2^l."""
    _level_bits(m_levels)
    if l < 1:
        raise PreconditionError(f"level-bit index {l} must be >= 1")
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


@functools.lru_cache(maxsize=MOOS_CACHE_SIZE, typed=True)
def _standard_moos(build, size: int) -> Moos:
    """``build(size)``, validated once and made read-only; one object per
    (constructor, size) while it stays in the cache."""
    moos = build(size)
    for op in moos.elements:
        op.matrix.flags.writeable = False
    moos.signature.flags.writeable = False
    return moos


def _shared(build):
    """A standard suite constructor, made to return the cached suite."""

    @functools.wraps(build)
    def shared(size: int) -> Moos:
        return _standard_moos(build, size)

    return shared


@_shared
def qubit_dephasing_moos(num_qubits: int) -> Moos:
    """MOOS {sigma_x^(l)} protecting an L-qubit pure-dephasing system."""
    return Moos(tuple(pauli("x", q, num_qubits) for q in range(1, num_qubits + 1)))


@_shared
def qubit_full_moos(num_qubits: int) -> Moos:
    """MOOS {sigma_z^(l), sigma_x^(l)} protecting all L-qubit operators."""
    ops = []
    for q in range(1, num_qubits + 1):
        ops.append(pauli("z", q, num_qubits))
        ops.append(pauli("x", q, num_qubits))
    return Moos(tuple(ops))


@_shared
def mlevel_diagonal_moos(m_levels: int) -> Moos:
    """MOOS {Sigma_z^(l)} protecting all diagonal operators of an M-level
    system; contains ceil(log2 M) mutually commuting elements."""
    n_bits = _level_bits(m_levels)
    return Moos(tuple(sigma_z_level(l, m_levels) for l in range(1, n_bits + 1)))


@_shared
def mlevel_full_moos(m_levels: int) -> Moos:
    """MOOS {Sigma_x^(l) | M mod 2^l = 0} plus {Sigma_z^(l) | 2^l <= M}."""
    _level_bits(m_levels)
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


def composed_pulse(ops) -> Operator:
    """Product of coinciding pulse operators, phase-fixed to be unitary
    Hermitian (a product of pairwise (anti)commuting involutions is Hermitian
    or anti-Hermitian; the latter absorbs a factor i)."""
    if not ops:
        raise PreconditionError("need at least one operator to compose")
    dim = ops[0].acts_on
    p = np.eye(dim, dtype=complex)
    for op in ops:
        p = op.matrix @ p
    label = "*".join(op.label for op in ops)
    if spectral_norm_le(p - p.conj().T, HERM_TOL):
        return Operator(label, p, dim)
    if spectral_norm_le(p + p.conj().T, HERM_TOL):
        return Operator(label, 1j * p, dim)
    raise PreconditionError(
        f"composed pulse {label!r} is neither Hermitian nor anti-Hermitian"
    )


def lie_closure(moos: Moos) -> list[Operator]:
    """Orthonormal basis of the real Lie algebra generated from the MOOS by
    i[. , .], anticommutation, and linear combination (traceless parts only).

    For an MOOS that algebra is the span of the subset products:
    {a, b} = 2ab for a commuting pair, i[a, b] = 2i ab for an anticommuting
    one.  Candidates are the products of nonempty subsets, made Hermitian by
    ``composed_pulse``, by subset size and in ``itertools.combinations``
    order, so the MOOS elements come first; an element in the span of those
    before it joins no larger subset, as its products add nothing.
    Gram-Schmidt against the current span (projected twice) uses the real
    part of the dimension-normalized trace inner product with rank tolerance
    1e-9.  The closure stops at the full span of d^2 - 1 traceless
    directions, or after a subset size adds nothing, as no larger one can.
    The basis, of at most min(2^n - 1, d^2 - 1) elements for n elements, is
    allocated once, and one that could exceed ``MAX_CLOSURE_BYTES`` is
    rejected before any product is formed.
    """
    dim, n = moos.dim, len(moos)
    full = dim * dim - 1
    size = min(2**n - 1, full)
    if size * dim * dim * 16 > MAX_CLOSURE_BYTES:
        raise PreconditionError(
            f"Lie closure of {n} elements at dimension {dim} can reach {size} basis "
            f"elements, {size * dim * dim * 16} bytes, more than MAX_CLOSURE_BYTES = 2^25"
        )
    tol = 1e-9
    eye = np.eye(dim)
    # Row i is basis element i, flattened.
    basis = np.empty((size, dim * dim), dtype=complex)
    k = 0

    def add(cand: np.ndarray) -> bool:
        nonlocal k
        v = (cand - (np.trace(cand) / dim) * eye).reshape(-1).view(float)
        # Re tr(b^dag v) is the dot product of the float views of b and v.
        rows = basis[:k].view(float)
        for _ in range(2):
            v -= (rows @ v / dim) @ rows
        nrm = math.sqrt(max(v @ v / dim, 0.0))
        if nrm <= tol:
            return False
        basis[k] = v.view(complex) / nrm
        k += 1
        return True

    gens = [op for op in moos.elements if add(op.matrix)]
    for r in range(2, len(gens) + 1):
        grew = False
        for subset in combinations(gens, r):
            if k == full:
                break
            grew |= add(composed_pulse(subset).matrix)
        if k == full or not grew:
            break
    return [Operator(f"G{i}", m, dim) for i, m in enumerate(basis[:k].reshape(k, dim, dim))]


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
