import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkit import linalg, operators
from ddkit.errors import PreconditionError
from ddkit.linalg import HERM_TOL, spectral_norm
from ddkit.operators import (
    Moos,
    Operator,
    build_moos,
    lie_closure,
    mlevel_diagonal_moos,
    mlevel_full_moos,
    moos_from_json,
    moos_to_json,
    pauli,
    qubit_dephasing_moos,
    qubit_full_moos,
    sigma_x_level,
    sigma_z_level,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_pauli_single_qubit():
    assert np.array_equal(pauli("x", 1, 1).matrix, SX)
    assert np.array_equal(pauli("z", 1, 1).matrix, SZ)


def test_pauli_embedding_ordering():
    # qubit 1 is the leftmost factor, so Z on qubit 2 of 2 is I (x) sigma_z
    assert np.array_equal(pauli("z", 2, 2).matrix, np.diag([1, -1, 1, -1]).astype(complex))
    assert np.array_equal(pauli("z", 1, 2).matrix, np.diag([1, 1, -1, -1]).astype(complex))


def test_pauli_xy_anticommute():
    x, y = pauli("x", 1, 1).matrix, pauli("y", 1, 1).matrix
    assert spectral_norm(x @ y + y @ x) == 0.0


def test_pauli_range_checks():
    with pytest.raises(PreconditionError):
        pauli("w", 1, 1)
    with pytest.raises(PreconditionError):
        pauli("x", 3, 2)


def test_sigma_z_level_values():
    assert np.array_equal(np.diag(sigma_z_level(1, 3).matrix).real, [1, -1, 1])
    assert np.array_equal(np.diag(sigma_z_level(2, 4).matrix).real, [1, 1, -1, -1])
    assert np.array_equal(sigma_z_level(1, 2).matrix, SZ)


def test_sigma_x_level_swaps():
    m = sigma_x_level(1, 4).matrix
    for a, b in [(0, 1), (2, 3)]:
        assert m[a, b] == 1 and m[b, a] == 1
    assert np.count_nonzero(m) == 4


def test_sigma_x_level_divisibility():
    with pytest.raises(PreconditionError):
        sigma_x_level(1, 3)


def test_level_operators_anticommute():
    x1 = sigma_x_level(1, 4).matrix
    z1 = sigma_z_level(1, 4).matrix
    assert spectral_norm(x1 @ z1 + z1 @ x1) == 0.0


def test_level_operators_reduce_to_paulis():
    # for M = 2^L the level operators coincide with the qubit Paulis, with
    # the level index counting from the fast (rightmost) factor
    assert np.array_equal(sigma_z_level(1, 4).matrix, pauli("z", 2, 2).matrix)
    assert np.array_equal(sigma_z_level(2, 4).matrix, pauli("z", 1, 2).matrix)
    assert np.array_equal(sigma_x_level(1, 4).matrix, pauli("x", 2, 2).matrix)


def test_qubit_full_moos_signature():
    moos = qubit_full_moos(2)
    assert moos.labels == ("Z1", "X1", "Z2", "X2")
    sig = moos.signature
    by = {lab: i for i, lab in enumerate(moos.labels)}
    assert sig[by["Z1"], by["X1"]] == -1
    assert sig[by["Z2"], by["X2"]] == -1
    for a in ("Z1", "X1"):
        for b in ("Z2", "X2"):
            assert sig[by[a], by[b]] == 1


def test_qubit_dephasing_moos_commuting():
    moos = qubit_dephasing_moos(3)
    assert len(moos) == 3
    assert np.all(moos.signature == 1)


def test_mlevel_diagonal_count():
    assert len(mlevel_diagonal_moos(5)) == 3  # ceil(log2 5)
    assert np.all(mlevel_diagonal_moos(5).signature == 1)


def test_mlevel_full_divisibility_gating():
    labels = mlevel_full_moos(6).labels
    assert "Sx1" in labels and "Sx2" not in labels  # 6 mod 4 != 0
    labels8 = mlevel_full_moos(8).labels
    assert {"Sx1", "Sx2", "Sx3"} <= set(labels8)


def test_build_moos_dispatch():
    assert len(build_moos("qubit_full:2")) == 4
    with pytest.raises(PreconditionError):
        build_moos("nosuch:3")
    with pytest.raises(PreconditionError):
        build_moos("qubit_full")


def test_moos_rejects_skew_pair():
    skew = Operator("D", (SX + SY) / np.sqrt(2), 2)
    with pytest.raises(PreconditionError) as err:
        Moos((pauli("x", 1, 1), skew))
    assert "neither commutes nor anticommutes" in str(err.value)


def test_moos_rejects_non_unitary_hermitian():
    with pytest.raises(PreconditionError):
        Moos((Operator("H", np.array([[1.0, 1.0], [1.0, 0.0]]), 2),))


def test_moos_anticommuting_members_traceless():
    for moos in (qubit_full_moos(2), mlevel_full_moos(4), mlevel_full_moos(6)):
        n = len(moos)
        for i in range(n):
            for j in range(i + 1, n):
                if moos.signature[i, j] == -1:
                    for op in (moos.elements[i], moos.elements[j]):
                        assert abs(np.trace(op.matrix)) <= 1e-12


def test_lie_closure_dimensions():
    assert len(lie_closure(Moos((pauli("z", 1, 1),)))) == 1
    assert len(lie_closure(Moos((pauli("x", 1, 1), pauli("y", 1, 1))))) == 3
    assert len(lie_closure(qubit_full_moos(1))) == 3
    assert len(lie_closure(qubit_full_moos(2))) == 15


def test_lie_closure_orthonormal():
    basis = lie_closure(qubit_full_moos(1))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            inner = np.trace(a.matrix.conj().T @ b.matrix) / 2
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_lie_closure_generator_order_invariant():
    a = len(lie_closure(Moos((pauli("z", 1, 1), pauli("x", 1, 1)))))
    b = len(lie_closure(Moos((pauli("x", 1, 1), pauli("z", 1, 1)))))
    assert a == b == 3


def test_lie_closure_max_dim_cap():
    with pytest.raises(PreconditionError):
        lie_closure(qubit_full_moos(2), max_dim=5)


def test_moos_json_round_trip():
    moos = qubit_full_moos(2)
    again = moos_from_json(moos_to_json(moos))
    assert again.labels == moos.labels
    for a, b in zip(moos.elements, again.elements):
        assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(again.signature, moos.signature)
    assert not any(ch.isspace() for ch in moos_to_json(moos))  # written compact


def _moos_text(element=None, **changes):
    doc = json.loads(moos_to_json(qubit_full_moos(1)))
    doc.update(changes)
    if element is not None:
        doc["elements"][0] = element
    return json.dumps(doc)


@pytest.mark.parametrize("text, needle", [
    ('{"dim": 2, "elements": [', "malformed MOOS JSON"),
    ("3", "must be an object, got int"),
    (json.dumps({"dim": 2}), "missing key 'elements'"),
    (_moos_text(element={"label": "Z1", "re": [[1, 0], [0, -1]]}), "missing key 'im'"),
    (_moos_text(dim="2"), "'dim' must be an integer"),
    (_moos_text(element={"label": 3, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]}),
     "'label' must be a string"),
    (_moos_text(element={"label": "Z1", "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}),
     "re and im must be matrices of numbers"),
    (_moos_text(element={"label": "Z1", "re": [[1, 0], [0, -1]], "im": [[0, 0]]}),
     "re and im must be finite and of one shape"),
    (_moos_text(element={"label": "Z1", "re": [[1, "a"], [0, -1]], "im": [[0, 0], [0, 0]]}),
     "re and im must be matrices of numbers"),
], ids=["truncated", "not_object", "no_elements", "element_no_im", "dim_str", "label_int",
        "ragged", "im_broadcast", "entry_str"])
def test_moos_from_json_rejects_bad_input(text, needle):
    with pytest.raises(PreconditionError) as err:
        moos_from_json(text)
    assert needle in str(err.value)


def _spectral_norm_validation(elements):
    """MOOS validation decided by spectral norms alone, as before Frobenius
    bounds: (signature, None) for a valid set, (None, message) otherwise."""
    for op in elements:
        m = op.matrix
        d_sq = spectral_norm(m @ m - np.eye(op.acts_on))
        d_h = spectral_norm(m - m.conj().T)
        if d_sq > HERM_TOL or d_h > HERM_TOL:
            return None, (
                f"operator {op.label!r} is not unitary Hermitian: "
                f"|Omega^2 - I| = {d_sq:.3e}, |Omega - Omega^dag| = {d_h:.3e}"
            )
    n = len(elements)
    sig = np.ones((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = elements[i], elements[j]
            ab, ba = a.matrix @ b.matrix, b.matrix @ a.matrix
            comm, anti = spectral_norm(ab - ba), spectral_norm(ab + ba)
            if comm <= HERM_TOL:
                rel = 1
            elif anti <= HERM_TOL:
                rel = -1
            else:
                return None, (
                    f"pair ({a.label!r}, {b.label!r}) neither commutes nor "
                    f"anticommutes: |[A,B]| = {comm:.3e}, |{{A,B}}| = {anti:.3e}"
                )
            sig[i, j] = sig[j, i] = rel
            if rel == -1:
                for op in (a, b):
                    tr = abs(np.trace(op.matrix))
                    if tr > HERM_TOL:
                        return None, (
                            f"anticommuting MOOS member {op.label!r} has "
                            f"nonzero trace {tr:.3e}"
                        )
    return sig, None


@st.composite
def _pauli_sets(draw):
    """A random ordered subset of the 1-3-qubit X, Y, Z Paulis, possibly with
    one extra element: the skewed (X+Y)/sqrt2 on some qubit, or a scaled Z
    that is not unitary."""
    n = draw(st.integers(1, 3))
    pairs = [(a, q) for a in "xyz" for q in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    ops = [pauli(a, q, n) for a, q in chosen]
    extra = draw(st.sampled_from([None, "skew", "scaled"]))
    if extra is not None:
        q = draw(st.integers(1, n))
        if extra == "skew":
            m = (pauli("x", q, n).matrix + pauli("y", q, n).matrix) / np.sqrt(2)
            op = Operator("D", m, 2**n)
        else:
            op = Operator("S", 1.5 * pauli("z", q, n).matrix, 2**n)
        ops.insert(draw(st.integers(0, len(ops))), op)
    return tuple(ops)


@settings(max_examples=300, deadline=None)
@given(_pauli_sets())
def test_moos_decisions_match_spectral_norm_rule(ops):
    want_sig, want_msg = _spectral_norm_validation(ops)
    if want_msg is not None:
        with pytest.raises(PreconditionError) as err:
            Moos(ops)
        assert str(err.value) == want_msg
    else:
        assert np.array_equal(Moos(ops).signature, want_sig)


def test_moos_validation_of_pauli_set_runs_no_svd(monkeypatch):
    # the 13-element 8-qubit set of test_first_order_size_cap
    ops = tuple(pauli("z", q, 8) for q in range(1, 9)) + tuple(
        pauli("x", q, 8) for q in range(1, 6)
    )
    calls = []
    real = linalg.spectral_norm

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(linalg, "spectral_norm", counting)
    monkeypatch.setattr(operators, "spectral_norm", counting)
    assert len(Moos(ops)) == 13
    assert calls == []

