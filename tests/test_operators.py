import itertools
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddkit
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
    with pytest.raises(PreconditionError, match="level-bit index 0 must be >= 1"):
        sigma_x_level(0, 4)  # used to end in "negative shift count"


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


_SUITES = [
    (qubit_dephasing_moos, 2, "qubit_dephasing:2"),
    (qubit_full_moos, 2, "qubit_full:2"),
    (mlevel_diagonal_moos, 5, "mlevel_diagonal:5"),
    (mlevel_full_moos, 6, "mlevel_full:6"),
]


@pytest.mark.parametrize("make, size, spec", _SUITES,
                         ids=[spec.partition(":")[0] for _, _, spec in _SUITES])
def test_standard_suite_is_one_object_per_size(make, size, spec):
    suite = make(size)
    assert make(size) is suite
    assert build_moos(spec) is suite
    assert make(size + 2) is not suite
    # one build that bypasses the cache validates to the same suite, writable
    uncached = make.__wrapped__(size)
    assert uncached is not suite and moos_to_json(uncached) == moos_to_json(suite)
    assert uncached.elements[0].matrix.flags.writeable


def test_rejected_suite_sizes_are_never_cached():
    operators._standard_moos.cache_clear()
    for _ in range(2):
        for make, size in ((qubit_full_moos, 0), (qubit_full_moos, 9),
                           (qubit_dephasing_moos, -1), (mlevel_diagonal_moos, 0),
                           (mlevel_full_moos, 257)):
            with pytest.raises(PreconditionError):
                make(size)
        with pytest.raises(PreconditionError):
            build_moos("qubit_full:9")
    assert operators._standard_moos.cache_info().currsize == 0


def test_shared_suite_arrays_are_read_only():
    suite = qubit_full_moos(2)
    for write in [lambda m=op.matrix: m.__setitem__((0, 0), 0.0) for op in suite.elements] + [
        lambda: suite.signature.__setitem__((0, 1), 1),
    ]:
        with pytest.raises(ValueError):
            write()
    assert suite.signature[0, 1] == -1


def test_user_built_suite_and_paulis_stay_writable():
    z, x = pauli("z", 1, 1), pauli("x", 1, 1)
    assert z.matrix.flags.writeable and x.matrix.flags.writeable
    moos = Moos((z, x))
    assert moos.elements[0].matrix is z.matrix and z.matrix.flags.writeable
    assert moos.signature.flags.writeable


def test_suite_cache_is_bounded():
    for m_levels in range(2, 2 + 3 * operators.MOOS_CACHE_SIZE):
        mlevel_diagonal_moos(m_levels)
    assert operators._standard_moos.cache_info().currsize <= operators.MOOS_CACHE_SIZE == 8


def test_acceptance_validates_each_distinct_suite_once(monkeypatch):
    from ddkit import acceptance

    validations = []
    real = Moos.__post_init__

    def counted(self):
        validations.append(self)
        return real(self)

    def run():
        del validations[:]
        details = [(r.number, r.passed, r.details) for r in acceptance.run_all()]
        return details, len(validations)

    monkeypatch.setattr(Moos, "__post_init__", counted)
    operators._standard_moos.cache_clear()
    cold, n_cold = run()
    warm, n_warm = run()
    distinct = operators._standard_moos.cache_info()
    assert distinct.misses == distinct.currsize == 6
    assert n_cold - n_warm == 6
    # criterion 7 validates its 1- and 3-element sets, criteria 8 and 9 four more
    assert n_warm == 6
    monkeypatch.setattr(operators, "_standard_moos", operators._standard_moos.__wrapped__)
    uncached, n_uncached = run()
    # 21 suite builds a run, each validated when uncached, none when warm
    assert n_uncached - n_warm == 21
    assert cold == warm == uncached


def test_moos_rejects_skew_pair():
    skew = Operator("D", (SX + SY) / np.sqrt(2), 2)
    with pytest.raises(PreconditionError) as err:
        Moos((pauli("x", 1, 1), skew))
    assert "neither commutes nor anticommutes" in str(err.value)


def test_moos_rejects_non_unitary_hermitian():
    with pytest.raises(PreconditionError):
        Moos((Operator("H", np.array([[1.0, 1.0], [1.0, 0.0]]), 2),))


@pytest.mark.parametrize("build, needle", [
    (lambda: Moos(()), "an MOOS must contain at least one operator"),
    (lambda: Moos((pauli("z", 1, 1), pauli("x", 1, 2))),
     "operator 'X1' acts on dimension 4, expected 2"),
    (lambda: pauli("x", 1, 9), "num_qubits must be in 1..8"),
    (lambda: sigma_z_level(3, 4), "level-bit index 3 out of range 1..2"),
    (lambda: sigma_z_level(0, 4), "level-bit index 0 out of range 1..2"),
], ids=["moos_empty", "moos_mixed_dimension", "pauli_nine_qubits", "sz_level_above",
        "sz_level_zero"])
def test_operator_builders_reject_bad_input(build, needle):
    with pytest.raises(PreconditionError) as err:
        build()
    assert needle in str(err.value)


def test_moos_rejects_two_operators_under_one_label():
    # used to validate; nudd then resolved both layers' pulses to Z
    # through by_label, and a scan reported one silently wrong fit
    with pytest.raises(PreconditionError) as err:
        Moos((Operator("A", SZ, 2), Operator("A", SX, 2)))
    assert str(err.value) == "two different operators are labelled 'A'"
    doc = json.loads(moos_to_json(qubit_full_moos(1)))
    doc["elements"][1]["label"] = "Z1"
    with pytest.raises(PreconditionError, match="two different operators are labelled 'Z1'"):
        moos_from_json(json.dumps(doc))


def test_moos_label_may_repeat_with_the_same_matrix():
    z1 = pauli("z", 1, 1)
    moos = Moos((z1, Operator("Z1", SZ.copy(), 2)))
    assert moos.labels == ("Z1", "Z1")
    assert np.array_equal(moos.signature, np.ones((2, 2)))


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


@pytest.mark.parametrize("build", [lambda: qubit_full_moos(6), lambda: mlevel_full_moos(256)],
                         ids=["qubit_full(6)", "mlevel_full(256)"])
def test_lie_closure_rejects_oversized_basis_before_any_work(build):
    moos = build()
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="more than MAX_CLOSURE_BYTES"):
        lie_closure(moos)
    assert time.perf_counter() - start < 0.5


def test_lie_closure_qubit_full_4_is_su16():
    assert len(lie_closure(qubit_full_moos(4))) == 255


def test_moos_closure_cli_rejects_qubit_full_8():
    # A subprocess with a timeout makes a runaway closure fail instead of
    # stalling the suite or exhausting memory.
    src = str(Path(ddkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ddkit.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "moos", "--spec", "qubit_full:8", "--closure"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "more than MAX_CLOSURE_BYTES" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_lie_closure_repeated_elements_take_no_part():
    # Z1 sixty times, then X1 and Z2: if the copies took part in larger
    # subsets the closure would try over half a million products.
    z1, x1, z2 = pauli("z", 1, 2), pauli("x", 1, 2), pauli("z", 2, 2)
    start = time.perf_counter()
    assert len(lie_closure(Moos((z1,) * 60 + (x1, z2)))) == 7
    assert time.perf_counter() - start < 2.0


def test_lie_closure_stops_after_a_size_adds_nothing():
    # D_i = I - 2 e_i for twenty i at d = 32: D_i D_j = D_i + D_j - I, so no
    # pair adds to the span of the elements, and the closure stops after the
    # pairs instead of trying all 2^20 - 1 subsets.
    ops = tuple(
        Operator(f"D{i}", np.diag(np.where(np.arange(32) == i, -1.0, 1.0)), 32)
        for i in range(20)
    )
    start = time.perf_counter()
    assert len(lie_closure(Moos(ops))) == 20
    assert time.perf_counter() - start < 2.0


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
    ops = _accept_set_8_qubits()
    calls = []
    real = linalg.spectral_norm

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(linalg, "spectral_norm", counting)
    monkeypatch.setattr(operators, "spectral_norm", counting)
    assert len(Moos(ops)) == 13
    assert calls == []



def _conjugated(ops, u):
    return tuple(Operator(op.label, u @ op.matrix @ u.conj().T, op.acts_on) for op in ops)


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _validation_sets(n):
    """Monomial and dense MOOS sets at d = 2^n."""
    rng = np.random.default_rng(n)
    d = 2**n
    paulis = tuple(pauli(a, q, n) for a, q in (("z", 1), ("x", 1), ("y", 2), ("z", n), ("x", n)))
    phase = np.diag(np.exp(2j * np.pi * rng.random(d)))
    phased = _conjugated(paulis, phase)
    skew = Operator("D", (pauli("x", 1, n).matrix + pauli("y", 1, n).matrix) / np.sqrt(2), d)
    scaled = Operator("S", 1.5 * pauli("z", 2, n).matrix, d)
    return {
        "pauli": paulis,
        "phased": phased,
        "phased_skew": phased + _conjugated((skew,), phase),
        "phased_scaled": phased[:2] + _conjugated((scaled,), phase) + phased[2:],
        "dense": _conjugated(paulis, _random_unitary(rng, d)),
    }


@pytest.mark.parametrize("n", [6, 7], ids=["d64", "d128"])
@pytest.mark.parametrize("kind", ["pauli", "phased", "phased_skew", "phased_scaled", "dense"])
def test_moos_validation_at_gather_dimensions_matches_spectral_norm_rule(n, kind):
    ops = _validation_sets(n)[kind]
    assert (operators._monomial(ops[0].matrix) is None) == (kind == "dense")
    want_sig, want_msg = _spectral_norm_validation(ops)
    if want_msg is not None:
        with pytest.raises(PreconditionError) as err:
            Moos(ops)
        assert str(err.value) == want_msg
    else:
        assert np.array_equal(Moos(ops).signature, want_sig)


def test_monomial_structure_check():
    rng = np.random.default_rng(1)
    perm = rng.permutation(8)
    vals = np.exp(2j * np.pi * rng.random(8))
    m = np.zeros((8, 8), dtype=complex)
    m[np.arange(8), perm] = vals
    src, row_vals = operators._monomial(m)
    assert np.array_equal(src, perm) and np.array_equal(row_vals, vals)

    two_in_row = m.copy()
    two_in_row[0, perm[1]] = 1.0
    zero_row = m.copy()
    zero_row[3] = 0
    zero_col = m.copy()
    zero_col[perm == 5, 5] = 0      # one nonzero per row, but column 5 is empty
    zero_col[perm == 5, 6] = 1.0
    for bad in (two_in_row, zero_row, zero_col):
        assert operators._monomial(bad) is None


def test_empty_operator_is_rejected_with_a_message():
    empty = Operator("E", np.zeros((0, 0)), 0)
    with pytest.raises(PreconditionError, match="^matrix dimension must be >= 1$"):
        Moos((empty,))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)],
                         ids=["nan", "inf", "-inf", "nan_imag"])
def test_operator_rejects_non_finite_entries(value):
    # used to reach the SVD and end in "LinAlgError: SVD did not converge"
    with pytest.raises(PreconditionError, match="operator 'N' has non-finite entries"):
        Operator("N", np.array([[value, 0], [0, 1]]), 2)


def _closure_mgs(moos):
    """The Lie closure by modified Gram-Schmidt with one inner product per
    basis element, trying every candidate, as before the batched closure."""
    dim = moos.dim

    def hs(a, b):
        return float(np.vdot(a, b).real / dim)

    basis = []

    def try_add(candidate):
        v = candidate - (np.trace(candidate) / dim) * np.eye(dim)
        for b in basis:
            v = v - hs(b, v) * b
        nrm = np.sqrt(max(hs(v, v), 0.0))
        if nrm <= 1e-9:
            return False
        basis.append(v / nrm)
        return True

    for op in moos.elements:
        try_add(op.matrix)
    frontier = list(basis)
    while frontier:
        new = []
        for a in list(basis):
            for b in frontier:
                for cand in (1j * (a @ b - b @ a), a @ b + b @ a):
                    if try_add(cand):
                        new.append(basis[-1])
        frontier = new
    return basis


def _closure_sets():
    rng = np.random.default_rng(3)
    sets = {f"qubit_full({n})": qubit_full_moos(n) for n in (1, 2, 3)}
    sets.update({f"mlevel_full({m})": mlevel_full_moos(m) for m in (4, 6, 8)})
    sets["qubit_dephasing(3)"] = qubit_dephasing_moos(3)
    for n in (2, 3):
        d = 2**n
        phase = np.diag(np.exp(2j * np.pi * rng.random(d)))
        sets[f"phase-conjugated qubit_full({n})"] = Moos(
            _conjugated(qubit_full_moos(n).elements, phase))
        sets[f"Q-conjugated qubit_full({n})"] = Moos(
            _conjugated(qubit_full_moos(n).elements, _random_unitary(rng, d)))
    # Distinct non-identity Pauli strings pairwise commute or anticommute,
    # and the anticommuting ones are traceless: every such set is an MOOS.
    pauli_rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        strings = list(itertools.product("IXYZ", repeat=n))[1:]
        for _ in range(3):
            size = pauli_rng.integers(1, min(6, len(strings)) + 1)
            picked = pauli_rng.choice(len(strings), size=size, replace=False)
            labels = ["".join(strings[i]) for i in picked]
            sets[f"pauli strings {','.join(labels)}"] = Moos(tuple(
                Operator(lab, _pauli_string(lab), 2**n) for lab in labels))
    return sets


def _pauli_string(label):
    m = np.eye(1, dtype=complex)
    for c in label:
        m = np.kron(m, {"I": np.eye(2), "X": SX, "Y": SY, "Z": SZ}[c])
    return m


def _float_rows(basis, dim):
    """Basis elements as rows of their float views, scaled so that the dot
    product of two rows is their dimension-normalized inner product."""
    return np.array([np.ravel(b).view(float) for b in basis]) / np.sqrt(dim)


_CLOSURE_SETS = _closure_sets()


@pytest.mark.parametrize("name, moos", list(_CLOSURE_SETS.items()), ids=list(_CLOSURE_SETS))
def test_lie_closure_matches_modified_gram_schmidt(name, moos):
    # The closure tries subset products where the reference tries commutator
    # rounds, so the two are different orthonormal bases of one span that
    # agree on the MOOS elements they both start from.
    want = _float_rows(_closure_mgs(moos), moos.dim)
    got = _float_rows([g.matrix for g in lie_closure(moos)], moos.dim)
    assert len(got) == len(want)
    assert np.max(np.abs(got.T @ got - want.T @ want)) <= 1e-12
    assert np.max(np.abs(got @ got.T - np.eye(len(got)))) <= 1e-12
    n = len(moos)
    assert np.max(np.abs(got[:n] - want[:n])) <= 1e-12


def _hermitian_phases(rng, perm):
    """Phases of a unitary Hermitian monomial on the involution ``perm``:
    a 2-cycle (r, s) gets v[r] in {+-1, +-i} and v[s] = conj(v[r]), a fixed
    point +-1."""
    vals = np.array([1, -1, 1j, -1j])[rng.integers(4, size=len(perm))]
    fixed = perm == np.arange(len(perm))
    vals[fixed] = vals[fixed].real + vals[fixed].imag
    low = np.arange(len(perm)) < perm
    vals[perm[low]] = vals[low].conj()
    return vals


@st.composite
def _phased_permutation_sets(draw, n):
    """Sets of d = 2^n phased permutations with entries +-1 and +-i: signed
    Pauli strings (which pairwise commute or anticommute), a string's
    permutation with fresh Hermitian phases, a random involution with them
    or with every entry 1, or from d = 4 on a 3-cycle (unitary, but neither
    Hermitian nor an involution).  One element may be moved by k HERM_TOL,
    k in 0.1, 0.5, 0.9, 1.1, 2 and 10: at one nonzero entry, at a zero
    entry, in the modulus of one nonzero entry, or on both entries of a
    2-cycle: by a phase that keeps it exactly unitary Hermitian, in a way
    that moves only its square, or in one that moves only its Hermiticity."""
    d = 2**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["pauli"] * 3 + ["rephased", "involution"] + ["cycle"] * (d >= 3)
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=6))
    ops = []
    for k, kind in enumerate(kinds):
        m = _pauli_string("".join(rng.choice(list("IXYZ"), size=n))) * rng.choice([1, -1])
        if kind != "pauli":
            perm = np.abs(m).argmax(axis=1)
            if kind == "involution":
                order = rng.permutation(d)
                cut = 2 * rng.integers(d // 2 + 1)
                perm = np.arange(d)
                perm[order[:cut:2]], perm[order[1:cut:2]] = order[1:cut:2], order[:cut:2]
            if kind == "cycle":
                perm = np.arange(d)
                three = rng.choice(d, size=3, replace=False)
                perm[three] = np.roll(three, 1)
            m = np.zeros((d, d), dtype=complex)
            plain = kind == "involution" and draw(st.booleans())
            m[np.arange(d), perm] = 1 if plain else _hermitian_phases(rng, perm)
        ops.append((f"{kind[0].upper()}{k}", m))
    scale = draw(st.sampled_from([None, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0]))
    if scale is not None:
        m = ops[draw(st.integers(0, len(ops) - 1))][1]
        cols = np.abs(m).argmax(axis=1)
        where = draw(st.sampled_from(
            ["entry", "zero", "modulus", "cycle", "cycle_square", "cycle_hermitian"]))
        cycle = np.flatnonzero(cols != np.arange(d))
        if where.startswith("cycle") and len(cycle):
            r = rng.choice(cycle)
            half = 1 + scale * HERM_TOL / 2
            z, w = {
                "cycle": (np.exp(1j * scale * HERM_TOL), np.exp(-1j * scale * HERM_TOL)),
                "cycle_square": (half, half),
                "cycle_hermitian": (half, 1 / half),
            }[where]
            m[r, cols[r]] *= z
            m[cols[r], r] *= w
        elif where == "modulus":
            m[rng.integers(d), :] *= 1 + scale * HERM_TOL * draw(st.sampled_from([1, -1]))
        else:
            r = rng.integers(d)
            c = cols[r] if where == "entry" else (cols[r] + 1) % d
            m[r, c] += scale * HERM_TOL * draw(st.sampled_from([1, -1, 1j, -1j]))
    return tuple(Operator(label, m, d) for label, m in ops)


def _validation_outcome(ops):
    try:
        return Moos(ops).signature.tolist()
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([1, 2, 3, 6]).flatmap(_phased_permutation_sets))
def test_monomial_pair_relation_matches_blas_path(ops):
    want_sig, want_msg = _spectral_norm_validation(ops)
    assert _validation_outcome(ops) == (want_msg or want_sig.tolist())


def _accept_set_8_qubits():
    """The 13-element 8-qubit Pauli set of test_first_order_size_cap."""
    return tuple(pauli("z", q, 8) for q in range(1, 9)) + tuple(
        pauli("x", q, 8) for q in range(1, 6)
    )


def test_monomial_pairs_run_no_norm_check(monkeypatch):
    # the 13-element 8-qubit set and every built-in construction, at every
    # dimension: their elements and pairs are all decided from the monomial
    # entries
    calls = []

    def counting(name):
        real = getattr(operators, name)

        def counted(m, *tol):
            calls.append((name, m.shape))
            return real(m, *tol)

        return counted

    for name in ("spectral_norm_le", "spectral_norm"):
        monkeypatch.setattr(operators, name, counting(name))
    # a suite already in the cache would not be validated again
    operators._standard_moos.cache_clear()
    assert len(Moos(_accept_set_8_qubits())) == 13
    for num_qubits in range(1, 9):
        assert len(qubit_full_moos(num_qubits)) == 2 * num_qubits
    assert len(qubit_dephasing_moos(3)) == 3
    assert len(mlevel_diagonal_moos(5)) == 3
    for m_levels in (4, 6, 256):
        assert mlevel_full_moos(m_levels).dim == m_levels
    assert calls == []


def test_monomial_validation_allocates_no_square_matrix():
    # with each element's square gathered into a (3, d, d) work buffer and
    # m - m^dag formed per element, this peaked at 5.6 MB
    ops = _accept_set_8_qubits()
    tracemalloc.start()
    try:
        assert len(Moos(ops)) == 13
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 16


def _overflowing_elements():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return {
        "dense": (pauli("z", 1, 3), Operator("H", 1e200 * (a + a.conj().T), 8)),
        "monomial_d8": (pauli("z", 1, 3), Operator("H", 1e200 * pauli("x", 1, 3).matrix, 8)),
        "monomial_d64": (pauli("z", 1, 6), Operator("H", 1e200 * pauli("x", 1, 6).matrix, 64)),
    }


@pytest.mark.parametrize("kind", ["dense", "monomial_d8", "monomial_d64"])
def test_element_whose_square_overflows_is_rejected_quietly(kind, capfd):
    # used to end in "SVD did not converge", or to print a LAPACK DLASCL
    # error and report |Omega^2 - I| = nan after an overflow warning
    with pytest.raises(PreconditionError) as err:
        Moos(_overflowing_elements()[kind])
    assert str(err.value) == (
        "operator 'H' is not unitary Hermitian: "
        "|Omega^2 - I| = inf, |Omega - Omega^dag| = 0.000e+00"
    )
    assert capfd.readouterr() == ("", "")
