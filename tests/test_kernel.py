"""Independent oracle for the batched propagation kernel.

Every propagator is rebuilt as a chronological product of
scipy.linalg.expm(-1j*H*dt) factors and lifted pulses, one pulse label at a
time, with no eigendecomposition, and every preservation error from it.

Each case also runs as two transformed schedules, ``conjugated`` by the
first MOOS element and ``hahn_echo`` of SKEW, a pulse outside the MOOS.
Besides the plain oracle, these are checked against a reference that
conjugates every free block, or wraps the echo around the whole run, by
hand.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from ddkit.linalg import UNITARY_TOL
from ddkit.operators import (
    Operator,
    mlevel_full_moos,
    pauli,
    qubit_dephasing_moos,
    qubit_full_moos,
)
from ddkit.sequences import cdd_nested, conjugated, hahn_echo, nudd
from ddkit.simulate import (
    ModelSpec,
    RunConfig,
    compile_program,
    order_scan,
    propagate,
    propagate_wrapped,
)

TOL = 1e-12
CONFIG = RunConfig(t_grid=(0.05, 0.2, 0.7), seeds=(0, 3))
# (X1 + Y1)/sqrt2 on a 4-dimensional system: a wrap outside every MOOS here.
SKEW = Operator("D", (pauli("x", 1, 2).matrix + pauli("y", 1, 2).matrix) / np.sqrt(2), 4)

_Q2, _D2, _M4 = qubit_full_moos(2), qubit_dephasing_moos(2), mlevel_full_moos(4)
CASES = {
    "cdd_nested(qubit_full(2),(2,2,2,2))": (
        cdd_nested(_Q2, (2, 2, 2, 2)), _Q2, ModelSpec("general", 4, 4, 1.0)),
    "nudd(qubit_dephasing(2),(2,3))": (
        nudd(_D2, (2, 3)), _D2, ModelSpec("pure_dephasing", 4, 4, 1.0)),
    "nudd(mlevel_full(4),(2,2,2,2))": (
        nudd(_M4, (2, 2, 2, 2)), _M4, ModelSpec("general", 4, 4, 1.0)),
}
# The schedule as it is, conjugated by the first MOOS element, and inside a
# Hahn echo of SKEW; the ids are the names of the propagation modes the two
# transforms replaced.
MODES = ("plain", "interval_conj", "wrap_op")


def transformed(schedule, moos, mode):
    """The schedule ``mode`` runs, and the extra operators its pulses use."""
    if mode == "interval_conj":
        return conjugated(schedule, moos.labels[0]), ()
    if mode == "wrap_op":
        return hahn_echo(schedule, SKEW.label), (SKEW,)
    return schedule, ()


def oracle_propagator(schedule, moos, model, total_time, conj=None, extra=()):
    """Propagator and net pulse, latest factor leftmost.  A label names one
    of ``extra``, else a MOOS element; ``conj`` conjugates every free block."""
    def lift(m):
        return np.kron(m, np.eye(model.bath_dim))

    named = {op.label: op for op in extra}
    u = np.eye(model.dim, dtype=complex)
    net = np.eye(moos.dim, dtype=complex)
    prev = 0.0
    stops = [(e.time, e.ops) for e in schedule.events] + [(1.0, schedule.closing_ops)]
    for time, ops in stops:
        free = expm(-1j * model.h_total * (time - prev) * total_time)
        if conj is None:
            u = free @ u
        else:
            u = lift(conj.matrix) @ free @ lift(conj.matrix) @ u
            net = conj.matrix @ conj.matrix @ net
        for lab in ops:
            pulse = (named[lab] if lab in named else moos.by_label(lab)).matrix
            u = lift(pulse) @ u
            net = pulse @ net
        prev = time
    return u, net


def oracle(schedule, moos, model, total_time, mode):
    """The plain oracle run on the transformed schedule."""
    sched, extra = transformed(schedule, moos, mode)
    return oracle_propagator(sched, moos, model, total_time, extra=extra)


def reference(schedule, moos, model, total_time, mode):
    """``mode`` built by hand around the original schedule: every free block
    conjugated by the first MOOS element, or the echo of SKEW around two
    half-time runs."""
    if mode == "wrap_op":
        half, net_half = oracle_propagator(schedule, moos, model, total_time / 2)
        w = np.kron(SKEW.matrix, np.eye(model.bath_dim))
        return w @ half @ w @ half, SKEW.matrix @ net_half @ SKEW.matrix @ net_half
    conj = moos.elements[0] if mode == "interval_conj" else None
    return oracle_propagator(schedule, moos, model, total_time, conj)


def oracle_error(u, net, omega, bath_dim):
    q = np.kron(omega.matrix, np.eye(bath_dim))
    p = np.kron(net, np.eye(bath_dim))
    return np.linalg.norm(u.conj().T @ q @ u - p.conj().T @ q @ p, ord=2)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_order_scan_errors_match_expm_oracle(case, mode):
    schedule, moos, spec = CASES[case]
    sched, extra = transformed(schedule, moos, mode)
    res = order_scan(sched, moos, spec, CONFIG, extra=extra)
    for j, seed in enumerate(CONFIG.seeds):
        model = spec.realize(seed)
        for i, t in enumerate(CONFIG.t_grid):
            u, net = oracle(schedule, moos, model, t, mode)
            ref_u, ref_net = reference(schedule, moos, model, t, mode)
            for op in moos.elements:
                got = res.errors[op.label][i, j]
                want = oracle_error(u, net, op, spec.bath_dim)
                assert abs(got - want) <= TOL, (op.label, t, seed)
                ref = oracle_error(ref_u, ref_net, op, spec.bath_dim)
                assert abs(got - ref) <= TOL, (op.label, t, seed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_propagate_matches_oracle_and_is_unitary(case, mode):
    schedule, moos, spec = CASES[case]
    model = spec.realize(1)
    t = CONFIG.t_grid[-1]
    if mode == "wrap_op":
        u, net = propagate_wrapped(schedule, model, moos, t, SKEW)
    else:
        sched, _ = transformed(schedule, moos, mode)
        u, net = propagate(sched, model, moos, t, return_net_pulse=True)
    want_u, want_net = oracle(schedule, moos, model, t, mode)
    assert np.linalg.norm(u - want_u, ord=2) <= TOL
    assert np.linalg.norm(net.matrix - want_net, ord=2) <= TOL
    assert np.linalg.norm(u.conj().T @ u - np.eye(model.dim), ord=2) <= UNITARY_TOL
    # the conjugated schedule leaves out the reference's leading C, a right
    # factor of the propagator and of the net pulse
    c = moos.elements[0].matrix if mode == "interval_conj" else np.eye(moos.dim)
    ref_u, ref_net = reference(schedule, moos, model, t, mode)
    assert np.linalg.norm(u @ np.kron(c, np.eye(spec.bath_dim)) - ref_u, ord=2) <= TOL
    assert np.linalg.norm(net.matrix @ c - ref_net, ord=2) <= TOL


@pytest.mark.parametrize("mode", MODES)
def test_order_scan_rerun_rows_identical(mode):
    schedule, moos, spec = CASES["nudd(mlevel_full(4),(2,2,2,2))"]
    sched, extra = transformed(schedule, moos, mode)
    first = order_scan(sched, moos, spec, CONFIG, extra=extra).rows()
    assert first == order_scan(sched, moos, spec, CONFIG, extra=extra).rows()


@pytest.mark.parametrize("mode", MODES)
def test_cdd_case_runs_through_grammar_rules(mode):
    # so the oracle tests above check the compressed path as well as the flat one
    schedule, moos, _ = CASES["cdd_nested(qubit_full(2),(2,2,2,2))"]
    sched, extra = transformed(schedule, moos, mode)
    assert compile_program(sched, moos, extra).grammar[1]
