"""Inputs, passes and oracles of the four benchmark workloads.

Each workload is a ``Workload`` of three functions:

- ``setup(seed)`` builds the inputs of one pass (MOOS sets, compiled
  schedules, model specs, time and duration grids) and is timed as set-up;
- ``run(inputs)`` is one pass and returns its outputs;
- ``check(inputs, outputs)`` returns one ``(label, ok, detail)`` triple per
  checked operation;
- ``sizes(inputs)`` gives the per-pass input sizes for the run record.

Every call into the library goes through a module attribute
(``simulate.order_scan``, not a name imported once), so the traced run can
wrap the call at the layer boundary.
"""

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ddkit import acceptance, operators, pulseshape, sequences, simulate
from ddkit import model as model_mod
from ddkit.errors import PreconditionError

N_SEEDS = 8           # model seeds seed .. seed+7 for scan and pulse
SLOPE_TOL = 0.3       # paper bound: fitted slope within 0.3 of order + 1
REF_TOL = 1e-3        # agreement with the reference slopes at seed 0
REF_SEED = 0          # the library's default seeds are 0..7


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    sizes: Callable     # per-pass input sizes for the run record
    fixed_inputs: bool  # inputs do not depend on the seed


# ---------------------------------------------------------------------------
# scan: the five ROADMAP order scans on the default grid


# (case, MOOS qubits, compiler, scanned operators or None for all, slope targets)
SCAN_CASES = (
    ("udd(4)", 1, lambda m: sequences.udd_schedule("Z1", 4), ("Z1",),
     {"Z1": 5}),
    ("nudd(2,3)", 1, lambda m: sequences.nudd(m, (2, 3)), None,
     {"Z1": 3, "X1": 4}),
    ("cdd_uniform(3)", 1, lambda m: sequences.cdd_uniform(m, 3), None,
     {"Z1": 4, "X1": 4}),
    ("nudd(2,2,2,3)", 2, lambda m: sequences.nudd(m, (2, 2, 2, 3)), None,
     {"Z1": 3, "X1": 3, "Z2": 3, "X2": 4}),
    ("cdd_nested(2,2,2,2)", 2, lambda m: sequences.cdd_nested(m, (2, 2, 2, 2)), None,
     {"Z1": 3, "X1": 3, "Z2": 3, "X2": 3}),
)

# Slopes measured with model seeds 0..7 at the commit that introduced the
# benchmark; a later change must reproduce them to REF_TOL.
SCAN_REFERENCE = {
    "udd(4)": {"Z1": 4.998024},
    "nudd(2,3)": {"Z1": 2.999568, "X1": 3.999030},
    "cdd_uniform(3)": {"Z1": 3.995312, "X1": 3.998208},
    "nudd(2,2,2,3)": {"Z1": 2.999919, "X1": 3.000285, "Z2": 2.999913, "X2": 3.998875},
    "cdd_nested(2,2,2,2)": {"Z1": 2.999812, "X1": 2.999850, "Z2": 2.999761, "X2": 2.999809},
}


def setup_scan(seed):
    moos = {1: operators.qubit_full_moos(1), 2: operators.qubit_full_moos(2)}
    specs = {n: simulate.ModelSpec("general", 2**n, 4, 1.0) for n in moos}
    config = simulate.RunConfig(seeds=tuple(range(seed, seed + N_SEEDS)), threads=1)
    cases = []
    for name, n_qubits, compile_fn, labels, targets in SCAN_CASES:
        m = moos[n_qubits]
        ops = None if labels is None else [m.by_label(lab) for lab in labels]
        cases.append((name, compile_fn(m), m, specs[n_qubits], ops, targets))
    return {"seed": seed, "config": config, "cases": cases}


def run_scan(inputs):
    out = {}
    for name, sched, m, spec, ops, _ in inputs["cases"]:
        res = simulate.order_scan(sched, m, spec, inputs["config"], operators=ops)
        out[name] = {lab: (fit.status, fit.slope) for lab, fit in res.fits.items()}
    return out


def sizes_scan(inputs):
    cfg = inputs["config"]
    return {
        "cases": {c[0]: c[1].intervals for c in inputs["cases"]},
        "t_points": len(cfg.t_grid),
        "model_seeds": list(cfg.seeds),
        "bath_dim": 4,
    }


def _check_slope(label, status, slope, target, ref):
    ok = status == "ok" and abs(slope - target) <= SLOPE_TOL
    detail = f"{status} slope {slope:.4f}, target {target} +- {SLOPE_TOL}"
    if ref is not None:
        ok = ok and abs(slope - ref) <= REF_TOL
        detail += f", reference {ref:.4f} +- {REF_TOL}"
    return label, ok, detail


def check_scan(inputs, outputs):
    at_ref = inputs["seed"] == REF_SEED
    results = []
    for name, *_, targets in inputs["cases"]:
        fits = outputs[name]
        if set(fits) != set(targets):
            results.append((name, False, f"fitted {sorted(fits)}, want {sorted(targets)}"))
            continue
        for lab, target in targets.items():
            status, slope = fits[lab]
            ref = SCAN_REFERENCE[name][lab] if at_ref else None
            results.append(_check_slope(f"{name} {lab}", status, slope, target, ref))
    return results


# ---------------------------------------------------------------------------
# accept: the acceptance suite


# Each criterion's details at the commit that introduced the benchmark.  A
# pass must print the same integers and, for every decimal, a value within
# REF_TOL plus half a unit in the last printed place.
ACCEPT_REFERENCE = {
    1: "N=1: 2.000 in [1.7,2.5]; N=2: 2.998 in [2.7,3.5]; N=3: 3.998 in [3.7,4.5]; "
       "N=4: 4.998 in [4.5,5.7]",
    2: "L=1 X1: 2.00; L=1 Z1: 2.00; L=2 X1: 2.01; L=2 X2: 2.00; L=2 Z1: 2.00; "
       "L=2 Z2: 2.00 (all >= 1.7)",
    3: "Z1: slope 2.999 in [2.7, inf] (ok); X1: slope 2.999 in [2.7, inf] (ok)",
    4: "intervals 16 (want 16); Z1: slope 2.999 in [2.7, inf] (ok); "
       "X1: slope 2.999 in [2.7, inf] (ok)",
    5: "Z1: slope 3.000 in [2.7, inf] (ok); X1: slope 3.999 in [3.7, inf] (ok)",
    6: "outer X1 slope 2.010 in [1.7, 2.4]; inner Z1 slope 2.000 >= 1.7",
    7: "first_order L=2: 4; first_order L=4: 16; cdd N=1: 4; cdd N=2: 16; cdd N=3: 64; "
       "cdd_nested (1,): 2; cdd_nested (2, 3): 32; cdd_nested (3, 4): 128; "
       "cdd_nested (2, 2): 16; nudd (2, 2): 9; nudd (2, 3): 12; nudd (4, 4): 25; "
       "nudd (1, 2): 6; nudd (2, 3, 2): 36",
    8: "constructions 1-6 validated; mlevel_full(6) = ('Sx1', 'Sz1', 'Sz2'); "
       "mlevel_diagonal(5) size 3; custom {X, (X+Y)/sqrt2} rejected",
    9: "{Z1}: dim 1 (want 1); {X1,Y1}: dim 3 (want 3); {Z1,X1}: dim 3 (want 3); "
       "{Z1,X1,Z2,X2}: dim 15 (want 15); encoded: ZZ in closure True, commutes with MOOS True",
    10: "|eta11| = 5.6e-17, |eta12| = 4.2e-17, area residual 0.0e+00; designed slope "
        "2.000 in [1.8, 2.3]; rect/designed error ratio at tau_p|H| = 0.01: median "
        "494.2 (want >= 10)",
    11: "baseline 2.998 vs sigma_x-conjugated 2.998 (|diff| <= 0.3); "
        "non-MOOS wrap slope 1.000 (<= 1.5)",
}
_NUMBER = re.compile(r"(\d+)(?:\.(\d+))?(?:e([-+]\d+))?|inf")


def sizes_accept(inputs):
    return {"criteria": inputs["criteria"]}


def _numbers(text):
    """(value, tolerance) of every number in text: integers and inf must
    match exactly, a decimal to REF_TOL plus half a unit in its last place."""
    out = []
    for m in _NUMBER.finditer(text):
        if m.group(2) is None:
            out.append((float(m.group(0)), 0.0))
        else:
            unit = 10.0 ** (int(m.group(3) or 0) - len(m.group(2)))
            out.append((float(m.group(0)), REF_TOL + unit / 2))
    return out


def setup_accept(seed):
    return {"criteria": len(acceptance.CRITERIA)}


def run_accept(inputs):
    return acceptance.run_all()


def check_accept(inputs, outputs):
    results = []
    if len(outputs) != inputs["criteria"]:
        results.append(("suite", False, f"{len(outputs)} results for {inputs['criteria']} criteria"))
    for r in outputs:
        label = f"c{r.number:02d} {r.name}"
        ok, detail = r.passed, r.details
        got = [v for v, _ in _numbers(r.details)]
        want = _numbers(ACCEPT_REFERENCE.get(r.number, ""))
        if len(got) != len(want) or any(
            g != w and not abs(g - w) <= tol for g, (w, tol) in zip(got, want)
        ):
            ok = False
            detail += f" | reference: {ACCEPT_REFERENCE.get(r.number)}"
        results.append((label, ok, detail))
    return results


# ---------------------------------------------------------------------------
# pulse: pulse design and pulse error scans

PULSE_FAMILIES = ("sym3", "sym5", "rect")
PULSE_SLOPE_RANGE = {"sym3": (1.8, 2.3), "sym5": (1.8, 2.3), "rect": (0.7, 1.3)}
PULSE_DESIGN_TOL = 1e-10

# Slopes measured at the commit that introduced the benchmark, keyed
# (family, operator), one per model seed 0..7.
PULSE_REFERENCE = {
    ("sym3", "Z1"): (2.000118, 1.999207, 2.000382, 1.999675, 1.999773, 1.999500, 2.000966, 1.999997),
    ("sym3", "X1"): (2.000386, 1.999672, 2.000897, 1.999578, 2.000244, 1.999056, 1.999418, 1.999663),
    ("sym5", "Z1"): (2.000101, 2.001004, 1.999976, 2.000421, 2.000374, 2.000792, 1.998548, 2.000056),
    ("sym5", "X1"): (1.999650, 2.000310, 1.998111, 2.000214, 1.999733, 2.001299, 2.000176, 2.000357),
    ("rect", "Z1"): (1.000032, 1.000875, 1.000056, 1.000508, 1.000404, 1.001007, 0.999522, 1.000285),
    ("rect", "X1"): (0.999795, 1.000588, 0.998440, 1.000390, 0.999323, 1.000751, 0.999651, 1.000793),
}


def setup_pulse(seed):
    moos = operators.qubit_full_moos(1)
    return {
        "seed": seed,
        "seeds": tuple(range(seed, seed + N_SEEDS)),
        "ops": (moos.by_label("Z1"), moos.by_label("X1")),
        "tau_grid": np.geomspace(0.003, 0.1, 10),
    }


def run_pulse(inputs):
    shapes = {
        "sym3": pulseshape.design_pulse("sym3"),
        "sym5": pulseshape.design_pulse("sym5"),
        "rect": pulseshape.rectangular_pulse(),
    }
    slopes = {}
    for seed in inputs["seeds"]:
        m = model_mod.random_model("general", 2, 4, 1.0, seed)
        for op in inputs["ops"]:
            for family in PULSE_FAMILIES:
                res = pulseshape.pulse_error_scan(shapes[family], m, op, inputs["tau_grid"])
                fit = res.fits[op.label]
                slopes[family, op.label, seed] = (fit.status, fit.slope)
    return {"shapes": shapes, "slopes": slopes}


def sizes_pulse(inputs):
    return {
        "families": list(PULSE_FAMILIES),
        "operators": [op.label for op in inputs["ops"]],
        "model_seeds": list(inputs["seeds"]),
        "tau_points": len(inputs["tau_grid"]),
    }


def check_pulse(inputs, outputs):
    results = []
    for family in ("sym3", "sym5"):
        shape = outputs["shapes"][family]
        e11, e12 = pulseshape.eta_integrals(shape)
        area_res = abs(shape.area - math.pi / 2)
        ok = max(abs(e11), abs(e12), area_res) <= PULSE_DESIGN_TOL
        results.append((f"design {family}", ok,
                        f"|eta11| {abs(e11):.1e}, |eta12| {abs(e12):.1e}, "
                        f"|area - pi/2| {area_res:.1e} (<= {PULSE_DESIGN_TOL})"))
    at_ref = inputs["seed"] == REF_SEED
    for seed in inputs["seeds"]:
        for op in inputs["ops"]:
            for family in PULSE_FAMILIES:
                status, slope = outputs["slopes"][family, op.label, seed]
                lo, hi = PULSE_SLOPE_RANGE[family]
                ok = status == "ok" and lo <= slope <= hi
                detail = f"{status} slope {slope:.4f} in [{lo}, {hi}]"
                if at_ref:
                    ref = PULSE_REFERENCE[family, op.label][seed - REF_SEED]
                    ok = ok and abs(slope - ref) <= REF_TOL
                    detail += f", reference {ref:.4f} +- {REF_TOL}"
                results.append((f"scan {family} {op.label} seed {seed}", ok, detail))
    return results


# ---------------------------------------------------------------------------
# build: MOOS validation, Lie closures and schedule compilation


def _pauli_list(spec, n_qubits):
    """Operators for (axis, qubit) pairs, built without validating a set."""
    return tuple(operators.pauli(axis, q, n_qubits) for axis, q in spec)


def _signature_oracle(ops):
    """Pauli signature from the labels alone: two single-qubit Paulis
    anticommute exactly when they act on the same qubit along different axes."""
    n = len(ops)
    sig = np.ones((n, n), dtype=int)
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if a.label[1:] == b.label[1:] and a.label[0] != b.label[0]:
                sig[i, j] = -1
    return sig


# (name, MOOS key, compiler, closed-form interval count)
BUILD_SCHEDULES = (
    ("cdd_uniform(qubit_full(1), 8)", 1, lambda m: sequences.cdd_uniform(m, 8), 2**16),
    ("first_order(qubit_full(6))", 6, lambda m: sequences.first_order_schedule(m), 2**12),
    ("cdd_nested(qubit_full(2), (3,3,3,3))", 2,
     lambda m: sequences.cdd_nested(m, (3, 3, 3, 3)), 2**12),
    ("nudd(qubit_full(2), (4,4,4,4))", 2, lambda m: sequences.nudd(m, (4, 4, 4, 4)), 5**4),
)


def setup_build(seed):
    # The 13-element 8-qubit set of the first-order size-cap test.
    accept_ops = _pauli_list([("z", q) for q in range(1, 9)] + [("x", q) for q in range(1, 6)], 8)
    # qubit_full(7) with X1 moved to second to last, then D = (X1+Y1)/sqrt2 (x) I:
    # (X1, D) is the only pair that neither commutes nor anticommutes, and it
    # is the last pair validation reaches.
    order = [("z", 1)] + [(a, q) for q in range(2, 8) for a in ("z", "x")] + [("x", 1)]
    reject_ops = _pauli_list(order, 7)
    skew = (operators.pauli("x", 1, 7).matrix + operators.pauli("y", 1, 7).matrix) / math.sqrt(2)
    reject_ops += (operators.Operator("D", skew, 2**7),)
    moos = {
        1: operators.qubit_full_moos(1),
        2: operators.qubit_full_moos(2),
        6: operators.qubit_full_moos(6),
        "mlevel4": operators.mlevel_full_moos(4),
    }
    return {
        "accept_ops": accept_ops,
        "accept_sig": _signature_oracle(accept_ops),
        "reject_ops": reject_ops,
        "moos": moos,
    }


def run_build(inputs):
    out = {"accepted": operators.Moos(inputs["accept_ops"])}
    try:
        operators.Moos(inputs["reject_ops"])
        out["rejection"] = None
    except PreconditionError as exc:
        out["rejection"] = str(exc)
    moos = inputs["moos"]
    out["closures"] = {
        "qubit_full(2)": len(operators.lie_closure(moos[2])),
        "mlevel_full(4)": len(operators.lie_closure(moos["mlevel4"])),
    }
    out["schedules"] = {}
    for name, key, compile_fn, _ in BUILD_SCHEDULES:
        sched = compile_fn(moos[key])
        back = sequences.schedule_from_json(sequences.schedule_to_json(sched))
        out["schedules"][name] = (sched, back)
    return out


def sizes_build(inputs):
    return {
        "accept_set": [len(inputs["accept_ops"]), inputs["accept_ops"][0].acts_on],
        "reject_set": [len(inputs["reject_ops"]), inputs["reject_ops"][0].acts_on],
        "schedules": {name: want for name, _, _, want in BUILD_SCHEDULES},
    }


def check_build(inputs, outputs):
    accepted = outputs["accepted"]
    sig_ok = np.array_equal(accepted.signature, inputs["accept_sig"])
    results = [("accept 13-element 8-qubit set", sig_ok,
                f"signature {'matches' if sig_ok else 'differs from'} the Pauli oracle")]
    msg = outputs["rejection"]
    rej_ok = msg is not None and "('X1', 'D')" in msg
    results.append(("reject 15-element 7-qubit set", rej_ok, f"message: {msg}"))
    for name, dim in outputs["closures"].items():
        results.append((f"lie_closure {name}", dim == 15, f"dimension {dim} (want 15)"))
    for name, _, _, want in BUILD_SCHEDULES:
        sched, back = outputs["schedules"][name]
        ok = sched.intervals == want == len(sched.events) + 1 and back == sched
        results.append((name, ok, f"intervals {sched.intervals}, events + 1 = "
                        f"{len(sched.events) + 1} (want {want}); JSON round trip "
                        f"{'exact' if back == sched else 'differs'}"))
    return results


WORKLOADS = {
    "scan": Workload(setup_scan, run_scan, check_scan, sizes_scan, False),
    "accept": Workload(setup_accept, run_accept, check_accept, sizes_accept, True),
    "pulse": Workload(setup_pulse, run_pulse, check_pulse, sizes_pulse, False),
    "build": Workload(setup_build, run_build, check_build, sizes_build, True),
}

