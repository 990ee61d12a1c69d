"""Command-line front end.

Subcommands: sequence (compile a schedule to JSON), moos (build/validate an
operation set), scan (time sweep + slope fits, CSV output), pulse design /
pulse scan (envelope design and its error scaling), accept (run the built-in
acceptance suite).

Exit codes: 0 success, 1 usage error, 2 violated precondition, 3 unfittable
fit or design/criterion failure (accept returns the number of failed
criteria).  A JSON config file may be passed with --config or the
DDKIT_CONFIG environment variable; flags override config values.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from .errors import PreconditionError, UnfittableError
from .jsonio import get_field, get_list, load_object
from .model import check_norm_bound
from .operators import Moos, build_moos, lie_closure, moos_to_json
from .pulseshape import (
    DEFAULT_TAU_GRID,
    PulseDesignError,
    design_pulse,
    eta_integrals,
    pulse_error_scan,
    pulse_from_json,
    pulse_to_json,
    rectangular_pulse,
)
from .sequences import (
    Schedule,
    cdd_nested,
    cdd_uniform,
    first_order_schedule,
    nudd,
    schedule_to_json,
    sdd_schedule,
    udd_schedule,
)
from .simulate import ModelSpec, RunConfig, ScalingResult, check_sweep_budget, order_scan

__all__ = ["main", "load_config"]

_SCHEMES = ("udd", "free", "first_order", "sdd", "cdd", "cdd_nested", "nudd")
# The schemes each schedule option applies to; any other scheme rejects it.
_OPTION_SCHEMES = {
    "orders": ("udd", "cdd", "cdd_nested", "nudd"),
    "op": ("udd",),
    "allow_odd_inner": ("nudd",),
    "include_closing": ("first_order", "sdd"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _geomspace(start, stop, num, names) -> tuple[float, ...]:
    """Geometric grid of ``num`` points from ``start`` to ``stop``.  ``names``
    are a prefix and the options or config keys that gave the start, the
    stop and the count, each named in the message that rejects it: each
    bound must be positive and finite, the count at least 1, and a grid of
    more than one point must start below its stop.  Each point costs a
    product, so more than MAX_PRODUCTS points are rejected before the grid
    is made."""
    prefix, start_name, stop_name, num_name = names
    check_sweep_budget(num)
    if num < 1:
        raise PreconditionError(f"invalid time grid: {prefix}{num_name} must be at least 1, "
                                f"got {num}")
    for name, bound in ((start_name, start), (stop_name, stop)):
        if not (math.isfinite(bound) and bound > 0):
            raise PreconditionError(f"invalid time grid: {prefix}{name} must be positive and "
                                    f"finite, got {bound}")
    if num > 1 and start >= stop:
        raise PreconditionError(f"{prefix}{start_name} {start} must be below {stop_name} {stop}")
    return tuple(np.geomspace(start, stop, num))


def load_config(path: str | None) -> tuple[RunConfig, float]:
    """Sweep and model norm bound from --config, else DDKIT_CONFIG; a key
    the file leaves out keeps the default of ``RunConfig`` or ``ModelSpec``.
    The T grid is geometric from t_min to t_max in t_points steps."""
    run_cfg, norm_bound = RunConfig(), ModelSpec().norm_bound
    path = path or os.environ.get("DDKIT_CONFIG")
    if not path:
        return run_cfg, norm_bound
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read config {path!r}: {exc}")
    what = f"config {path!r}"
    doc = load_object(text, what)
    grid = run_cfg.t_grid
    defaults = {
        "norm_bound": norm_bound, "seeds": run_cfg.seeds, "t_min": grid[0],
        "t_max": grid[-1], "t_points": len(grid), "error_floor": run_cfg.error_floor,
        "error_ceiling": run_cfg.error_ceiling,
    }
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise PreconditionError(
            f"unknown config keys {unknown}; known keys are {sorted(defaults)}"
        )
    value = dict(defaults)
    for key in doc:
        value[key] = (tuple(get_list(doc, key, int, what)) if key == "seeds"
                      else get_field(doc, key, type(defaults[key]), what))
    run_cfg = RunConfig(
        t_grid=_geomspace(value["t_min"], value["t_max"], value["t_points"],
                          (f"{what} key ", "'t_min'", "'t_max'", "'t_points'")),
        seeds=value["seeds"],
        error_floor=value["error_floor"],
        error_ceiling=value["error_ceiling"],
    )
    check_norm_bound(value["norm_bound"])
    return run_cfg, value["norm_bound"]


def _parse_orders(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise PreconditionError(f"malformed orders {text!r}, want e.g. '2' or '2,3'")


def parse_model_spec(text: str, norm_bound: float) -> ModelSpec:
    """'structure:SYSxBATH' -> ModelSpec, e.g. 'general:2x4'."""
    structure, _, dims = text.partition(":")
    sys_dim, _, bath_dim = dims.partition("x")
    try:
        sys_dim, bath_dim = int(sys_dim), int(bath_dim)
    except ValueError:
        raise PreconditionError(
            f"malformed model spec {text!r}, want 'structure:SYSxBATH'"
        )
    return ModelSpec(structure, sys_dim, bath_dim, norm_bound)


def build_schedule(scheme, orders, moos: Moos, op=None, allow_odd_inner=False,
                   include_closing=False) -> Schedule:
    """Dispatch a scheme name + order vector to the sequence compilers; an
    option the scheme cannot apply is rejected."""
    if scheme not in _SCHEMES:
        raise PreconditionError(f"unknown scheme {scheme!r}; choose from {_SCHEMES}")
    given = {"orders": orders, "op": op, "allow_odd_inner": allow_odd_inner,
             "include_closing": include_closing}
    for name, value in given.items():
        if value and scheme not in _OPTION_SCHEMES[name]:
            raise PreconditionError(
                f"--{name.replace('_', '-')} does not apply to scheme {scheme!r}; "
                f"it applies to {', '.join(_OPTION_SCHEMES[name])}"
            )
    if scheme == "udd":
        if len(orders) != 1:
            raise PreconditionError("udd takes exactly one order")
        label = op or moos.labels[0]
        moos.by_label(label)  # rejects a bad label
        return udd_schedule(label, orders[0])
    if scheme == "free":
        return Schedule("free", (0,), (), (), 1)
    if scheme == "first_order":
        return first_order_schedule(moos, include_closing=include_closing)
    if scheme == "sdd":
        return sdd_schedule(first_order_schedule(moos, include_closing=include_closing))
    if scheme == "cdd":
        if len(orders) != 1:
            raise PreconditionError("cdd takes exactly one order")
        return cdd_uniform(moos, orders[0])
    if scheme == "cdd_nested":
        return cdd_nested(moos, orders)
    return nudd(moos, orders, allow_odd_inner=allow_odd_inner)


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _fit_doc(result: ScalingResult) -> dict:
    return {
        label: {
            "slope": None if math.isnan(fit.slope) else fit.slope,
            "intercept": None if math.isnan(fit.intercept) else fit.intercept,
            "rms_residual": None if math.isnan(fit.rms_residual) else fit.rms_residual,
            "points_used": fit.points_used,
            "status": fit.status,
        }
        for label, fit in sorted(result.fits.items())
    }


def _report(result: ScalingResult, scheme: str, orders, out: str) -> int:
    """Write the CSV rows and the companion fit JSON, print the fits, and
    raise UnfittableError if any operator could not be fitted."""
    order_str = ",".join(str(n) for n in orders)
    # The csv module quotes an orders field with more than one order.
    text = io.StringIO()
    rows = csv.writer(text, lineterminator="\n")
    rows.writerow(("scheme", "orders", "operator", "T", "seed", "error"))
    rows.writerows(
        (scheme, order_str, label, repr(t), seed, repr(err))
        for label, t, seed, err in result.rows()
    )
    _write(out, text.getvalue())
    fit_path = (out[: -len(".csv")] if out.endswith(".csv") else out) + ".fits.json"
    _write(fit_path, json.dumps(_fit_doc(result), indent=2) + "\n")
    print(f"wrote {out} and {fit_path}")
    for label, fit in sorted(result.fits.items()):
        if fit.status == "exact":
            print(f"  {label}: error at floor everywhere (exact)")
        elif math.isnan(fit.slope):
            print(f"  {label}: unfittable (too few points in the fit window)")
        else:
            print(
                f"  {label}: slope {fit.slope:.4f}  rms {fit.rms_residual:.4f}  "
                f"points {fit.points_used}  [{fit.status}]"
            )
    if any(f.status == "unfittable" for f in result.fits.values()):
        raise UnfittableError("one or more operators could not be fitted")
    return 0


def cmd_sequence(args, run_cfg: RunConfig, norm_bound: float) -> int:
    moos = build_moos(args.moos)
    sched = build_schedule(
        args.scheme, _parse_orders(args.orders), moos, op=args.op,
        allow_odd_inner=args.allow_odd_inner, include_closing=args.include_closing,
    )
    # The pulse multiset, counted once per distinct label tuple.
    counts = Counter(sched.closing_ops)
    for ops, n in zip(sched.ops_table, np.bincount(sched.codes).tolist()):
        for label in ops if n else ():
            counts[label] += n
    print(f"scheme {sched.scheme}, orders {list(sched.orders)}")
    print(f"intervals: {sched.intervals}")
    print("pulse multiset: " + (
        ", ".join(f"{lab} x{n}" for lab, n in sorted(counts.items())) or "(none)"
    ))
    if args.out:
        _write(args.out, schedule_to_json(sched) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_moos(args, run_cfg: RunConfig, norm_bound: float) -> int:
    moos = build_moos(args.spec)
    print(f"dim {moos.dim}, {len(moos)} elements: {', '.join(moos.labels)}")
    print("signature (+1 commute / -1 anticommute):")
    for row in moos.signature:
        print("  " + " ".join(f"{v:+d}" for v in row))
    if args.closure:
        print(f"Lie closure dimension: {len(lie_closure(moos))}")
    if args.out:
        _write(args.out, moos_to_json(moos) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_scan(args, run_cfg: RunConfig, norm_bound: float) -> int:
    moos = build_moos(args.moos)
    # --op names the scanned operator for every scheme and the pulse of udd
    sched = build_schedule(
        args.scheme, _parse_orders(args.orders), moos,
        op=args.op if args.scheme == "udd" else None, allow_odd_inner=args.allow_odd_inner,
    )
    spec = parse_model_spec(args.model, norm_bound)
    if args.seeds is not None:
        if args.seeds < 1:
            raise PreconditionError(f"--seeds must be at least 1, got {args.seeds}")
        # Each seed x T point forms at least one product: bound the count
        # before the seed tuple is made.
        check_sweep_budget(args.seeds * len(run_cfg.t_grid))
        run_cfg = replace(run_cfg, seeds=tuple(range(args.seeds)))
    operators = [moos.by_label(args.op)] if args.op else None
    result = order_scan(sched, moos, spec, run_cfg, operators=operators)
    return _report(result, sched.scheme, sched.orders, args.out)


def cmd_pulse_design(args, run_cfg: RunConfig, norm_bound: float) -> int:
    shape = design_pulse(args.family, args.tau_p)
    e11, e12 = eta_integrals(shape)
    print(f"family {args.family}: amplitudes {[a for _, a in shape.segments]}")
    print(f"area = {shape.area!r} (target pi/2), eta11 = {e11:.3e}, eta12 = {e12:.3e}")
    if args.out:
        _write(args.out, pulse_to_json(shape) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_pulse_scan(args, run_cfg: RunConfig, norm_bound: float) -> int:
    if run_cfg != RunConfig():
        print("note: the config's sweep keys apply to scan only; pulse scan reads "
              "norm_bound alone", file=sys.stderr)
    if args.pulse == "rect":
        shape = rectangular_pulse()
    else:
        with open(args.pulse, "rb") as fh:
            shape = pulse_from_json(fh.read())
    model = parse_model_spec(args.model, norm_bound).realize(args.seed)
    moos = build_moos(args.moos)
    omega = moos.by_label(args.op) if args.op else moos.elements[0]
    tau_grid = _geomspace(args.tau_min, args.tau_max, args.tau_points,
                          ("", "--tau-min", "--tau-max", "--tau-points"))
    result = pulse_error_scan(shape, model, omega, tau_grid)
    return _report(result, "pulse", (), args.out)


def cmd_accept(args, run_cfg: RunConfig, norm_bound: float) -> int:
    from .acceptance import run_all

    results = run_all()
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.number:2d}. {r.name}")
        print(f"        {r.details}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return failures


def _build_parser() -> _Parser:
    parser = _Parser(prog="ddkit", description=__doc__)
    parser.add_argument("--config", help="JSON config file (or set DDKIT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sequence", help="compile a pulse schedule")
    p.add_argument("--scheme", required=True, choices=_SCHEMES)
    p.add_argument("--orders", help="comma-separated order vector, e.g. 2,3")
    p.add_argument("--moos", default="qubit_full:1", help="MOOS spec, family:size")
    p.add_argument("--op", help="protected operator label (udd only)")
    p.add_argument("--allow-odd-inner", action="store_true")
    p.add_argument("--include-closing", action="store_true")
    p.add_argument("--out", help="schedule JSON output path")
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("moos", help="build and validate an operation set")
    p.add_argument("--spec", required=True, help="MOOS spec, family:size")
    p.add_argument("--closure", action="store_true", help="also report the Lie closure dimension")
    p.add_argument("--out", help="MOOS JSON output path")
    p.set_defaults(func=cmd_moos)

    p = sub.add_parser("scan", help="time sweep and decoupling-order fit")
    p.add_argument("--scheme", required=True, choices=_SCHEMES)
    p.add_argument("--orders", help="comma-separated order vector")
    p.add_argument("--moos", default="qubit_full:1")
    p.add_argument("--op", help="scanned operator label (and the udd pulse)")
    p.add_argument("--allow-odd-inner", action="store_true")
    p.add_argument("--model", default="general:2x4", help="structure:SYSxBATH")
    p.add_argument("--seeds", type=int, help="number of model seeds (0..n-1)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("pulse", help="finite-amplitude pulse tools")
    psub = p.add_subparsers(dest="pulse_command", required=True)

    pd = psub.add_parser("design", help="solve for a first-order-corrected envelope")
    pd.add_argument("--family", default="sym3", choices=("sym3", "sym5", "rect"))
    pd.add_argument("--tau-p", type=float, default=1.0)
    pd.add_argument("--out", help="pulse JSON output path")
    pd.set_defaults(func=cmd_pulse_design)

    ps = psub.add_parser("scan", help="pulse error vs duration")
    ps.add_argument("--pulse", required=True, help="pulse JSON path, or 'rect'")
    ps.add_argument("--model", default="general:2x4")
    ps.add_argument("--moos", default="qubit_full:1")
    ps.add_argument("--op", help="pulse axis operator label")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--tau-min", type=float, default=DEFAULT_TAU_GRID[0])
    ps.add_argument("--tau-max", type=float, default=DEFAULT_TAU_GRID[-1])
    ps.add_argument("--tau-points", type=int, default=len(DEFAULT_TAU_GRID))
    ps.add_argument("--out", required=True, help="CSV output path")
    ps.set_defaults(func=cmd_pulse_scan)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.set_defaults(func=cmd_accept)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, *load_config(args.config))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"precondition violated: {msg}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (UnfittableError, PulseDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
