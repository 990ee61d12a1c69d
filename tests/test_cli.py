import csv
import json
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ddkit
from ddkit import cli
from ddkit.cli import load_config, main
from ddkit.operators import moos_from_json, qubit_full_moos
from ddkit.pulseshape import pulse_from_json
from ddkit.sequences import cdd_uniform, schedule_from_json, schedule_to_json, udd_times
from ddkit.simulate import RunConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_exit_1(capsys):
    code, _, err = run(["bogus"], capsys)
    assert code == 1
    code, _, err = run(["sequence"], capsys)  # missing required --scheme
    assert code == 1


def test_sequence_udd3_writes_schedule(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, stdout, _ = run(
        ["sequence", "--scheme", "udd", "--orders", "3", "--out", str(out)], capsys
    )
    assert code == 0
    assert "intervals: 4" in stdout
    sched = schedule_from_json(out.read_text())
    assert [e.time for e in sched.events] == udd_times(3)


def test_sequence_odd_inner_rejected_exit_2(capsys):
    code, _, err = run(["sequence", "--scheme", "nudd", "--orders", "1,2"], capsys)
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize("argv", [["scan", "--scheme", "cdd", "--orders", "1"],
                                  ["pulse", "scan", "--pulse", "rect"]],
                         ids=["scan", "pulse_scan"])
def test_unknown_operator_label_exit_2(tmp_path, capsys, argv):
    code, _, err = run([*argv, "--op", "Q9", "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert "precondition violated: no MOOS element labelled 'Q9'" in err


def test_key_error_inside_a_command_is_not_a_precondition(monkeypatch):
    # only a PreconditionError is reported as a violated precondition
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_moos", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["moos", "--spec", "qubit_full:1"])


def test_sequence_counterexample_with_override(tmp_path, capsys):
    out = tmp_path / "ce.json"
    code, stdout, _ = run(
        ["sequence", "--scheme", "nudd", "--orders", "1,2",
         "--allow-odd-inner", "--out", str(out)], capsys,
    )
    assert code == 0
    sched = schedule_from_json(out.read_text())
    assert [e.time for e in sched.events] == pytest.approx(
        [0.125, 0.25, 0.5, 0.75, 0.875], abs=1e-15
    )


def test_moos_subcommand(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, _ = run(["moos", "--spec", "qubit_full:1", "--out", str(out)], capsys)
    assert code == 0
    assert "Z1, X1" in stdout
    moos = moos_from_json(out.read_text())
    assert moos.labels == ("Z1", "X1")


def test_scan_csv_deterministic(tmp_path, capsys):
    args = ["scan", "--scheme", "udd", "--orders", "2", "--op", "Z1",
            "--model", "general:2x4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)], capsys)[0] == 0
    assert run(args + ["--out", str(out2)], capsys)[0] == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "scheme,orders,operator,T,seed,error"
    assert len(lines) == 1 + 12 * 8
    fits = json.loads((tmp_path / "a.fits.json").read_text())
    assert fits["Z1"]["status"] == "ok"
    assert 2.7 <= fits["Z1"]["slope"] <= 3.5


@pytest.mark.parametrize("argv", [
    ["scan", "--scheme", "udd", "--orders", "2", "--op", "Z1"],
    ["scan", "--scheme", "nudd", "--orders", "2,2,2,3", "--moos", "qubit_full:2",
     "--model", "general:4x4"],
    ["scan", "--scheme", "cdd_nested", "--orders", "2,2"],
    # one order given, one order per MOOS element in the schedule
    ["scan", "--scheme", "cdd", "--orders", "2"],
    ["scan", "--scheme", "first_order"],
    ["pulse", "scan", "--pulse", "rect"],
], ids=["udd", "nudd", "cdd_nested", "cdd", "first_order", "pulse_scan"])
def test_scan_csv_reads_back_as_the_result_rows(argv, tmp_path, capsys, monkeypatch):
    # an orders field of several orders is one quoted field, not one per order
    reported = []
    real = cli._report

    def capture(result, scheme, orders, out):
        reported.append((result, scheme, orders))
        return real(result, scheme, orders, out)

    monkeypatch.setattr(cli, "_report", capture)
    out = tmp_path / "s.csv"
    assert run(argv + ["--out", str(out)], capsys)[0] in (0, 3)
    [(result, scheme, orders)] = reported
    with open(out, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert [(r["operator"], float(r["T"]), int(r["seed"]), float(r["error"]))
            for r in back] == result.rows()
    assert {(r["scheme"], r["orders"], None in r) for r in back} == {
        (scheme, ",".join(map(str, orders)), False)
    }


def test_scan_unfittable_exit_3(tmp_path, capsys):
    # free evolution in the default window sits above the error ceiling
    code, _, err = run(
        ["scan", "--scheme", "free", "--op", "Z1", "--out", str(tmp_path / "f.csv")],
        capsys,
    )
    assert code == 3


def test_scan_free_evolution_slope_one_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_min": 0.002, "t_max": 0.06, "t_points": 12}))
    code, _, _ = run(
        ["--config", str(cfg), "scan", "--scheme", "free", "--op", "Z1",
         "--out", str(tmp_path / "f.csv")], capsys,
    )
    assert code == 0
    fits = json.loads((tmp_path / "f.fits.json").read_text())
    assert 0.8 <= fits["Z1"]["slope"] <= 1.2


@pytest.mark.parametrize(
    "doc",
    [{"t_points": 0}, {"t_min": 0.0}, {"error_floor": 1e-2, "error_ceiling": 1e-3},
     {"threads": 0}],
    ids=["no_t_points", "zero_t_min", "floor_above_ceiling", "zero_threads"],
)
def test_scan_invalid_config_exit_2(tmp_path, capsys, doc):
    # used to report "exact" and exit 0, raise a traceback, or run serially
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(
        ["--config", str(cfg), "scan", "--scheme", "udd", "--orders", "2", "--op", "Z1",
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 2
    assert "precondition violated" in err
    assert not (tmp_path / "x.csv").exists()


def test_scan_negative_error_floor_exit_2(tmp_path, capsys):
    # used to warn of a log of zero, write "unfittable" and exit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_floor": -1.0, "norm_bound": 0.0}))
    code, _, err = run(
        ["--config", str(cfg), "scan", "--scheme", "udd", "--orders", "2", "--op", "Z1",
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 2
    assert "error_floor must be non-negative and finite, got -1.0" in err
    assert not (tmp_path / "x.csv").exists()


def test_scan_zero_seeds_exit_2(tmp_path, capsys):
    # used to exit 3 ("unfittable")
    code, _, err = run(
        ["scan", "--scheme", "udd", "--orders", "2", "--op", "Z1", "--seeds", "0",
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 2
    assert "--seeds must be at least 1, got 0" in err


# Each bad grid bound or seed count is named by the flag or the config key
# the user typed; these used to name t_grid, or say "seeds must not be
# empty", and -0.1 and inf also printed numpy's RuntimeWarning.
_BAD_BOUNDS = {
    "tau_min_nan": (["--tau-min", "nan"], "--tau-min must be positive and finite, got nan"),
    "tau_min_negative": (["--tau-min", "-0.1"],
                         "--tau-min must be positive and finite, got -0.1"),
    "tau_max_inf": (["--tau-max", "inf"], "--tau-max must be positive and finite, got inf"),
    "tau_points_zero": (["--tau-points", "0"], "--tau-points must be at least 1, got 0"),
    "tau_points_negative": (["--tau-points", "-3"], "--tau-points must be at least 1, got -3"),
    "config_t_min": ({"t_min": -0.1}, "key 't_min' must be positive and finite, got -0.1"),
    "config_t_points": ({"t_points": 0}, "key 't_points' must be at least 1, got 0"),
    "seeds_negative": (["--seeds", "-5"], "--seeds must be at least 1, got -5"),
}


@pytest.mark.parametrize("case", sorted(_BAD_BOUNDS))
def test_bad_grid_bound_or_seed_count_names_its_flag_or_key(tmp_path, capsys, case):
    given, needle = _BAD_BOUNDS[case]
    out = ["--out", str(tmp_path / "x.csv")]
    if isinstance(given, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given))
        argv = ["--config", str(cfg), "scan", "--scheme", "udd", "--orders", "2", *out]
    elif given[0] == "--seeds":
        argv = ["scan", "--scheme", "udd", "--orders", "2", "--op", "Z1", *given, *out]
    else:
        argv = ["pulse", "scan", "--pulse", "rect", *given, *out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(argv, capsys)
    assert code == 2 and needle in err
    assert "t_grid" not in err and "Traceback" not in err
    assert caught == [] and not (tmp_path / "x.csv").exists()


def test_config_env_var_and_unknown_key(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"t_mim": 0.1}))
    monkeypatch.setenv("DDKIT_CONFIG", str(bad))
    code, _, err = run(
        ["scan", "--scheme", "free", "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == 2
    assert "unknown config keys" in err


def test_pulse_design_and_scan_round_trip(tmp_path, capsys):
    pulse = tmp_path / "p.json"
    code, stdout, _ = run(
        ["pulse", "design", "--family", "sym3", "--out", str(pulse)], capsys
    )
    assert code == 0
    shape = pulse_from_json(pulse.read_text())
    assert len(shape.segments) == 3
    code, _, _ = run(
        ["pulse", "scan", "--pulse", str(pulse), "--op", "Z1",
         "--out", str(tmp_path / "ps.csv")], capsys,
    )
    assert code == 0
    fits = json.loads((tmp_path / "ps.fits.json").read_text())
    assert 1.8 <= fits["Z1"]["slope"] <= 2.3


@pytest.mark.parametrize("text, needle", [
    ('{"tau_p": 1.0, "tau_s"', "malformed pulse JSON"),
    ('{"tau_p": 1.0, "segments": []}', "missing key 'tau_s'"),
    ('{"tau_p": "1", "tau_s": 0.5, "segments": []}', "'tau_p' must be a finite number"),
], ids=["malformed", "missing_key", "wrong_type"])
def test_pulse_scan_bad_pulse_json_exit_2(tmp_path, capsys, text, needle):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(
        ["pulse", "scan", "--pulse", str(bad), "--out", str(tmp_path / "ps.csv")], capsys
    )
    assert code == 2
    assert needle in err
    assert "Traceback" not in err


def test_pulse_scan_directory_as_pulse_exit_2(tmp_path, capsys):
    # used to end in an IsADirectoryError traceback
    code, _, err = run(
        ["pulse", "scan", "--pulse", str(tmp_path), "--out", str(tmp_path / "ps.csv")], capsys
    )
    assert code == 2
    assert "Is a directory" in err
    assert "Traceback" not in err


def test_pulse_scan_out_in_missing_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "ps.csv"
    code, _, err = run(["pulse", "scan", "--pulse", "rect", "--out", str(out)], capsys)
    assert code == 2
    assert "No such file or directory" in err and str(out) in err


def test_pulse_design_rect_exit_3(capsys):
    code, _, err = run(["pulse", "design", "--family", "rect"], capsys)
    assert code == 3
    assert "residual" in err


@pytest.mark.parametrize("family, tau_p, code, needle", [
    ("sym3", "0", 2, "pulse duration must be positive"),
    ("rect", "0", 2, "pulse duration must be positive"),
    ("sym3", "-1", 2, "pulse duration must be positive"),
    ("sym3", "1e-160", 0, "area = "),
    ("rect", "1e-160", 3, "residual |eta_12| = 3.183e-161"),
    ("sym3", "1e200", 0, "area = "),
    ("rect", "1e200", 3, "residual |eta_12| = 3.183e+199"),
    ("sym3", "1e-320", 2, "is too short"),
    ("sym5", "1e-320", 2, "pulse duration 1e-320 is too short: its amplitude overflows"),
    ("rect", "1e-320", 2, "pulse duration 1e-320 is too short: its amplitude overflows"),
])
def test_pulse_design_tau_p_never_ends_in_a_traceback(capsys, family, tau_p, code, needle):
    # zero, tiny and huge durations used to end in ZeroDivisionError or
    # OverflowError tracebacks
    got, out, err = run(["pulse", "design", "--family", family, "--tau-p", tau_p], capsys)
    assert got == code
    assert needle in out + err
    assert "Traceback" not in err


@pytest.mark.parametrize("pulse", ["rect"])
@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_pulse_design_bad_seed_exit_2(tmp_path, capsys, pulse, seed):
    # pulse design has no seed (its result depends on the family alone);
    # the model seed of pulse scan is the one seed option left, and a bad
    # one must not end in a ValueError traceback from the generator
    got, _, err = run(["pulse", "scan", "--pulse", pulse, "--seed", seed,
                       "--out", str(tmp_path / "x.csv")], capsys)
    assert got == 2
    assert "seed must lie in [0, 2^128)" in err
    assert "Traceback" not in err


def test_pulse_design_seed_option_removed_exit_1(capsys):
    code, _, err = run(["pulse", "design", "--family", "sym3", "--seed", "0"], capsys)
    assert code == 1
    assert "unrecognized arguments: --seed 0" in err


def test_accept_passes_every_criterion(capsys):
    code, out, _ = run(["accept"], capsys)
    assert code == 0
    assert sum(line.startswith("[PASS]") for line in out.splitlines()) == 11
    assert "[FAIL]" not in out
    assert "11/11 criteria passed" in out


@pytest.mark.parametrize("scheme, orders, needle", [
    ("udd", "2,3", "udd takes exactly one order"),
    ("cdd", "1,2", "cdd takes exactly one order"),
    ("udd", "2,x", "malformed orders '2,x', want e.g. '2' or '2,3'"),
], ids=["udd_two_orders", "cdd_two_orders", "orders_not_int"])
def test_sequence_bad_orders_exit_2(capsys, scheme, orders, needle):
    code, _, err = run(["sequence", "--scheme", scheme, "--orders", orders], capsys)
    assert code == 2
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, needle", [
    ({"seeds": "ab"}, "'seeds' must be a list, got str"),
    ({"seeds": None}, "'seeds' must be a list, got NoneType"),
    ({"seeds": [1.5, 2]}, "'seeds': every item must be an integer, got float"),
    ({"t_points": "12"}, "'t_points' must be an integer, got str"),
    ({"t_points": 2.5}, "'t_points' must be an integer, got float"),
    ({"threads": 1.5}, "unknown config keys ['threads']"),
    ({"norm_bound": "x"}, "'norm_bound' must be a finite number, got str"),
    ({"error_floor": None}, "'error_floor' must be a finite number, got NoneType"),
    ({"t_min": True}, "'t_min' must be a finite number, got bool"),
], ids=["seeds_str", "seeds_null", "seeds_float_item", "t_points_str", "t_points_float",
        "threads_float", "norm_bound_str", "error_floor_null", "t_min_bool"])
def test_config_wrong_type_exit_2(tmp_path, capsys, doc, needle):
    # used to end in a traceback, run seeds 1 and 2, or blame the time grid
    # for t_min: true; threads is no longer a config key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(["--config", str(cfg), "sequence", "--scheme", "free"], capsys)
    assert code == 2
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data, needle", [
    (b'{"seeds": [0, 1', "malformed config"),
    (b"\xff\xfe\x00", "malformed config"),
    (b"[1, 2]", "must be an object, got list"),
    (b'{"bath_dim": 4}', "unknown config keys ['bath_dim']"),
], ids=["truncated", "not_utf8", "not_object", "bath_dim_removed"])
def test_config_bad_document_exit_2(tmp_path, capsys, data, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    code, _, err = run(["--config", str(cfg), "sequence", "--scheme", "free"], capsys)
    assert code == 2
    assert needle in err


def test_config_values_reach_the_run_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [3, 5], "t_points": 4, "norm_bound": 2}))
    run_cfg, norm_bound = load_config(str(cfg))
    assert run_cfg.seeds == (3, 5) and len(run_cfg.t_grid) == 4 and norm_bound == 2
    # the bounds the file leaves out are the default grid's
    default = RunConfig().t_grid
    assert (run_cfg.t_grid[0], run_cfg.t_grid[-1]) == (default[0], default[-1])


def test_readme_config_schema_is_the_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Schema of the config file", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block)
    assert load_config(str(cfg)) == load_config(None)


def test_readme_schedule_example_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A schedule file is one object", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0].rstrip("\n")
    sched = schedule_from_json(block)
    assert schedule_to_json(sched) == block
    assert sched == cdd_uniform(qubit_full_moos(1), 1)


def test_readme_cli_examples_exit_0(tmp_path, capsys, monkeypatch):
    # every command of README's CLI block, in order, in one directory: the
    # pulse scan reads the design's pulse.json
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("ddkit ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DDKIT_CONFIG", raising=False)
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)


def test_config_values_checked_by_every_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_min": 0.0}))
    code, _, err = run(["--config", str(cfg), "sequence", "--scheme", "free"], capsys)
    assert code == 2
    assert "invalid time grid" in err


def test_pulse_scan_zero_tau_min_exit_2(tmp_path, capsys):
    # used to end in a ValueError traceback from np.geomspace, exit 1
    code, _, err = run(
        ["pulse", "scan", "--pulse", "rect", "--tau-min", "0",
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 2
    assert "invalid time grid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("low, high", [("0.1", "0.01"), ("0.05", "0.05")],
                         ids=["above", "equal"])
def test_pulse_scan_tau_min_not_below_tau_max_names_both_flags(tmp_path, capsys, low, high):
    # used to say "t_grid must be strictly increasing", a name the user never typed
    code, _, err = run(["pulse", "scan", "--pulse", "rect", "--tau-min", low, "--tau-max", high,
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert f"--tau-min {float(low)} must be below --tau-max {float(high)}" in err
    assert "t_grid" not in err and not (tmp_path / "x.csv").exists()


def test_config_t_min_not_below_t_max_names_both_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_min": 0.6, "t_max": 0.02}))
    code, _, err = run(["--config", str(cfg), "sequence", "--scheme", "free"], capsys)
    assert code == 2
    assert f"config {str(cfg)!r} key 't_min' 0.6 must be below 't_max' 0.02" in err
    assert "t_grid" not in err
    # one point needs no order between the bounds
    cfg.write_text(json.dumps({"t_min": 0.6, "t_max": 0.02, "t_points": 1}))
    assert load_config(str(cfg))[0].t_grid == (0.6,)


def test_pulse_scan_notes_that_sweep_keys_apply_to_scan_only(tmp_path, capsys):
    # the config's sweep keys used to be ignored by pulse scan without a word
    argv = ["pulse", "scan", "--pulse", "rect", "--out"]
    code, _, err = run(argv + [str(tmp_path / "plain.csv")], capsys)
    assert code == 0 and "scan only" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_floor": 1e-3, "t_points": 3}))
    code, _, err = run(["--config", str(cfg)] + argv + [str(tmp_path / "cfg.csv")], capsys)
    assert code == 0
    assert err.count("\n") == 1 and "apply to scan only" in err
    for suffix in (".csv", ".fits.json"):
        plain = (tmp_path / f"plain{suffix}").read_bytes()
        assert (tmp_path / f"cfg{suffix}").read_bytes() == plain


def test_both_scans_print_the_same_unfittable_message(tmp_path, capsys):
    code, _, scan_err = run(
        ["scan", "--scheme", "free", "--op", "Z1", "--out", str(tmp_path / "s.csv")], capsys
    )
    assert code == 3
    code, _, pulse_err = run(
        ["pulse", "scan", "--pulse", "rect", "--tau-points", "3",
         "--out", str(tmp_path / "p.csv")], capsys,
    )
    assert code == 3
    assert pulse_err == scan_err == "error: one or more operators could not be fitted\n"


def test_sequence_cdd_nested_negative_order_exit_2(capsys):
    code, _, err = run(["sequence", "--scheme", "cdd_nested", "--orders=-1,3"], capsys)
    assert code == 2
    assert "CDD orders must be >= 0" in err


def test_pulse_scan_integer_beyond_float_range_exit_2(tmp_path, capsys):
    # json reads 1000...0 as an int that math.isfinite cannot convert; it used
    # to end in an OverflowError traceback
    bad = tmp_path / "bad.json"
    bad.write_text('{"tau_p": 1' + "0" * 400 + ', "tau_s": 0.5, "segments": []}')
    code, _, err = run(
        ["pulse", "scan", "--pulse", str(bad), "--out", str(tmp_path / "ps.csv")], capsys
    )
    assert code == 2
    assert "'tau_p' must be a finite number, got int" in err


INAPPLICABLE = [
    ("free", ["--orders", "2"]),
    ("first_order", ["--orders", "7,7,7"]),
    ("sdd", ["--orders", "1"]),
    *((scheme, ["--op", "Z1"]) for scheme in
      ("free", "first_order", "sdd", "cdd", "cdd_nested", "nudd")),
    *((scheme, ["--include-closing"]) for scheme in
      ("udd", "free", "cdd", "cdd_nested", "nudd")),
    *((scheme, ["--allow-odd-inner"]) for scheme in
      ("udd", "free", "first_order", "sdd", "cdd", "cdd_nested")),
]
VALID_ORDERS = {"udd": "2", "cdd": "2", "cdd_nested": "2,2", "nudd": "2,2"}


@pytest.mark.parametrize("scheme, option", INAPPLICABLE,
                         ids=[f"{scheme}{option[0]}" for scheme, option in INAPPLICABLE])
def test_sequence_option_that_cannot_apply_exit_2(capsys, scheme, option):
    # each of these used to be ignored, with exit 0
    orders = ["--orders", VALID_ORDERS[scheme]] if scheme in VALID_ORDERS else []
    code, _, err = run(["sequence", "--scheme", scheme, *orders, *option], capsys)
    assert code == 2
    assert f"{option[0]} does not apply to scheme {scheme!r}" in err


def test_sequence_options_that_apply_still_accepted(capsys):
    for argv in (["--scheme", "udd", "--orders", "2", "--op", "X1"],
                 ["--scheme", "first_order", "--include-closing"],
                 ["--scheme", "sdd", "--include-closing"]):
        assert run(["sequence", *argv], capsys)[0] == 0


def test_scan_op_selects_the_operator_for_every_scheme(tmp_path, capsys):
    code, _, _ = run(
        ["scan", "--scheme", "nudd", "--orders", "2,2", "--op", "X1",
         "--out", str(tmp_path / "n.csv")], capsys,
    )
    assert code == 0
    assert set(json.loads((tmp_path / "n.fits.json").read_text())) == {"X1"}


def test_scan_threads_flag_removed_exit_1(tmp_path, capsys):
    code, _, err = run(
        ["scan", "--scheme", "udd", "--orders", "2", "--threads", "2",
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 1
    assert "--threads" in err


def test_pulse_scan_exact_with_zero_hamiltonian_exit_0(tmp_path, capsys):
    # H = 0 makes every error sit at the floor: "exact", as in scan; it used
    # to print "unfittable" and exit 3
    cfg = tmp_path / "z.json"
    cfg.write_text(json.dumps({"norm_bound": 0.0}))
    code, stdout, _ = run(
        ["--config", str(cfg), "pulse", "scan", "--pulse", "rect",
         "--out", str(tmp_path / "ps.csv")], capsys,
    )
    assert code == 0
    assert "(exact)" in stdout
    assert json.loads((tmp_path / "ps.fits.json").read_text())["Z1"]["status"] == "exact"


def test_pulse_scan_operator_dimension_mismatch_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["pulse", "scan", "--pulse", "rect", "--moos", "qubit_full:2",
         "--model", "general:2x4", "--out", str(tmp_path / "ps.csv")], capsys,
    )
    assert code == 2
    assert "operator 'Z1' acts on dimension 4, system dimension is 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["mlevel_full:0", "mlevel_full:-4", "mlevel_diagonal:0",
                                  "mlevel_diagonal:-3"])
def test_moos_mlevel_size_below_one_exit_2(spec):
    # mlevel_full:0 used to loop forever; the others ended in a traceback.
    # A subprocess with a timeout makes a hang fail instead of stalling the suite.
    src = str(Path(ddkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ddkit.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "moos", "--spec", spec],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 2
    size = spec.split(":")[1]
    assert f"system dimension must be >= 1, got {size}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["sequence", "--scheme", "free"],
                                  ["moos", "--spec", "qubit_full:1"]])
def test_config_norm_bound_checked_by_every_command(tmp_path, capsys, argv):
    # sequence and moos used to exit 0 with a negative norm_bound
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"norm_bound": -1}))
    code, _, err = run(["--config", str(cfg), *argv], capsys)
    assert code == 2
    assert "norm_bound must be finite and >= 0, got -1" in err


@pytest.mark.parametrize("scheme, orders, intervals", [("udd", "100000000", "100000001"),
                                                       ("nudd", "2,1048576", "3145731")])
def test_sequence_interval_count_checked_before_building(scheme, orders, intervals):
    # udd at order 10^8 used to build its events before any check, about
    # 11.5 GB; a subprocess with a timeout makes a regression fail instead
    # of exhausting memory.
    src = str(Path(ddkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ddkit.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "sequence", "--scheme", scheme, "--orders", orders],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 2
    want = f"{scheme} would have {intervals} control intervals, more than MAX_INTERVALS"
    assert want in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pulse_scan_non_utf8_pulse_file_exit_2(tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback with exit 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, _, err = run(["pulse", "scan", "--pulse", str(bad), "--out", str(tmp_path / "o.csv")],
                       capsys)
    assert code == 2
    assert "malformed pulse JSON" in err


@pytest.mark.parametrize("moos, model, needle", [
    ("qubit_full:1", "general:2x0", "sys_dim and bath_dim must be >= 1, got 2 and 0"),
    ("qubit_full:1", "nonsense:2x4",
     "unknown model structure 'nonsense'; choose from "
     "['general', 'pure_dephasing', 'qdd_counterexample']"),
    ("qubit_full:1", "general:64x64", "total dimension 4096 exceeds"),
    ("qubit_full:1", "general:2by4", "malformed model spec 'general:2by4'"),
    ("qubit_full:2", "general:2x4", "MOOS dimension 4 != model system dimension 2"),
], ids=["zero_bath", "unknown_structure", "too_large", "malformed", "moos_dim_mismatch"])
def test_scan_bad_model_spec_exit_2(tmp_path, capsys, moos, model, needle):
    # general:2x0 used to end in a ZeroDivisionError traceback from the
    # sweep's chunk sizing
    code, _, err = run(
        ["scan", "--scheme", "udd", "--orders", "2", "--moos", moos, "--model", model,
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 2
    assert needle in err
    assert not (tmp_path / "x.csv").exists()


@pytest.fixture
def no_geomspace(monkeypatch):
    """np.geomspace that fails the test if it is called at all."""
    def geomspace(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "geomspace", geomspace)


def test_pulse_scan_huge_tau_grid_exit_2(tmp_path, capsys, no_geomspace):
    # used to end in an ArrayMemoryError traceback
    code, _, err = run(
        ["pulse", "scan", "--pulse", "rect", "--tau-points", "100000000000",
         "--out", str(tmp_path / "ps.csv")], capsys,
    )
    assert code == 2
    assert "sweep budget exceeded: 100000000000 products > 1000000" in err


def test_config_huge_t_grid_exit_2(tmp_path, capsys, no_geomspace):
    # used to end in an ArrayMemoryError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_points": 100000000000}))
    code, _, err = run(
        ["--config", str(cfg), "scan", "--scheme", "udd", "--orders", "2",
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 2
    assert "sweep budget exceeded: 100000000000 products > 1000000" in err


def test_scan_huge_seed_count_exit_2_before_allocating(tmp_path, capsys):
    # used to build tuple(range(--seeds)) before the budget check: 2,000,000
    # seeds peaked at 97 MB traced, and a larger count would exhaust memory
    tracemalloc.start()
    try:
        code, _, err = run(
            ["scan", "--scheme", "udd", "--orders", "2", "--op", "Z1",
             "--seeds", "2000000", "--out", str(tmp_path / "x.csv")], capsys,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "sweep budget exceeded" in err
    assert peak < 5 * 2**20
    assert not (tmp_path / "x.csv").exists()


# Runs ddkit's CLI with every import of scipy refused.
_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
from ddkit.cli import main
try:
    import scipy
except ImportError:
    sys.exit(main(sys.argv[1:]))
sys.exit("scipy was imported")
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: no command may import it
    src = Path(__file__).resolve().parent.parent / "src"
    pulse = tmp_path / "pulse.json"
    commands = [
        ["accept"],
        ["sequence", "--scheme", "nudd", "--orders", "2,3", "--out", str(tmp_path / "s.json")],
        ["scan", "--scheme", "cdd", "--orders", "2", "--out", str(tmp_path / "scan.csv")],
        ["pulse", "design", "--family", "sym3", "--out", str(pulse)],
        ["pulse", "scan", "--pulse", str(pulse), "--out", str(tmp_path / "pulse.csv")],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv],
                              capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": str(src)})
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
