import json

import pytest

from ddkit.cli import main
from ddkit.operators import moos_from_json
from ddkit.pulseshape import pulse_from_json
from ddkit.sequences import schedule_from_json, udd_times


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


def test_scan_zero_seeds_exit_2(tmp_path, capsys):
    # used to exit 3 ("unfittable")
    code, _, err = run(
        ["scan", "--scheme", "udd", "--orders", "2", "--op", "Z1", "--seeds", "0",
         "--out", str(tmp_path / "x.csv")], capsys,
    )
    assert code == 2
    assert "seeds must not be empty" in err


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


def test_pulse_design_rect_exit_3(capsys):
    code, _, err = run(["pulse", "design", "--family", "rect"], capsys)
    assert code == 3
    assert "residual" in err
