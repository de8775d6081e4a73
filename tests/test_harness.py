"""Harness: configuration round-trips, the simulation runner, metrics,
trace export, presets, sweeps, and the CLI."""

import json
import math
import os

import numpy as np
import pytest

from esobank.cli import main as cli_main
from esobank.errors import ConfigError
from esobank.harness import (
    ScenarioConfig,
    SimulationTrace,
    iae,
    make_preset,
    preset_names,
    run_scenario,
    run_single_law,
    sweep,
    trace_columns,
    _simulate,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def test_config_round_trip_for_all_presets():
    for name in preset_names():
        cfg = make_preset(name)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        assert ScenarioConfig.from_json(cfg.to_json()) == cfg
        assert len(cfg.config_hash()) == 64


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({"name": "x", "bogus": 1})
    assert "bogus" in str(err.value)


def test_config_errors_name_the_field():
    cfg = make_preset("tiny")
    data = cfg.to_dict()
    data["poles"] = [[150.0, 3]]  # degree 3 against a 2nd-order plant
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig.from_dict(data))
    assert "poles" in str(err.value)

    data = cfg.to_dict()
    data["observers"] = [{"order": 2, "omega_o": 100.0}]
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig.from_dict(data))
    assert "observers[0].order" in str(err.value)

    data = cfg.to_dict()
    data["observers"] = [{"order": 3, "omega_o": 100.0, "junk": 1}]
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig.from_dict(data))
    assert "junk" in str(err.value)

    data = cfg.to_dict()
    data["plant"] = {"kind": "hovercraft"}
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig.from_dict(data))
    assert "plant.kind" in str(err.value)

    data = cfg.to_dict()
    data["dt"] = -1.0
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig.from_dict(data))
    assert "dt" in str(err.value)


def test_quiet_preset_has_zero_error_everywhere():
    trace, metrics = run_scenario(make_preset("quiet"))
    for law, value in metrics.iae.items():
        assert value <= 1e-9, f"{law} IAE {value}"
    assert metrics.switch_count == 0
    assert np.all(trace.array("ebar1") == 0.0)


def test_iae_conventions():
    cols = trace_columns(1)

    def make_trace(values, dt):
        trace = SimulationTrace(cols)
        for k, v in enumerate(values):
            row = [k * dt] + [0.0] * (len(cols) - 1)
            row[cols.index("ebar1")] = v
            trace.append(row)
        return trace

    # constant error of 1 over one second integrates to exactly 1
    steps = 1000
    ones = make_trace([1.0] * (steps + 1), 1e-3)
    assert iae(ones, "rectangle") == pytest.approx(1.0, abs=1e-12)
    assert iae(ones, "trapezoid") == pytest.approx(1.0, abs=1e-12)

    zeros = make_trace([0.0] * 11, 1e-3)
    assert iae(zeros, "rectangle") == 0.0

    # exp(-t) over [0, 10]: integral is 1 - exp(-10)
    dt = 1e-3
    ts = np.arange(0, 10 + dt / 2, dt)
    decay = make_trace(list(np.exp(-ts)), dt)
    assert iae(decay, "rectangle") == pytest.approx(1.0, abs=1e-3)
    assert iae(decay, "trapezoid") == pytest.approx(1.0 - math.exp(-10.0),
                                                    abs=1e-7)


def test_trace_schema_and_row_count():
    cfg = make_preset("tiny")
    trace, _ = run_scenario(cfg)
    assert trace.columns == [
        "t", "r", "y", "x1_star", "e1", "ebar1", "u", "active",
        "etilde1_0", "etilde1_1", "z_0", "z_1", "acc_0", "acc_1", "probe",
    ]
    assert trace.row_count == round(cfg.duration / cfg.dt) + 1
    text = trace.to_csv_text()
    assert text.startswith("# esobank simulation trace\n")
    assert "# config_sha256: " in text


def test_trace_golden_file():
    # regression pin on the exact bytes of the tiny preset's trace
    trace, _ = run_scenario(make_preset("tiny"))
    golden_path = os.path.join(DATA_DIR, "tiny_trace.csv")
    with open(golden_path) as fh:
        assert trace.to_csv_text() == fh.read()


def test_long_format_export(tmp_path):
    trace, _ = run_scenario(make_preset("tiny"))
    path = tmp_path / "long.csv"
    trace.write_long_csv(path)
    lines = path.read_text().splitlines()
    header = lines[lines.index("t,series,value") + 1:]
    assert len(header) == trace.row_count * (len(trace.columns) - 1)


def test_fixed_seed_reruns_are_byte_identical():
    data = make_preset("tiny").to_dict()
    data["noise_amplitude"] = 1e-6
    cfg = ScenarioConfig.from_dict(data)
    first, _ = _simulate(cfg)
    second, _ = _simulate(cfg)
    assert first.to_csv_text() == second.to_csv_text()


def test_noise_changes_with_seed():
    data = make_preset("tiny").to_dict()
    data["noise_amplitude"] = 1e-6
    a, _ = _simulate(ScenarioConfig.from_dict(data))
    data["seed"] = 1
    b, _ = _simulate(ScenarioConfig.from_dict(data))
    assert a.to_csv_text() != b.to_csv_text()


def test_baseline_runs_share_disturbance_realization():
    cfg = make_preset("detuned-bank")
    data = cfg.to_dict()
    data["duration"] = 0.05
    cfg = ScenarioConfig.from_dict(data)
    s0 = run_single_law(cfg, 0)
    s1 = run_single_law(cfg, 1)
    assert s0.data["probe"][:20] == s1.data["probe"][:20]


def test_sweep_runs_values_in_order():
    data = make_preset("tiny").to_dict()
    cfg = ScenarioConfig.from_dict(data)
    results = sweep(cfg, "plant.disturbance.amplitude", [0.0, 2.0])
    assert [v for v, _ in results] == [0.0, 2.0]
    assert results[0][1].iae["multi"] <= results[1][1].iae["multi"]


def test_sweep_rejects_bad_path():
    cfg = make_preset("tiny")
    with pytest.raises(ConfigError):
        sweep(cfg, "plant.nonexistent.level", [1.0])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_and_outputs(tmp_path):
    cfg = make_preset("tiny")
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    code = cli_main(["run", str(cfg_path), "--out", str(tmp_path), "--long"])
    assert code == 0
    assert (tmp_path / "tiny_trace.csv").exists()
    assert (tmp_path / "tiny_metrics.txt").exists()
    assert (tmp_path / "tiny_trace_long.csv").exists()


def test_cli_preset_show():
    assert cli_main(["preset", "tiny", "--show"]) == 0


def test_cli_bad_config_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "bogus": true}')
    assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
    missing = tmp_path / "missing.json"
    assert cli_main(["run", str(missing), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("field,raw", [
    ("dt", '"0.001"'),
    ("duration", "1e400"),
    ("window", "true"),
    ("u_limit", "-5"),
    ("seed", "-1"),
    ("noise_amplitude", "NaN"),
    ("duration", "0.0005"),  # under one step of dt = 1e-3
    ("dt", "5e-324"),  # duration / dt overflows
])
def test_cli_bad_numeric_field_exits_1_naming_it(tmp_path, capsys, field, raw):
    data = make_preset("tiny").to_dict()
    data["noise_amplitude"] = 1e-6  # so that the seed is drawn from
    del data[field]
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(data)[:-1] + f', "{field}": {raw}}}')
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert f"config error: {field}:" in capsys.readouterr().err


_SINE = {"kind": "sinusoid", "amplitude": 1.0, "omega": 2.0}
_MOVE = {"kind": "move", "start": 0.0,
         "segments": [{"t_start": 0.0, "t_move": 0.1, "target": 1.0}]}


@pytest.mark.parametrize("section,body,field", [
    # signals, under the reference and under the chain plant's disturbance
    ("reference", {**_SINE, "amplitude": "abc"}, "reference.amplitude"),
    ("reference", {**_SINE, "amplitude": "3"}, "reference.amplitude"),
    ("reference", {"kind": "constant", "value": math.nan}, "reference.value"),
    ("reference", {"kind": "poly", "coeffs": "12"}, "reference.coeffs"),
    ("reference", {**_MOVE, "segments": 5}, "reference.segments"),
    ("reference", {**_MOVE, "segments": [{"t_move": 0.1, "target": 1.0}]},
     "reference.segments[0].t_start"),
    ("disturbance", {**_SINE, "amplitude": "abc"},
     "plant.disturbance.amplitude"),
    ("disturbance", 5, "plant.disturbance"),
    ("disturbance", {"kind": "sum", "terms": [5]},
     "plant.disturbance.terms[0]"),
    ("disturbance", {"kind": "sum", "terms": [], "scale": 2.0},
     "plant.disturbance.scale"),
    ("disturbance", {"kind": "step", "t_step": 0.0, "amplitude": math.inf},
     "plant.disturbance.amplitude"),
    # plants
    ("plant", {"kind": "chain", "n": 2, "b": "3.25"}, "plant.b"),
    ("plant", {"kind": "chain", "n": 2.5, "b": 3.25}, "plant.n"),
    ("plant", {"kind": "chain", "n": 2, "b": 3.25, "x0": [0.0, math.nan]},
     "plant.x0[1]"),
    ("plant", {"kind": "rfc", "m_s": "2"}, "plant.m_s"),
    ("plant", {"kind": "rfc", "m_f": math.nan}, "plant.m_f"),
    ("plant", {"kind": "rfc", "k": True}, "plant.k"),
    ("plant", {"kind": "rfc", "c": math.inf}, "plant.c"),
    ("plant", {"kind": "rfc", "ka_ks": [6.5]}, "plant.ka_ks"),
    ("plant", {"kind": "rfc", "friction": {"f_static": "12"}},
     "plant.friction.f_static"),
    # observers
    ("observers", [{"order": 3, "omega_o": "300"}], "observers[0].omega_o"),
    ("observers", [{"order": 3.0, "omega_o": 300.0}], "observers[0].order"),
    ("observers", [{"order": 3, "omega_o": 300.0, "initial_estimates": [1e400]}],
     "observers[0].initial_estimates[0]"),
    ("observers", [{"order": 3, "omega_o": 300.0, "beta": [1.0, 2.0, "3"]}],
     "observers[0].beta[2]"),
    # friction speeds, after the cases above so that their ids stay put
    ("plant", {"kind": "rfc", "friction": {"v_stribeck": 0}},
     "plant.friction.v_stribeck"),
    ("plant", {"kind": "rfc", "friction": {"v_dead": -1.0}},
     "plant.friction.v_dead"),
])
def test_cli_bad_nested_field_exits_1_naming_it(tmp_path, capsys, section,
                                                 body, field):
    data = make_preset("tiny").to_dict()
    if section == "disturbance":
        data["plant"]["disturbance"] = body
    else:
        data[section] = body
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("n,code", [(3, 0), (4, 1)])
def test_cli_move_reference_needs_plant_order_at_most_3(tmp_path, capsys, n,
                                                        code):
    # a move's r''' jumps at each segment end; from order 4 on x* would no
    # longer be the ideal response, so the run is refused
    data = make_preset("tiny").to_dict()
    data.update(plant={"kind": "chain", "n": n, "b": 3.25},
                poles=[[150.0, n]], reference=_MOVE,
                observers=[{"order": n + 1, "omega_o": 300.0}])
    cfg_path = tmp_path / "move.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == code
    assert ("config error: reference:" in capsys.readouterr().err) == bool(code)


def test_cli_divergence_exits_2(tmp_path):
    # step size far beyond the observer's stability limit blows the loop up
    data = make_preset("tiny").to_dict()
    data["dt"] = 5e-3
    data["duration"] = 0.5
    data["observers"] = [{"order": 3, "omega_o": 1500.0}]
    cfg_path = tmp_path / "div.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_cli_verify_subset(capsys):
    assert cli_main(["verify", "--only", "gain-expansion"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] gain-expansion" in out
    assert cli_main(["verify", "--only", "no-such-check"]) == 1


def test_cli_verify_failure_exits_3(monkeypatch):
    import esobank.verify as verify_mod
    from esobank.verify import CheckResult

    def failing_check():
        return CheckResult("rigged", False, 1.0, 0.0, "forced failure")

    monkeypatch.setattr(verify_mod, "ALL_CHECKS", (("rigged", failing_check),))
    assert cli_main(["verify"]) == 3


def test_verify_checks_share_each_scenario_run(monkeypatch):
    import esobank.verify as verify_mod

    calls = []

    def fake_audit(scn):
        calls.append(scn["name"])
        return {"ratios": {"etilde_1": 0.5, "ebar_1": 0.25}}

    monkeypatch.setattr(verify_mod, "run_bound_audit", fake_audit)
    monkeypatch.setattr(verify_mod, "run_bank_bound_audit",
                        lambda: {"ebar_ratio": 0.125})
    verify_mod._bound_audit_ratios.cache_clear()
    assert verify_mod.check_estimation_error_bounds().measured == 0.5
    assert verify_mod.check_tracking_error_bound().measured == 0.25
    assert calls == [scn["name"] for scn in verify_mod.BOUND_SCENARIOS]
    verify_mod._bound_audit_ratios.cache_clear()


def test_cli_output_dir_from_config(tmp_path, monkeypatch):
    monkeypatch.delenv("ESOBANK_OUT", raising=False)
    data = make_preset("tiny").to_dict()
    data["output_dir"] = str(tmp_path / "nested")
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "nested" / "tiny_trace.csv").exists()


def test_stick_slip_preset_runs():
    data = make_preset("chain-stickslip").to_dict()
    data["duration"] = 0.05
    data["run_baselines"] = False
    trace, metrics = run_scenario(ScenarioConfig.from_dict(data))
    assert math.isfinite(metrics.iae["multi"])
    assert np.all(np.isfinite(trace.array("y")))


def test_r20_preset_runs():
    data = make_preset("paper-p2p-r20").to_dict()
    data["duration"] = 0.5
    data["run_baselines"] = False
    trace, metrics = run_scenario(ScenarioConfig.from_dict(data))
    assert math.isfinite(metrics.iae["multi"])
    assert trace.array("r")[-1] == pytest.approx(20.0)


def test_config_rejects_malformed_nodes():
    base = make_preset("tiny").to_dict()
    for field, value in (
        ("plant", "chain"),
        ("observers", "bank"),
        ("observers", ["third-order"]),
        ("reference", 10.0),
    ):
        data = dict(base)
        data[field] = value
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig.from_dict(data))


def test_cli_sweep(tmp_path):
    cfg = make_preset("tiny")
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    code = cli_main([
        "sweep", str(cfg_path), "--param", "plant.b",
        "--values", "3.0,3.25", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "tiny_sweep.csv").exists()
