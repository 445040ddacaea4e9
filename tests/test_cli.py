"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from blockadesim.cli import CSV_COLUMNS, main


def run_json(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_ratio_two_echoes_angle(tmp_path, capsys):
    payload = run_json(tmp_path, "synth.json", ["synth", "--ratio", "2"])
    assert payload["derived"]["theta_rad"] == pytest.approx(
        math.asin(7.0 / 25.0), abs=1e-12
    )
    assert len(payload["segments"]) == 5
    assert payload["config"]["ratio_omega2_over_omega1"] == 2.0
    listing = capsys.readouterr().out
    assert "segment 1" in listing
    assert "phase-matched" in listing


def test_synth_toffoli_has_three_segments(tmp_path):
    payload = run_json(tmp_path, "synth.json", ["synth", "--gate", "toffoli"])
    assert len(payload["segments"]) == 3


def test_synth_theta_pi_over_two_gives_unit_ratio(tmp_path):
    payload = run_json(
        tmp_path, "synth.json", ["synth", "--theta-rad", str(math.pi / 2.0)]
    )
    assert payload["derived"]["ratio_omega2_over_omega1"] == pytest.approx(
        1.0, abs=1e-6
    )


def test_synth_defaults_without_flags(tmp_path):
    payload = run_json(tmp_path, "synth.json", ["synth"])
    assert payload["config"]["omega_bar_MHz"] == 0.54
    assert payload["config"]["ratio_omega2_over_omega1"] == 2.0
    assert payload["derived"]["omega3_MHz"] == pytest.approx(
        0.54 / math.sqrt(2.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_cnot_high_fidelity(tmp_path):
    payload = run_json(tmp_path, "sim.json", ["simulate", "--gate", "cnot"])
    assert payload["fidelity"]["state_average"] > 0.99
    assert payload["unitarity_defect"] < 1e-9
    assert set(payload["leakage_per_input"]) == {"00", "01", "10", "11"}


def test_simulate_blockade_limit(tmp_path):
    payload = run_json(
        tmp_path,
        "sim.json",
        [
            "simulate",
            "--gate",
            "deutsch",
            "--v-scale",
            "1000",
            "--cc-interaction",
            "none",
            "--frame-correction",
            "on",
        ],
    )
    assert payload["infidelity_state_average"] < 1e-4


def test_simulate_decay_matches_budget(tmp_path):
    payload = run_json(
        tmp_path, "sim.json", ["simulate", "--decay", "effective"]
    )
    budget = run_json(tmp_path, "budget.json", ["budget"])
    losses = payload["norm_loss_per_input"].values()
    mean_loss = sum(losses) / len(payload["norm_loss_per_input"])
    assert mean_loss == pytest.approx(budget["budget"]["decay"], rel=0.1)


def test_simulate_reports_dwell(tmp_path):
    payload = run_json(tmp_path, "sim.json", ["simulate"])
    # singly excited control: pi/w0 + 4pi/wbar + sqrt(2)pi/w3 = 0.05 + 3/0.54 us
    assert payload["dwell_per_input_us"]["010"] == pytest.approx(
        0.05 + 3.0 / 0.54, rel=0.01
    )


def test_simulate_extreme_control_drive(tmp_path):
    # control pi pulses ~1e-300 us long next to us-long target pulses
    payload = run_json(tmp_path, "sim.json", ["simulate", "--omega0-mhz", "1e300"])
    dwell = payload["dwell_per_input_us"]
    assert all(math.isfinite(v) for v in dwell.values())
    assert dwell["110"] == pytest.approx(0.678, rel=1e-3)
    assert payload["unitarity_defect"] < 1e-9


# ---------------------------------------------------------------------------
# budget / phase
# ---------------------------------------------------------------------------

def test_budget_defaults(tmp_path):
    payload = run_json(tmp_path, "budget.json", ["budget"])
    assert payload["tau_us"] == 1590.0
    assert payload["budget"]["total"] == pytest.approx(6.598e-3, rel=1e-3)
    assert payload["budget"]["total"] == pytest.approx(
        payload["budget"]["decay"]
        + payload["budget"]["blockade"]
        + payload["budget"]["two_photon"]
    )


def test_budget_temperature_flag(tmp_path):
    payload = run_json(
        tmp_path, "budget.json", ["budget", "--temperature", "300K"]
    )
    assert payload["tau_us"] == 313.0


def test_budget_explicit_tau(tmp_path):
    payload = run_json(tmp_path, "budget.json", ["budget", "--tau-us", "500"])
    assert payload["tau_us"] == 500.0
    assert payload["temperature"] is None


def test_phase_solutions(tmp_path):
    payload = run_json(tmp_path, "phase.json", ["phase"])
    solutions = {s["N"]: s for s in payload["matched_solutions"]}
    assert solutions[1]["omega_bar_MHz"] == pytest.approx(0.64, rel=0.01)
    assert solutions[2]["omega_bar_MHz"] == pytest.approx(0.32, rel=0.01)
    assert solutions[1]["phi_rad"] == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_phase_at_032(tmp_path):
    payload = run_json(
        tmp_path, "phase.json", ["phase", "--omega-bar-mhz", "0.32"]
    )
    assert payload["phi_rad"] == pytest.approx(4.0 * math.pi, rel=0.01)
    assert payload["phi_rad"] > 0.0  # negative C6 gives positive phi


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 115  # 0.02 .. 2.30 in 0.02 steps
    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert float(first["omega_bar_MHz"]) == 0.02
    # ascending omega_bar, >= 6 significant digits on a representative value
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == sorted(values)
    row_054 = next(line for line in lines[1:] if line.startswith("0.54,"))
    assert len(row_054.split(",")[1].replace(".", "").lstrip("0")) >= 6

    summary = json.loads(capsys.readouterr().out)
    assert summary["argmin"]["4.2K"]["omega_bar_MHz"] == pytest.approx(0.54, abs=0.021)
    assert summary["argmin"]["300K"]["omega_bar_MHz"] == pytest.approx(0.92, abs=0.021)
    assert summary["argmin"]["4.2K"]["total"] == pytest.approx(6.7e-3, rel=0.1)
    assert summary["argmin"]["300K"]["total"] == pytest.approx(18e-3, rel=0.1)


def test_sweep_csv_is_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--out", str(out_a)]) == 0
    assert main(["sweep", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_grid_step_flag(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), "--grid-step", "0.1",
                 "--sweep-start", "0.1", "--sweep-stop", "1.0"]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 11


# ---------------------------------------------------------------------------
# config handling and validation
# ---------------------------------------------------------------------------

def test_config_file_roundtrip(tmp_path):
    cfg = {
        "gate": "deutsch",
        "theta_rad": 1.0,
        "omega_bar_MHz": 0.64,
        "options": {"frame_correction": False},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payload = run_json(
        tmp_path, "synth.json", ["synth", "--config", str(cfg_path)]
    )
    assert payload["config"]["theta_rad"] == 1.0
    assert payload["config"]["options"]["frame_correction"] is False
    assert payload["derived"]["theta_rad"] == pytest.approx(1.0, abs=1e-9)


def test_config_echo_embedded_everywhere(tmp_path):
    for name, argv in [
        ("synth.json", ["synth"]),
        ("sim.json", ["simulate", "--gate", "cnot"]),
        ("budget.json", ["budget"]),
        ("phase.json", ["phase"]),
    ]:
        payload = run_json(tmp_path, name, argv)
        assert payload["config"]["omega0_MHz"] == 10.0
        assert payload["config"]["c6_GHz_um6"] == -633.0


def test_theta_and_ratio_together_rejected(capsys):
    code = main(["synth", "--theta-rad", "1.0", "--ratio", "2.0"])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_theta_rejected_for_cnot(capsys):
    assert main(["synth", "--gate", "cnot", "--theta-rad", "1.0"]) == 1
    assert "deutsch" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega_barMHz": 0.5}))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_values_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega_bar_MHz": -1.0}))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    cfg_path.write_text(json.dumps({"temperature": "77K"}))
    assert main(["budget", "--config", str(cfg_path)]) == 1
    capsys.readouterr()


def test_json_output_to_stdout_without_out(capsys):
    assert main(["budget"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["budget"]["total"] > 0.0
    assert "total error" in captured.err


@pytest.mark.parametrize(
    "cfg",
    [
        {"options": {"v_scale": "2"}},
        {"tau_us": "1590"},
        {"c6_GHz_um6": None},
        {"c6_GHz_um6": 0.0},
        {"omega_bar_MHz": True},
        {"theta_rad": "1.0"},
    ],
)
def test_mistyped_config_gives_one_error_line(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
