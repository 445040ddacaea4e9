"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy
import pytest

import blockadesim
from blockadesim.budget import SWEEP_MAX_POINTS
from blockadesim import cli
from blockadesim.cli import CSV_COLUMNS, FIELDS, build_parser, main
from blockadesim.schedule import (
    RATIO_MAX,
    RATIO_MIN,
    DriveParams,
    cnot_schedule,
    toffoli_schedule,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


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


@pytest.mark.parametrize("command", ["synth", "simulate", "budget", "phase"])
@pytest.mark.parametrize("gate,builder", [("toffoli", toffoli_schedule),
                                          ("cnot", cnot_schedule)])
def test_derived_gate_time_is_the_configured_gate_duration(tmp_path, command, gate, builder):
    # the three-pulse gates last 1.95 us at the defaults, the Deutsch gate 5.66 us
    payload = run_json(tmp_path, "out.json", [command, "--gate", gate])
    drive = DriveParams.from_ratio(2.0 * math.pi * 10.0, 2.0 * math.pi * 0.54, 1.0)
    assert payload["derived"]["gate_time_us"] == builder(drive).total_duration


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


def test_simulate_records_its_provenance(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    payload = run_json(tmp_path, "sim.json", ["simulate", "--gate", "cnot"])
    assert payload["provenance"] == {
        "blockadesim": blockadesim.__version__,
        "python": "{}.{}.{}".format(*sys.version_info),
        "numpy": numpy.__version__,
        "blas_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                     "MKL_NUM_THREADS": None},
    }


@pytest.mark.parametrize("gate", ["deutsch", "cnot"])
def test_simulate_records_its_stage_timings(tmp_path, gate):
    payload = run_json(tmp_path, "sim.json", ["simulate", "--gate", gate])
    timings = payload["timings_ms"]
    assert set(timings) == {"schedule", "evolve", "metrics"}
    for value in timings.values():
        assert isinstance(value, float) and math.isfinite(value) and value >= 0.0


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


@pytest.mark.parametrize("decay", ["none", "effective"])
def test_tiny_spacing_gives_one_error_line(tmp_path, capsys, decay):
    # L = 1 nm makes max|H| * duration about 4e59 rad
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L_um": 1e-9}))
    argv = ["simulate", "--config", str(cfg_path), "--decay", decay]
    assert main(argv + ["--out", str(tmp_path / "sim.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "max|H|" in lines[0]


@pytest.mark.parametrize("command", ["budget", "simulate"])
@pytest.mark.parametrize("spacing", [1e60, 1e-60])
def test_spacing_outside_float_range_gives_one_error_line(tmp_path, capsys, command, spacing):
    # L**6 overflows at 1e60 um and underflows to 0 at 1e-60 um
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"L_um": spacing}))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "float range" in lines[0]


@pytest.mark.parametrize("command", ["synth", "simulate", "sweep", "budget", "phase"])
@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_out_gives_one_error_line(tmp_path, capsys, command, target):
    # a path in a missing directory, and a directory as the target
    out = tmp_path / target
    assert main([command, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")


def test_closed_stdout_exits_quietly(tmp_path):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE whatever the timing; PYTHONUNBUFFERED
    # is dropped so that the child buffers stdout as it does in a shell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "blockadesim.cli", "synth",
             "--out", str(tmp_path / "synth.json")],
            env={**env, "PYTHONPATH": SRC},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_no_scipy_loaded_with_or_without_decay(tmp_path):
    # a fresh interpreter: other test modules load scipy into this process
    script = textwrap.dedent(
        """
        import sys
        from blockadesim.cli import main

        def scipy_modules():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"]

        assert not scipy_modules(), scipy_modules()
        assert main(["simulate", "--decay", "none", "--out", sys.argv[1]]) == 0
        assert not scipy_modules(), scipy_modules()
        assert main(["simulate", "--decay", "effective", "--out", sys.argv[2]]) == 0
        assert not scipy_modules(), scipy_modules()
        """
    )
    plain, decayed = tmp_path / "plain.json", tmp_path / "decayed.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(plain), str(decayed)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    losses = json.loads(decayed.read_text())["norm_loss_per_input"].values()
    assert all(0.0 <= loss <= 1.0 for loss in losses)
    assert max(losses) > 0.0


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


# The budget of each three-pulse gate at the defaults (0.54 MHz, 4.2 K).
GATE_BUDGETS = {
    "toffoli": dict(gate_time_us=1.95185, mean_rydberg_time_us=2.01759, decay=1.2689e-3,
                    blockade=8.988e-4, two_photon=5.495e-4, residue_phase_rad=2.4666),
    "cnot": dict(gate_time_us=1.95185, mean_rydberg_time_us=1.18241, decay=7.4365e-4,
                 blockade=0.0, two_photon=4.884e-4, residue_phase_rad=0.0),
}


@pytest.mark.parametrize("gate", sorted(GATE_BUDGETS))
def test_budget_follows_the_gate(tmp_path, gate):
    payload = run_json(tmp_path, "budget.json", ["budget", "--gate", gate])
    for key, expected in GATE_BUDGETS[gate].items():
        assert payload["budget"][key] == pytest.approx(expected, rel=1e-4, abs=1e-12), key
    assert payload["budget"]["gate_time_us"] == payload["derived"]["gate_time_us"]
    # the CNOT register has no control pair
    expected_residue = 0.0 if gate == "cnot" else pytest.approx(-0.21199, rel=1e-4)
    assert payload["derived"]["control_residue_MHz"] == expected_residue


def test_toffoli_residue_phase_is_the_simulated_correction(tmp_path):
    simulated = run_json(tmp_path, "sim.json", ["simulate", "--gate", "toffoli"])
    correction = simulated["phase"]["correction_rad"]
    assert correction == pytest.approx(2.4666, rel=1e-4)
    synth = run_json(tmp_path, "synth.json", ["synth", "--gate", "toffoli"])
    phase = run_json(tmp_path, "phase.json", ["phase", "--gate", "toffoli"])
    assert synth["phi_rad"] == phase["phi_rad"] == correction
    for first in (synth["phase_matching"][0], phase["matched_solutions"][0]):
        assert first["N"] == 1
        assert first["omega_bar_MHz"] == pytest.approx(0.21199, rel=1e-4)
    assert phase["matched_solutions"][0]["phi_rad"] == pytest.approx(2.0 * math.pi, abs=1e-9)


@pytest.mark.parametrize("gate", ["deutsch", "toffoli"])
def test_synth_reports_the_phase_matching_of_phase(tmp_path, capsys, gate):
    # one report: synth carries phase's residue phase and matched drives
    synth = run_json(tmp_path, "synth.json", ["synth", "--gate", gate])
    phase = run_json(tmp_path, "phase.json", ["phase", "--gate", gate])
    assert synth["phi_rad"] == phase["phi_rad"]
    assert synth["phase_matching"] == phase["matched_solutions"]
    assert [m["N"] for m in synth["phase_matching"]] == list(range(1, 9))
    assert ", N=8: " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["synth", "phase"])
def test_phase_matching_runs_where_simulate_does(tmp_path, command):
    # phase matching solves on a slow reference drive that the segment-phase
    # bound would refuse at this v_scale; the configured drive passes it
    argv = ["--v-scale", "3e9"]
    assert run_json(tmp_path, "sim.json", ["simulate", *argv])["unitarity_defect"] < 1e-9
    report = run_json(tmp_path, "out.json", [command, *argv])
    key = {"synth": "phase_matching", "phase": "matched_solutions"}[command]
    assert [m["N"] for m in report[key]] == list(range(1, 9))


def test_cnot_has_no_residue_phase_to_match(tmp_path, capsys):
    synth = run_json(tmp_path, "synth.json", ["synth", "--gate", "cnot"])
    assert synth["phi_rad"] == 0.0 and synth["phase_matching"] == []
    assert "phase-matched omega_bar/2pi (MHz): none" in capsys.readouterr().out
    phase = run_json(tmp_path, "phase.json", ["phase", "--gate", "cnot"])
    assert phase["phi_rad"] == 0.0 and phase["matched_solutions"] == []


@pytest.mark.parametrize("gate", ["toffoli", "cnot"])
def test_sweep_follows_the_gate(tmp_path, gate):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gate", gate, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    columns = dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))
    at_054 = columns["omega_bar_MHz"].index(0.54)
    assert columns["T_g_us"][at_054] == pytest.approx(1.95185, rel=1e-5)
    if gate == "cnot":
        assert set(columns["E_bl"]) == set(columns["phi_rad"]) == {0.0}


def test_budget_register_mismatch_gives_one_error_line(monkeypatch, capsys):
    # the budget rejects params of another register, as evolve does
    three_atoms = cli.build_params
    monkeypatch.setattr(cli, "build_params", lambda cfg: three_atoms({**cfg, "gate": "deutsch"}))
    assert main(["budget", "--gate", "cnot"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: the cnot gate needs 2 atoms, params have 3"]


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


def test_sweep_rejects_omega3(tmp_path, capsys):
    # the sweep sets omega3 = omega_bar/sqrt(2) at every grid point
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega3_MHz": 0.05}))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: omega3_MHz must be null for sweep")
    assert "omega_bar/sqrt(2)" in lines[0]
    # a null value runs, and gives the default sweep
    cfg_path.write_text(json.dumps({"omega3_MHz": None}))
    nulled = tmp_path / "nulled.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(nulled)]) == 0
    assert main(["sweep", "--out", str(out)]) == 0
    assert nulled.read_bytes() == out.read_bytes()


def test_sweep_error_names_the_refused_grid_point(tmp_path, capsys):
    # the first grid point whose two-photon phase at L = 8.4 um passes pi/2
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spacing-um", "8.4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: at omega_bar/2pi = 2.26 MHz: two-photon phase -1.58 rad "
                               "exceeds pi/2")
    # the grid below that point runs
    assert main(["sweep", "--spacing-um", "8.4", "--sweep-stop", "2.24", "--out", str(out)]) == 0


def test_sweep_grid_over_limit_gives_one_error_line(tmp_path, capsys):
    # one point over the limit, so a missing check builds no huge grid
    out = tmp_path / "sweep.csv"
    step = 1.0 / SWEEP_MAX_POINTS
    assert main(["sweep", "--out", str(out), "--grid-step", str(step),
                 "--sweep-start", "1.0", "--sweep-stop", "2.0"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


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


# the top-level keys of each JSON artifact, and of the sweep's JSON summary
ARTIFACT_KEYS = {
    "synth": {"config", "derived", "phi_rad", "phase_matching", "segments"},
    "simulate": {"config", "derived", "fidelity", "infidelity_state_average",
                 "leakage_per_input", "norm_loss_per_input", "dwell_per_input_us", "phase",
                 "unitarity_defect", "provenance", "timings_ms"},
    "budget": {"config", "derived", "temperature", "tau_us", "budget"},
    "phase": {"config", "derived", "phi_rad", "phi_over_pi", "matched_solutions"},
    "sweep": {"config", "rows", "argmin", "csv_path"},
}


def test_config_echo_embedded_everywhere(tmp_path, capsys):
    for name, argv in [
        ("synth.json", ["synth"]),
        ("sim.json", ["simulate", "--gate", "cnot"]),
        ("budget.json", ["budget"]),
        ("phase.json", ["phase"]),
    ]:
        payload = run_json(tmp_path, name, argv)
        assert set(payload) == ARTIFACT_KEYS[argv[0]]
        assert payload["config"]["omega0_MHz"] == 10.0
        assert payload["config"]["c6_GHz_um6"] == -633.0
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == ARTIFACT_KEYS["sweep"]
    assert summary["config"]["omega0_MHz"] == 10.0
    assert summary["csv_path"] == str(out)


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


@pytest.mark.parametrize(
    "cfg",
    [{"options": {"decay_typo": "none"}}, {"sweep": {"step": 0.1}}, {"options.decay": "effective"}],
)
def test_unknown_section_key_rejected(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "unknown config key" in lines[0]


@pytest.mark.parametrize(
    "command,content",
    [
        ("budget", b"[" * 100_000 + b"]" * 100_000),
        ("simulate", b'{"options": ' + b'{"a": ' * 50_000 + b"1" + b"}" * 50_001),
        ("synth", b'{"omega0_MHz": \xff}'),
        ("budget", b'{"tau_us": 1' + b"0" * 5000 + b"}"),
    ],
    ids=["deep_list", "deep_options", "bad_utf8", "long_int"],
)
def test_unreadable_config_names_the_file(tmp_path, capsys, command, content):
    # deep nesting exhausts the parser's recursion; bad UTF-8 and an int past
    # the digit limit fail while decoding
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    assert main([command, "--config", str(cfg_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read config {cfg_path}: ")


@pytest.mark.parametrize("flag,tau", [("--temperature=300K", 313.0), ("--tau-us=500", 500.0)])
def test_simulate_lifetime_flag_needs_effective_decay(tmp_path, capsys, flag, tau):
    # without effective decay simulate reads no lifetime, so the flag would
    # change no simulated number
    assert main(["simulate", flag]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--decay effective" in lines[0]
    payload = run_json(tmp_path, "sim.json", ["simulate", "--decay", "effective", flag])
    assert payload["derived"]["tau_us"] == tau


def test_simulate_accepts_lifetime_keys_in_a_config_without_decay(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"temperature": "300K", "tau_us": 500,
                                    "options": {"decay": "none"}}))
    payload = run_json(tmp_path, "sim.json", ["simulate", "--config", str(cfg_path)])
    assert payload["config"]["tau_us"] == 500 and payload["derived"]["tau_us"] == 500.0


@pytest.mark.parametrize(
    "cfg,message",
    [
        ({"omega_bar_MHz": 0}, "omega_bar_MHz must be a positive number, got 0"),
        ({"options": {"v_scale": 0.0}}, "options.v_scale must be a positive number"),
        ({"tau_us": -1}, "tau_us must be a positive number or null"),
        ({"temperature": "77K"}, "temperature must be one of"),
        ({"theta_rad": 3.5}, "theta_rad must lie in [0, pi]"),
        # a field error comes before the angle rule's
        ({"theta_rad": 1.0, "ratio_omega2_over_omega1": 2.0, "omega_bar_MHz": 0},
         "omega_bar_MHz must be a positive number, got 0"),
        ({"gate": "cnot", "theta_rad": 1.0, "tau_us": -1},
         "tau_us must be a positive number or null, got -1"),
        ({"ratio_omega2_over_omega1": 5, "sweep": {"step_MHz": None}},
         "sweep.step_MHz must be a number, got None"),
        # a section that is not an object, and a file that is not one
        ({"options": 5}, "config 'options' must be an object"),
        ({"sweep": [0.1]}, "config 'sweep' must be an object"),
        ([1, 2], "must contain a JSON object"),
    ],
)
def test_rejection_names_the_key(tmp_path, capsys, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and message in lines[0]


@pytest.mark.parametrize("command", ["synth", "simulate", "budget", "phase", "sweep"])
@pytest.mark.parametrize("ratio", ["5", "0.4142"])
def test_ratio_off_the_tunable_branch_rejected(tmp_path, capsys, command, ratio):
    argv = [command, "--ratio", ratio, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ratio_omega2_over_omega1")


@pytest.mark.parametrize("command", ["synth", "simulate", "budget", "phase", "sweep"])
@pytest.mark.parametrize("ratio", [RATIO_MIN, RATIO_MAX])
def test_ratio_branch_endpoints_accepted(capsys, command, ratio):
    assert main([command, "--ratio", repr(ratio)]) == 0
    captured = capsys.readouterr()
    # sweep writes its CSV to stdout and the JSON summary to stderr
    payload = json.loads(captured.err if command == "sweep" else captured.out)
    assert payload["config"]["ratio_omega2_over_omega1"] == ratio


def test_tiny_blockade_shift_names_the_two_photon_term(tmp_path, capsys):
    # V = 2pi * 633e3 / 395^6 * 1e-300 rad/us puts every two-photon phase at inf
    argv = ["budget", "--spacing-um", "395", "--v-scale", "1e-300"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: two-photon phase is not finite")


def test_invalid_values_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega_bar_MHz": -1.0}))
    assert main(["synth", "--config", str(cfg_path)]) == 1
    cfg_path.write_text(json.dumps({"temperature": "77K"}))
    assert main(["budget", "--config", str(cfg_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["synth", "simulate", "sweep", "budget", "phase"])
def test_json_output_to_stdout_without_out(tmp_path, capsys, command):
    # stdout holds exactly what --out writes, and the summary moves to stderr
    out = tmp_path / "artifact"
    assert main([command, "--out", str(out)]) == 0
    to_file = capsys.readouterr()
    assert to_file.err == ""
    assert main([command]) == 0
    to_stdout = capsys.readouterr()
    artifact = out.read_text()
    if command == "simulate":  # the wall times differ between runs
        artifact, stdout = json.loads(artifact), json.loads(to_stdout.out)
        del artifact["timings_ms"], stdout["timings_ms"]
        assert stdout == artifact
    else:
        assert to_stdout.out == artifact
    if command == "sweep":  # the JSON summary names the CSV file only with --out
        summaries = json.loads(to_file.out), json.loads(to_stdout.err)
        assert [s.pop("csv_path") for s in summaries] == [str(out), None]
        assert summaries[0] == summaries[1]
    else:
        assert to_stdout.err == to_file.out
    if command == "budget":
        assert json.loads(to_stdout.out)["budget"]["total"] > 0.0
        assert "total error" in to_stdout.err


@pytest.mark.parametrize(
    "cfg",
    [
        {"options": {"v_scale": "2"}},
        {"tau_us": "1590"},
        {"c6_GHz_um6": None},
        {"c6_GHz_um6": 0.0},
        {"omega_bar_MHz": True},
        {"theta_rad": "1.0"},
        {"sweep": {"step_MHz": "0.02"}},
        {"sweep": {"start_MHz": None}},
        {"sweep": {"stop_MHz": True}},
        {"temperature": ["4.2K"]},
        {"temperature": {}},
        {"tau_us": 5, "temperature": 7},
    ],
)
def test_mistyped_config_gives_one_error_line(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv,cfg",
    [
        (["budget", "--v-scale", "1e200"], None),
        (["budget", "--c6=-1e290"], None),
        (["budget"], {"omega0_MHz": 1e300, "omega_bar_MHz": 1e-9}),
        (["budget", "--omega0-mhz", "1e-200"], None),
        (["sweep", "--omega0-mhz", "1e-200"], None),
        # a residue phase that overflows to -inf is no JSON number
        (["phase"], {"c6_GHz_um6": 1e-300, "L_um": 27.0}),
        # the decay rate 0.5 * 3 / tau overflows the segment exponentials
        (["simulate", "--decay", "effective", "--tau-us", "1e-306",
          "--omega-bar-mhz", "0.001"], None),
        # the phase-matched omega_bar underflows below the normal floats
        (["synth", "--c6", "1e-320"], None),
        (["phase", "--c6", "1e-320"], None),
        # a blockade phase past the simulator's segment bound
        (["synth", "--omega-bar-mhz", "1e-300"], None),
        (["phase", "--omega-bar-mhz", "1e-300"], None),
        (["budget", "--omega-bar-mhz", "1e-300"], None),
        (["sweep", "--sweep-start", "1e-300", "--sweep-stop", "1e-300"], None),
        (["synth", "--omega0-mhz", "1e-300"], None),
        (["synth", "--v-scale", "1e200"], None),
        (["phase", "--v-scale", "1e200"], None),
        # a two-photon phase past pi/2, outside the blockade regime
        (["sweep", "--spacing-um", "15"], None),
        (["budget", "--spacing-um", "15"], None),
        (["budget", "--v-scale", "1e-300"], None),
        (["sweep", "--v-scale", "1e-300"], None),
    ],
    ids=["v_scale", "c6", "omega_ratio", "budget_omega0", "sweep_omega0", "phase_inf",
         "decay_rate", "synth_match_underflow", "phase_match_underflow",
         "synth_slow_drive", "phase_slow_drive", "budget_slow_drive", "sweep_slow_drive",
         "synth_slow_control", "synth_v_scale", "phase_v_scale",
         "sweep_wide_spacing", "budget_wide_spacing", "budget_weak_v", "sweep_weak_v"],
)
# a warning would print more stderr lines from a shell
@pytest.mark.filterwarnings("error")
def test_arithmetic_failure_gives_one_error_line(tmp_path, capsys, argv, cfg):
    if cfg is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(cfg_path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the surface: flags and config keys
# ---------------------------------------------------------------------------

# Each flag's choices and type, in the parser's order
FLAG_ACCEPTS = {
    "--gate": (("deutsch", "toffoli", "cnot"), None),
    "--theta-rad": (None, float),
    "--ratio": (None, float),
    "--omega0-mhz": (None, float),
    "--omega-bar-mhz": (None, float),
    "--omega3-mhz": (None, float),
    "--c6": (None, float),
    "--spacing-um": (None, float),
    "--temperature": (("300K", "4.2K"), None),
    "--tau-us": (None, float),
    "--v-scale": (None, float),
    "--decay": (("none", "effective"), None),
    "--cc-interaction": (("physical", "none"), None),
    "--frame-correction": (("on", "off"), None),
    "--grid-step": (None, float),
    "--sweep-start": (None, float),
    "--sweep-stop": (None, float),
}
# The flags of each subcommand: those whose config key its output reads.
# Only simulate and budget read the lifetime, and phase does not read omega0.
ONE_POINT_FLAGS = ["--gate", "--theta-rad", "--ratio", "--omega0-mhz", "--omega-bar-mhz",
                   "--omega3-mhz", "--c6", "--spacing-um", "--temperature", "--tau-us",
                   "--v-scale"]
NO_LIFETIME_FLAGS = [flag for flag in ONE_POINT_FLAGS if flag not in ("--temperature", "--tau-us")]
SUBCOMMAND_FLAGS = {
    "synth": NO_LIFETIME_FLAGS,
    "simulate": ONE_POINT_FLAGS + ["--decay", "--cc-interaction", "--frame-correction"],
    "sweep": ["--gate", "--theta-rad", "--ratio", "--omega0-mhz", "--c6", "--spacing-um",
              "--v-scale", "--grid-step", "--sweep-start", "--sweep-stop"],
    "budget": ONE_POINT_FLAGS,
    "phase": [flag for flag in NO_LIFETIME_FLAGS if flag != "--omega0-mhz"],
}
# One valid non-default value of each flag
FLAG_VALUES = {
    "--gate": "toffoli",
    "--theta-rad": "1.0",
    "--ratio": "1.5",
    "--omega0-mhz": "12",
    "--omega-bar-mhz": "0.32",
    "--omega3-mhz": "0.5",
    "--c6": "-500",
    "--spacing-um": "5",
    "--temperature": "300K",
    "--tau-us": "500",
    "--v-scale": "2",
    "--decay": "effective",
    "--cc-interaction": "none",
    "--frame-correction": "off",
    "--grid-step": "0.1",
    "--sweep-start": "0.1",
    "--sweep-stop": "1.0",
}


def _subparsers():
    return next(action for action in build_parser()._actions if action.choices).choices


def test_each_subcommand_keeps_its_flags():
    subparsers = _subparsers()
    assert list(subparsers) == ["synth", "simulate", "sweep", "budget", "phase"]
    head = [(("-h", "--help"), None, None), (("--config",), None, None), (("--out",), None, None)]
    for name, parser in subparsers.items():
        options = [
            (tuple(a.option_strings), tuple(a.choices) if a.choices else None, a.type)
            for a in parser._actions
        ]
        flags = [((flag,), *FLAG_ACCEPTS[flag]) for flag in SUBCOMMAND_FLAGS[name]]
        assert options == head + flags, name


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"blockadesim {blockadesim.__version__}\n"


def _body(tmp_path, capsys, argv):
    """Exit code, stderr lines and the body of one run's artifact: the JSON
    without its config, its derived block and simulate's wall times, or the
    sweep's CSV with its JSON summary, also without its config."""
    out = tmp_path / "artifact"
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    if code != 0:
        return code, captured.err.splitlines(), None
    if argv[0] == "sweep":
        summary = json.loads(captured.out)
        del summary["config"]
        return code, [], (out.read_text(), summary)
    payload = json.loads(out.read_text())
    del payload["config"], payload["derived"]
    payload.pop("timings_ms", None)
    return code, [], payload


@pytest.mark.parametrize(
    "command,flag",
    [
        (name, action.option_strings[-1])
        for name, parser in _subparsers().items()
        for action in parser._actions
        if action.option_strings[-1] not in ("--help", "--config", "--out")
    ],
)
def test_every_flag_changes_the_artifact(tmp_path, capsys, command, flag):
    # a flag that the subcommand took and then ignored would be a silent
    # nonsense result: the run must move the body of the artifact, not only
    # its config and derived echoes, or fail with one line.  phase --theta-rad
    # and --ratio move the body only in the last digits of each matched
    # phi_rad, since the matched drive rebuilds omega_bar as
    # hypot(omega1, omega2); the exact comparison counts that.
    base = [command]
    if command == "simulate" and flag in ("--temperature", "--tau-us"):
        base.append("--decay=effective")  # the only setting that reads the lifetime
    code, _, default = _body(tmp_path, capsys, base)
    assert code == 0
    code, err, changed = _body(tmp_path, capsys, base + [f"{flag}={FLAG_VALUES[flag]}"])
    if code == 1:
        assert len(err) == 1 and err[0].startswith("error:"), err
    else:
        assert code == 0 and changed != default


@pytest.mark.parametrize(
    "command,flag",
    [(name, flag) for name, flags in SUBCOMMAND_FLAGS.items()
     for flag in FLAG_ACCEPTS if flag not in flags],
)
def test_removed_flag_is_unrecognized_but_its_key_is_echoed(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={FLAG_VALUES[flag]}"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}=" in capsys.readouterr().err
    # the config key is still accepted, checked and echoed
    field = next(f for f in FIELDS if f.flag == flag)
    value = FLAG_VALUES[flag]
    if field.kind == "bool":
        value = value == "on"
    elif field.kind != "choice":
        value = float(value)
    section, _, name = field.key.rpartition(".")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({section: {name: value}} if section else {name: value}))
    out = tmp_path / "artifact"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    if field.key == "omega3_MHz":  # the sweep sets omega3 at each grid point
        assert code == 1 and captured.err.startswith("error: omega3_MHz must be null")
        return
    assert code == 0
    echoed = json.loads(captured.out if command == "sweep" else out.read_text())["config"]
    assert (echoed[section] if section else echoed)[name] == value


def test_example_config_names_every_key_and_echoes_the_defaults(tmp_path):
    path = os.path.join(ROOT, "configs", "example.json")
    with open(path, encoding="utf-8") as fh:
        example = json.load(fh)
    keys = {
        f"{key}.{name}" if isinstance(value, dict) else key
        for key, value in example.items()
        for name in (value if isinstance(value, dict) else [None])
    }
    assert keys == {field.key for field in FIELDS}
    bare = run_json(tmp_path, "bare.json", ["synth"])
    from_file = run_json(tmp_path, "file.json", ["synth", "--config", path])
    assert from_file["config"] == bare["config"]


def test_int_in_config_is_echoed_as_int(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"omega0_MHz": 10}))
    payload = run_json(tmp_path, "budget.json", ["budget", "--config", str(cfg_path)])
    assert payload["config"]["omega0_MHz"] == 10
    assert type(payload["config"]["omega0_MHz"]) is int


@pytest.mark.parametrize("gate", ["deutsch", "toffoli", "cnot"])
def test_gate_builders_are_looked_up_at_call_time(tmp_path, monkeypatch, gate):
    # the benchmark's tracer wraps the builders in the cli module's namespace
    name = f"{gate}_schedule"
    original = getattr(cli, name)
    calls = []
    monkeypatch.setattr(cli, name, lambda drive: calls.append(drive) or original(drive))
    run_json(tmp_path, "sim.json", ["simulate", "--gate", gate])
    assert len(calls) == 1
