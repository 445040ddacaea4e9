"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

from blockadesim.budget import SWEEP_MAX_POINTS
from blockadesim import cli
from blockadesim.cli import CSV_COLUMNS, FIELDS, build_parser, main
from blockadesim.schedule import RATIO_MAX, RATIO_MIN

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
    "cfg,message",
    [
        ({"omega_bar_MHz": 0}, "omega_bar_MHz must be a positive number, got 0"),
        ({"options": {"v_scale": 0.0}}, "options.v_scale must be a positive number"),
        ({"tau_us": -1}, "tau_us must be a positive number or null"),
        ({"temperature": "77K"}, "temperature must be one of"),
        ({"theta_rad": 3.5}, "theta_rad must lie in [0, pi]"),
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
    ],
    ids=["v_scale", "c6", "omega_ratio", "budget_omega0", "sweep_omega0", "phase_inf",
         "decay_rate"],
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

COMMON_OPTIONS = [
    (("-h", "--help"), None, None),
    (("--config",), None, None),
    (("--out",), None, None),
    (("--gate",), ("deutsch", "toffoli", "cnot"), None),
    (("--theta-rad",), None, float),
    (("--ratio",), None, float),
    (("--omega0-mhz",), None, float),
    (("--omega-bar-mhz",), None, float),
    (("--omega3-mhz",), None, float),
    (("--c6",), None, float),
    (("--spacing-um",), None, float),
    (("--temperature",), ("300K", "4.2K"), None),
    (("--tau-us",), None, float),
    (("--v-scale",), None, float),
    (("--decay",), ("none", "effective"), None),
    (("--cc-interaction",), ("physical", "none"), None),
    (("--frame-correction",), ("on", "off"), None),
]
SWEEP_OPTIONS = [
    (("--grid-step",), None, float),
    (("--sweep-start",), None, float),
    (("--sweep-stop",), None, float),
]


def test_each_subcommand_keeps_its_flags():
    subparsers = next(
        action for action in build_parser()._actions if action.choices
    ).choices
    assert list(subparsers) == ["synth", "simulate", "sweep", "budget", "phase"]
    for name, parser in subparsers.items():
        options = [
            (tuple(a.option_strings), tuple(a.choices) if a.choices else None, a.type)
            for a in parser._actions
        ]
        assert options == COMMON_OPTIONS + (SWEEP_OPTIONS if name == "sweep" else []), name


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
