"""Command-line interface: schedule synthesis, simulation, error-budget
sweeps, and phase-matching reports.

All frequencies in configs, flags, and outputs are f = omega/2pi in MHz
(internally everything is angular, rad/us).  Commands read an optional JSON
config plus flag overrides; the fully resolved config is echoed in every JSON
output, so runs are reproducible from their artifacts alone.

Examples:
    blockadesim synth --ratio 2
    blockadesim simulate --gate cnot --out report.json
    blockadesim sweep --grid-step 0.02 --out sweep.csv
    blockadesim budget --temperature 300K
    blockadesim phase --omega-bar-mhz 0.32

When --out is given the primary artifact (JSON, or CSV for sweep) goes to the
file and the human-readable summary to stdout; without --out the artifact
goes to stdout and the summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .budget import (
    TAU_BY_TEMPERATURE,
    ErrorBudget,
    argmin_total,
    error_budget,
    gate_time,
    sweep,
)
from .evolve import SimulationOptions, evolve
from .ideal import cnot_ideal, deutsch_ideal, gate_fidelity, toffoli_ideal
from .model import PhysicalParams
from .qcore import unitarity_defect
from .schedule import (
    SQRT2,
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    phase_phi,
    solve_phase_matching,
    toffoli_schedule,
)

TWO_PI = 2.0 * math.pi

GATES = ("deutsch", "toffoli", "cnot")

DEFAULT_CONFIG = {
    "gate": "deutsch",
    "theta_rad": None,
    "ratio_omega2_over_omega1": None,
    "omega0_MHz": 10.0,
    "omega_bar_MHz": 0.54,
    "omega3_MHz": None,
    "c6_GHz_um6": -633.0,
    "L_um": 6.0,
    "temperature": "4.2K",
    "tau_us": None,
    "options": {
        "decay": "none",
        "cc_interaction": "physical",
        "frame_correction": True,
        "v_scale": 1.0,
    },
    "sweep": {
        "start_MHz": 0.02,
        "stop_MHz": 2.3,
        "step_MHz": 0.02,
    },
}

_FLAG_TO_KEY = {
    "gate": "gate",
    "theta_rad": "theta_rad",
    "ratio": "ratio_omega2_over_omega1",
    "omega0_mhz": "omega0_MHz",
    "omega_bar_mhz": "omega_bar_MHz",
    "omega3_mhz": "omega3_MHz",
    "c6": "c6_GHz_um6",
    "spacing_um": "L_um",
    "temperature": "temperature",
    "tau_us": "tau_us",
}

_FLAG_TO_OPTION = {
    "decay": "decay",
    "cc_interaction": "cc_interaction",
    "frame_correction": "frame_correction",
    "v_scale": "v_scale",
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return cfg


def _merge_section(base: dict, update: dict, section: str) -> None:
    for key, value in update.items():
        if key not in base:
            raise ConfigError(f"unknown {section} key {key!r}")
        base[key] = value


def resolve_config(args: argparse.Namespace) -> tuple[dict, set[str]]:
    """Defaults <- config file <- flags; returns the config and the set of
    top-level keys the user supplied (needed for the theta/ratio rule)."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    supplied: set[str] = set()

    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_cfg.items():
        if key == "options":
            if not isinstance(value, dict):
                raise ConfigError("config 'options' must be an object")
            _merge_section(cfg["options"], value, "options")
        elif key == "sweep":
            if not isinstance(value, dict):
                raise ConfigError("config 'sweep' must be an object")
            _merge_section(cfg["sweep"], value, "sweep")
        elif key in cfg:
            cfg[key] = value
            if value is not None:
                supplied.add(key)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    for flag, key in _FLAG_TO_KEY.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = value
            supplied.add(key)
    for flag, key in _FLAG_TO_OPTION.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg["options"][key] = value
    if getattr(args, "grid_step", None) is not None:
        cfg["sweep"]["step_MHz"] = args.grid_step
    if getattr(args, "sweep_start", None) is not None:
        cfg["sweep"]["start_MHz"] = args.sweep_start
    if getattr(args, "sweep_stop", None) is not None:
        cfg["sweep"]["stop_MHz"] = args.sweep_stop

    _validate_config(cfg, supplied)
    return cfg, supplied


def _is_finite_number(value) -> bool:
    """True for a finite int or float; JSON true/false load as bool, which
    Python counts as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _validate_config(cfg: dict, supplied: set[str]) -> None:
    if cfg["gate"] not in GATES:
        raise ConfigError(f"gate must be one of {GATES}, got {cfg['gate']!r}")
    for key in ("omega0_MHz", "omega_bar_MHz", "L_um"):
        if not _is_finite_number(cfg[key]) or not cfg[key] > 0:
            raise ConfigError(f"{key} must be a positive number, got {cfg[key]!r}")
    for key in ("omega3_MHz", "tau_us"):
        if cfg[key] is not None and not (_is_finite_number(cfg[key]) and cfg[key] > 0):
            raise ConfigError(f"{key} must be a positive number or null, got {cfg[key]!r}")
    if not _is_finite_number(cfg["c6_GHz_um6"]) or cfg["c6_GHz_um6"] == 0:
        raise ConfigError(
            f"c6_GHz_um6 must be a finite nonzero number, got {cfg['c6_GHz_um6']!r}"
        )
    if cfg["tau_us"] is None and cfg["temperature"] not in TAU_BY_TEMPERATURE:
        raise ConfigError(
            f"temperature must be one of {sorted(TAU_BY_TEMPERATURE)} "
            f"(or set tau_us), got {cfg['temperature']!r}"
        )
    opts = cfg["options"]
    if opts["decay"] not in ("none", "effective"):
        raise ConfigError(f"options.decay must be 'none' or 'effective', got {opts['decay']!r}")
    if opts["cc_interaction"] not in ("physical", "none"):
        raise ConfigError(
            f"options.cc_interaction must be 'physical' or 'none', got {opts['cc_interaction']!r}"
        )
    if not isinstance(opts["frame_correction"], bool):
        raise ConfigError("options.frame_correction must be true or false")
    if not _is_finite_number(opts["v_scale"]) or not opts["v_scale"] > 0:
        raise ConfigError(f"options.v_scale must be positive, got {opts['v_scale']!r}")
    for key, value in cfg["sweep"].items():
        if not _is_finite_number(value):
            raise ConfigError(f"sweep.{key} must be a number, got {value!r}")

    has_theta = "theta_rad" in supplied
    has_ratio = "ratio_omega2_over_omega1" in supplied
    for key, given in (("theta_rad", has_theta), ("ratio_omega2_over_omega1", has_ratio)):
        if given and not _is_finite_number(cfg[key]):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
    if cfg["gate"] == "deutsch":
        if has_theta and has_ratio:
            raise ConfigError("supply exactly one of theta_rad / ratio for the deutsch gate")
        if not has_theta and not has_ratio:
            cfg["ratio_omega2_over_omega1"] = 2.0
        if has_theta and not 0.0 <= cfg["theta_rad"] <= math.pi:
            raise ConfigError(f"theta_rad must lie in [0, pi], got {cfg['theta_rad']}")
    elif has_theta or has_ratio:
        raise ConfigError("theta_rad / ratio apply to the deutsch gate only")
    if has_ratio and not cfg["ratio_omega2_over_omega1"] > 0:
        raise ConfigError(f"ratio must be positive, got {cfg['ratio_omega2_over_omega1']!r}")


def resolve_tau(cfg: dict) -> float:
    if cfg["tau_us"] is not None:
        return float(cfg["tau_us"])
    return TAU_BY_TEMPERATURE[cfg["temperature"]]


def build_drive(cfg: dict) -> DriveParams:
    omega0 = TWO_PI * cfg["omega0_MHz"]
    omega_bar = TWO_PI * cfg["omega_bar_MHz"]
    omega3 = TWO_PI * cfg["omega3_MHz"] if cfg["omega3_MHz"] is not None else None
    if cfg["gate"] == "deutsch" and cfg["theta_rad"] is not None:
        return DriveParams.from_theta(omega0, omega_bar, cfg["theta_rad"], omega3)
    ratio = cfg["ratio_omega2_over_omega1"]
    if ratio is None:
        ratio = 1.0  # toffoli/cnot never touch the ratio pulses
    return DriveParams.from_ratio(omega0, omega_bar, ratio, omega3)


def build_params(cfg: dict, n_atoms: int) -> PhysicalParams:
    params = PhysicalParams(
        c6_over_2pi=cfg["c6_GHz_um6"],
        spacing=cfg["L_um"],
        lifetime=resolve_tau(cfg),
        n_atoms=n_atoms,
    )
    v_scale = cfg["options"]["v_scale"]
    if v_scale != 1.0:
        params = params.with_interaction_scaled(v_scale)
    return params


def build_schedule(cfg: dict, drive: DriveParams):
    builders = {
        "deutsch": deutsch_schedule,
        "toffoli": toffoli_schedule,
        "cnot": cnot_schedule,
    }
    return builders[cfg["gate"]](drive)


def build_options(cfg: dict) -> SimulationOptions:
    opts = cfg["options"]
    return SimulationOptions(
        decay_tau=resolve_tau(cfg) if opts["decay"] == "effective" else None,
        cc_interaction=opts["cc_interaction"],
        frame_correction=opts["frame_correction"],
    )


def derived_block(cfg: dict, drive: DriveParams, params: PhysicalParams) -> dict:
    theta = drive.theta if cfg["gate"] != "cnot" else None
    return {
        "theta_rad": theta,
        "ratio_omega2_over_omega1": drive.omega2 / drive.omega1,
        "omega1_MHz": drive.omega1 / TWO_PI,
        "omega2_MHz": drive.omega2 / TWO_PI,
        "omega3_MHz": drive.omega3 / TWO_PI,
        "omega_bar_MHz": drive.omega_bar / TWO_PI,
        "blockade_V_MHz": params.blockade / TWO_PI,
        "control_residue_MHz": params.control_residue / TWO_PI,
        "tau_us": resolve_tau(cfg),
        "gate_time_us": gate_time(drive),
    }


def _budget_dict(b: ErrorBudget) -> dict:
    return {
        "gate_time_us": b.gate_time_us,
        "control_dwell_us": b.control_dwell_us,
        "mean_rydberg_time_us": b.mean_rydberg_time_us,
        "residue_phase_rad": b.residue_phase_rad,
        "decay": b.decay,
        "blockade": b.blockade,
        "two_photon": b.two_photon,
        "total": b.total,
    }


def _emit(payload: dict, out_path: str | None, summary: str) -> None:
    """Primary artifact to --out (summary to stdout) or stdout (summary to
    stderr)."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        if summary:
            print(summary)
    else:
        if summary:
            print(summary, file=sys.stderr)
        print(text)


def _format_transition(tr) -> str:
    magnitude = abs(tr.rabi) / TWO_PI
    phase_deg = math.degrees(math.atan2(tr.rabi.imag, tr.rabi.real))
    return (
        f"atom {tr.atom}  {tr.lower}<->r  |Omega|/2pi = {magnitude:.6f} MHz"
        f"  phase = {phase_deg:+7.1f} deg"
    )


def cmd_synth(args) -> int:
    cfg, _ = resolve_config(args)
    drive = build_drive(cfg)
    schedule = build_schedule(cfg, drive)
    params = build_params(cfg, schedule.n_atoms)
    derived = derived_block(cfg, drive, params)
    v = params.blockade
    phi = phase_phi(drive, v)
    matches = [
        {"N": n, "omega_bar_MHz": solve_phase_matching(n, v) / TWO_PI}
        for n in range(1, 7)
    ]

    lines = [
        f"{cfg['gate']} schedule ({schedule.n_atoms} atoms), "
        f"total {schedule.total_duration:.6f} us"
    ]
    if derived["theta_rad"] is not None:
        lines.append(
            f"theta = {derived['theta_rad']:.9f} rad "
            f"(ratio omega2/omega1 = {derived['ratio_omega2_over_omega1']:.9f})"
        )
    for i, seg in enumerate(schedule.segments, start=1):
        lines.append(f"segment {i}: {seg.duration:.6f} us")
        for tr in seg.transitions:
            lines.append("  " + _format_transition(tr))
    lines.append(f"residue phase phi = {phi:.6f} rad ({phi / math.pi:.4f} pi)")
    lines.append(
        "phase-matched omega_bar/2pi (MHz): "
        + ", ".join(f"N={m['N']}: {m['omega_bar_MHz']:.6f}" for m in matches)
    )
    listing = "\n".join(lines)

    payload = {
        "config": cfg,
        "derived": derived,
        "phi_rad": phi,
        "phase_matching": matches,
        "segments": [
            {
                "index": i,
                "duration_us": seg.duration,
                "transitions": [
                    {
                        "atom": tr.atom,
                        "lower": tr.lower,
                        "rabi_MHz_re": tr.rabi.real / TWO_PI,
                        "rabi_MHz_im": tr.rabi.imag / TWO_PI,
                        "magnitude_MHz": abs(tr.rabi) / TWO_PI,
                        "phase_deg": math.degrees(math.atan2(tr.rabi.imag, tr.rabi.real)),
                    }
                    for tr in seg.transitions
                ],
            }
            for i, seg in enumerate(schedule.segments, start=1)
        ],
    }
    _emit(payload, args.out, listing)
    return 0


def cmd_simulate(args) -> int:
    cfg, _ = resolve_config(args)
    drive = build_drive(cfg)
    schedule = build_schedule(cfg, drive)
    params = build_params(cfg, schedule.n_atoms)
    options = build_options(cfg)
    result = evolve(schedule, params, options)

    if cfg["gate"] == "deutsch":
        ideal = deutsch_ideal(drive.theta)
    elif cfg["gate"] == "toffoli":
        ideal = toffoli_ideal()
    else:
        ideal = cnot_ideal()
    fid_avg = gate_fidelity(result.computational_block, ideal)
    fid_trace = gate_fidelity(result.computational_block, ideal, mode="trace")

    payload = {
        "config": cfg,
        "derived": derived_block(cfg, drive, params),
        "fidelity": {"state_average": fid_avg, "trace": fid_trace},
        "infidelity_state_average": 1.0 - fid_avg,
        "leakage_per_input": result.leakage_per_input,
        "norm_loss_per_input": result.norm_loss_per_input,
        "dwell_per_input_us": result.dwell_per_input,
        "phase": {
            "correction_rad": result.phase_correction,
            "mismatch_rad": result.phase_mismatch,
        },
        "unitarity_defect": unitarity_defect(result.full_propagator),
    }
    summary = (
        f"{cfg['gate']}: state-average fidelity {fid_avg:.6f}, "
        f"trace fidelity {fid_trace:.6f}"
    )
    _emit(payload, args.out, summary)
    return 0


def cmd_budget(args) -> int:
    cfg, _ = resolve_config(args)
    drive = build_drive(cfg)
    params = build_params(cfg, 3)
    tau = resolve_tau(cfg)
    b = error_budget(drive, params, tau)
    payload = {
        "config": cfg,
        "derived": derived_block(cfg, drive, params),
        "temperature": cfg["temperature"] if cfg["tau_us"] is None else None,
        "tau_us": tau,
        "budget": _budget_dict(b),
    }
    summary = (
        f"omega_bar/2pi = {cfg['omega_bar_MHz']} MHz, tau = {tau} us: "
        f"total error {b.total:.6e} "
        f"(decay {b.decay:.3e}, blockade {b.blockade:.3e}, two-photon {b.two_photon:.3e})"
    )
    _emit(payload, args.out, summary)
    return 0


def cmd_phase(args) -> int:
    cfg, _ = resolve_config(args)
    drive = build_drive(cfg)
    params = build_params(cfg, 3)
    v = params.blockade
    phi = phase_phi(drive, v)
    solutions = []
    for n in range(1, 9):
        omega_bar = solve_phase_matching(n, v)
        matched = replace(
            drive,
            omega1=drive.omega1 * omega_bar / drive.omega_bar,
            omega2=drive.omega2 * omega_bar / drive.omega_bar,
            omega3=omega_bar / SQRT2,
        )
        solutions.append(
            {
                "N": n,
                "omega_bar_MHz": omega_bar / TWO_PI,
                "phi_rad": phase_phi(matched, v),
            }
        )
    payload = {
        "config": cfg,
        "derived": derived_block(cfg, drive, params),
        "phi_rad": phi,
        "phi_over_pi": phi / math.pi,
        "matched_solutions": solutions,
    }
    summary = f"phi = {phi:.6f} rad ({phi / math.pi:.4f} pi) at omega_bar/2pi = {cfg['omega_bar_MHz']} MHz"
    _emit(payload, args.out, summary)
    return 0


CSV_COLUMNS = (
    "omega_bar_MHz",
    "T_g_us",
    "E_decay_4K",
    "E_bl",
    "E_2ph",
    "total_4K",
    "E_decay_300K",
    "total_300K",
    "phi_rad",
)


def _csv_text(points) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for p in points:
        cold, warm = p.budget_4k, p.budget_300k
        values = (
            p.omega_bar_mhz,
            cold.gate_time_us,
            cold.decay,
            cold.blockade,
            cold.two_photon,
            cold.total,
            warm.decay,
            warm.total,
            cold.residue_phase_rad,
        )
        lines.append(",".join(f"{v:.9g}" for v in values))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    cfg, _ = resolve_config(args)
    drive = build_drive(cfg)
    params = build_params(cfg, 3)
    ratio = drive.omega2 / drive.omega1
    grid = cfg["sweep"]
    points = sweep(
        params,
        start_mhz=grid["start_MHz"],
        stop_mhz=grid["stop_MHz"],
        step_mhz=grid["step_MHz"],
        omega0=TWO_PI * cfg["omega0_MHz"],
        ratio=ratio,
    )
    csv_text = _csv_text(points)

    min_cold = argmin_total(points, "4.2K")
    min_warm = argmin_total(points, "300K")
    summary_payload = {
        "config": cfg,
        "rows": len(points),
        "argmin": {
            "4.2K": {
                "omega_bar_MHz": min_cold.omega_bar_mhz,
                "total": min_cold.budget_4k.total,
            },
            "300K": {
                "omega_bar_MHz": min_warm.omega_bar_mhz,
                "total": min_warm.budget_300k.total,
            },
        },
        "csv_path": args.out,
    }
    summary_text = json.dumps(summary_payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        print(summary_text)
    else:
        print(summary_text, file=sys.stderr)
        sys.stdout.write(csv_text)
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="write the primary artifact to this path")
    parser.add_argument("--gate", choices=GATES, help="gate kind")
    parser.add_argument("--theta-rad", type=float, dest="theta_rad",
                        help="deutsch angle in radians (alternative to --ratio)")
    parser.add_argument("--ratio", type=float,
                        help="omega2/omega1 ratio (alternative to --theta-rad)")
    parser.add_argument("--omega0-mhz", type=float, dest="omega0_mhz",
                        help="control Rabi frequency /2pi, MHz")
    parser.add_argument("--omega-bar-mhz", type=float, dest="omega_bar_mhz",
                        help="bright-state Rabi frequency /2pi, MHz")
    parser.add_argument("--omega3-mhz", type=float, dest="omega3_mhz",
                        help="swap-pulse Rabi frequency /2pi, MHz (default omega_bar/sqrt(2))")
    parser.add_argument("--c6", type=float, help="C6/2pi in GHz um^6 (signed)")
    parser.add_argument("--spacing-um", type=float, dest="spacing_um",
                        help="lattice spacing L in um")
    parser.add_argument("--temperature", choices=sorted(TAU_BY_TEMPERATURE),
                        help="picks the Rydberg lifetime")
    parser.add_argument("--tau-us", type=float, dest="tau_us",
                        help="explicit Rydberg lifetime in us (overrides temperature)")
    parser.add_argument("--v-scale", type=float, dest="v_scale",
                        help="multiply the interaction strength (blockade-limit studies)")
    parser.add_argument("--decay", choices=("none", "effective"),
                        help="effective Rydberg decay on/off")
    parser.add_argument("--cc-interaction", choices=("physical", "none"),
                        dest="cc_interaction", help="control-control residue shift")
    parser.add_argument("--frame-correction", choices=("on", "off"),
                        dest="frame_correction_raw",
                        help="remove the predicted residue phase before comparison")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="Rydberg-blockade Deutsch/Toffoli/CNOT gate simulator and error budgets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="print/export the pulse schedule")
    p_sim = sub.add_parser("simulate", help="propagate the schedule and report fidelities")
    p_sweep = sub.add_parser("sweep", help="analytic error-budget sweep over omega_bar (CSV)")
    p_budget = sub.add_parser("budget", help="analytic error budget at one operating point")
    p_phase = sub.add_parser("phase", help="residue phase and phase-matched omega_bar values")

    for p in (p_synth, p_sim, p_sweep, p_budget, p_phase):
        _add_common_flags(p)
    p_sweep.add_argument("--grid-step", type=float, dest="grid_step",
                         help="omega_bar grid step in MHz (default 0.02)")
    p_sweep.add_argument("--sweep-start", type=float, dest="sweep_start",
                         help="first omega_bar/2pi grid value in MHz")
    p_sweep.add_argument("--sweep-stop", type=float, dest="sweep_stop",
                         help="last omega_bar/2pi grid value in MHz")

    args = parser.parse_args(argv)
    if getattr(args, "frame_correction_raw", None) is not None:
        args.frame_correction = args.frame_correction_raw == "on"
    else:
        args.frame_correction = None

    commands = {
        "synth": cmd_synth,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "budget": cmd_budget,
        "phase": cmd_phase,
    }
    try:
        status = commands[args.command](args)
        # A piped stdout is block-buffered, so a short report sits in the
        # buffer until it is flushed; flush here, where a closed reader's
        # BrokenPipeError is caught, not at interpreter exit.
        sys.stdout.flush()
        return status
    except (ConfigError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early.  Send what is still buffered to
        # devnull, so that the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
