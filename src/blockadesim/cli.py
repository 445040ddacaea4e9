"""Command-line interface: schedule synthesis, simulation, error-budget
sweeps, and phase-matching reports.

All frequencies in configs, flags, and outputs are f = omega/2pi in MHz
(internally everything is angular, rad/us).  Commands read an optional JSON
config plus flag overrides; the fully resolved config is echoed in every JSON
output, so runs are reproducible from their artifacts alone.  ``FIELDS`` is
the one list of config keys: each entry gives a key's default, the values it
accepts, its flag and its help text.

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
from dataclasses import asdict, dataclass, replace

from . import __version__
from .budget import (
    TAU_BY_TEMPERATURE,
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
    RATIO_MAX,
    RATIO_MIN,
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


@dataclass(frozen=True)
class Field:
    """One config key: its default, the values it accepts and its flag.

    ``kind`` is "positive", "nonzero" or "finite" for a finite number,
    "choice" for one of ``choices``, or "bool" (flag values on/off).
    """

    key: str  # dotted path into the config, e.g. "options.decay"
    default: object
    kind: str
    flag: str
    help: str
    choices: tuple = ()
    nullable: bool = False
    sweep_only: bool = False

    @property
    def dest(self) -> str:
        """The argparse attribute that holds the flag's value."""
        return self.flag[2:].replace("-", "_")


# The one list of config keys, in flag order.  Defaults, the file merge,
# the flags, the checks and the echoed config all come from it.
FIELDS = (
    Field("gate", "deutsch", "choice", "--gate", "gate kind", choices=GATES),
    Field("theta_rad", None, "finite", "--theta-rad",
          "deutsch angle in radians (alternative to --ratio)", nullable=True),
    Field("ratio_omega2_over_omega1", None, "positive", "--ratio",
          "omega2/omega1 ratio (alternative to --theta-rad)", nullable=True),
    Field("omega0_MHz", 10.0, "positive", "--omega0-mhz",
          "control Rabi frequency /2pi, MHz"),
    Field("omega_bar_MHz", 0.54, "positive", "--omega-bar-mhz",
          "bright-state Rabi frequency /2pi, MHz"),
    Field("omega3_MHz", None, "positive", "--omega3-mhz",
          "swap-pulse Rabi frequency /2pi, MHz (default omega_bar/sqrt(2))", nullable=True),
    Field("c6_GHz_um6", -633.0, "nonzero", "--c6", "C6/2pi in GHz um^6 (signed)"),
    Field("L_um", 6.0, "positive", "--spacing-um", "lattice spacing L in um"),
    Field("temperature", "4.2K", "choice", "--temperature", "picks the Rydberg lifetime",
          choices=tuple(sorted(TAU_BY_TEMPERATURE))),
    Field("tau_us", None, "positive", "--tau-us",
          "explicit Rydberg lifetime in us (overrides temperature)", nullable=True),
    Field("options.v_scale", 1.0, "positive", "--v-scale",
          "multiply the interaction strength (blockade-limit studies)"),
    Field("options.decay", "none", "choice", "--decay", "effective Rydberg decay on/off",
          choices=("none", "effective")),
    Field("options.cc_interaction", "physical", "choice", "--cc-interaction",
          "control-control residue shift", choices=("physical", "none")),
    Field("options.frame_correction", True, "bool", "--frame-correction",
          "remove the predicted residue phase before comparison"),
    Field("sweep.step_MHz", 0.02, "finite", "--grid-step",
          "omega_bar grid step in MHz (default 0.02)", sweep_only=True),
    Field("sweep.start_MHz", 0.02, "finite", "--sweep-start",
          "first omega_bar/2pi grid value in MHz", sweep_only=True),
    Field("sweep.stop_MHz", 2.3, "finite", "--sweep-stop",
          "last omega_bar/2pi grid value in MHz", sweep_only=True),
)

# kind -> (what the error message asks for, test on a finite number)
_NUMBER_KINDS = {
    "positive": ("a positive number", lambda v: v > 0),
    "nonzero": ("a finite nonzero number", lambda v: v != 0),
    "finite": ("a number", lambda v: True),
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _slot(cfg: dict, key: str) -> tuple[dict, str]:
    """The dict that holds a dotted key, and the key's last part."""
    section, _, name = key.rpartition(".")
    return (cfg[section] if section else cfg), name


def _default_config() -> dict:
    cfg: dict = {}
    for field in FIELDS:
        section, _, name = field.key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = field.default
    return cfg


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return cfg


def _merge_file(cfg: dict, file_cfg: dict) -> None:
    for key, value in file_cfg.items():
        section = cfg.get(key)
        if isinstance(section, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config {key!r} must be an object")
            for name, item in value.items():
                if name not in section:
                    raise ConfigError(f"unknown config key {f'{key}.{name}'!r}")
                section[name] = item
        elif key in cfg:
            cfg[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- flags, each value checked against its
    field, then the theta/ratio rule."""
    cfg = _default_config()
    if args.config:
        _merge_file(cfg, _load_config_file(args.config))
    for field in FIELDS:
        value = getattr(args, field.dest, None)
        if value is not None:
            node, name = _slot(cfg, field.key)
            node[name] = value == "on" if field.kind == "bool" else value
    for field in FIELDS:
        node, name = _slot(cfg, field.key)
        _check(field, node[name])
    _resolve_theta_ratio(cfg)
    return cfg


def _is_finite_number(value) -> bool:
    """True for a finite int or float; JSON true/false load as bool, which
    Python counts as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check(field: Field, value) -> None:
    if value is None and field.nullable:
        return
    if field.kind == "bool":
        ok, wanted = isinstance(value, bool), "true or false"
    elif field.kind == "choice":
        ok, wanted = value in field.choices, f"one of {field.choices}"
    else:
        wanted, test = _NUMBER_KINDS[field.kind]
        ok = _is_finite_number(value) and test(value)
    if not ok:
        wanted += " or null" if field.nullable else ""
        raise ConfigError(f"{field.key} must be {wanted}, got {value!r}")


def _resolve_theta_ratio(cfg: dict) -> None:
    """Exactly one of theta and ratio for the deutsch gate (ratio 2 when
    neither is given), neither for the others."""
    theta, ratio = cfg["theta_rad"], cfg["ratio_omega2_over_omega1"]
    if cfg["gate"] != "deutsch":
        if theta is not None or ratio is not None:
            raise ConfigError("theta_rad / ratio apply to the deutsch gate only")
    elif theta is not None and ratio is not None:
        raise ConfigError("supply exactly one of theta_rad / ratio for the deutsch gate")
    elif theta is not None:
        if not 0.0 <= theta <= math.pi:
            raise ConfigError(f"theta_rad must lie in [0, pi], got {theta}")
    elif ratio is None:
        cfg["ratio_omega2_over_omega1"] = 2.0
    elif not RATIO_MIN <= ratio <= RATIO_MAX:
        raise ConfigError(
            "ratio_omega2_over_omega1 must lie on the tunable branch "
            f"[sqrt(2) - 1, sqrt(2) + 1], got {ratio}"
        )


def resolve_tau(cfg: dict) -> float:
    if cfg["tau_us"] is not None:
        return float(cfg["tau_us"])
    return TAU_BY_TEMPERATURE[cfg["temperature"]]


def build_drive(cfg: dict) -> DriveParams:
    omega0 = TWO_PI * cfg["omega0_MHz"]
    omega_bar = TWO_PI * cfg["omega_bar_MHz"]
    omega3 = TWO_PI * cfg["omega3_MHz"] if cfg["omega3_MHz"] is not None else None
    if cfg["theta_rad"] is not None:  # deutsch only, see _resolve_theta_ratio
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


def gate_functions(gate: str):
    """The schedule builder and the ideal gate (a function of the drive) of
    a gate kind.

    The table is built on each call from this module's names, so that a
    builder wrapped here after import is the one returned.
    """
    return {
        "deutsch": (deutsch_schedule, lambda drive: deutsch_ideal(drive.theta)),
        "toffoli": (toffoli_schedule, lambda drive: toffoli_ideal()),
        "cnot": (cnot_schedule, lambda drive: cnot_ideal()),
    }[gate]


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


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN and infinity are not JSON
        raise ValueError("a result is not finite: an input is outside the range "
                         "the model can evaluate") from None


def _emit(artifact: dict | str, out_path: str | None, summary: str) -> None:
    """Primary artifact (a JSON payload, or prebuilt text) to --out with the
    summary to stdout, or to stdout with the summary to stderr."""
    if isinstance(artifact, dict):
        artifact = _json_text(artifact) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(artifact)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
        print(summary)
    else:
        print(summary, file=sys.stderr)
        sys.stdout.write(artifact)


def _format_transition(tr) -> str:
    magnitude = abs(tr.rabi) / TWO_PI
    phase_deg = math.degrees(math.atan2(tr.rabi.imag, tr.rabi.real))
    return (
        f"atom {tr.atom}  {tr.lower}<->r  |Omega|/2pi = {magnitude:.6f} MHz"
        f"  phase = {phase_deg:+7.1f} deg"
    )


def cmd_synth(cfg: dict, drive: DriveParams, out: str | None) -> None:
    schedule = gate_functions(cfg["gate"])[0](drive)
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
    _emit(payload, out, listing)


def cmd_simulate(cfg: dict, drive: DriveParams, out: str | None) -> None:
    build_schedule, ideal_gate = gate_functions(cfg["gate"])
    schedule = build_schedule(drive)
    params = build_params(cfg, schedule.n_atoms)
    options = build_options(cfg)
    result = evolve(schedule, params, options)

    ideal = ideal_gate(drive)
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
    _emit(payload, out, summary)


def cmd_budget(cfg: dict, drive: DriveParams, out: str | None) -> None:
    params = build_params(cfg, 3)
    tau = resolve_tau(cfg)
    b = error_budget(drive, params, tau)
    payload = {
        "config": cfg,
        "derived": derived_block(cfg, drive, params),
        "temperature": cfg["temperature"] if cfg["tau_us"] is None else None,
        "tau_us": tau,
        "budget": {**asdict(b), "total": b.total},
    }
    summary = (
        f"omega_bar/2pi = {cfg['omega_bar_MHz']} MHz, tau = {tau} us: "
        f"total error {b.total:.6e} "
        f"(decay {b.decay:.3e}, blockade {b.blockade:.3e}, two-photon {b.two_photon:.3e})"
    )
    _emit(payload, out, summary)


def cmd_phase(cfg: dict, drive: DriveParams, out: str | None) -> None:
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
    _emit(payload, out, summary)


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


def cmd_sweep(cfg: dict, drive: DriveParams, out: str | None) -> None:
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
        "csv_path": out,
    }
    _emit(csv_text, out, _json_text(summary_payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockadesim",
        description="Rydberg-blockade Deutsch/Toffoli/CNOT gate simulator and error budgets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run, help_text in (
        ("synth", cmd_synth, "print/export the pulse schedule"),
        ("simulate", cmd_simulate, "propagate the schedule and report fidelities"),
        ("sweep", cmd_sweep, "analytic error-budget sweep over omega_bar (CSV)"),
        ("budget", cmd_budget, "analytic error budget at one operating point"),
        ("phase", cmd_phase, "residue phase and phase-matched omega_bar values"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the primary artifact to this path")
        for field in FIELDS:
            if field.sweep_only and command != "sweep":
                continue
            if field.kind == "bool":
                accepts = {"choices": ("on", "off")}
            elif field.kind == "choice":
                accepts = {"choices": field.choices}
            else:
                accepts = {"type": float}
            p.add_argument(field.flag, dest=field.dest, help=field.help, **accepts)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        args.run(cfg, build_drive(cfg), args.out)
        # A piped stdout is block-buffered, so a short report sits in the
        # buffer until it is flushed; flush here, where a closed reader's
        # BrokenPipeError is caught, not at interpreter exit.
        sys.stdout.flush()
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # A value that passes the config checks can still overflow or
        # divide by zero in the physics (budget --v-scale 1e200).
        print(f"error: an input is outside the range the model can evaluate "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
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
