"""Command-line interface: schedule synthesis, simulation, error-budget
sweeps, and phase-matching reports.

All frequencies in configs, flags, and outputs are f = omega/2pi in MHz
(internally everything is angular, rad/us).  Commands read an optional JSON
config plus flag overrides; the fully resolved config is echoed in every JSON
output, so runs are reproducible from their artifacts alone.  ``FIELDS`` is
the one list of config keys: each entry gives a key's default, the values it
accepts, its flag, its help text and the subcommands whose output reads the
key.  Only those subcommands take the flag, so each flag that a subcommand
takes moves the body of its artifact, not only the echoed config and the
derived block.  A config file has one schema for all five subcommands: each
of them accepts, checks and echoes every key in it, including the keys that
its output does not read.  The resolved config is one flat table keyed by the
fields' dotted keys (``cfg["options.decay"]``); it is nested by section only
in the config file and in the echo.  ``simulate`` reads the lifetime only
under ``options.decay: effective``, so it rejects ``--temperature`` and
``--tau-us`` without it.

Examples:
    blockadesim synth --ratio 2
    blockadesim simulate --gate cnot --out report.json
    blockadesim sweep --grid-step 0.02 --out sweep.csv
    blockadesim budget --temperature 300K
    blockadesim phase --omega-bar-mhz 0.32

When --out is given the primary artifact (JSON, or CSV for sweep) goes to the
file and the human-readable summary to stdout; without --out the artifact
goes to stdout and the summary to stderr.

The request envelope is built once, in ``main``: it resolves the config and
builds the drive and the register, which carries the lifetime and the scaled
C6, then the ``{"config", "derived"}`` head of a JSON artifact before the
command runs.  Each ``cmd_*`` function maps the resolved request ``(cfg,
drive, params)`` to its artifact body and summary and writes nothing;
``cmd_sweep`` returns the CSV and the rows and argmins of its JSON summary.
``main`` then writes the output with one ``_emit``.  ``cmd_phase`` builds
the one phase-matching report (the residue phase, and for N = 1-8 the
omega_bar that makes it 2 pi N with the residue phase there), which
``cmd_synth`` carries as its ``phi_rad`` and ``phase_matching``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from operator import attrgetter

from . import __version__
from .budget import (
    TAU_BY_TEMPERATURE,
    argmin_total,
    error_budget,
    sweep,
)
from .evolve import SimulationOptions, evolve
from .ideal import cnot_ideal, deutsch_ideal, gate_fidelity, toffoli_ideal
from .model import CC_INTERACTIONS, TWO_PI, PhysicalParams
from .schedule import (
    GATE_ATOMS,
    RATIO_MAX,
    RATIO_MIN,
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    residue_phase,
    segment_durations,
    solve_phase_matching,
    toffoli_schedule,
)

# BLAS thread variables that the simulate artifact records as inherited
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# The subcommands, in the parser's order; those that work at one omega_bar;
# those that read the control Rabi frequency; those that read the lifetime
COMMANDS = ("synth", "simulate", "sweep", "budget", "phase")
ONE_POINT = ("synth", "simulate", "budget", "phase")
READS_OMEGA0 = ("synth", "simulate", "sweep", "budget")
READS_LIFETIME = ("simulate", "budget")


@dataclass(frozen=True)
class Field:
    """One config key: its default, the values it accepts, its flag and the
    subcommands whose output reads it.

    ``kind`` is "positive", "nonzero" or "finite" for a finite number,
    "choice" for one of ``choices``, or "bool" (flag values on/off).  Only
    the subcommands in ``commands`` take the flag; every subcommand accepts,
    checks and echoes the key in a config file.  A key whose default is None
    also accepts null.
    """

    key: str  # dotted path into the config, e.g. "options.decay"
    default: object
    kind: str
    flag: str
    help: str
    choices: tuple = ()
    commands: tuple = COMMANDS

    @property
    def dest(self) -> str:
        """The argparse attribute that holds the flag's value."""
        return self.flag[2:].replace("-", "_")


# The one list of config keys, in flag order.  Defaults, the file merge,
# the flags, the checks and the echoed config all come from it.  The sweep
# reads neither the drive at one omega_bar nor the lifetime (its CSV has
# both temperatures).  synth and phase do not read the lifetime either, nor
# does phase read omega0: the residue phase builds up only between the two
# control pulses, and phase matching solves for omega_bar alone.  Only
# simulate reads the three evolve options.
FIELDS = (
    Field("gate", "deutsch", "choice", "--gate", "gate kind", choices=tuple(GATE_ATOMS)),
    Field("theta_rad", None, "finite", "--theta-rad",
          "deutsch angle in radians (alternative to --ratio)"),
    Field("ratio_omega2_over_omega1", None, "positive", "--ratio",
          "omega2/omega1 ratio (alternative to --theta-rad)"),
    Field("omega0_MHz", 10.0, "positive", "--omega0-mhz",
          "control Rabi frequency /2pi, MHz", commands=READS_OMEGA0),
    Field("omega_bar_MHz", 0.54, "positive", "--omega-bar-mhz",
          "bright-state Rabi frequency /2pi, MHz", commands=ONE_POINT),
    Field("omega3_MHz", None, "positive", "--omega3-mhz", "swap-pulse Rabi frequency /2pi, "
          "MHz (default omega_bar/sqrt(2))", commands=ONE_POINT),
    Field("c6_GHz_um6", -633.0, "nonzero", "--c6", "C6/2pi in GHz um^6 (signed)"),
    Field("L_um", 6.0, "positive", "--spacing-um", "lattice spacing L in um"),
    Field("temperature", "4.2K", "choice", "--temperature", "picks the Rydberg lifetime",
          choices=tuple(sorted(TAU_BY_TEMPERATURE)), commands=READS_LIFETIME),
    Field("tau_us", None, "positive", "--tau-us", "explicit Rydberg lifetime in us "
          "(overrides temperature)", commands=READS_LIFETIME),
    Field("options.v_scale", 1.0, "positive", "--v-scale",
          "multiply the interaction strength (blockade-limit studies)"),
    Field("options.decay", "none", "choice", "--decay", "effective Rydberg decay on/off",
          choices=("none", "effective"), commands=("simulate",)),
    Field("options.cc_interaction", "physical", "choice", "--cc-interaction",
          "control-control residue shift", choices=CC_INTERACTIONS, commands=("simulate",)),
    Field("options.frame_correction", True, "bool", "--frame-correction",
          "remove the predicted residue phase before comparison", commands=("simulate",)),
    Field("sweep.step_MHz", 0.02, "finite", "--grid-step",
          "omega_bar grid step in MHz (default 0.02)", commands=("sweep",)),
    Field("sweep.start_MHz", 0.02, "finite", "--sweep-start",
          "first omega_bar/2pi grid value in MHz", commands=("sweep",)),
    Field("sweep.stop_MHz", 2.3, "finite", "--sweep-stop",
          "last omega_bar/2pi grid value in MHz", commands=("sweep",)),
)

# The config file's sections: each holds the keys "<section>.<name>"
SECTIONS = {field.key.partition(".")[0] for field in FIELDS if "." in field.key}

# kind -> (what the error message asks for, test on a finite number)
_NUMBER_KINDS = {
    "positive": ("a positive number", lambda v: v > 0),
    "nonzero": ("a finite nonzero number", lambda v: v != 0),
    "finite": ("a number", lambda v: True),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    # ValueError also covers bad UTF-8 and an int past the digit limit, and
    # a deeply nested file exhausts the parser's recursion
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must contain a JSON object")
    return cfg


def _merge_file(cfg: dict, file_cfg: dict) -> None:
    """Merge a config file into the flat ``cfg``: each section's object
    flattens to its dotted keys; a dotted key outside its section is
    unknown."""
    for key, value in file_cfg.items():
        if key in SECTIONS:
            if not isinstance(value, dict):
                raise ValueError(f"config {key!r} must be an object")
            items = {f"{key}.{name}": item for name, item in value.items()}
        elif "." not in key:
            items = {key: value}
        else:  # a section's key belongs inside the section's object
            raise ValueError(f"unknown config key {key!r}")
        for dotted, item in items.items():
            if dotted not in cfg:
                raise ValueError(f"unknown config key {dotted!r}")
            cfg[dotted] = item


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- flags, each value checked against its
    field, in one flat dict keyed by the fields' dotted keys.
    ``build_drive`` then applies the angle rule."""
    cfg = {field.key: field.default for field in FIELDS}
    if args.config:
        _merge_file(cfg, _load_config_file(args.config))
    for field in FIELDS:
        value = getattr(args, field.dest, None)
        if value is not None:
            cfg[field.key] = value == "on" if field.kind == "bool" else value
        _check(field, cfg[field.key])
    # simulate reads the lifetime only under effective decay, so without it
    # a lifetime flag would change nothing; the config keys stay accepted
    if args.command == "simulate" and cfg["options.decay"] != "effective":
        for field in FIELDS:
            if field.key in ("temperature", "tau_us") and getattr(args, field.dest) is not None:
                raise ValueError(f"simulate reads {field.flag} only with --decay effective")
    return cfg


def _nested(cfg: dict) -> dict:
    """The flat config nested by section, as a config file writes it."""
    nested: dict = {}
    for key, value in cfg.items():
        section, _, name = key.rpartition(".")
        (nested.setdefault(section, {}) if section else nested)[name] = value
    return nested


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
    if value is None and field.default is None:
        return
    if field.kind == "bool":
        ok, wanted = isinstance(value, bool), "true or false"
    elif field.kind == "choice":
        ok, wanted = value in field.choices, f"one of {field.choices}"
    else:
        wanted, test = _NUMBER_KINDS[field.kind]
        ok = _is_finite_number(value) and test(value)
    if not ok:
        wanted += " or null" if field.default is None else ""
        raise ValueError(f"{field.key} must be {wanted}, got {value!r}")


def build_drive(cfg: dict) -> DriveParams:
    """The drive of a checked config, after the angle rule: the deutsch gate
    takes exactly one of theta and ratio (ratio 2, written back for the
    echo, when neither is given); the others take neither, and their unused
    ratio is 1."""
    theta, ratio = cfg["theta_rad"], cfg["ratio_omega2_over_omega1"]
    if cfg["gate"] != "deutsch":
        if theta is not None or ratio is not None:
            raise ValueError("theta_rad / ratio apply to the deutsch gate only")
        ratio = 1.0  # toffoli/cnot never touch the ratio pulses
    elif theta is not None and ratio is not None:
        raise ValueError("supply exactly one of theta_rad / ratio for the deutsch gate")
    elif theta is not None:
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta_rad must lie in [0, pi], got {theta}")
    elif ratio is None:
        ratio = cfg["ratio_omega2_over_omega1"] = 2.0
    elif not RATIO_MIN <= ratio <= RATIO_MAX:
        raise ValueError(
            "ratio_omega2_over_omega1 must lie on the tunable branch "
            f"[sqrt(2) - 1, sqrt(2) + 1], got {ratio}"
        )
    omega0 = TWO_PI * cfg["omega0_MHz"]
    omega_bar = TWO_PI * cfg["omega_bar_MHz"]
    omega3 = TWO_PI * cfg["omega3_MHz"] if cfg["omega3_MHz"] is not None else None
    if theta is not None:
        return DriveParams.from_theta(omega0, omega_bar, theta, omega3)
    return DriveParams.from_ratio(omega0, omega_bar, ratio, omega3)


def build_params(cfg: dict) -> PhysicalParams:
    """The register of the configured gate, with its C6 scaled by
    ``options.v_scale`` and the lifetime ``tau_us`` or, when that is null,
    the temperature's."""
    tau = cfg["tau_us"]
    return PhysicalParams(
        c6_over_2pi=cfg["c6_GHz_um6"],
        spacing=cfg["L_um"],
        lifetime=float(tau) if tau is not None else TAU_BY_TEMPERATURE[cfg["temperature"]],
        n_atoms=GATE_ATOMS[cfg["gate"]],
    ).with_interaction_scaled(cfg["options.v_scale"])


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
        "tau_us": params.lifetime,
        "gate_time_us": sum(segment_durations(cfg["gate"], drive)),
    }


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN and infinity are not JSON
        raise ValueError("a result is not finite: an input is outside the range "
                         "the model can evaluate") from None


def _emit(artifact: str, out_path: str | None, summary: str) -> None:
    """Primary artifact to --out with the summary to stdout, or to stdout
    with the summary to stderr."""
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


def cmd_synth(cfg: dict, drive: DriveParams, params: PhysicalParams) -> tuple[dict, str]:
    gate = cfg["gate"]
    schedule = gate_functions(gate)[0](drive)
    report, _ = cmd_phase(cfg, drive, params)
    phi, matches = report["phi_rad"], report["matched_solutions"]

    segments = [
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
    ]
    lines = [f"{gate} schedule ({schedule.n_atoms} atoms), total {schedule.total_duration:.6f} us"]
    if gate != "cnot":  # the cnot has no angle, as in derived_block
        lines.append(f"theta = {drive.theta:.9f} rad "
                     f"(ratio omega2/omega1 = {drive.omega2 / drive.omega1:.9f})")
    for seg in segments:
        lines.append(f"segment {seg['index']}: {seg['duration_us']:.6f} us")
        lines.extend(
            f"  atom {tr['atom']}  {tr['lower']}<->r"
            f"  |Omega|/2pi = {tr['magnitude_MHz']:.6f} MHz  phase = {tr['phase_deg']:+7.1f} deg"
            for tr in seg["transitions"]
        )
    lines.append(f"residue phase phi = {phi:.6f} rad ({phi / math.pi:.4f} pi)")
    lines.append(
        "phase-matched omega_bar/2pi (MHz): "
        + (", ".join(f"N={m['N']}: {m['omega_bar_MHz']:.6f}" for m in matches) or "none")
    )
    body = {"phi_rad": phi, "phase_matching": matches, "segments": segments}
    return body, "\n".join(lines)


def provenance_block() -> dict:
    """What produced a simulate artifact: the package, Python and numpy
    versions and the BLAS thread variables as inherited (None when unset).
    The analytic artifacts leave it out, since reading numpy's version
    imports numpy."""
    import numpy

    return {
        "blockadesim": __version__,
        "python": "{}.{}.{}".format(*sys.version_info),
        "numpy": numpy.__version__,
        "blas_env": {key: os.environ.get(key) for key in BLAS_THREAD_VARS},
    }


def cmd_simulate(cfg: dict, drive: DriveParams, params: PhysicalParams) -> tuple[dict, str]:
    from .qcore import unitarity_defect

    start = time.perf_counter()
    build_schedule, ideal_gate = gate_functions(cfg["gate"])
    schedule = build_schedule(drive)
    options = SimulationOptions(
        decay_tau=params.lifetime if cfg["options.decay"] == "effective" else None,
        cc_interaction=cfg["options.cc_interaction"],
        frame_correction=cfg["options.frame_correction"],
    )
    built = time.perf_counter()
    result = evolve(schedule, params, options)
    evolved = time.perf_counter()

    ideal = ideal_gate(drive)
    fid_avg = gate_fidelity(result.computational_block, ideal)
    fid_trace = gate_fidelity(result.computational_block, ideal, mode="trace")
    defect = unitarity_defect(result.full_propagator)
    measured = time.perf_counter()

    body = {
        "fidelity": {"state_average": fid_avg, "trace": fid_trace},
        "infidelity_state_average": 1.0 - fid_avg,
        "leakage_per_input": result.leakage_per_input,
        "norm_loss_per_input": result.norm_loss_per_input,
        "dwell_per_input_us": result.dwell_per_input,
        "phase": {
            "correction_rad": result.phase_correction,
            "mismatch_rad": result.phase_mismatch,
        },
        "unitarity_defect": defect,
        "provenance": provenance_block(),
        # wall times of this run, so they differ between runs
        "timings_ms": {
            "schedule": 1e3 * (built - start),
            "evolve": 1e3 * (evolved - built),
            "metrics": 1e3 * (measured - evolved),
        },
    }
    return body, (f"{cfg['gate']}: state-average fidelity {fid_avg:.6f}, "
                  f"trace fidelity {fid_trace:.6f}")


def cmd_budget(cfg: dict, drive: DriveParams, params: PhysicalParams) -> tuple[dict, str]:
    tau = params.lifetime
    b = error_budget(drive, params, tau, cfg["gate"])
    body = {
        "temperature": cfg["temperature"] if cfg["tau_us"] is None else None,
        "tau_us": tau,
        "budget": {**asdict(b), "total": b.total},
    }
    summary = (
        f"omega_bar/2pi = {cfg['omega_bar_MHz']} MHz, tau = {tau} us: "
        f"total error {b.total:.6e} "
        f"(decay {b.decay:.3e}, blockade {b.blockade:.3e}, two-photon {b.two_photon:.3e})"
    )
    return body, summary


def cmd_phase(cfg: dict, drive: DriveParams, params: PhysicalParams) -> tuple[dict, str]:
    gate = cfg["gate"]
    phi = residue_phase(gate, drive, params)
    # N = 1-8, each with the residue phase of the sweep's drive at its
    # omega_bar; none for a gate with no residue phase to match
    solutions = []
    for n in range(1, 9) if phi else ():
        omega_bar = solve_phase_matching(n, gate, params)
        matched = DriveParams.from_ratio(drive.omega0, omega_bar, drive.omega2 / drive.omega1)
        solutions.append({"N": n, "omega_bar_MHz": omega_bar / TWO_PI,
                          "phi_rad": residue_phase(gate, matched, params)})
    body = {"phi_rad": phi, "phi_over_pi": phi / math.pi, "matched_solutions": solutions}
    return body, (f"phi = {phi:.6f} rad ({phi / math.pi:.4f} pi) "
                  f"at omega_bar/2pi = {cfg['omega_bar_MHz']} MHz")


# The sweep CSV: each column and the SweepPoint attribute it prints.
CSV_COLUMNS = {
    "omega_bar_MHz": "omega_bar_mhz",
    "T_g_us": "budget_4k.gate_time_us",
    "E_decay_4K": "budget_4k.decay",
    "E_bl": "budget_4k.blockade",
    "E_2ph": "budget_4k.two_photon",
    "total_4K": "budget_4k.total",
    "E_decay_300K": "budget_300k.decay",
    "total_300K": "budget_300k.total",
    "phi_rad": "budget_4k.residue_phase_rad",
}


def cmd_sweep(cfg: dict, drive: DriveParams, params: PhysicalParams) -> tuple[str, dict]:
    """The CSV, and the rows and argmins of its JSON summary."""
    if cfg["omega3_MHz"] is not None:
        raise ValueError("omega3_MHz must be null for sweep, which sets "
                          "omega3 = omega_bar/sqrt(2) at every grid point")
    points = sweep(
        params,
        start_mhz=cfg["sweep.start_MHz"],
        stop_mhz=cfg["sweep.stop_MHz"],
        step_mhz=cfg["sweep.step_MHz"],
        omega0=drive.omega0,
        ratio=drive.omega2 / drive.omega1,
        gate=cfg["gate"],
    )
    row = attrgetter(*CSV_COLUMNS.values())
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(f"{v:.9g}" for v in row(p)) for p in points]

    argmin = {}
    for t in TAU_BY_TEMPERATURE:
        best = argmin_total(points, t)
        argmin[t] = {"omega_bar_MHz": best.omega_bar_mhz, "total": best.budget(t).total}
    return "\n".join(lines) + "\n", {"rows": len(points), "argmin": argmin}


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
            if command not in field.commands:
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
        drive = build_drive(cfg)
        params = build_params(cfg)
        if args.command == "sweep":  # the CSV, with a JSON summary
            artifact, rows = args.run(cfg, drive, params)
            summary = _json_text({"config": _nested(cfg), **rows, "csv_path": args.out})
        else:
            # the head first, so that its errors come before the command's
            head = {"config": _nested(cfg), "derived": derived_block(cfg, drive, params)}
            body, summary = args.run(cfg, drive, params)
            artifact = _json_text({**head, **body}) + "\n"
        _emit(artifact, args.out, summary)
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
        # divide by zero in the physics (budget --omega0-mhz 1e300
        # --omega-bar-mhz 1e-9).
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
