"""The benchmark's three workloads: seeded operation lists, the program calls
that one operation makes, and the checks on its outputs.

sim_report     one request is what ``blockadesim simulate`` does, in process:
               drive -> schedule -> evolve with dwell on -> both fidelities;
               one operation is a round of 8 requests, one per gate kind and
               decay setting.  The dwell integral does most of this work.
grid_reconcile one operation is one point of the paper's 115-point omega_bar
               grid: a dwell-off Deutsch evolve with decay off and with decay
               on, compared with that point's analytic budget; every grid
               pass also runs one budget sweep.  Hamiltonian builds and
               segment exponentials do this work; there is no dwell.
cli_cold       one operation is one ``blockadesim <subcommand>`` process on a
               config file written in set-up; about one in eleven configs is
               invalid.  Interpreter start and imports do most of this work.

Inputs come only from the seed.  Each list holds every kind of request in
fixed proportions in every short stretch, with omega_bar spread evenly over
its range, so that any prefix of a list is a fair sample of the mix and runs
with different seeds measure the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import traceback

import numpy as np

from blockadesim import cli
from blockadesim.budget import (
    TAU_BY_TEMPERATURE,
    argmin_total,
    dwell_table,
    error_budget,
    sweep,
)
from blockadesim.evolve import SimulationOptions, evolve
from blockadesim.ideal import cnot_ideal, deutsch_ideal, gate_fidelity, toffoli_ideal
from blockadesim.model import PhysicalParams
from blockadesim.qcore import unitarity_defect
from blockadesim.schedule import (
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    toffoli_schedule,
)

from stats import digest

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ROUND = 8  # sim_report requests per operation: 4 kinds x decay off/on

# The CLI's default physics: omega0/2pi = 10 MHz, Cs C6/2pi = -633 GHz um^6,
# L = 6 um.
OMEGA0 = TWO_PI * 10.0
C6_GHZ_UM6 = -633.0
SPACING_UM = 6.0

# Request kinds: Deutsch by angle, Deutsch by Rabi ratio, Toffoli, CNOT.
KINDS = ("deutsch_theta", "deutsch_ratio", "toffoli", "cnot")
# The tunable ratio branch, on which theta runs over [0, pi].
RATIO_BRANCH = (SQRT2 - 1.0, SQRT2 + 1.0)

# One dwell-on Deutsch evolve costs ~0.8 s at 0.02 MHz and ~6 ms at 2.3 MHz,
# so sim_report starts at 0.1 MHz to keep a few points from dominating.
SIM_BAND_MHZ = (0.1, 2.3)
# cli_cold measures process start and imports; from 0.3 MHz up a simulate
# request adds at most ~0.1 s of propagation to a ~0.7 s run.
CLI_BAND_MHZ = (0.3, 2.3)
# The paper's default sweep grid, 0.02 to 2.3 MHz in 0.02 MHz steps.
GRID_MHZ = tuple(0.02 + 0.02 * i for i in range(115))
GRID_TAU_US = TAU_BY_TEMPERATURE["4.2K"]

UNITARITY_TOL = 1e-9  # acceptance criterion 9
NORM_LOSS_SLACK = 1e-12
FIDELITY_SLACK = 1e-12  # a unitary block can round a few ulp above 1
# The dwell table is the perfect-blockade limit; the simulated dwell departs
# from it as omega_bar/V grows.  A scan over theta in [0, pi] and
# omega_bar/2pi in [0.8, 2.3] MHz found at most 1.75% (theta = pi, 2.1 MHz).
DWELL_REL_TOL = 0.025
DECAY_REL_TOL = 0.10  # acceptance criterion 8c; worst grid point is 6.4%
# Acceptance criterion 3: sweep minima at 0.54 MHz (4.2 K), 0.92 MHz (300 K).
SWEEP_ARGMIN_MHZ = {"4.2K": 0.54, "300K": 0.92}
SWEEP_ARGMIN_TOL = 0.02 + 1e-9

SUBCOMMANDS = ("synth", "simulate", "budget", "sweep", "phase")

# Invalid configs for cli_cold: (name, options section or None, key, value,
# documented defect).  A correct CLI exits 1 with one ``error:`` line for
# each.  The CLI gives a traceback for the first three defects and exits 0
# for the last; those four count as known defects, not as benchmark
# failures, until the program is fixed.
BAD_CONFIGS = (
    ("theta_out_of_range", None, "theta_rad", 4.0, False),
    ("unknown_key", None, "omega_typo_MHz", 1.0, False),
    ("string_v_scale", "options", "v_scale", "2", True),
    ("string_tau_us", None, "tau_us", "1590", True),
    ("null_c6", None, "c6_GHz_um6", None, True),
    ("bool_omega_bar", None, "omega_bar_MHz", True, True),
)
KNOWN_DEFECTS = frozenset(name for name, *_, known in BAD_CONFIGS if known)

# Runs a CLI subcommand from a given source tree, as the installed
# ``blockadesim`` script would: argv is [src, subcommand, flags...].
CLI_SHIM = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from blockadesim.cli import main; sys.exit(main())"
)
CLI_TIMEOUT_S = 120


def _log_uniform(rng: random.Random, band) -> float:
    return math.exp(rng.uniform(math.log(band[0]), math.log(band[1])))


def _gate_fields(rng: random.Random, kind: str) -> dict:
    if kind == "deutsch_theta":
        return {"gate": "deutsch", "theta": rng.uniform(0.0, math.pi), "ratio": None}
    if kind == "deutsch_ratio":
        return {"gate": "deutsch", "theta": None, "ratio": rng.uniform(*RATIO_BRANCH)}
    return {"gate": kind, "theta": None, "ratio": None}


# ---------------------------------------------------------------- sim_report


def sim_report_ops(seed: int, rounds: int = 800) -> list[dict]:
    """Requests in rounds of ROUND, one from each (kind, decay) group in a
    seeded order; about half keep the control-control shift.

    Within a group, omega_bar/2pi follows a seeded rotation of the
    golden-ratio sequence on a log scale, so every prefix of the list covers
    the band nearly evenly for every group.  The groups sit 1/ROUND of the
    band apart, Deutsch next to the cheaper Toffoli and CNOT, so every round
    spans the band and rounds cost about the same whatever the seed.
    """
    rng = random.Random(f"sim_report:{seed}")
    groups = [(kind, decay) for decay in ("none", "effective")
              for kind in ("deutsch_theta", "toffoli", "deutsch_ratio", "cnot")]
    start = rng.random()
    lo, hi = (math.log(f) for f in SIM_BAND_MHZ)
    ops = []
    for k in range(rounds):
        order = list(range(ROUND))
        rng.shuffle(order)
        for g in order:
            kind, decay = groups[g]
            u = (start + k * GOLDEN + g / ROUND) % 1.0
            op = {"kind": kind, "omega_bar_mhz": math.exp(lo + (hi - lo) * u),
                  "decay": decay, "cc": rng.choice(("physical", "none")),
                  "temperature": rng.choice(sorted(TAU_BY_TEMPERATURE))}
            op.update(_gate_fields(rng, kind))
            ops.append(op)
    return ops


def _drive(op: dict) -> DriveParams:
    omega_bar = TWO_PI * op["omega_bar_mhz"]
    if op["theta"] is not None:
        return DriveParams.from_theta(OMEGA0, omega_bar, op["theta"])
    # toffoli and cnot never use the ratio pulses; the CLI builds them at 1
    return DriveParams.from_ratio(OMEGA0, omega_bar, op["ratio"] or 1.0)


def run_sim(op: dict) -> dict:
    drive = _drive(op)
    build = {"deutsch": deutsch_schedule, "toffoli": toffoli_schedule,
             "cnot": cnot_schedule}[op["gate"]]
    schedule = build(drive)
    tau = TAU_BY_TEMPERATURE[op["temperature"]]
    params = PhysicalParams(C6_GHZ_UM6, SPACING_UM, tau, schedule.n_atoms)
    options = SimulationOptions(
        decay_tau=tau if op["decay"] == "effective" else None,
        cc_interaction=op["cc"],
        frame_correction=True,
    )
    result = evolve(schedule, params, options)
    if op["gate"] == "deutsch":
        ideal = deutsch_ideal(drive.theta)
    elif op["gate"] == "toffoli":
        ideal = toffoli_ideal()
    else:
        ideal = cnot_ideal()
    return {
        "drive": drive,
        "result": result,
        "fidelity": (
            gate_fidelity(result.computational_block, ideal),
            gate_fidelity(result.computational_block, ideal, mode="trace"),
        ),
        "unitarity_defect": unitarity_defect(result.full_propagator),
    }


def _unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dag U - I, computed here rather than by the package."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def _all_finite(*values) -> bool:
    for value in values:
        if isinstance(value, dict):
            value = list(value.values())
        if not np.all(np.isfinite(np.asarray(value))):
            return False
    return True


def check_sim(op: dict, out: dict) -> list[str]:
    r = out["result"]
    if not _all_finite(r.full_propagator, r.leakage_per_input, r.dwell_per_input,
                       r.norm_loss_per_input, r.phase_correction, r.phase_mismatch,
                       out["fidelity"], out["unitarity_defect"]):
        return ["non-finite output"]
    problems = []
    if op["decay"] == "none":
        defect = _unitarity_defect(r.full_propagator)
        if not defect < UNITARITY_TOL:
            problems.append(f"unitarity defect {defect:.3e}")
    elif not all(-NORM_LOSS_SLACK <= v <= 1.0 for v in r.norm_loss_per_input.values()):
        problems.append(f"norm loss outside [0, 1]: {r.norm_loss_per_input}")
    if not all(0.0 <= f <= 1.0 + FIDELITY_SLACK for f in out["fidelity"]):
        problems.append(f"fidelity outside [0, 1]: {out['fidelity']}")
    if op["gate"] == "deutsch":
        table = dwell_table(out["drive"])
        worst = max(abs(r.dwell_per_input[k] - t) / t for k, t in table.items())
        if not worst <= DWELL_REL_TOL:
            problems.append(f"dwell off the closed form by {worst:.2%}")
    return problems


# ------------------------------------------------------------ grid_reconcile


def reference_params() -> PhysicalParams:
    return PhysicalParams(C6_GHZ_UM6, SPACING_UM, GRID_TAU_US, 3)


def grid_reconcile_ops(seed: int, passes: int = 40) -> list[dict]:
    """Passes over the 115-point grid: one sweep, then every point in a
    seeded order at one seeded Deutsch angle per pass."""
    rng = random.Random(f"grid_reconcile:{seed}")
    ops = []
    for _ in range(passes):
        theta = rng.uniform(0.0, math.pi)
        points = list(GRID_MHZ)
        rng.shuffle(points)
        ops.append({"kind": "sweep"})
        ops.extend({"kind": "point", "omega_bar_mhz": f, "theta": theta} for f in points)
    return ops


def run_grid(op: dict) -> dict:
    params = reference_params()
    if op["kind"] == "sweep":
        return {"points": sweep(params)}
    drive = DriveParams.from_theta(OMEGA0, TWO_PI * op["omega_bar_mhz"], op["theta"])
    schedule = deutsch_schedule(drive)
    return {
        "plain": evolve(schedule, params, SimulationOptions(compute_dwell=False)),
        "decayed": evolve(
            schedule, params, SimulationOptions(decay_tau=GRID_TAU_US, compute_dwell=False)
        ),
        "budget": error_budget(drive, params, GRID_TAU_US),
    }


def check_grid(op: dict, out: dict) -> list[str]:
    if op["kind"] == "sweep":
        points = out["points"]
        totals = [(p.budget_4k.total, p.budget_300k.total) for p in points]
        if len(points) != len(GRID_MHZ) or not _all_finite(totals):
            return ["sweep grid size or non-finite totals"]
        problems = []
        for temperature, expected in SWEEP_ARGMIN_MHZ.items():
            found = argmin_total(points, temperature).omega_bar_mhz
            if not abs(found - expected) <= SWEEP_ARGMIN_TOL:
                problems.append(f"{temperature} argmin {found} MHz, expected {expected}")
        return problems
    plain, decayed, budget = out["plain"], out["decayed"], out["budget"]
    if not _all_finite(plain.full_propagator, decayed.full_propagator,
                       decayed.norm_loss_per_input, budget.total):
        return ["non-finite output"]
    problems = []
    defect = _unitarity_defect(plain.full_propagator)
    if not defect < UNITARITY_TOL:
        problems.append(f"unitarity defect {defect:.3e}")
    mean_loss = float(np.mean(list(decayed.norm_loss_per_input.values())))
    rel = abs(mean_loss - budget.decay) / budget.decay
    if not rel <= DECAY_REL_TOL:
        problems.append(f"mean norm loss off E_decay by {rel:.1%}")
    return problems


# ------------------------------------------------------------------ cli_cold


def _cli_config(rng: random.Random, kind: str) -> dict:
    fields = _gate_fields(rng, kind)
    cfg = {
        "gate": fields["gate"],
        "omega0_MHz": OMEGA0 / TWO_PI,
        "omega_bar_MHz": _log_uniform(rng, CLI_BAND_MHZ),
        "c6_GHz_um6": C6_GHZ_UM6,
        "L_um": SPACING_UM,
        "temperature": rng.choice(sorted(TAU_BY_TEMPERATURE)),
        "options": {
            "decay": rng.choice(("none", "effective")),
            "cc_interaction": rng.choice(("physical", "none")),
            "frame_correction": True,
            "v_scale": 1.0,
        },
        "sweep": {"start_MHz": 0.02, "stop_MHz": 2.3, "step_MHz": 0.02},
    }
    if fields["theta"] is not None:
        cfg["theta_rad"] = fields["theta"]
    if fields["ratio"] is not None:
        cfg["ratio_omega2_over_omega1"] = fields["ratio"]
    return cfg


def cli_cold_ops(seed: int, blocks: int = 30) -> list[dict]:
    """Blocks of 11 requests: each subcommand twice on a valid config, plus
    one invalid config; the invalid ones cycle through BAD_CONFIGS in a
    seeded order."""
    rng = random.Random(f"cli_cold:{seed}")
    bad_order = list(range(len(BAD_CONFIGS)))
    ops = []
    for b in range(blocks):
        if b % len(bad_order) == 0:
            rng.shuffle(bad_order)
        block = [
            {"sub": sub, "bad": None, "config": _cli_config(rng, rng.choice(KINDS))}
            for sub in SUBCOMMANDS * 2
        ]
        name, section, key, value, _ = BAD_CONFIGS[bad_order[b % len(bad_order)]]
        cfg = _cli_config(rng, "deutsch_theta")
        (cfg[section] if section else cfg)[key] = value
        block.append({"sub": rng.choice(SUBCOMMANDS), "bad": name, "config": cfg})
        rng.shuffle(block)
        ops.extend(block)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in output")


def _parse_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _echo_problems(written: dict, echoed) -> list[str]:
    if not isinstance(echoed, dict):
        return ["artifact has no config"]
    problems = []
    for key, value in written.items():
        got = echoed.get(key)
        if isinstance(value, dict):
            problems += _echo_problems(value, got)
        elif got != value or type(got) is not type(value):
            problems.append(f"config {key!r} echoed as {got!r}, written {value!r}")
    return problems


def check_cli(op: dict, out: dict) -> list[str]:
    """``out`` holds returncode, stdout, stderr and the --out artifact text."""
    if op["bad"] is not None:
        lines = [line for line in out["stderr"].splitlines() if line.strip()]
        if out["returncode"] != 1 or len(lines) != 1 or not lines[0].startswith("error:"):
            return [f"invalid config {op['bad']}: exit {out['returncode']}, "
                    f"{len(lines)} stderr lines"]
        return []
    if out["returncode"] != 0:
        return [f"exit {out['returncode']}: {out['stderr'].strip()[-200:]}"]
    if out["artifact"] is None:
        return ["no artifact written"]
    try:
        if op["sub"] == "sweep":
            payload = _parse_json(out["stdout"])
            rows = out["artifact"].strip().splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")]
            if len(rows) != len(GRID_MHZ) or payload.get("rows") != len(rows):
                return [f"sweep has {len(rows)} rows"]
            if not _all_finite(values):
                return ["non-finite sweep value"]
        else:
            payload = _parse_json(out["artifact"])
    except ValueError as exc:
        return [f"unparseable artifact: {exc}"]
    problems = _echo_problems(op["config"], payload.get("config"))
    if op["sub"] == "simulate":
        fids = list(payload["fidelity"].values())
        if not all(0.0 <= f <= 1.0 + FIDELITY_SLACK for f in fids):
            problems.append(f"fidelity outside [0, 1]: {fids}")
        if op["config"]["options"]["decay"] == "none" and not (
            payload["unitarity_defect"] < UNITARITY_TOL
        ):
            problems.append(f"unitarity defect {payload['unitarity_defect']:.3e}")
    return problems


# ----------------------------------------------------------------- workloads


class Workload:
    """One workload: its operation list and how to run and check one
    operation.  ``execute`` is what the timed phase measures; ``in_process``
    is what the traced run measures."""

    name = ""
    window = 0  # operations per balanced block of the mix
    trace_ops = 0  # operations per traced pass
    import_per_op = False  # does every operation pay the package import?
    reference: dict = {}  # the fixed warm-up operation

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.digest = digest(ops)

    def warm_up(self) -> None:
        problems = self.check(self.reference, self.execute(self.reference))
        if problems:
            raise RuntimeError(f"{self.name} warm-up failed: {problems}")

    def execute(self, op):
        raise NotImplementedError

    def in_process(self, op):
        return self.execute(op)

    def check(self, op, out) -> list[str]:
        raise NotImplementedError

    def known_defect(self, op) -> bool:
        return False

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SimReport(Workload):
    """One operation is one round: the 8 request groups once each.

    A single request's latency depends mostly on how many small BLAS calls
    it makes, and on this machine those swing by 20-30% with the load on
    the host; a round sums them with the dwell-heavy requests, so its
    latency percentiles move with throughput rather than with that noise.
    """

    name = "sim_report"
    window = trace_ops = 8  # rounds
    # the CLI's default simulate request, with decay so that expm runs too
    reference = {"requests": [
        {"kind": "deutsch_ratio", "gate": "deutsch", "theta": None, "ratio": 2.0,
         "omega_bar_mhz": 0.54, "decay": "effective", "cc": "physical",
         "temperature": "4.2K"},
    ]}

    def __init__(self, root: str, seed: int, work_dir: str):
        requests = sim_report_ops(seed)
        super().__init__([{"requests": requests[i:i + ROUND]}
                          for i in range(0, len(requests), ROUND)])

    def execute(self, op):
        return [run_sim(request) for request in op["requests"]]

    def check(self, op, out) -> list[str]:
        return [f"request {i}: {problem}"
                for i, (request, result) in enumerate(zip(op["requests"], out))
                for problem in check_sim(request, result)]


class GridReconcile(Workload):
    name = "grid_reconcile"
    window = trace_ops = len(GRID_MHZ) + 1  # one pass
    reference = {"kind": "point", "omega_bar_mhz": 0.54, "theta": math.pi / 2}

    def __init__(self, root: str, seed: int, work_dir: str):
        super().__init__(grid_reconcile_ops(seed))

    def execute(self, op):
        return run_grid(op)

    def check(self, op, out) -> list[str]:
        return check_grid(op, out)


class CliCold(Workload):
    name = "cli_cold"
    window = 11  # one block
    trace_ops = 22  # two blocks
    import_per_op = True

    def __init__(self, root: str, seed: int, work_dir: str):
        super().__init__(cli_cold_ops(seed))
        self.src = os.path.join(root, "src")
        self.root = root
        self.work_dir = work_dir
        self.reference = {"sub": "budget", "bad": None, "id": "warmup",
                          "config": _cli_config(random.Random(0), "deutsch_ratio")}
        self.child_rss_kb: list[int] = []

    def _paths(self, op) -> tuple[str, str]:
        stem = os.path.join(self.work_dir, f"op{op['id']}")
        return stem + ".json", stem + (".csv" if op["sub"] == "sweep" else ".out.json")

    def write_configs(self) -> None:
        os.makedirs(self.work_dir, exist_ok=True)
        for op in (self.reference, *self.ops):
            with open(self._paths(op)[0], "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh)

    def warm_up(self) -> None:
        self.write_configs()
        super().warm_up()

    def _argv(self, op) -> tuple[list[str], str]:
        config, artifact = self._paths(op)
        with contextlib.suppress(FileNotFoundError):
            os.remove(artifact)
        return [op["sub"], "--config", config, "--out", artifact], artifact

    def execute(self, op) -> dict:
        """The request as its own process; its output goes through files in
        the work directory so that ``wait4`` can reap it with its rusage."""
        argv, artifact = self._argv(op)
        stream = os.path.join(self.work_dir, "stream")
        with open(stream + ".out", "w+", encoding="utf-8") as out, \
                open(stream + ".err", "w+", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-c", CLI_SHIM, self.src, *argv],
                                    stdout=out, stderr=err, cwd=self.root)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self.child_rss_kb.append(usage.ru_maxrss)
        return _cli_output(proc.returncode, stdout, stderr, artifact)

    def in_process(self, op) -> dict:
        """The same request through ``cli.main`` in this process."""
        argv, artifact = self._argv(op)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an escaped exception is the CLI's traceback
                traceback.print_exc()
                code = None
        return _cli_output(code, stdout.getvalue(), stderr.getvalue(), artifact)

    def check(self, op, out) -> list[str]:
        return check_cli(op, out)

    def known_defect(self, op) -> bool:
        return op["bad"] in KNOWN_DEFECTS

    def peak_rss_mb(self) -> float:
        """Median over the CLI processes run so far of each one's peak RSS:
        the typical footprint of one CLI run."""
        return statistics.median(self.child_rss_kb) / 1024.0


def _cli_output(returncode, stdout: str, stderr: str, artifact: str) -> dict:
    text = None
    with contextlib.suppress(FileNotFoundError):
        with open(artifact, encoding="utf-8") as fh:
            text = fh.read()
    return {"returncode": returncode, "stdout": stdout, "stderr": stderr, "artifact": text}


WORKLOADS = {w.name: w for w in (SimReport, GridReconcile, CliCold)}
