"""Tests of the benchmark itself: input generation, the percentile rule, the
correctness checks and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ input generation


@pytest.mark.parametrize("make", [workloads.sim_report_ops, workloads.grid_reconcile_ops,
                                  workloads.cli_cold_ops])
def test_same_seed_same_digest(make):
    assert stats.digest(make(7)) == stats.digest(make(7))
    assert stats.digest(make(7)) != stats.digest(make(8))


def test_sim_report_prefixes_cover_the_band_for_every_group():
    ops = workloads.sim_report_ops(3, rounds=50)
    lo, hi = (math.log(f) for f in workloads.SIM_BAND_MHZ)
    for rounds in (4, 13, 50):
        prefix = ops[: 8 * rounds]
        for kind in workloads.KINDS:
            for decay in ("none", "effective"):
                u = sorted((math.log(op["omega_bar_mhz"]) - lo) / (hi - lo) for op in prefix
                           if op["kind"] == kind and op["decay"] == decay)
                assert len(u) == rounds
                gaps = [b - a for a, b in zip(u, u[1:])] + [1.0 + u[0] - u[-1]]
                assert max(gaps) < 2.0 / rounds


def test_grid_pass_covers_every_point_once():
    ops = workloads.grid_reconcile_ops(5, passes=1)
    assert ops[0] == {"kind": "sweep"}
    assert sorted(op["omega_bar_mhz"] for op in ops[1:]) == list(workloads.GRID_MHZ)
    assert len({op["theta"] for op in ops[1:]}) == 1


def test_cli_cold_invalid_share_and_rotation():
    ops = workloads.cli_cold_ops(2, blocks=12)
    bad = [op["bad"] for op in ops if op["bad"]]
    assert len(bad) == 12 and len(ops) == 132
    assert sorted(bad) == sorted([name for name, *_ in workloads.BAD_CONFIGS] * 2)


# ------------------------------------------------------------------ statistics


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile([3.0], 0.9) == 3.0
    assert stats.percentile([4, 1, 3, 2], 0.5) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert stats.tail_count(100, 0.9) == 10
    assert stats.tail_count(99, 0.9) == 9
    summary = stats.p90_summary([0.001 * i for i in range(1, 101)])
    assert summary["samples"] == 100
    assert summary["p90_tail_samples"] == 10 and summary["p90_tail_ok"]
    assert summary["latency_ms_p90"] == pytest.approx(90.0)
    assert not stats.p90_summary([0.001] * 60)["p90_tail_ok"]


def test_windowed_summary_takes_medians_over_whole_windows():
    # three windows of two ops: 1 s each, then a 4 s burst, then 1 s; a
    # trailing partial window is left out of the medians
    latencies = [0.5, 0.5, 2.0, 2.0, 0.5, 0.5, 9.0]
    stamps = [0.5, 1.0, 3.0, 5.0, 5.5, 6.0, 15.0]
    passed = [True, True, True, False, True, True, True]
    summary = stats.windowed_summary(0.0, stamps, latencies, passed, window=2)
    assert summary["windows"] == 3
    assert summary["ops_per_s"] == pytest.approx(2.0)  # median of 2, 0.25, 2
    assert summary["latency_ms_p50"] == pytest.approx(500.0)
    assert summary["overall_ops_per_s"] == pytest.approx(6 / 15)
    short = stats.windowed_summary(0.0, [1.0, 2.0], [1.0, 1.0], [True, True], window=5)
    assert short["windows"] == 1 and short["ops_per_s"] == pytest.approx(1.0)


def test_failure_summary_keeps_its_base():
    summary = stats.failure_summary(attempted=40, failed=1, known_defects=3)
    assert summary == {"attempted": 40, "failed": 1, "known_defects": 3, "failed_frac": 0.1}
    with pytest.raises(ValueError):
        stats.failure_summary(0, 0, 0)


# ---------------------------------------------------------------------- checks

SIM_OP = {"kind": "deutsch_theta", "gate": "deutsch", "theta": 1.1, "ratio": None,
          "omega_bar_mhz": 1.0, "decay": "none", "cc": "physical", "temperature": "4.2K"}


@pytest.fixture(scope="module")
def sim_out():
    return workloads.run_sim(SIM_OP)


def _with_result(out, **changes):
    return {**out, "result": dataclasses.replace(out["result"], **changes)}


def test_sim_check_passes_clean_output(sim_out):
    assert workloads.check_sim(SIM_OP, sim_out) == []


def test_sim_check_flags_a_non_unitary_block(sim_out):
    bad = _with_result(sim_out, full_propagator=1.001 * sim_out["result"].full_propagator)
    assert workloads.check_sim(SIM_OP, bad)


def test_sim_check_flags_dwell_off_by_five_percent(sim_out):
    dwell = {k: 1.05 * v for k, v in sim_out["result"].dwell_per_input.items()}
    assert workloads.check_sim(SIM_OP, _with_result(sim_out, dwell_per_input=dwell))


def test_sim_check_flags_non_finite_and_out_of_range(sim_out):
    leak = dict(sim_out["result"].leakage_per_input, **{"000": float("nan")})
    assert workloads.check_sim(SIM_OP, _with_result(sim_out, leakage_per_input=leak))
    assert workloads.check_sim(SIM_OP, {**sim_out, "fidelity": (1.01, 0.99)})
    decayed = dict(SIM_OP, decay="effective")
    loss = {k: -1e-6 for k in sim_out["result"].norm_loss_per_input}
    assert workloads.check_sim(decayed, _with_result(sim_out, norm_loss_per_input=loss))


def test_sim_report_operation_is_a_round_of_every_group(sim_out):
    sim = workloads.SimReport(str(ROOT), 3, "")
    groups = sorted((kind, decay) for kind in workloads.KINDS for decay in ("none", "effective"))
    for op in sim.ops[:20]:
        assert sorted((r["kind"], r["decay"]) for r in op["requests"]) == groups
    round_op = {"requests": [SIM_OP, SIM_OP]}
    assert sim.check(round_op, [sim_out, sim_out]) == []
    dwell = {k: 1.05 * v for k, v in sim_out["result"].dwell_per_input.items()}
    problems = sim.check(round_op, [sim_out, _with_result(sim_out, dwell_per_input=dwell)])
    assert problems and all(p.startswith("request 1: ") for p in problems)


POINT_OP = {"kind": "point", "omega_bar_mhz": 0.54, "theta": 2.0}


def test_grid_check_passes_clean_point_and_sweep():
    assert workloads.check_grid(POINT_OP, workloads.run_grid(POINT_OP)) == []
    sweep_op = {"kind": "sweep"}
    assert workloads.check_grid(sweep_op, workloads.run_grid(sweep_op)) == []


def test_grid_check_flags_corrupted_point():
    out = workloads.run_grid(POINT_OP)
    plain = dataclasses.replace(out["plain"], full_propagator=1.001 * out["plain"].full_propagator)
    assert workloads.check_grid(POINT_OP, {**out, "plain": plain})
    loss = {k: 1.2 * v for k, v in out["decayed"].norm_loss_per_input.items()}
    decayed = dataclasses.replace(out["decayed"], norm_loss_per_input=loss)
    assert workloads.check_grid(POINT_OP, {**out, "decayed": decayed})


def test_grid_check_flags_a_moved_sweep_minimum():
    points = workloads.run_grid({"kind": "sweep"})["points"]
    assert workloads.check_grid({"kind": "sweep"}, {"points": points[40:]})


def _cli_op(sub="budget", bad=None):
    return {"sub": sub, "bad": bad, "id": 0, "config": {"gate": "cnot", "L_um": 6.0}}


def test_cli_check_invalid_config_rules():
    op = _cli_op(bad="bool_omega_bar")
    good = {"returncode": 1, "stdout": "", "stderr": "error: bad value\n", "artifact": None}
    assert workloads.check_cli(op, good) == []
    assert workloads.check_cli(op, {**good, "returncode": 0})
    traceback_err = "Traceback (most recent call last):\nTypeError: x\n"
    assert workloads.check_cli(op, {**good, "stderr": traceback_err})


def test_cli_check_valid_request_rules():
    op = _cli_op()
    artifact = json.dumps({"config": {"gate": "cnot", "L_um": 6.0, "extra": 1}})
    good = {"returncode": 0, "stdout": "", "stderr": "", "artifact": artifact}
    assert workloads.check_cli(op, good) == []
    assert workloads.check_cli(op, {**good, "artifact": None})
    assert workloads.check_cli(op, {**good, "artifact": artifact.replace("6.0", "NaN")})
    assert workloads.check_cli(op, {**good, "artifact": artifact.replace("6.0", "6")})


def test_cli_in_process_requests(tmp_path):
    cold = workloads.CliCold(str(ROOT), 4, str(tmp_path))
    cold.write_configs()
    valid = next(op for op in cold.ops if op["bad"] is None and op["sub"] == "budget")
    assert cold.check(valid, cold.in_process(valid)) == []
    defect = next(op for op in cold.ops if op["bad"] in workloads.KNOWN_DEFECTS)
    assert cold.check(defect, cold.in_process(defect)) and cold.known_defect(defect)


# ---------------------------------------------------------------------- tracer


def _snapshot():
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, _ in tracing.targets([workloads])}


def test_tracer_restores_every_patched_name():
    before = _snapshot()
    with tracing.Tracer(callers=[workloads]) as tracer:
        assert all(vars(o)[a] is not before[(id(o), a)]
                   for o, a, _ in tracing.targets([workloads]))
        with tracer.op(0):
            workloads.run_sim(SIM_OP)
    assert _snapshot() == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer(callers=[workloads]):
            raise RuntimeError("boom")
    assert _snapshot() == before


def test_tracer_spans_nest_and_share_the_op_id():
    with tracing.Tracer(callers=[workloads]) as tracer:
        with tracer.op(5):
            workloads.run_sim(SIM_OP)
    spans = tracer.spans
    assert {s[0] for s in spans} == {5}
    by_id = {s[1]: s for s in spans}
    names = {s[3] for s in spans}
    assert {"op", "evolve.evolve", "model.segment_hamiltonian",
            "qcore.matrix_exponential.eigh", "ideal.gate_fidelity"} <= names
    for _, _, parent, name, start, end, failed in spans:
        assert start <= end and not failed
        if name in ("model.segment_hamiltonian", "qcore.matrix_exponential.eigh"):
            assert by_id[parent][3] == "evolve.evolve"
    summary = tracing.summarize(spans)
    evolve = summary["evolve.evolve"]
    assert summary["model.segment_hamiltonian"]["calls"] == 5
    assert 0 < evolve["self_ms"] < evolve["total_ms"]
    assert sum(tracing.layer_self_ms(summary).values()) <= summary["op"]["total_ms"]


def test_op_span_closes_before_the_check():
    class SlowCheck:
        def check(self, op, out):
            time.sleep(0.05)
            return []

    with tracing.Tracer(callers=[workloads]) as tracer:
        elapsed, issues = worker._attempt(SlowCheck(), None, lambda op: None, tracer.op(0))
    ((_, _, _, name, start, end, failed),) = tracer.spans
    assert name == "op" and not failed and not issues
    assert end - start < 0.04 and elapsed < 0.04


def test_parse_importtime():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |     scipy.linalg",
        "import time:        10 |        710 |   blockadesim.qcore",
        "import time:        20 |        730 | blockadesim.cli",
    ])
    assert worker._parse_importtime(report) == (0.73, 0.7)


# ------------------------------------------------------------------ entry point


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
