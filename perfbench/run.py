"""Run one blockadesim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim_report --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics (set-up time, throughput,
latency percentiles, peak RSS); with ``--trace 1`` it holds the per-layer
metrics of a traced run.  Either way the full result, with provenance and
the failure counts, goes to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

Set-up time is measured from a fresh interpreter to ready (imports, input
generation, one warm-up operation) in SETUP_SPAWNS separate processes, the
last of which goes on to the timed phase; the median is reported.  BLAS
thread variables are inherited as they are and recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("sim_report", "grid_reconcile", "cli_cold")
SETUP_SPAWNS = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, work_dir: str, setup_only: bool) -> tuple[float, str]:
    """Start one worker; returns (seconds to READY, rest of its stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, args.workload,
           str(args.seed), str(args.seconds), str(args.trace), work_dir]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S + (0 if setup_only else args.seconds + 120)
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.terminate()  # the worker stops its own CLI child
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker for {args.workload} exited {proc.returncode}")
    return setup_s, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the worker is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "blockadesim", "__init__.py")):
        print(f"error: no blockadesim sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(work_dir, exist_ok=True)
    # the traced run reports no set-up time, so it needs only one process
    spawns = 1 if args.trace else SETUP_SPAWNS
    try:
        setups = [run_worker(args, work_dir, setup_only=True)[0] for _ in range(spawns - 1)]
        setup_s, text = run_worker(args, work_dir, setup_only=False)
    except (WorkerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    result = json.loads(text.strip().splitlines()[-1])
    result["setup_s_samples"] = setups

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        result["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
