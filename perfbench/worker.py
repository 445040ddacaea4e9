"""One benchmark process: set up a workload, print ``READY``, then run the
timed phase (untraced) or the traced phase and print its result as one JSON
line.  ``run.py`` starts this file; it is not meant to be run by hand.

Usage: worker.py ROOT WORKLOAD SEED SECONDS TRACE WORK_DIR [--setup-only]
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from stats import failure_summary, p90_summary, windowed_summary
from tracing import LAYERS, Tracer, layer_self_ms, span_records, summarize


def _load(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import blockadesim  # the import is part of set-up
    import workloads

    if not os.path.realpath(blockadesim.__file__).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"blockadesim imported from {blockadesim.__file__}, not {src}")
    return workloads


def _attempt(workload, op, run, span=contextlib.nullcontext()):
    """Run one operation inside ``span``, then check its output outside it;
    returns (seconds, problems)."""
    start = time.perf_counter()
    try:
        with span:
            out = run(op)
    except Exception as exc:  # the operation failed; the run goes on
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(op, out)
    except Exception as exc:  # a malformed output fails its check
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


def timed_phase(workload, seconds: float) -> dict:
    stamps, latencies, passed, failed, known, problems = [], [], [], 0, 0, []
    ops = workload.ops
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        op = ops[len(latencies) % len(ops)]
        elapsed, issues = _attempt(workload, op, workload.execute)
        latencies.append(elapsed)
        passed.append(not issues or workload.known_defect(op))
        if issues and workload.known_defect(op):
            known += 1
        elif issues:
            failed += 1
            if len(problems) < 10:
                problems.append({"op": op, "problems": issues})
        stamps.append(time.perf_counter())
        if stamps[-1] >= deadline:
            break
    return {
        **windowed_summary(start, stamps, latencies, passed, workload.window),
        **p90_summary(latencies),
        **failure_summary(len(latencies), failed, known),
        "timed_s": stamps[-1] - start,
        "peak_rss_mb": workload.peak_rss_mb(),
        "problems": problems,
    }


IMPORTTIME_REPEATS = 3


def import_times(src: str) -> dict:
    """Median ``-X importtime`` cumulative ms of ``blockadesim.cli`` and of
    the scipy packages it pulls in, each from a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {src!r}); import blockadesim.cli"
    cli_ms, scipy_ms = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, check=True)
        total, scipy_total = _parse_importtime(proc.stderr)
        cli_ms.append(total)
        scipy_ms.append(scipy_total)
    return {"cli.import_ms": statistics.median(cli_ms),
            "cli.import_scipy_ms": statistics.median(scipy_ms)}


def _parse_importtime(text: str) -> tuple[float, float]:
    """(ms for blockadesim.cli, ms for scipy modules imported by non-scipy
    modules).  The report lists children before their parent."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e3))
    total, scipy_total, parents = None, 0.0, []
    for depth, name, ms in reversed(rows):  # parents now come first
        del parents[depth:]
        parent = parents[-1] if parents else ""
        parents.append(name)
        if name == "blockadesim.cli":
            total = ms
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_total += ms
    if total is None:
        raise RuntimeError("importtime report has no blockadesim.cli entry")
    return total, scipy_total


def _pass(workload, batch, run, tracer=None):
    """One pass over ``batch``; returns (seconds, unexpected failures,
    failures of any kind)."""
    failed = broken = 0
    start = time.perf_counter()
    for k, op in enumerate(batch):
        if tracer is None:
            _, issues = _attempt(workload, op, run)
        else:
            _, issues = _attempt(workload, op, run, tracer.op(k))
        broken += bool(issues)
        failed += bool(issues) and not workload.known_defect(op)
    return time.perf_counter() - start, failed, broken


def traced_phase(workload, seconds: float, src: str, spans_path: str) -> dict:
    """Pairs of passes over the first ``trace_ops`` operations, one untraced
    and one traced in alternating order, until ``seconds`` have gone.  Counts
    repeat exactly from pass to pass; times are medians over passes."""
    import workloads

    deadline = time.perf_counter() + seconds
    imports = import_times(src)
    batch = workload.ops[: workload.trace_ops]
    passes, spans, failed = [], [], 0
    while True:
        # alternate which side runs first, so warming favours neither
        untraced_first = len(passes) % 2 == 0
        if untraced_first:
            untraced_s = _pass(workload, batch, workload.in_process)[0]
        with Tracer(callers=[workloads]) as tracer:
            traced_s, failed_now, broken = _pass(workload, batch, workload.in_process, tracer)
        if not untraced_first:
            untraced_s = _pass(workload, batch, workload.in_process)[0]
        failed += failed_now
        passes.append(_trace_metrics(workload, tracer.spans, imports, broken,
                                     untraced_s, traced_s))
        spans = tracer.spans
        if time.perf_counter() >= deadline:
            break
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(span_records(spans), fh)
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    return {"per_layer": metrics, "passes": len(passes), "failed": failed,
            "attempted": len(batch) * len(passes), "spans_file": os.path.basename(spans_path)}


def _trace_metrics(workload, spans, imports, broken, untraced_s, traced_s) -> dict:
    summary = summarize(spans)

    def entry(name):
        return summary.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "failed": 0})

    metrics = dict(imports)
    main = entry("cli.main")
    metrics.update({"cli.main.calls": main["calls"], "cli.main.total_ms": main["total_ms"],
                    # a request that broke its check, not only one that raised
                    "cli.main.failed": broken if main["calls"] else 0})
    for name in ("schedule.drive", "schedule.build", "model.segment_hamiltonian",
                 "qcore.matrix_exponential.eigh", "qcore.matrix_exponential.expm",
                 "evolve.evolve", "ideal.gate_fidelity", "budget.sweep",
                 "budget.error_budget"):
        metrics[f"{name}.calls"] = entry(name)["calls"]
        metrics[f"{name}.total_ms"] = entry(name)["total_ms"]
    metrics["evolve.evolve.failed"] = entry("evolve.evolve")["failed"]
    metrics["evolve.self_ms"] = entry("evolve.evolve")["self_ms"]

    # Busy time is the operations' own time, without their checks; each
    # cli_cold operation is a fresh process that also pays the whole import.
    ops = entry("op")["calls"]
    import_ms = imports["cli.import_ms"] * ops if workload.import_per_op else 0.0
    busy = entry("op")["total_ms"] + import_ms
    self_ms = layer_self_ms(summary)
    metrics["cli.import.share_pct"] = 100.0 * import_ms / busy
    for layer in LAYERS:
        metrics[f"{layer}.share_pct"] = 100.0 * self_ms[layer] / busy
    metrics["trace.ops"] = ops
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return metrics


def provenance(root: str, workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_digest(os.path.join(root, "src", "blockadesim")),
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_env": {key: os.environ.get(key) for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ops_digest": workload.digest,
        "ops_generated": len(workload.ops),
    }


def _git_sha(root: str):
    # A checkout without .git (an export) has no sha; do not let git find
    # an enclosing repository instead.
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def _tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    # on SIGTERM, unwind so that a running CLI child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root, name, seed, seconds, trace, work_dir = argv[:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workloads = _load(root)
    workload = workloads.WORKLOADS[name](root, seed, work_dir)
    workload.warm_up()
    print("READY", flush=True)
    if "--setup-only" in argv[6:]:
        return 0
    if trace:
        spans_path = os.path.join(work_dir, f"spans-seed{seed}.json")
        result = traced_phase(workload, seconds, os.path.join(root, "src"), spans_path)
    else:
        result = timed_phase(workload, seconds)
    result["provenance"] = provenance(root, workload, seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
