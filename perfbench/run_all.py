"""Run every workload, untraced and then traced, print every metric by name
and unit, and write one combined result file with stable keys.

    python3 perfbench/run_all.py [--seed 1] [--seconds 35] [--out perfbench/out/bench.json]

End-to-end figures come from the untraced run; per-layer figures, layer
shares of busy time and the tracing overhead come from the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import END_TO_END_UNITS, HERE, OUT_DIR, ROOT, WORKLOADS, _layer_unit

SCHEMA = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(untraced: dict, traced: dict) -> dict:
    layers = traced["per_layer"]
    return {
        "end_to_end": {name: {"value": untraced[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()},
        "failures": {key: untraced[key] for key in
                     ("attempted", "failed", "known_defects", "failed_frac")},
        "latency_samples": {key: untraced[key] for key in
                            ("samples", "p90_tail_samples", "p90_tail_ok")},
        "ops_digest": untraced["provenance"]["ops_digest"],
        "per_layer": {name: {"value": value, "unit": _layer_unit(name)}
                      for name, value in layers.items()},
        "traced": {"passes": traced["passes"], "attempted": traced["attempted"],
                   "failed": traced["failed"], "overhead_pct": layers["trace.overhead_pct"]},
    }


def print_report(name: str, entry: dict) -> None:
    print(name)
    for metric, m in entry["end_to_end"].items():
        print(f"  {metric:24s} {m['value']:12.4f} {m['unit']}")
    f = entry["failures"]
    print(f"  {'failed_frac':24s} {f['failed_frac']:12.4f} "
          f"({f['failed']} failed + {f['known_defects']} known defects "
          f"of {f['attempted']} attempted)")
    s = entry["latency_samples"]
    print(f"  {'latency samples':24s} {s['samples']:12d} "
          f"({s['p90_tail_samples']} beyond p90)")
    shares = sorted(((m["value"], metric) for metric, m in entry["per_layer"].items()
                     if metric.endswith(".share_pct")), reverse=True)
    print("  busy-time shares: " + ", ".join(
        f"{metric[:-len('.share_pct')]} {value:.1f}%" for value, metric in shares if value))
    print(f"  {'trace overhead':24s} {entry['traced']['overhead_pct']:12.2f} %")
    for metric, m in entry["per_layer"].items():
        if not metric.endswith(".share_pct"):
            print(f"    {metric:40s} {m['value']:14.3f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "bench.json"))
    args = parser.parse_args(argv)

    report = {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
              "provenance": None, "workloads": {}}
    for name in WORKLOADS:
        untraced = _run(name, args.seed, args.seconds, 0)
        traced = _run(name, args.seed, args.seconds, 1)
        provenance = dict(untraced["provenance"])
        for key in ("workload", "ops_digest", "ops_generated"):
            provenance.pop(key)
        report["provenance"] = report["provenance"] or provenance
        report["workloads"][name] = summarize(untraced, traced)
        print_report(name, report["workloads"][name])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
