"""Session-tick benchmark entry point (see README.md in this directory).

    python3 tickbench/run.py --workload motion_100k --seed 1 --seconds 20 --trace 0

Runs one workload in this process against the package in ``src/`` of the
checkout this file lives in, prints every metric with its unit, writes a
full report under ``tickbench/results/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--workload all`` runs each workload in its own process, one after the
other.  Exit status: 0 when every answer checked out, 1 when an operation
failed or an answer differed, 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_harness():
    """Import the harness against the checkout's own ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no package at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")
    import harness

    return harness


def _run_all(args, names) -> int:
    """Each workload in a child process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    try:
        harness = _import_harness()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(harness.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args, harness.WORKLOADS)

    wl = harness.WORKLOADS[args.workload]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = harness.run_traced(wl, args.seed, args.seconds, out_dir / f"{stem}.spans.jsonl")
    else:
        result = harness.run_untraced(wl, args.seed, args.seconds)
    counts = result["counts"]
    correct = counts.failed == 0 and bool(result["metrics"])
    metrics = {
        name: {"value": value, "unit": result["units"][name]}
        for name, value in result["metrics"].items()
    }
    report = {
        "workload": wl.name,
        "params": wl.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": harness.platform_block(),
        "correct": correct,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "errors": counts.errors,
        "metrics": metrics,
        "info": result["info"],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"# {wl.name} ({wl.method}, NP={wl.n_objects}, NQ={wl.n_queries}, k={wl.k}) "
          f"seed={args.seed} trace={args.trace}")
    print(f"# platform: {json.dumps(report['platform'])}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.4f} {m['unit']}")
    for name, value in result["info"].items():
        print(f"  {name}: {value}")
    for err in counts.errors:
        print(f"  error: {err}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(counts.attempted, 1),
                      "failed": counts.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
