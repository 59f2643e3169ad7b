#!/usr/bin/env python3
"""The repo benchmark: one command, six workloads, two views.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints every metric by name and
unit, then — as the last line — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics with every observer off: one discarded warm-up pass,
then timed passes for ``--seconds`` seconds (never fewer than three),
each metric the median over the passes.  ``--trace 1`` is the separate
traced run that yields the per-layer metrics (see ``trace.py``).

Without ``--workload`` it runs all six workloads, each view in a fresh
subprocess, and writes ``bench/results/<--out>/summary.json``.

Metric names, units and bounds live in ``BENCHMARK.json``; a run emits
exactly the names listed there.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
MIN_PASSES = 3


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program() -> float:
    """Put ``src/`` on the path and import the program; seconds taken."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - t0


# ----------------------------------------------------------------------
def end_to_end_run(workload, seed: int, seconds: float, quick: bool):
    """The ``--trace 0`` run.  Returns ``(detail, passes)``."""
    from harness import run_pass, summarise

    run_pass(workload, seed, quick)  # warm-up: caches fill, lazy imports land
    passes = []
    start = time.perf_counter()
    # quick mode is a smoke test: exactly MIN_PASSES tiny passes
    while len(passes) < MIN_PASSES or (
        not quick and time.perf_counter() - start < seconds
    ):
        passes.append(run_pass(workload, seed, quick))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "wall_s": summarise([p.wall_s for p in passes]),
        "sim_ms_per_wall_s": summarise(
            [p.sim_ms / p.wall_s for p in passes]
        ),
        "peak_rss_mb": summarise([peak_rss_mb]),
        "setup_s": summarise([p.setup_s for p in passes]),
        "sim_delivery": summarise([p.sim_delivery for p in passes]),
        "sim_ctrl_packets": summarise([p.sim_ctrl_packets for p in passes]),
    }
    return detail, passes


def emit(args, contract, detail, passes, workload, extra) -> int:
    """Print the metric table and the contract's last line; exit code."""
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    missing = sorted(set(units) - set(detail))
    unlisted = sorted(set(detail) - set(units))
    if missing or unlisted:
        sys.exit(
            f"bench: BENCHMARK.json {section} and the run disagree: "
            f"missing {missing}, unlisted {unlisted}"
        )
    digests = sorted({p.digest() for p in passes})
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed(workload.overloaded) for p in passes)
    broken = sorted({b for p in passes for c in p.cells for b in c.broken})
    correct = failed == 0 and len(digests) == 1
    print(f"== {workload.name} seed={args.seed} {section} "
          f"({len(passes)} passes) ==")
    for name in units:
        entry = detail[name]
        spread = (
            f"  [min {entry['min']:.6g}, max {entry['max']:.6g}, "
            f"n={entry['samples']}]"
            if entry.get("samples", 1) > 1
            else ""
        )
        print(f"{name:32s} {entry['value']:<14.6g} {units[name]}{spread}")
    print(f"stats_digest {' != '.join(digests)}")
    for line in broken:
        print(f"BROKEN: {line}")
    print(f"operations: {attempted} attempted, {failed} failed")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": detail[name]["value"], "unit": units[name]}
            for name in units
        },
    }
    if args.out:
        out_dir = RESULTS / args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        part = {
            **result,
            "workload": workload.name,
            "seed": args.seed,
            "quick": args.quick,
            "stats_digest": digests[0],
            "broken": broken,
            "detail": detail,
            **extra,
        }
        with open(out_dir / f"{workload.name}.{section}.json", "w") as fh:
            json.dump(part, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0  # an incorrect run is reported in the JSON, not by the exit code


def run_one(args, contract) -> int:
    import_s = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(
            f"bench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}"
        )
    if args.trace:
        from trace import traced_run

        metrics, passes, boundary = traced_run(
            workload, args.seed, args.quick, import_s
        )
        detail = {name: {"value": value} for name, value in metrics.items()}
        extra = {"boundary_table": boundary}
    else:
        detail, passes = end_to_end_run(
            workload, args.seed, args.seconds, args.quick
        )
        extra = {
            "passes": [
                {
                    "wall_s": p.wall_s,
                    "setup_s": p.setup_s,
                    "sim_ms": p.sim_ms,
                    "cells": {c.label: c.wall_s for c in p.cells},
                }
                for p in passes
            ],
            "model_stats": passes[0].model_stats(),
        }
    return emit(args, contract, detail, passes, workload, extra)


# ----------------------------------------------------------------------
def run_all(args, contract) -> int:
    """Every workload, each view in a fresh subprocess; one summary."""
    out_dir = RESULTS / args.out
    summary = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    status = 0
    for entry in contract["workloads"]:
        name = entry["name"]
        merged = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", args.out,
            ] + (["--quick"] if args.quick else [])
            part_file = out_dir / f"{name}.{section}.json"
            part_file.unlink(missing_ok=True)
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                status = 1
                continue
            with open(part_file) as fh:
                part = json.load(fh)
            merged[section] = {
                metric: {**part["detail"][metric], "unit": body["unit"]}
                for metric, body in part["metrics"].items()
            }
            merged.setdefault("stats_digest", part["stats_digest"])
            merged["correct"] = merged.get("correct", True) and part["correct"]
            if not part["correct"]:
                status = 1
            merged[f"{section}_operations"] = {
                "attempted": part["attempted"], "failed": part["failed"]
            }
        summary["workloads"][name] = merged
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"bench: wrote {out_dir / 'summary.json'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one small cell per workload")
    parser.add_argument("--out", metavar="NAME", default=None,
                        help="write detail under bench/results/NAME/")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.workload is None:
        if args.out is None:
            args.out = "quick" if args.quick else "latest"
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
