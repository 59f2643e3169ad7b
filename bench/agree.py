#!/usr/bin/env python3
"""Do two result sets of the same commit agree?

    python3 bench/agree.py A B

``A`` and ``B`` name sets under ``bench/results/`` (or are paths to their
``summary.json``), written by ``bench/run.py --out A`` and ``--out B``.

* Every end-to-end **host** metric (``wall_s``, ``sim_ms_per_wall_s``,
  ``peak_rss_mb``, ``setup_s``): B's median may differ from A's by at
  most the metric's ``bound`` in ``BENCHMARK.json``, as a share of A's.
* Every **model** metric and **count** — ``sim_delivery``,
  ``sim_ctrl_packets``, every per-layer metric that is not host-timed,
  and the ``stats_digest`` — must be identical: the simulator is deterministic per seed, so any difference
  is a changed trajectory, not noise.

Exits 1 naming each workload and metric that disagreed, 2 when the sets
cannot be compared (different seeds, a workload missing).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: end-to-end metrics read off the host; the rest are the model's
HOST_END_TO_END = ("wall_s", "sim_ms_per_wall_s", "peak_rss_mb", "setup_s")
#: per-layer metrics read off a clock; everything else must repeat exactly
HOST_TIMED_SUFFIXES = ("self_share", "unattributed_share", "_s", "_x")


def load(name: str) -> dict:
    path = Path(name)
    if not path.is_file():
        path = BENCH_DIR / "results" / name / "summary.json"
    with open(path) as fh:
        return json.load(fh)


def compare(a: dict, b: dict, bounds: dict) -> list:
    """Every disagreement, as ``workload: metric: what``."""
    problems = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"][workload]
        if wa.get("stats_digest") != wb.get("stats_digest"):
            problems.append(f"{workload}: stats_digest: differs")
        for section in ("end_to_end", "per_layer"):
            for metric, ma in wa.get(section, {}).items():
                va, vb = ma["value"], wb[section][metric]["value"]
                bound = bounds.get(metric)
                host = (
                    metric in HOST_END_TO_END
                    if section == "end_to_end"
                    else metric.endswith(HOST_TIMED_SUFFIXES)
                )
                if not host:
                    if va != vb:
                        problems.append(
                            f"{workload}: {metric}: {va!r} != {vb!r} "
                            "(must be identical)"
                        )
                elif bound is not None and abs(vb - va) > bound * abs(va):
                    problems.append(
                        f"{workload}: {metric}: {va:.6g} vs {vb:.6g} "
                        f"({(vb - va) / va:+.1%}, bound {bound:.0%})"
                    )
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        print("agree: the sets were run with different --seed/--quick",
              file=sys.stderr)
        return 2
    missing = sorted(set(a["workloads"]) ^ set(b["workloads"]))
    if missing:
        print(f"agree: workloads in only one set: {missing}", file=sys.stderr)
        return 2
    problems = compare(a, b, bounds)
    for line in problems:
        print(f"DISAGREE {line}")
    if not problems:
        print(f"agree: {len(a['workloads'])} workloads agree")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
