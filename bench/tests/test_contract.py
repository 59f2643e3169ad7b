"""The benchmark's own contract, checked on the ``--quick`` smoke run.

Run with ``pytest bench/tests`` — outside the tier-1 ``testpaths``.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SET = "contract-test"


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick():
    """One ``--quick`` run of all six workloads; (summary, seconds)."""
    out_dir = BENCH / "results" / SET
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", SET],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    try:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(out_dir / "summary.json") as fh:
            yield json.load(fh), elapsed
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def test_names_and_counts(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"]]
    names += [m["name"] for m in contract["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert len(contract["end_to_end"]) <= 16
    assert len(contract["per_layer"]) <= 128
    assert 2 <= len(contract["workloads"]) <= 8
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in contract["end_to_end"] if m["name"] == "setup_s"
    ).items()


def test_quick_is_quick(quick):
    _summary, elapsed = quick
    assert elapsed < 30.0


def test_every_metric_for_every_workload(contract, quick):
    summary, _ = quick
    assert sorted(summary["workloads"]) == sorted(
        w["name"] for w in contract["workloads"]
    )
    for name, result in summary["workloads"].items():
        assert result["correct"], name
        for section in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in contract[section]}
            got = {k: v["unit"] for k, v in result[section].items()}
            assert got == want, (name, section)
        # end-to-end metrics are never 0: the driver divides by them
        assert all(v["value"] > 0 for v in result["end_to_end"].values()), name
        assert result["end_to_end_operations"]["failed"] == 0, name


def test_layer_shares_cover_the_profile(quick):
    summary, _ = quick
    for name, result in summary["workloads"].items():
        shares = [
            v["value"] for k, v in result["per_layer"].items()
            if k.endswith(".self_share")
        ]
        assert sum(shares) >= 0.98, (name, sum(shares))
        assert result["per_layer"]["bench.stats_digest_changed"]["value"] == 0


def test_only_the_observed_workload_loads_obs(quick):
    summary, _ = quick
    for name, result in summary["workloads"].items():
        obs = result["per_layer"]["obs.self_share"]["value"]
        assert (obs > 0) == (name == "observed_stream"), (name, obs)
