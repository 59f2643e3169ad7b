"""Shared settings for the four CI-gated bench modules.

Every ``test_bench_*`` runs one experiment once, prints its table and
asserts its shape — the interesting output is the table and the result
scalars, not wall-clock statistics.  Run with::

    pytest benchmarks/ -s

Each run writes one consolidated ``BENCH_<module>.json`` artifact per
bench module (wall time of every test + the key result scalars recorded
through the ``bench_scalars`` fixture) into ``BENCH_ARTIFACT_DIR``,
default the git-ignored ``<rootdir>/out/bench_fresh``.  CI's ``regress``
step diffs that directory against the committed baselines in
``bench_artifacts/``; writing a new baseline is therefore explicit::

    BENCH_ARTIFACT_DIR=bench_artifacts pytest benchmarks/
"""

import json
import os
from pathlib import Path

import pytest

from repro.metrics.stats import nearest_rank_percentile as percentile

__all__ = ["percentile"]

#: module name -> {test name -> {"wall_s": float, "scalars": {...}}}
_RECORDS: dict = {}


@pytest.fixture
def bench_scalars(request):
    """Dict a bench fills with key result scalars (rounds, rates, …).

    Whatever lands here is merged into the module's ``BENCH_<name>.json``
    under this test's entry.
    """
    data = {}
    request.node._bench_scalars = data
    return data


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.passed:
        return
    module = Path(item.fspath).stem.removeprefix("test_bench_")
    _RECORDS.setdefault(module, {})[item.name] = {
        "wall_s": round(report.duration, 4),
        "scalars": getattr(item, "_bench_scalars", {}),
    }


def _artifact_dir(config) -> Path:
    override = os.environ.get("BENCH_ARTIFACT_DIR")
    if override:
        return Path(override)
    return Path(str(config.rootdir)) / "out" / "bench_fresh"


def pytest_sessionfinish(session, exitstatus):
    if not _RECORDS:
        return
    out_dir = _artifact_dir(session.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    for module, tests in sorted(_RECORDS.items()):
        payload = {
            "bench": module,
            "total_wall_s": round(
                sum(t["wall_s"] for t in tests.values()), 4
            ),
            "tests": tests,
        }
        path = out_dir / f"BENCH_{module}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
