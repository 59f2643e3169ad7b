"""Experiment tables computed once per test session and shared.

``pinned(name)`` is the row's table at the argument set
``data/table_digests.json`` pins (the sets the shape tests in this
directory have always used; the figures at the CLI's ``--quick`` grid).
``"EX-N@defaults"`` names a second pinned argument set of row ``EX-N``.
``ablations_quick`` is one ``repro-experiments ablations --quick`` run.
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.experiments.cli import main
from repro.metrics.io import load_artifacts

PINNED = json.loads(
    (Path(__file__).parent / "data" / "table_digests.json").read_text()
)
PINNED.pop("_about")


@pytest.fixture(scope="session")
def pinned():
    @functools.cache
    def series(name):
        return run_experiment(name.partition("@")[0], **PINNED[name]["args"])

    return series


@pytest.fixture(scope="session")
def ablations_quick(tmp_path_factory):
    """``(stdout, {name: SweepSeries})`` of ``ablations --quick --out …``."""
    out = tmp_path_factory.mktemp("cli") / "ablations.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["ablations", "--quick", "--out", str(out)]) == 0
    return stdout.getvalue(), load_artifacts(out)
