"""Experiment tables computed once per test session and shared.

``pinned(name)`` is the row's table at the argument set
``data/tables.json`` pins (the sets the shape tests in this directory
have always used; the figures at the CLI's ``--quick`` grid), and
``data/tables/<name>.csv`` is that table as CSV text.
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
from repro.metrics.io import series_from_dict

DATA = Path(__file__).parent / "data"
TABLES = DATA / "tables"
PINNED = json.loads((DATA / "tables.json").read_text())
PINNED.pop("_about")


def pinned_series(name):
    """Row ``name`` (before any ``@label``) at its pinned arguments."""
    return run_experiment(name.partition("@")[0], **PINNED[name]["args"])


def pinned_csv(name):
    """The table of ``pinned_series(name)`` as CSV text."""
    return pinned_series(name).to_table().to_csv()


@pytest.fixture(scope="session")
def pinned():
    return functools.cache(pinned_series)


@pytest.fixture(scope="session")
def ablations_quick(tmp_path_factory):
    """``(stdout, {name: SweepSeries})`` of ``ablations --quick --out …``."""
    out = tmp_path_factory.mktemp("cli") / "ablations.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["ablations", "--quick", "--out", str(out)]) == 0
    artifacts = json.loads(out.read_text())
    return stdout.getvalue(), {k: series_from_dict(d) for k, d in artifacts.items()}
