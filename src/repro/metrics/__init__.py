"""Result tabulation and summary statistics for the experiment harness."""

from repro.metrics.table import Table
from repro.metrics.series import SweepSeries
from repro.metrics.stats import mean
from repro.metrics.io import (
    load_artifacts,
    save_artifacts,
    session_result_from_dict,
    session_result_to_dict,
)

__all__ = [
    "SweepSeries",
    "Table",
    "load_artifacts",
    "mean",
    "save_artifacts",
    "session_result_from_dict",
    "session_result_to_dict",
]
