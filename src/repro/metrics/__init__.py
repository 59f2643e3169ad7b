"""Result tabulation and summary statistics for the experiment harness."""

from repro.metrics.table import Table
from repro.metrics.series import SweepSeries
from repro.metrics.stats import mean
from repro.metrics.io import save_artifacts, session_result_to_dict

__all__ = [
    "SweepSeries",
    "Table",
    "mean",
    "save_artifacts",
    "session_result_to_dict",
]
