"""Sweep series: one x-axis, several named y-columns (a figure's data)."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.metrics.table import Table


class SweepSeries:
    """Data behind one figure: ``x`` plus named series.

    Rows are added one sweep point at a time with a value for every
    series; the result renders as a table, and ``columns[name]`` is one
    series' raw values.
    """

    def __init__(self, x_name: str, series_names: List[str], title: str = "") -> None:
        if not series_names:
            raise ValueError("need at least one series")
        self.title = title
        self.x_name = x_name
        self.series_names = list(series_names)
        self.x: List[Any] = []
        self.columns: Dict[str, List[Any]] = {name: [] for name in series_names}

    def add(self, x: Any, **values: Any) -> None:
        missing = set(self.series_names) - set(values)
        extra = set(values) - set(self.series_names)
        if missing or extra:
            raise ValueError(
                f"series mismatch at {self.x_name}={x!r}: "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        self.x.append(x)
        for name in self.series_names:
            self.columns[name].append(values[name])

    def to_table(self) -> Table:
        table = Table([self.x_name] + self.series_names, title=self.title)
        for i, x in enumerate(self.x):
            table.add_row(x, *(self.columns[name][i] for name in self.series_names))
        return table

    def render(self) -> str:
        return self.to_table().render()

    def __len__(self) -> int:
        return len(self.x)

    def __repr__(self) -> str:
        return f"<SweepSeries {self.title!r} {len(self.x)} points>"
