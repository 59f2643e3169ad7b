"""JSON (de)serialization of result artifacts.

Sweeps at the paper's full scale take minutes; persisting the harvested
tables lets EXPERIMENTS.md (and any downstream plotting) be regenerated
without re-running the simulations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Union

from repro.metrics.series import SweepSeries
from repro.metrics.table import Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import SessionResult

#: SessionResult fields that hold live in-memory handles, not data —
#: excluded from serialization (re-run with tracing to regenerate them)
_RESULT_HANDLE_FIELDS = ("trace", "timeseries", "audit", "spans")


def table_to_dict(table: Table) -> Dict[str, Any]:
    return {
        "type": "table",
        "title": table.title,
        "headers": table.headers,
        "rows": table.rows,
    }


def table_from_dict(data: Dict[str, Any]) -> Table:
    if data.get("type") != "table":
        raise ValueError(f"not a table payload: {data.get('type')!r}")
    table = Table(data["headers"], title=data.get("title", ""))
    for row in data["rows"]:
        table.add_row(*row)
    return table


def series_to_dict(series: SweepSeries) -> Dict[str, Any]:
    return {
        "type": "series",
        "title": series.title,
        "x_name": series.x_name,
        "x": series.x,
        "columns": {name: series.columns[name] for name in series.series_names},
    }


def series_from_dict(data: Dict[str, Any]) -> SweepSeries:
    if data.get("type") != "series":
        raise ValueError(f"not a series payload: {data.get('type')!r}")
    names = list(data["columns"])
    series = SweepSeries(data["x_name"], names, title=data.get("title", ""))
    for i, x in enumerate(data["x"]):
        series.add(x, **{name: data["columns"][name][i] for name in names})
    return series


def session_result_to_dict(result: "SessionResult") -> Dict[str, Any]:
    """Serialize one run's :class:`SessionResult` (config included).

    The observability handles (``trace``, ``timeseries``) are dropped —
    they carry live objects with their own exporters
    (:mod:`repro.obs.exporters`); everything else, churn-metric fields
    included, round-trips through JSON.
    """
    from repro.streaming.session import SessionResult

    data: Dict[str, Any] = {}
    for f in fields(SessionResult):
        if f.name in _RESULT_HANDLE_FIELDS:
            continue
        value = getattr(result, f.name)
        data[f.name] = asdict(value) if f.name == "config" else value
    return {"type": "session_result", "data": data}


def session_result_from_dict(payload: Dict[str, Any]) -> "SessionResult":
    if payload.get("type") != "session_result":
        raise ValueError(
            f"not a session_result payload: {payload.get('type')!r}"
        )
    from repro.core.base import ProtocolConfig
    from repro.streaming.session import SessionResult

    data = dict(payload["data"])
    data["config"] = ProtocolConfig(**data["config"])
    return SessionResult(**data)


def artifact_to_dict(artifact: Union[Table, SweepSeries]) -> Dict[str, Any]:
    if isinstance(artifact, Table):
        return table_to_dict(artifact)
    if isinstance(artifact, SweepSeries):
        return series_to_dict(artifact)
    from repro.streaming.session import SessionResult

    if isinstance(artifact, SessionResult):
        return session_result_to_dict(artifact)
    if is_dataclass(artifact):
        return {"type": "dataclass", "data": asdict(artifact)}
    raise TypeError(f"cannot serialize {type(artifact).__name__}")


def artifact_from_dict(data: Dict[str, Any]) -> Union[Table, SweepSeries]:
    kind = data.get("type")
    if kind == "table":
        return table_from_dict(data)
    if kind == "series":
        return series_from_dict(data)
    if kind == "session_result":
        return session_result_from_dict(data)
    raise ValueError(f"unknown artifact type {kind!r}")


def save_artifacts(
    artifacts: Dict[str, Union[Table, SweepSeries]],
    path: Union[str, Path],
) -> None:
    """Write a named set of artifacts as one JSON document."""
    payload = {name: artifact_to_dict(a) for name, a in artifacts.items()}
    Path(path).write_text(json.dumps(payload, indent=2, default=str))


def load_artifacts(path: Union[str, Path]) -> Dict[str, Union[Table, SweepSeries]]:
    payload = json.loads(Path(path).read_text())
    return {name: artifact_from_dict(d) for name, d in payload.items()}
