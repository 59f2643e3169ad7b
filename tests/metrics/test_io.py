"""Tests for JSON artifact persistence."""

import json

import pytest

from repro.metrics import SweepSeries, Table, save_artifacts
from repro.metrics.io import (
    artifact_to_dict,
    series_from_dict,
    series_to_dict,
    table_to_dict,
)


def sample_table():
    t = Table(["a", "b"], title="demo")
    t.add_row(1, 2.5)
    t.add_row(3, "x")
    return t


def sample_series():
    s = SweepSeries("H", ["rounds", "rate"], title="fig")
    s.add(2, rounds=9, rate=10.3)
    s.add(60, rounds=2, rate=1.06)
    return s


def restored_result(payload):
    """The :class:`SessionResult` a ``session_result`` payload describes."""
    from repro.core import ProtocolConfig
    from repro.streaming import SessionResult

    data = dict(payload["data"])
    data["config"] = ProtocolConfig(**data["config"])
    return SessionResult(**data)


def test_table_roundtrip():
    t = sample_table()
    t2 = json.loads(json.dumps(table_to_dict(t)))
    assert t2["type"] == "table"
    assert t2["title"] == "demo"
    assert t2["headers"] == t.headers
    assert t2["rows"] == t.rows


def test_series_roundtrip():
    s = sample_series()
    s2 = series_from_dict(series_to_dict(s))
    assert s2.title == s.title
    assert s2.x == s.x
    assert s2.columns["rounds"] == s.columns["rounds"]
    assert s2.columns["rate"] == s.columns["rate"]


def test_artifact_dispatch():
    assert artifact_to_dict(sample_table())["type"] == "table"
    assert artifact_to_dict(sample_series())["type"] == "series"
    with pytest.raises(TypeError):
        artifact_to_dict(object())
    with pytest.raises(ValueError):
        series_from_dict({"type": "table"})


def test_save_load_file_roundtrip(tmp_path):
    path = tmp_path / "results.json"
    save_artifacts({"t": sample_table(), "s": sample_series()}, path)
    loaded = json.loads(path.read_text())
    assert set(loaded) == {"t", "s"}
    assert loaded["t"]["type"] == "table"
    assert series_from_dict(loaded["s"]).columns["rounds"] == [9, 2]


def sample_result():
    from repro.core import DCoP, ProtocolConfig
    from repro.streaming import SessionSpec

    config = ProtocolConfig(n=8, H=4, fault_margin=1, content_packets=60, seed=2)
    return SessionSpec(config, DCoP()).build().run()


def test_session_result_roundtrip():
    from repro.metrics import session_result_to_dict

    result = sample_result()
    payload = session_result_to_dict(result)
    assert payload["type"] == "session_result"
    restored = restored_result(payload)
    assert restored == result
    assert restored.config == result.config
    # the round-trip survives actual JSON text, not just dicts
    assert restored_result(json.loads(json.dumps(payload))) == result


def test_session_result_roundtrip_drops_runtime_handles():
    """trace/timeseries are runtime objects, not part of the artifact."""
    from repro import TraceConfig
    from repro.core import DCoP, ProtocolConfig
    from repro.metrics import session_result_to_dict
    from repro.streaming import SessionSpec

    config = ProtocolConfig(n=8, H=4, fault_margin=1, content_packets=60, seed=2)
    traced = SessionSpec(config, DCoP(), trace=TraceConfig()).build().run()
    payload = session_result_to_dict(traced)
    assert "trace" not in payload["data"]
    assert "timeseries" not in payload["data"]
    restored = restored_result(payload)
    assert restored.trace is None and restored.timeseries is None
    # handles are compare=False, so equality still holds
    assert restored == traced


def test_session_result_artifact_dispatch_and_file_roundtrip(tmp_path):
    result = sample_result()
    assert artifact_to_dict(result)["type"] == "session_result"
    path = tmp_path / "run.json"
    save_artifacts({"run": result, "t": sample_table()}, path)
    loaded = json.loads(path.read_text())
    assert restored_result(loaded["run"]) == result


def test_cli_out_writes_json(tmp_path, capsys):
    from repro.experiments.cli import main

    out = tmp_path / "fig10.json"
    rc = main(["fig10", "--quick", "--out", str(out)])
    assert rc == 0
    loaded = json.loads(out.read_text())
    assert "Figure 10" in loaded
    assert loaded["Figure 10"]["columns"]["rounds"][-1] == 1
