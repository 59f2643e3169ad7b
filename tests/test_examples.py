"""Every shipped example must run clean and print its headline output."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "DCoP" in out and "TCoP" in out
    assert "2 rounds" in out


def test_movie_on_demand(capsys):
    out = run_example("movie_on_demand.py", capsys)
    assert "byte-exact verification  : PASS" in out
    assert "delivery ratio           : 1.0000" in out


def test_heterogeneous_peers(capsys):
    out = run_example("heterogeneous_peers.py", capsys)
    assert "CP1 (bw=4): t1 t2 t4 t5" in out
    assert "VIOLATED" not in out


def test_lossy_network(capsys):
    out = run_example("lossy_network.py", capsys)
    assert "parity delivery" in out
    assert "10%" in out


def test_pair_delays(capsys):
    out = run_example("pair_delays.py", capsys)
    rows = [line.split("|") for line in out.splitlines() if line.count("|") == 7][1:]
    assert len(rows) == 4
    # the delay rows and the reliable channels run the same session
    assert len({tuple(cell.strip() for cell in row[5:]) for row in rows}) == 1
    assert {(row[3].strip() == "0") != (row[4].strip() == "0") for row in rows} == {True}
    assert "<Channel leaf->CP1>" in out


def test_protocol_shootout(capsys):
    out = run_example("protocol_shootout.py", capsys)
    assert "UnicastChain" in out
    assert "Centralized" in out


def test_coordination_trace(capsys):
    out = run_example("coordination_trace.py", capsys)
    assert "leaf (root)" in out
    assert "round" in out


def test_adaptive_streaming(capsys):
    out = run_example("adaptive_streaming.py", capsys)
    assert "speedup" in out
    assert "helper recruited" in out


def test_parallel_sweep(capsys):
    out = run_example("parallel_sweep.py", capsys)
    assert "identical tables: True" in out


def test_churn_streaming(capsys):
    out = run_example("churn_streaming.py", capsys)
    assert "churn-tolerant DCoP" in out
    assert "delivery ratio:        1.0000" in out
    assert "confirmed dead" in out
    assert "re-coordinations:" in out
    assert "tolerance stack off" in out


def test_partition_streaming(capsys, tmp_path, monkeypatch):
    import json

    report_path = tmp_path / "audit.json"
    monkeypatch.setattr(
        sys, "argv", ["partition_streaming.py", str(report_path)]
    )
    out = run_example("partition_streaming.py", capsys)
    assert "partition-tolerant DCoP" in out
    assert "partition split isolating" in out
    assert "partition heal" in out
    assert "delivery ratio:          1.0000" in out
    assert "confirmed unreachable" in out
    assert "rejoined after heal:     CP3, CP4" in out
    assert "suppressed by dedup" in out
    assert "audit PASS" in out
    assert "0 double-applies" in out
    # the CI artifact: a machine-readable audit verdict
    report = json.loads(report_path.read_text())
    assert report["type"] == "audit_report"
    assert report["passed"] is True
    assert report["auditors"]["duplicate_effect"]["violations"] == []


def test_flash_crowd(capsys, tmp_path, monkeypatch):
    import json

    report_path = tmp_path / "audit.json"
    monkeypatch.setattr(sys, "argv", ["flash_crowd.py", str(report_path)])
    out = run_example("flash_crowd.py", capsys)
    assert "flash crowd" in out
    assert "crushing" in out
    assert "FAIL" not in out
    assert "no rejected leaf served): PASS" in out
    # the CI artifact: one audit verdict per (load, arm) cell
    reports = json.loads(report_path.read_text())
    assert set(reports) == {
        "light/on", "light/off", "busy/on", "busy/off",
        "crushing/on", "crushing/off",
    }
    assert all(r["passed"] for r in reports.values())
    # the crushing load point is the reason admission exists: the
    # admission-off arm rejects nobody yet serves everybody worse
    lines = [l for l in out.splitlines() if l.startswith("crushing")]
    receipts = {l.split()[2]: float(l.split()[-2]) for l in lines}
    assert receipts["on"] >= receipts["off"]
