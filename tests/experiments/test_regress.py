"""Cross-run regression reports: bench and audit artifact diffing."""

import json

import pytest

from repro.experiments.regress import (
    RegressReport,
    ScalarGate,
    compare_audit_reports,
    compare_bench,
    compare_dirs,
    parse_scalar_gate,
)


def bench(total=5.0, scalars=None, tests=("test_a",)):
    return {
        "bench": "demo",
        "total_wall_s": total,
        "tests": {
            t: {"wall_s": total / len(tests), "scalars": dict(scalars or {})}
            for t in tests
        },
    }


def audit(passed=True, violations=0):
    return {
        "type": "audit_report",
        "protocol": "tcop",
        "seed": 0,
        "passed": passed,
        "violation_count": violations,
        "warning_count": 0,
        "auditors": {
            "tree": {
                "passed": passed,
                "events_seen": 10,
                "violations": [
                    {
                        "auditor": "tree", "code": "tree.cycle",
                        "subject": "CP1", "ts": 0.0, "message": "m",
                        "evidence": [],
                    }
                ] * violations,
                "warnings": [],
            }
        },
    }


# ----------------------------------------------------------------------
# bench comparison
# ----------------------------------------------------------------------
def test_equal_bench_payloads_are_ok():
    report = compare_bench(bench(scalars={"rounds": 9}),
                           bench(scalars={"rounds": 9}))
    assert report.ok
    assert report.compared == ["BENCH_demo"]


def test_wall_time_slowdown_beyond_tolerance_regresses():
    report = compare_bench(bench(total=2.0), bench(total=3.5),
                           wall_tolerance=0.5)
    assert not report.ok
    assert report.failures[0].kind == "wall_time"
    # being faster, or slower within tolerance, never fails
    assert compare_bench(bench(total=2.0), bench(total=0.5)).ok
    assert compare_bench(bench(total=2.0), bench(total=2.9)).ok
    with pytest.raises(ValueError):
        compare_bench(bench(), bench(), wall_tolerance=-1)


def test_missing_test_and_result_scalar_drift_regress():
    base = bench(scalars={"rounds": 9}, tests=("test_a", "test_b"))
    fresh = bench(scalars={"rounds": 10}, tests=("test_a",))
    report = compare_bench(base, fresh)
    kinds = sorted(e.kind for e in report.failures)
    assert kinds == ["missing_test", "scalar"]


def test_perf_scalars_are_informational_only():
    base = bench(scalars={"speedup": 0.6, "cpu_count": 1, "jobs": 4,
                          "parallel_wall_s": 3.0, "rounds": 9})
    fresh = bench(scalars={"speedup": 2.1, "cpu_count": 8, "jobs": 4,
                           "parallel_wall_s": 0.9, "rounds": 9})
    report = compare_bench(base, fresh)
    assert report.ok
    assert any(e.severity == "info" and e.kind == "scalar"
               for e in report.entries)


# ----------------------------------------------------------------------
# gated scalars
# ----------------------------------------------------------------------
def test_gated_scalar_fails_on_drop_beyond_tolerance():
    base = bench(scalars={"events_per_wall_s": 1000.0, "rounds": 9})
    within = bench(scalars={"events_per_wall_s": 800.0, "rounds": 9})
    beyond = bench(scalars={"events_per_wall_s": 700.0, "rounds": 9})
    gates = {"events_per_wall_s": ScalarGate(tolerance=0.25)}
    # ungated, the perf scalar never fails no matter how far it drops
    assert compare_bench(base, beyond).ok
    assert compare_bench(base, within, gate_scalars=gates).ok
    report = compare_bench(base, beyond, gate_scalars=gates)
    assert not report.ok
    assert report.failures[0].kind == "gated_scalar"
    # a rise never fails a min-gate, and a bare float means min-mode
    faster = bench(scalars={"events_per_wall_s": 5000.0, "rounds": 9})
    assert compare_bench(
        base, faster, gate_scalars={"events_per_wall_s": 0.25}
    ).ok


def test_gated_scalar_max_mode_fails_on_rise():
    base = bench(scalars={"p95_wall_ms": 100.0})
    gates = {"p95_wall_ms": ScalarGate(tolerance=0.10, mode="max")}
    assert compare_bench(
        base, bench(scalars={"p95_wall_ms": 105.0}), gate_scalars=gates
    ).ok
    assert not compare_bench(
        base, bench(scalars={"p95_wall_ms": 115.0}), gate_scalars=gates
    ).ok
    # dropping (getting faster) never fails a max-gate
    assert compare_bench(
        base, bench(scalars={"p95_wall_ms": 1.0}), gate_scalars=gates
    ).ok


def test_gated_scalar_missing_or_non_numeric_fails():
    base = bench(scalars={"events_per_wall_s": 1000.0})
    gates = {"events_per_wall_s": ScalarGate(tolerance=0.25)}
    report = compare_bench(base, bench(scalars={}), gate_scalars=gates)
    assert not report.ok and report.failures[0].kind == "gated_scalar"
    bad_base = bench(scalars={"events_per_wall_s": "fast"})
    report = compare_bench(bad_base, base, gate_scalars=gates)
    assert not report.ok and "not numeric" in report.failures[0].detail


def test_parse_scalar_gate_grammar():
    key, gate = parse_scalar_gate("events_per_wall_s_total:25%")
    assert key == "events_per_wall_s_total"
    assert gate == ScalarGate(tolerance=0.25, mode="min")
    assert parse_scalar_gate("k:0.1:max")[1] == ScalarGate(0.1, "max")
    for bad in ("nope", ":25%", "k:junk%", "k:10%:sideways", "k:-5%"):
        with pytest.raises(ValueError):
            parse_scalar_gate(bad)


def test_compare_dirs_threads_gate_scalars(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir(), fresh.mkdir()
    (base / "BENCH_demo.json").write_text(
        json.dumps(bench(scalars={"events_per_wall_s": 1000.0}))
    )
    (fresh / "BENCH_demo.json").write_text(
        json.dumps(bench(scalars={"events_per_wall_s": 100.0}))
    )
    assert compare_dirs(base, fresh).ok
    report = compare_dirs(
        base, fresh, gate_scalars={"events_per_wall_s": 0.25}
    )
    assert not report.ok
    assert report.failures[0].kind == "gated_scalar"


def test_gate_on_a_key_no_baseline_has_fails(tmp_path):
    # the fresh run has the scalar, the baseline never recorded it: the
    # gate would compare against nothing and pass whatever happened
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir(), fresh.mkdir()
    (base / "BENCH_demo.json").write_text(
        json.dumps(bench(scalars={"events_per_wall_s": 1000.0}))
    )
    for name in ("BENCH_demo.json", "BENCH_swarm.json"):
        (fresh / name).write_text(
            json.dumps(bench(scalars={
                "events_per_wall_s": 1000.0, "swarm_receipt_on_worst": 0.1,
            }))
        )
    gates = {"events_per_wall_s": 0.25, "swarm_receipt_on_worst": 0.05}
    report = compare_dirs(base, fresh, gate_scalars=gates)
    assert [f.kind for f in report.failures] == ["gated_scalar"]
    assert "swarm_receipt_on_worst" in report.failures[0].detail
    assert "checks nothing" in report.failures[0].detail
    # once a baseline carries the key the same gate compares and passes
    (base / "BENCH_swarm.json").write_text(
        json.dumps(bench(scalars={"swarm_receipt_on_worst": 0.1}))
    )
    assert compare_dirs(base, fresh, gate_scalars=gates).ok


# ----------------------------------------------------------------------
# audit comparison
# ----------------------------------------------------------------------
def test_fresh_audit_failure_regresses():
    report = compare_audit_reports(audit(), audit(passed=False, violations=2))
    assert not report.ok
    assert all(e.kind == "audit" for e in report.failures)
    assert compare_audit_reports(audit(), audit()).ok
    # without a baseline the fresh verdict alone gates
    assert compare_audit_reports(None, audit()).ok
    assert not compare_audit_reports(None, audit(passed=False,
                                                 violations=1)).ok


def test_new_violations_vs_baseline_regress_even_if_verdict_field_lies():
    fresh = audit(violations=1)
    fresh["passed"] = True  # pathological artifact
    assert not compare_audit_reports(audit(), fresh).ok


# ----------------------------------------------------------------------
# directory pairing
# ----------------------------------------------------------------------
def test_compare_dirs_pairs_by_name_and_types(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir(), fresh.mkdir()
    (base / "BENCH_demo.json").write_text(json.dumps(bench()))
    (fresh / "BENCH_demo.json").write_text(json.dumps(bench()))
    (base / "audit_tcop.json").write_text(json.dumps(audit()))
    (fresh / "audit_tcop.json").write_text(json.dumps(audit()))
    (fresh / "audit_new.json").write_text(json.dumps(audit()))
    report = compare_dirs(base, fresh)
    assert report.ok
    assert sorted(report.compared) == ["BENCH_demo.json", "audit_tcop.json"]
    assert any(e.kind == "new_artifact" for e in report.entries)


def test_vanished_baseline_artifact_regresses(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir(), fresh.mkdir()
    (base / "BENCH_demo.json").write_text(json.dumps(bench()))
    report = compare_dirs(base, fresh)
    assert not report.ok
    assert report.failures[0].kind == "missing_artifact"
    # an empty baseline directory is itself a failure, not a silent pass
    empty = tmp_path / "empty"
    empty.mkdir()
    assert not compare_dirs(empty, fresh).ok


def test_render_and_to_dict_are_consistent(tmp_path):
    report = compare_bench(bench(total=1.0), bench(total=9.0))
    text = report.render()
    assert "regress: FAILED" in text
    assert "[FAIL]" in text
    doc = report.to_dict()
    assert doc["type"] == "regress_report"
    assert doc["ok"] is False
    assert len(doc["entries"]) == len(report.entries)
    merged = RegressReport()
    merged.extend(report)
    merged.extend(compare_bench(bench(), bench()))
    assert len(merged.compared) == 2
    assert not merged.ok


def test_fresh_benches_never_land_on_the_committed_baselines(monkeypatch):
    """A bare ``pytest benchmarks/`` writes to the ignored ``out/``; the
    baselines ``regress`` reads are only rewritten on request."""
    import importlib.util
    import types
    from pathlib import Path

    root = Path(__file__).parents[2]
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", root / "benchmarks" / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    config = types.SimpleNamespace(rootdir=root)

    monkeypatch.delenv("BENCH_ARTIFACT_DIR", raising=False)
    assert conftest._artifact_dir(config) == root / "out" / "bench_fresh"
    assert "out/" in (root / ".gitignore").read_text().splitlines()
    monkeypatch.setenv("BENCH_ARTIFACT_DIR", "bench_artifacts")
    assert conftest._artifact_dir(config) == Path("bench_artifacts")
