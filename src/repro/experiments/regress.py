"""Cross-run regression reports: diff bench and audit artifacts.

Every bench module writes a ``BENCH_<name>.json`` artifact (wall time per
test + key result scalars, see ``benchmarks/conftest.py``) and every
audited run can write an ``audit_report`` JSON
(:meth:`~repro.obs.audit.AuditReport.write`).  This module diffs a fresh
set of those artifacts against a committed baseline with tolerances, so a
sweep doubles as a perf *and* correctness regression gate:

* **wall times** are compared with a relative tolerance (machines and CI
  runners vary; only a *slowdown* beyond the tolerance regresses);
* **scalars** split into perf-flavored keys (``*wall*``, ``speedup``,
  ``cpu_count``, ``jobs`` — machine-dependent, reported but never
  failing) and result scalars (rounds, rates, counts — deterministic
  under equal seeds, compared within a small epsilon);
* **gated scalars** (opt-in, ``gate_scalars=`` / ``--gate-scalar``) turn
  selected perf scalars into *hard* gates with a relative tolerance —
  the mechanism that holds the line on ``BENCH_kernel`` events/sec
  without affecting any other baseline;
* **audit reports** regress when a fresh run fails, or shows violations
  where the baseline had none.

Exposed on the CLI as ``repro-experiments regress --baseline … --fresh …``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "RegressReport",
    "Regression",
    "ScalarGate",
    "compare_audit_reports",
    "compare_bench",
    "compare_dirs",
    "parse_scalar_gate",
]

#: scalar-name fragments that mark a value as machine-dependent perf data
_PERF_KEY_HINTS = ("wall", "speedup", "cpu", "jobs", "elapsed")


def _is_perf_key(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in _PERF_KEY_HINTS)


@dataclass(frozen=True)
class ScalarGate:
    """A hard gate on one bench scalar: relative tolerance + direction.

    ``mode="min"`` (the default, throughput semantics) regresses when the
    fresh value drops below ``baseline · (1 − tolerance)``;
    ``mode="max"`` (latency/wall semantics) regresses when it rises above
    ``baseline · (1 + tolerance)``.
    """

    tolerance: float
    mode: str = "min"

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ValueError("gate tolerance must be >= 0")
        if self.mode not in ("min", "max"):
            raise ValueError(f"gate mode must be 'min' or 'max', not {self.mode!r}")

    def violates(self, base: float, fresh: float) -> bool:
        if self.mode == "min":
            return fresh < base * (1 - self.tolerance)
        return fresh > base * (1 + self.tolerance)

    def bound_text(self, base: float) -> str:
        if self.mode == "min":
            return f">= {base * (1 - self.tolerance):.6g} (-{self.tolerance:.0%})"
        return f"<= {base * (1 + self.tolerance):.6g} (+{self.tolerance:.0%})"


def parse_scalar_gate(text: str) -> Tuple[str, ScalarGate]:
    """``KEY:TOL%[:min|max]`` → ``(key, ScalarGate)``.

    ``TOL`` accepts a percentage (``25%``) or a fraction (``0.25``); the
    optional trailing mode defaults to ``min`` (fresh must not *drop*
    more than TOL below the baseline — the events/sec case).
    """
    parts = text.split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        raise ValueError(
            f"bad scalar gate {text!r} (expected KEY:TOL% or "
            "KEY:TOL%:min|max, e.g. events_per_wall_s_n100_p400:25%)"
        )
    key, raw_tol = parts[0], parts[1]
    try:
        tol = (
            float(raw_tol[:-1]) / 100.0
            if raw_tol.endswith("%")
            else float(raw_tol)
        )
    except ValueError:
        raise ValueError(
            f"bad tolerance {raw_tol!r} in scalar gate {text!r}"
        ) from None
    mode = parts[2] if len(parts) == 3 else "min"
    return key, ScalarGate(tolerance=tol, mode=mode)


def _as_gate(value: Union["ScalarGate", float]) -> "ScalarGate":
    if isinstance(value, ScalarGate):
        return value
    return ScalarGate(tolerance=float(value))


@dataclass(frozen=True)
class Regression:
    """One regression (or informational note) found by a comparison."""

    artifact: str
    kind: str  # e.g. "wall_time", "scalar", "missing_test", "audit"
    detail: str
    #: informational entries are reported but do not fail the gate
    severity: str = "fail"

    def line(self) -> str:
        tag = "FAIL" if self.severity == "fail" else "info"
        return f"[{tag}] {self.artifact}: {self.kind}: {self.detail}"


@dataclass
class RegressReport:
    """All findings of one baseline-vs-fresh comparison."""

    entries: List[Regression] = field(default_factory=list)
    compared: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[Regression]:
        return [e for e in self.entries if e.severity == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def extend(self, other: "RegressReport") -> None:
        self.entries.extend(other.entries)
        self.compared.extend(other.compared)

    def render(self) -> str:
        lines = [
            f"regress: compared {len(self.compared)} artifact(s), "
            f"{len(self.failures)} regression(s)"
        ]
        lines += [e.line() for e in self.entries]
        lines.append("regress: OK" if self.ok else "regress: FAILED")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "regress_report",
            "ok": self.ok,
            "compared": list(self.compared),
            "entries": [
                {
                    "artifact": e.artifact,
                    "kind": e.kind,
                    "detail": e.detail,
                    "severity": e.severity,
                }
                for e in self.entries
            ],
        }


# ----------------------------------------------------------------------
# bench artifacts
# ----------------------------------------------------------------------
def compare_bench(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    wall_tolerance: float = 0.5,
    scalar_eps: float = 1e-9,
    artifact: Optional[str] = None,
    gate_scalars: Optional[Mapping[str, Union[ScalarGate, float]]] = None,
) -> RegressReport:
    """Diff two ``BENCH_<name>.json`` payloads.

    ``wall_tolerance`` is relative: a fresh total/per-test wall time may
    exceed the baseline by up to ``baseline · (1 + tolerance)`` before it
    counts as a regression (being *faster* never fails).  Result scalars
    must match within ``scalar_eps``; perf-flavored scalars are
    informational — unless named in ``gate_scalars`` (key → gate, a
    :class:`ScalarGate` or a bare ``min``-mode tolerance), which turns
    that scalar into a hard relative gate in *both* payload directions
    (machine-dependent, so never exact-compared).
    """
    if wall_tolerance < 0:
        raise ValueError("wall_tolerance must be >= 0")
    gates: Dict[str, ScalarGate] = {
        key: _as_gate(gate) for key, gate in (gate_scalars or {}).items()
    }
    name = artifact or f"BENCH_{baseline.get('bench', '?')}"
    report = RegressReport(compared=[name])

    base_total = baseline.get("total_wall_s")
    fresh_total = fresh.get("total_wall_s")
    if base_total and fresh_total is not None:
        if fresh_total > base_total * (1 + wall_tolerance):
            report.entries.append(
                Regression(
                    name,
                    "wall_time",
                    f"total_wall_s {fresh_total:.3f}s vs baseline "
                    f"{base_total:.3f}s (tolerance +{wall_tolerance:.0%})",
                )
            )
        else:
            report.entries.append(
                Regression(
                    name,
                    "wall_time",
                    f"total_wall_s {fresh_total:.3f}s within "
                    f"+{wall_tolerance:.0%} of baseline {base_total:.3f}s",
                    severity="info",
                )
            )

    base_tests = baseline.get("tests", {})
    fresh_tests = fresh.get("tests", {})
    for test in sorted(base_tests):
        if test not in fresh_tests:
            report.entries.append(
                Regression(
                    name,
                    "missing_test",
                    f"{test} present in baseline but absent from the "
                    "fresh run",
                )
            )
            continue
        base_scalars = base_tests[test].get("scalars", {})
        fresh_scalars = fresh_tests[test].get("scalars", {})
        for key in sorted(base_scalars):
            base_value = base_scalars[key]
            fresh_value = fresh_scalars.get(key)
            gate = gates.get(key)
            if gate is not None:
                if not isinstance(base_value, (int, float)) or isinstance(
                    base_value, bool
                ):
                    report.entries.append(
                        Regression(
                            name,
                            "gated_scalar",
                            f"{test}.{key}: baseline {base_value!r} is not "
                            "numeric, cannot gate",
                        )
                    )
                elif fresh_value is None:
                    report.entries.append(
                        Regression(
                            name,
                            "gated_scalar",
                            f"{test}.{key} missing from the fresh run "
                            f"(baseline {base_value!r}, gated)",
                        )
                    )
                elif gate.violates(float(base_value), float(fresh_value)):
                    report.entries.append(
                        Regression(
                            name,
                            "gated_scalar",
                            f"{test}.{key}: {fresh_value!r} violates gate "
                            f"{gate.bound_text(float(base_value))} "
                            f"(baseline {base_value!r})",
                        )
                    )
                else:
                    report.entries.append(
                        Regression(
                            name,
                            "gated_scalar",
                            f"{test}.{key}: {fresh_value!r} within gate "
                            f"{gate.bound_text(float(base_value))}",
                            severity="info",
                        )
                    )
                continue
            if _is_perf_key(key):
                if fresh_value != base_value:
                    report.entries.append(
                        Regression(
                            name,
                            "scalar",
                            f"{test}.{key}: {fresh_value!r} vs baseline "
                            f"{base_value!r} (perf scalar, informational)",
                            severity="info",
                        )
                    )
                continue
            if fresh_value is None:
                report.entries.append(
                    Regression(
                        name,
                        "scalar",
                        f"{test}.{key} missing from the fresh run "
                        f"(baseline {base_value!r})",
                    )
                )
                continue
            if not _scalars_match(base_value, fresh_value, scalar_eps):
                report.entries.append(
                    Regression(
                        name,
                        "scalar",
                        f"{test}.{key}: {fresh_value!r} differs from "
                        f"baseline {base_value!r} (eps={scalar_eps:g})",
                    )
                )
    return report


def _scalars_match(a: Any, b: Any, eps: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= eps
    return a == b


# ----------------------------------------------------------------------
# audit artifacts
# ----------------------------------------------------------------------
def compare_audit_reports(
    baseline: Optional[Dict[str, Any]],
    fresh: Dict[str, Any],
    artifact: str = "audit_report",
) -> RegressReport:
    """Gate a fresh audit report, optionally against a baseline.

    A fresh report that fails always regresses.  With a baseline, any
    auditor showing violations where the baseline had none regresses
    even if (pathologically) the overall verdict field disagrees.
    """
    report = RegressReport(compared=[artifact])
    fresh_auditors = fresh.get("auditors", {})
    if not fresh.get("passed", False):
        failing = sorted(
            a for a, entry in fresh_auditors.items()
            if entry.get("violations")
        )
        report.entries.append(
            Regression(
                artifact,
                "audit",
                f"fresh audit failed ({fresh.get('violation_count', '?')} "
                f"violations; auditors: {', '.join(failing) or '?'})",
            )
        )
    if baseline is not None:
        base_auditors = baseline.get("auditors", {})
        for auditor in sorted(fresh_auditors):
            fresh_count = len(fresh_auditors[auditor].get("violations", []))
            base_count = len(
                base_auditors.get(auditor, {}).get("violations", [])
            )
            if fresh_count > base_count:
                report.entries.append(
                    Regression(
                        artifact,
                        "audit",
                        f"auditor {auditor!r}: {fresh_count} violation(s) "
                        f"vs {base_count} in the baseline",
                    )
                )
    if not report.entries:
        report.entries.append(
            Regression(artifact, "audit", "audit clean", severity="info")
        )
    return report


# ----------------------------------------------------------------------
# directory pairing
# ----------------------------------------------------------------------
def _load(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def compare_dirs(
    baseline_dir: Union[str, Path],
    fresh_dir: Union[str, Path],
    wall_tolerance: float = 0.5,
    scalar_eps: float = 1e-9,
    gate_scalars: Optional[Mapping[str, Union[ScalarGate, float]]] = None,
) -> RegressReport:
    """Pair artifacts by file name across two directories and diff them.

    ``BENCH_*.json`` files compare via :func:`compare_bench`; files whose
    payload declares ``"type": "audit_report"`` via
    :func:`compare_audit_reports`.  Baseline artifacts with no fresh
    counterpart regress (a vanished bench is a silent coverage loss);
    fresh-only artifacts are informational.  ``gate_scalars`` applies to
    every bench comparison; a gated key that no compared baseline bench
    contains regresses, because a gate with nothing to compare against
    passes whatever the fresh run did.
    """
    base_dir = Path(baseline_dir)
    new_dir = Path(fresh_dir)
    report = RegressReport()
    ungated = set(gate_scalars or ())
    base_files = {p.name: p for p in sorted(base_dir.glob("*.json"))}
    fresh_files = {p.name: p for p in sorted(new_dir.glob("*.json"))}
    if not base_files:
        report.entries.append(
            Regression(
                str(base_dir), "missing_artifact",
                "baseline directory holds no *.json artifacts",
            )
        )
    for name, base_path in base_files.items():
        fresh_path = fresh_files.get(name)
        if fresh_path is None:
            report.entries.append(
                Regression(
                    name, "missing_artifact",
                    "artifact present in baseline but not in the fresh set",
                )
            )
            continue
        base_payload = _load(base_path)
        fresh_payload = _load(fresh_path)
        if base_payload.get("type") == "audit_report" or fresh_payload.get(
            "type"
        ) == "audit_report":
            report.extend(
                compare_audit_reports(
                    base_payload, fresh_payload, artifact=name
                )
            )
        else:
            report.extend(
                compare_bench(
                    base_payload,
                    fresh_payload,
                    wall_tolerance=wall_tolerance,
                    scalar_eps=scalar_eps,
                    artifact=name,
                    gate_scalars=gate_scalars,
                )
            )
            for test in base_payload.get("tests", {}).values():
                ungated.difference_update(test.get("scalars", {}))
    for key in sorted(ungated):
        report.entries.append(
            Regression(
                str(base_dir), "gated_scalar",
                f"{key} is gated but no compared baseline artifact has it: "
                "the gate checks nothing",
            )
        )
    for name in sorted(set(fresh_files) - set(base_files)):
        report.entries.append(
            Regression(
                name, "new_artifact",
                "artifact present only in the fresh set (no baseline)",
                severity="info",
            )
        )
    return report
