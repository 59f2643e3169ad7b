"""Command-line entry point: ``repro-experiments <experiment> [--quick]``."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import get_args, get_type_hints

from repro.core.base import ProtocolConfig
from repro.experiments import EXPERIMENTS
from repro.experiments.ablations import ABLATIONS
from repro.obs import TraceConfig
from repro.streaming.commons import peer_ids
from repro.streaming.faults import PartitionPlan
from repro.streaming.spec import _FORMS, SessionSpec, available_factories
from repro.streaming.swarm import AdmissionPolicy, SwarmSpec

#: positionals that select several table rows; any other experiment
#: positional is a row's own key
_GROUPS = {"ablations": ABLATIONS, "all": tuple(EXPERIMENTS.values())}

#: where artefacts land when no ``--*-out`` path is given (gitignored)
_OUT_DIR = Path("out")

#: run flag → the spec field it fills, in the order a bad value is
#: reported.  The field's form picks the spelling: a registered spec
#: (``_FORMS``) is ``NAME[:k=v,…]``, a frozen value ``k=v,…``.  Under
#: ``--join-storm``, ``--capacity`` fills the swarm's ``capacity``.
_RUN_FIELDS = {
    "protocol": (SessionSpec, "protocol"),
    "latency": (SessionSpec, "latency"),
    "loss": (SessionSpec, "loss"),
    "link_fault": (SessionSpec, "link_fault"),
    "detector": (SessionSpec, "detector_policy"),
    "retransmit": (SessionSpec, "retransmit_policy"),
    "capacity": (SessionSpec, "upload_capacity"),
    "join_storm": (SwarmSpec, "join_plan"),
}

#: the options that describe the one session (or swarm) a subcommand runs
_RUN_OPTIONS = frozenset(
    {"quick", "seed", "partition", "n", "H", "packets", *_RUN_FIELDS}
)


def _fail(message: str) -> int:
    """One-line error on stderr, no traceback; argparse-style exit code."""
    print(f"repro-experiments: error: {message}", file=sys.stderr)
    return 2


def _honoured(args) -> tuple[str, frozenset]:
    """``(mode, options)``: what the command line asks for, named as the
    user spelled it, and the options that mode reads."""
    command = args.experiment
    if command == "trace":
        if args.join_storm is not None:
            return "trace --join-storm", _RUN_OPTIONS | {"trace_out", "jsonl_out"}
        return command, _RUN_OPTIONS | {"trace_out", "jsonl_out", "summary_out"}
    if command == "audit":
        if args.from_jsonl:
            return "audit --from-jsonl", frozenset({"from_jsonl", "auditors", "report_out"})
        return command, _RUN_OPTIONS | {"auditors", "report_out"}
    if command == "spans":
        reports = {"top", "critical_path", "report_out"}
        if args.from_jsonl:
            return "spans --from-jsonl", frozenset({"from_jsonl", *reports})
        return command, (_RUN_OPTIONS - {"join_storm"}) | reports | {"trace_out"}
    return command, frozenset({"quick", "seed", "jobs", "csv", "out"})


def _unhonoured(parser: argparse.ArgumentParser, args) -> int | None:
    """Exit 2 with one line when an option is set (to anything but its
    default) that the chosen subcommand would silently ignore."""
    mode, honoured = _honoured(args)
    ignored = [
        "--" + dest.replace("_", "-")
        for dest, value in vars(args).items()
        if dest != "experiment"
        and dest not in honoured
        and value != parser.get_default(dest)
    ]
    if ignored:
        return _fail(f"'{mode}' does not use {', '.join(ignored)}")
    return None


def _ensure_parent(path: str | Path) -> Path:
    """Create the parent directory of an ``--out``-style path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _parse_params(text: str) -> dict:
    """``key=val,key=val`` → params dict (``true``/``false`` in any case
    as bool, then int, then float, then str)."""
    params = {}
    for pair in text.split(","):
        key, eq, value = pair.partition("=")
        if not eq or not key.strip():
            raise ValueError(
                f"bad parameter {pair!r} in {text!r} (expected key=value)"
            )
        flag = value.strip().lower()
        if flag in ("true", "false"):
            params[key.strip()] = flag == "true"
            continue
        for cast in (int, float):
            try:
                value = cast(value)
                break
            except ValueError:
                continue
        params[key.strip()] = value
    return params


def _parse_partition(text: str) -> PartitionPlan:
    """``P1+P2@AT`` or ``P1+P2@AT:HEAL`` → the :class:`PartitionPlan`.

    ``+`` joins the peers of one isolated component; ``/`` separates
    several components (everyone unlisted stays with the leaf).  ``AT``
    is the split time in ms; an optional ``:HEAL`` heals the partition.
    Example: ``CP3+CP4@500:900``.
    """
    body, at_sep, when = text.partition("@")
    if not at_sep or not body.strip() or not when:
        raise ValueError(
            f"bad partition {text!r} (expected PEERS@AT or PEERS@AT:HEAL, "
            "e.g. CP3+CP4@500:900)"
        )
    groups = tuple(
        tuple(peer.strip() for peer in group.split("+") if peer.strip())
        for group in body.split("/")
    )
    at_raw, colon, heal_raw = when.partition(":")
    try:
        at = float(at_raw)
        heal_at = float(heal_raw) if colon else None
    except ValueError:
        raise ValueError(
            f"bad partition time in {text!r} (expected numbers, "
            "e.g. CP3+CP4@500:900)"
        ) from None
    return PartitionPlan(components=groups, at=at, heal_at=heal_at)


def _jobs_arg(text: str):
    """``--jobs`` value: a positive int, or ``auto`` for core probing."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid jobs value {text!r} (expected a positive integer "
            "or 'auto')"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1 (or 'auto')")
    return jobs


def _flag_value(dest: str, text: str):
    """One run flag's text → the value its field takes; a refused value
    raises ValueError carrying the exit-2 line."""
    owner, field = _RUN_FIELDS[dest]
    hint = get_type_hints(owner)[field]  # the field's one form, None aside
    form = next((a for a in get_args(hint) if a is not type(None)), hint)
    registered = form in _FORMS.values()
    if registered:
        name, _, raw = text.partition(":")
        value = form(name.strip(), _parse_params(raw) if raw else {})
        known = available_factories(form.category)
        if value.kind not in known:
            raise ValueError(
                f"unknown {form.category} {value.kind!r} "
                f"(available: {', '.join(known)})"
            )
    try:
        if registered:
            value.build()  # eager: bad params fail here, not mid-run
            return value
        return form(**_parse_params(text)) if text.strip() else form()
    except (TypeError, ValueError) as exc:
        flag = "--" + dest.replace("_", "-")
        raise ValueError(f"bad {flag} {text!r}: {exc}") from None


def _build_spec(args, audit=None):
    """The run ``trace``/``audit``/``spans`` asked for; name-validated.

    A :class:`SessionSpec`, or under ``--join-storm`` a :class:`SwarmSpec`
    over the same template (``--capacity`` is then the swarm's shared
    per-peer budget, and ``audit=None`` leaves the swarm's default
    capacity auditor on) — or an *int* exit status when an option does
    not resolve (the caller propagates it).
    """
    try:
        fields = {
            _RUN_FIELDS[dest][1]: _flag_value(dest, text)
            for dest in _RUN_FIELDS
            if (text := getattr(args, dest)) is not None
        }
        if args.partition is not None:
            fields["partition_plan"] = _parse_partition(args.partition)
        config = ProtocolConfig(
            n=args.n,
            H=args.H,
            fault_margin=1,
            seed=args.seed or 0,
            content_packets=100 if args.quick else args.packets,
        )
        if args.partition is not None:
            fields["partition_plan"].check_endpoints(peer_ids(config), "leaf")
    except ValueError as exc:
        return _fail(str(exc))
    join_plan = fields.pop("join_plan", None)
    capacity = fields.pop("upload_capacity", None)
    template = SessionSpec(config=config, **fields)
    if join_plan is None:
        return template.replace(
            upload_capacity=capacity, trace=TraceConfig(), audit=audit
        )
    try:
        return SwarmSpec(
            session=template,
            join_plan=join_plan,
            capacity=capacity,
            admission=AdmissionPolicy(),
            audit=True if audit is None else audit,
        )
    except (TypeError, ValueError) as exc:
        return _fail(str(exc))


def _run_trace(args) -> int:
    """``trace`` subcommand: one traced session + timeline + exporters."""
    from repro.obs import (
        wave_timeline,
        write_chrome_trace,
        write_jsonl,
        write_run_summary,
    )

    spec = _build_spec(args)
    if isinstance(spec, int):
        return spec
    swarm = args.join_storm is not None
    result = spec.run()
    bus = result.trace
    assert bus is not None
    if swarm:
        print(result.summary())
        for outcome in result.outcomes:
            print(
                f"  {outcome.leaf_id}: "
                f"{'admitted' if outcome.admitted else 'gave up'} "
                f"after {outcome.attempts} attempt(s), "
                f"receipt={outcome.receipt_rate:.3f}, "
                f"delivery={outcome.delivery_ratio:.3f}"
            )
        tail = (
            f"retries={result.retries}, "
            f"shed={result.shed_data}+{result.shed_parity}p"
        )
        stem, hint = "trace_swarm_", ""
    else:
        timeline = wave_timeline(
            bus,
            title=(
                f"{result.protocol} coordination timeline "
                f"(n={spec.config.n}, H={spec.config.H})"
            ),
        )
        print(timeline.to_markdown())
        print(result.summary())
        tail = f"rounds={result.rounds}, sync={result.sync_time}"
        stem = "trace_"
        hint = " (open in chrome://tracing or https://ui.perfetto.dev)"
    print(
        f"trace: {len(bus.events)} events "
        f"({bus.dropped_events} dropped), {tail}"
    )

    protocol = (spec.session if swarm else spec).protocol.kind
    trace_out = _ensure_parent(
        args.trace_out or _OUT_DIR / f"{stem}{protocol}.json"
    )
    write_chrome_trace(bus, trace_out)
    print(f"wrote Chrome trace-event JSON to {trace_out}{hint}", file=sys.stderr)
    if args.jsonl_out:
        write_jsonl(bus, _ensure_parent(args.jsonl_out))
        print(f"wrote JSONL trace to {args.jsonl_out}", file=sys.stderr)
    if args.summary_out:
        write_run_summary(result, _ensure_parent(args.summary_out))
        print(f"wrote run summary to {args.summary_out}", file=sys.stderr)
    return 0


def _run_audit(args) -> int:
    """``audit`` subcommand: auditors over a fresh run or a JSONL trace."""
    from repro.obs.audit import AuditConfig, replay_jsonl

    try:
        audit_config = AuditConfig(
            auditors=tuple(args.auditors.split(","))
            if args.auditors
            else AuditConfig().auditors
        )
    except ValueError as exc:
        return _fail(str(exc))

    if args.from_jsonl:
        source = Path(args.from_jsonl)
        if not source.exists():
            return _fail(f"trace file not found: {source}")
        report = replay_jsonl(source, config=audit_config)
    else:
        # swarm runs default to the capacity auditor (audit=None) unless
        # --auditors names an explicit set
        swarm_default = args.join_storm is not None and not args.auditors
        spec = _build_spec(
            args, audit=None if swarm_default else audit_config
        )
        if isinstance(spec, int):
            return spec
        result = spec.run()
        report = result.audit
        assert report is not None and not isinstance(report, dict)
        print(result.summary())

    print(report.summary())
    for violation in report.violations():
        print(f"  {violation.auditor}/{violation.code}: {violation.message}")
        for line in violation.evidence:
            print(f"    {line}")
    if args.report_out:
        report.write(_ensure_parent(args.report_out))
        print(f"wrote audit report to {args.report_out}", file=sys.stderr)
    return 0 if report.passed else 1


def _run_spans(args) -> int:
    """``spans`` subcommand: causal spans + critical-path attribution."""
    import dataclasses

    from repro.obs import write_chrome_trace
    from repro.obs.spans import SpanConfig, spans_from_jsonl

    if args.from_jsonl:
        source = Path(args.from_jsonl)
        if not source.exists():
            return _fail(f"trace file not found: {source}")
        report = spans_from_jsonl(source)
        bus = None
    else:
        spec = _build_spec(args)
        if isinstance(spec, int):
            return spec
        # playback on, so journeys extend through buffer consumption
        spec = dataclasses.replace(spec, playback=True, spans=SpanConfig())
        result = spec.run()
        report = result.spans
        assert report is not None and not isinstance(report, dict)
        bus = result.trace
        print(result.summary())

    print(report.summary(top=args.top))
    if args.critical_path:
        print(report.render_critical_path())
    if args.report_out:
        report.write(_ensure_parent(args.report_out))
        print(f"wrote span report to {args.report_out}", file=sys.stderr)
    if args.trace_out and bus is not None:
        write_chrome_trace(bus, _ensure_parent(args.trace_out), spans=report)
        print(
            f"wrote Chrome trace-event JSON (+ span tracks) to "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of Itaya et al., "
            "'Distributed Coordination Protocols to Realize Scalable "
            "Multimedia Streaming in P2P Overlay Networks' (ICPP 2006).  "
            "An option the chosen subcommand would ignore is refused."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            *(key for key, row in EXPERIMENTS.items() if row not in ABLATIONS),
            *_GROUPS, "trace", "audit", "spans",
        ],
        help=(
            "which figure/ablation to run, 'trace' for one traced run, "
            "'audit' to run the protocol auditors, 'spans' for causal "
            "spans + latency attribution"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="coarser H grid, shorter content"
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="default: each experiment's own seed (0 for trace/audit/spans)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help=(
            "fan sweep runs out over N worker processes, or 'auto' to "
            "pick serial vs parallel from the measured core count "
            "(results are identical to serial; default 1)"
        ),
    )
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of tables"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="also save all artifacts as one JSON document",
    )
    trace_group = parser.add_argument_group(
        "trace/audit", "options for the 'trace' and 'audit' subcommands"
    )
    trace_group.add_argument(
        "--protocol",
        default="tcop",
        metavar="NAME[:k=v,...]",
        help=(
            "registered protocol to run (see repro.streaming."
            "available_factories('protocol')); default tcop"
        ),
    )
    trace_group.add_argument(
        "--latency",
        metavar="NAME[:k=v,...]",
        help="registered latency model, e.g. constant:delay=10",
    )
    trace_group.add_argument(
        "--loss",
        metavar="NAME[:k=v,...]",
        help="registered loss model, e.g. bernoulli:p=0.01",
    )
    trace_group.add_argument(
        "--link-fault",
        metavar="NAME[:k=v,...]",
        help=(
            "registered link fault applied to every channel, e.g. "
            "chaos:dup_p=0.1,reorder_p=0.2,max_delay=20"
        ),
    )
    trace_group.add_argument(
        "--detector",
        metavar="NAME[:k=v,...]",
        help=(
            "registered failure-detector policy, e.g. "
            "accrual:phi_suspect=1.5,window=16 or fixed:suspect_misses=2"
        ),
    )
    trace_group.add_argument(
        "--retransmit",
        metavar="k=v,...",
        help=(
            "reliable control-plane retransmit policy fields, e.g. "
            "adaptive=1,max_retries=6,jitter=0.5"
        ),
    )
    trace_group.add_argument(
        "--partition",
        metavar="PEERS@AT[:HEAL]",
        help=(
            "partition the listed peers away from the leaf at time AT ms "
            "(+ joins peers of one component, / separates components, "
            ":HEAL heals), e.g. CP3+CP4@500:900"
        ),
    )
    trace_group.add_argument(
        "--capacity",
        metavar="k=v,...",
        help=(
            "finite per-peer upload budget fields, e.g. "
            "packets_per_delta=6,queue_limit=32 (alone: caps the single "
            "session's uplinks; with --join-storm: the swarm's shared "
            "pool)"
        ),
    )
    trace_group.add_argument(
        "--join-storm",
        nargs="?",
        const="",
        metavar="k=v,...",
        help=(
            "run a multi-leaf swarm with admission control instead of a "
            "single session ('trace'/'audit' only); fields of "
            "JoinStormPlan, e.g. leaves=8,rate_per_delta=0.5,mode=flash "
            "(bare flag: defaults)"
        ),
    )
    trace_group.add_argument("--n", type=int, default=24, help="contents peers")
    trace_group.add_argument("--H", type=int, default=6, help="fan-out")
    trace_group.add_argument(
        "--packets", type=int, default=200, help="content length"
    )
    trace_group.add_argument(
        "--trace-out",
        metavar="PATH",
        help="Chrome trace-event output (default out/trace_<protocol>.json)",
    )
    trace_group.add_argument(
        "--jsonl-out", metavar="PATH", help="also dump the raw JSONL trace"
    )
    trace_group.add_argument(
        "--summary-out",
        metavar="PATH",
        help="also dump a run-summary JSON (single-session 'trace' only)",
    )
    audit_group = parser.add_argument_group(
        "audit", "options for the 'audit' subcommand"
    )
    audit_group.add_argument(
        "--from-jsonl",
        metavar="PATH",
        help="audit a recorded JSONL trace instead of running a session",
    )
    audit_group.add_argument(
        "--auditors",
        metavar="NAMES",
        help="comma-separated auditor names (default: all registered)",
    )
    audit_group.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the audit report as JSON",
    )
    spans_group = parser.add_argument_group(
        "spans", "options for the 'spans' subcommand"
    )
    spans_group.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest packets to list in the summary (default 10)",
    )
    spans_group.add_argument(
        "--critical-path",
        action="store_true",
        help="print the coordination and playback critical-path segments",
    )
    args = parser.parse_args(argv)
    refused = _unhonoured(parser, args)
    if refused is not None:
        return refused

    if args.experiment == "trace":
        return _run_trace(args)
    if args.experiment == "audit":
        return _run_audit(args)
    if args.experiment == "spans":
        return _run_spans(args)

    start = time.time()
    artifacts = {}
    for row in _GROUPS.get(args.experiment) or [EXPERIMENTS[args.experiment]]:
        overrides = dict(row.quick) if args.quick else {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        series = row.run(jobs=args.jobs, **overrides)
        artifacts[row.name] = series
        table = series.to_table()
        print(f"== {row.name} ==")
        print(table.to_csv() if args.csv else table.render())
    if args.out:
        from repro.metrics.io import save_artifacts

        save_artifacts(artifacts, _ensure_parent(args.out))
        print(
            f"saved {len(artifacts)} artifacts to {args.out}", file=sys.stderr
        )
    print(f"done in {time.time() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
