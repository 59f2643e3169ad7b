"""Tests for the repro-experiments CLI."""

import re

import pytest

from repro.experiments.cli import main


def test_fig10_quick_prints_table(capsys):
    rc = main(["fig10", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 10" in out
    assert "rounds" in out
    assert "H" in out


def test_csv_output(capsys):
    rc = main(["fig10", "--quick", "--csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H,rounds,control_packets" in out


def test_seed_changes_nothing_structural(capsys):
    main(["fig10", "--quick", "--seed", "7"])
    out = capsys.readouterr().out
    assert "Figure 10" in out


def test_ablations_prints_every_table(ablations_quick):
    from repro.experiments import EXPERIMENTS

    stdout, artifacts = ablations_quick
    ablations = [key for key in EXPERIMENTS if key.startswith("EX-")]
    assert len(ablations) == 15
    assert [key for key in ablations if f"== {key} ==" not in stdout] == []
    assert list(artifacts) == ablations


def test_flags_reach_every_row(monkeypatch, capsys):
    """``all`` runs the whole table; ``--quick``, ``--seed`` and ``--jobs``
    reach every row instead of the few a hand-kept list remembered."""
    from repro.experiments import EXPERIMENTS, Experiment
    from repro.metrics.series import SweepSeries

    calls = {}

    def record(self, values=None, jobs=1, **overrides):
        calls[self.key] = (values, jobs, overrides)
        return SweepSeries(self.x, ["y"], title=self.title)

    monkeypatch.setattr(Experiment, "run", record)
    assert main(["all", "--quick", "--seed", "5", "--jobs", "2"]) == 0
    assert list(calls) == list(EXPERIMENTS)
    for key, (values, jobs, overrides) in calls.items():
        expected = {**EXPERIMENTS[key].quick, "seed": 5}
        assert values == expected.pop("values", None), key
        assert overrides == expected, key
        assert jobs == 2, key
    # no --seed, no --quick: every row keeps its own defaults
    calls.clear()
    assert main(["ablations"]) == 0
    assert all(call == (None, 1, {}) for call in calls.values())
    assert "== EX-M ==" in capsys.readouterr().out


def test_trace_subcommand_emits_timeline_and_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(
        [
            "trace", "--protocol", "tcop", "--quick",
            "--n", "12", "--H", "4", "--trace-out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    # the wave timeline, rendered as markdown, with the round count the
    # session reported
    assert "coordination timeline" in printed
    assert "| round |" in printed
    assert "rounds=" in printed
    # the chrome trace-event document is valid JSON with ≥1 named track
    # per participant (leaf + 12 peers + the waves track)
    doc = json.loads(out.read_text())
    tracks = [
        e for e in doc["traceEvents"] if e.get("name") == "thread_name"
    ]
    assert len(tracks) == 1 + 1 + 12
    assert doc["displayTimeUnit"] == "ms"


def test_trace_subcommand_optional_outputs(tmp_path, capsys):
    import json

    jsonl = tmp_path / "trace.jsonl"
    summary = tmp_path / "summary.json"
    rc = main(
        [
            "trace", "--protocol", "dcop", "--quick",
            "--n", "10", "--H", "4",
            "--trace-out", str(tmp_path / "t.json"),
            "--jsonl-out", str(jsonl),
            "--summary-out", str(summary),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    lines = jsonl.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)
    doc = json.loads(summary.read_text())
    assert doc["result"]["type"] == "session_result"
    assert doc["timeseries"]["type"] == "series"


def test_unknown_model_names_fail_with_one_line_error(capsys):
    # unknown registry names exit 2 with a single stderr line, never a
    # traceback; the message lists what IS available
    for argv in (
        ["trace", "--quick", "--protocol", "nope"],
        ["trace", "--quick", "--latency", "warp"],
        ["audit", "--quick", "--loss", "gremlins"],
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("repro-experiments: error:")
        assert "available:" in captured.err
        assert captured.err.count("\n") == 1


def test_malformed_model_params_fail_cleanly(capsys):
    rc = main(["trace", "--quick", "--protocol", "tcop:badpair"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_out_paths_create_parent_directories(tmp_path, capsys):
    out = tmp_path / "deep" / "nested" / "trace.json"
    rc = main(
        [
            "trace", "--protocol", "tcop", "--quick",
            "--n", "10", "--H", "4", "--trace-out", str(out),
            "--jsonl-out", str(tmp_path / "other" / "t.jsonl"),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "other" / "t.jsonl").exists()


def test_audit_subcommand_fresh_run_and_replay(tmp_path, capsys):
    import json

    jsonl = tmp_path / "trace.jsonl"
    report = tmp_path / "reports" / "audit.json"
    rc = main(
        [
            "trace", "--protocol", "tcop", "--quick",
            "--n", "10", "--H", "4",
            "--trace-out", str(tmp_path / "t.json"),
            "--jsonl-out", str(jsonl),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    # fresh audited run, report written through a missing parent dir
    rc = main(
        [
            "audit", "--protocol", "tcop", "--quick",
            "--n", "10", "--H", "4", "--report-out", str(report),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit PASS" in out
    doc = json.loads(report.read_text())
    assert doc["type"] == "audit_report" and doc["passed"] is True
    # replay mode over the recorded JSONL
    rc = main(["audit", "--from-jsonl", str(jsonl)])
    assert rc == 0
    assert "audit PASS" in capsys.readouterr().out
    # missing trace file: clean one-line failure
    rc = main(["audit", "--from-jsonl", str(tmp_path / "absent.jsonl")])
    assert rc == 2
    assert main(["audit", "--quick", "--auditors", "tree,bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("protocol", ["dcop", "tcop"])
def test_loss_help_example_audits_clean(protocol, tmp_path, capsys):
    # the --loss example --help offers, through the whole auditor suite:
    # the seqs a lost assignment left unsent are excused by that loss,
    # which the report names as a row of the run's fault ledger
    import json

    report = tmp_path / "audit.json"
    rc = main(
        [
            "audit", "--protocol", protocol, "--quick",
            "--loss", "bernoulli:p=0.01", "--report-out", str(report),
        ]
    )
    assert rc == 0
    assert "audit PASS" in capsys.readouterr().out
    (gap,) = json.loads(report.read_text())["auditors"]["allocation"]["warnings"]
    assert gap["code"] == "alloc.coverage_gap"
    assert gap["evidence"][-1].startswith("fault#")
    assert " msg.drop " in gap["evidence"][-1]


def test_trace_default_outputs_land_under_out(tmp_path, capsys, monkeypatch):
    """With no ``--trace-out`` the artefact goes to the ignored ``out/``
    directory of the cwd, never the cwd itself."""
    monkeypatch.chdir(tmp_path)
    small = ["--protocol", "dcop", "--n", "6", "--H", "2", "--packets", "20"]
    assert main(["trace", *small]) == 0
    assert main(
        [
            "trace", *small,
            "--capacity", "packets_per_delta=6",
            "--join-storm", "leaves=2,rate_per_delta=1.0",
        ]
    ) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "trace_dcop.json", "trace_swarm_dcop.json",
    ]


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_experiment_argument_required():
    with pytest.raises(SystemExit):
        main([])


def test_detector_and_retransmit_flags_accepted(tmp_path, capsys):
    rc = main(
        [
            "trace", "--protocol", "dcop", "--quick",
            "--n", "8", "--H", "3",
            "--detector", "accrual:phi_suspect=1.5,window=16",
            "--retransmit", "adaptive=1,jitter=0.5",
            "--trace-out", str(tmp_path / "t.json"),
        ]
    )
    assert rc == 0
    assert "coordination timeline" in capsys.readouterr().out


def test_unknown_detector_name_fails_with_exit_2(capsys):
    rc = main(["trace", "--protocol", "dcop", "--detector", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown detector" in err
    assert "accrual" in err  # the error lists what IS available


def test_bad_detector_params_fail_with_exit_2(capsys):
    rc = main(
        ["trace", "--protocol", "dcop", "--detector", "accrual:nope=3"]
    )
    assert rc == 2
    assert "bad --detector" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, error",
    [
        pytest.param(
            ["trace", "--quick", "--loss", "bernoulli:q=0.1"],
            "bad --loss ",
            id="--loss-bernoulli:q=0.1",
        ),
        pytest.param(
            ["trace", "--quick", "--latency", "constant:dela=3"],
            "bad --latency ",
            id="--latency-constant:dela=3",
        ),
        pytest.param(
            ["trace", "--quick", "--link-fault", "chaos:warp=1"],
            "bad --link-fault ",
            id="--link-fault-chaos:warp=1",
        ),
        pytest.param(
            ["trace", "--quick", "--protocol", "single_source:server=CP1"],
            "bad --protocol ",
            id="--protocol-single_source:server=CP1",
        ),
        # a config or partition no session could be built from
        pytest.param(
            ["trace", "--quick", "--n", "2", "--H", "6"],
            "H must be in 1..n",
            id="trace-n2-H6",
        ),
        pytest.param(
            ["trace", "--quick", "--partition", "leaf@10"],
            "the leaf always sits in the implicit component",
            id="trace-partition-leaf",
        ),
        pytest.param(
            ["spans", "--quick", "--partition", "CP99@10"],
            "partition component names unknown peer 'CP99'",
            id="spans-partition-CP99",
        ),
        pytest.param(
            ["audit", "--quick", "--join-storm", "leaves=2", "--n", "2", "--H", "6"],
            "H must be in 1..n",
            id="audit-join-storm-n2-H6",
        ),
    ],
)
def test_bad_model_params_fail_with_exit_2(capsys, args, error):
    # every named spec is built once up front, like --detector, and the
    # config and partition endpoints are checked before the run: what no
    # session could be built from is one line, not a traceback mid-run
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"repro-experiments: error: {error}")
    assert captured.err.count("\n") == 1 and not captured.out


def _help_examples(capsys, monkeypatch):
    """Every ``(flag, example)`` pair the ``--help`` text offers: the
    ``NAME:k=v`` / ``k=v`` / ``PEERS@AT:HEAL`` words after an ``e.g.``."""
    monkeypatch.setenv("COLUMNS", "200")  # no example wrapped mid-word
    with pytest.raises(SystemExit):
        main(["--help"])
    pairs = []
    for block in re.split(r"\n  (?=--)", capsys.readouterr().out):
        words = " ".join(block.split())
        _, eg, tail = words.partition(" e.g. ")
        if eg:
            examples = re.findall(r"(?:^|\bor )(\S+)", tail)
            pairs += [
                (words.split()[0], example.rstrip(",;)"))
                for example in examples
                if "=" in example or "@" in example
            ]
    return pairs


def test_every_help_example_builds(capsys, monkeypatch):
    # what --help suggests must be accepted: each example goes through
    # the one spec builder the trace/audit/spans subcommands share
    import repro.experiments.cli as cli

    pairs = _help_examples(capsys, monkeypatch)
    assert {flag for flag, _ in pairs} == {
        "--latency", "--loss", "--link-fault", "--detector", "--retransmit",
        "--partition", "--capacity", "--join-storm",
    }
    assert len(pairs) == 9
    monkeypatch.setattr(cli, "_run_trace", cli._build_spec)
    refused = []
    for flag, example in pairs:
        if isinstance(main(["trace", flag, example]), int):
            refused.append((flag, example, capsys.readouterr().err))
    assert refused == []


@pytest.mark.parametrize("word", ["false", "False", "FALSE"])
def test_false_turns_a_flag_off(monkeypatch, word):
    # 'false' used to stay a (truthy) string and switch the feature on
    import repro.experiments.cli as cli

    monkeypatch.setattr(cli, "_run_trace", cli._build_spec)
    spec = main(["trace", "--retransmit", f"adaptive={word}"])
    assert spec.retransmit_policy.adaptive is False
    spec = main(["trace", "--protocol", f"dcop:weighted={word}"])
    assert spec.protocol.params["weighted"] is False
    # the help's spelling keeps its int
    spec = main(["trace", "--retransmit", "adaptive=1,jitter=0.5"])
    assert spec.retransmit_policy.adaptive == 1
    assert type(spec.retransmit_policy.adaptive) is int


def test_bad_retransmit_values_fail_with_exit_2(capsys):
    # field exists but value violates the policy invariant
    rc = main(
        ["trace", "--protocol", "dcop", "--retransmit", "backoff=0.5"]
    )
    assert rc == 2
    assert "bad --retransmit" in capsys.readouterr().err
    # unknown field
    rc = main(
        ["trace", "--protocol", "dcop", "--retransmit", "warp=9"]
    )
    assert rc == 2
    # malformed pair (no '=')
    rc = main(["trace", "--protocol", "dcop", "--retransmit", "adaptive"])
    assert rc == 2
    assert "expected key=value" in capsys.readouterr().err


def test_jobs_auto_selects_executor(capsys):
    # '--jobs auto' must run and print the same table a serial run does
    rc = main(["fig10", "--quick", "--jobs", "auto"])
    assert rc == 0
    auto_out = capsys.readouterr().out
    main(["fig10", "--quick"])
    assert auto_out == capsys.readouterr().out


def test_jobs_rejects_garbage(capsys):
    for bad in ("bogus", "0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["fig10", "--quick", "--jobs", bad])
        assert exc.value.code == 2
        capsys.readouterr()


def test_trace_capacity_flag_caps_a_single_session(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default trace lands in ./out/
    rc = main(
        [
            "trace", "--protocol", "dcop", "--quick",
            "--n", "6", "--H", "2",
            "--capacity", "packets_per_delta=4,queue_limit=16",
        ]
    )
    assert rc == 0
    assert "trace:" in capsys.readouterr().out


def test_trace_capacity_flag_rejects_garbage(capsys):
    rc = main(
        ["trace", "--quick", "--capacity", "packets_per_delta=-1"]
    )
    assert rc == 2
    assert "capacity" in capsys.readouterr().err
    rc = main(["trace", "--quick", "--capacity", "nonsense"])
    assert rc == 2
    capsys.readouterr()


def test_trace_join_storm_runs_a_swarm(tmp_path, capsys):
    import json

    out = tmp_path / "swarm.json"
    rc = main(
        [
            "trace", "--protocol", "dcop",
            "--n", "6", "--H", "2", "--packets", "20",
            "--capacity", "packets_per_delta=6",
            "--join-storm", "leaves=3,rate_per_delta=1.0",
            "--trace-out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "leaf" in printed.lower()
    assert "retries=" in printed
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_join_storm_refused_by_spans(capsys):
    rc = main(["spans", "--quick", "--join-storm", "leaves=2"])
    assert rc == 2
    assert "join-storm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, ignored",
    [
        (
            ["trace", "--quick", "--join-storm", "leaves=2", "--summary-out", "X"],
            "--summary-out",
        ),
        (["spans", "--from-jsonl", "T", "--trace-out", "Y"], "--trace-out"),
        (
            [
                "audit", "--protocol", "tcop", "--quick",
                "--trace-out", "A", "--summary-out", "B",
            ],
            "--trace-out, --summary-out",
        ),
        (["audit", "--from-jsonl", "T", "--join-storm"], "--join-storm"),
    ],
    ids=[
        "trace-swarm-summary-out",
        "spans-replay-trace-out",
        "audit-trace-and-summary-out",
        "audit-replay-join-storm",
    ],
)
def test_flags_the_subcommand_ignores_are_refused(
    argv, ignored, tmp_path, capsys, monkeypatch
):
    # each of these used to exit 0 having written nothing it was asked for
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro-experiments: error: ")
    assert captured.err.endswith(f"does not use {ignored}\n")
    assert captured.err.count("\n") == 1 and not captured.out
    assert list(tmp_path.iterdir()) == []
