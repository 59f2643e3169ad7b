"""The reachability probe still runs, so the next re-anchor can repeat it."""

from repro.experiments.cli import main as cli

from tests.reachability_probe import ROOT, main


def test_probe_sees_the_kernel_run_under_a_quick_fig10(capsys):
    result = main(runs=[lambda: cli(["fig10", "--quick"])])
    assert result["total"] > 0
    engine = result["unreached"].get(ROOT / "src" / "repro" / "sim" / "engine.py", [])
    assert "Environment.step" not in engine
    assert capsys.readouterr().out.startswith("reached ")
