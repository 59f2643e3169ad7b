"""Which ``def``s under ``src/repro`` does any run reach?  ``python tests/reachability_probe.py``

``sys.setprofile`` records every code object entered over ``repro-experiments all``, CI's
``trace``/``audit``/``spans`` lines, all ``examples/`` and the six ``bench/`` workloads (seed 0);
an ``ast`` walk lists the rest.  ~2 min.  ``--quick`` (~45 s) is for iterating on this script and
must not drive deletions: ``serve_repair`` runs in ``fault_gauntlet`` only at full size.
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:] = [str(ROOT / "src"), *sys.path, str(ROOT / "bench")]  # last: bench/ has a trace.py


def run_set(quick: bool, tmp: str) -> list:
    from harness import run_pass
    from repro.experiments.cli import main as cli
    from workloads import WORKLOADS
    cli_lines = f"""all{" --quick" * quick}
        trace --protocol tcop --quick --trace-out {tmp}/t.json --jsonl-out {tmp}/t.jsonl \
            --summary-out {tmp}/summary.json
        trace --protocol dcop --quick --join-storm leaves=3,rate_per_delta=1.0 \
            --capacity packets_per_delta=4 --trace-out {tmp}/swarm.json
        audit --from-jsonl {tmp}/t.jsonl --report-out {tmp}/replay.json
        audit --protocol tcop --quick --report-out {tmp}/run.json
        spans --protocol dcop --n 100 --H 60 --packets 200 --top 5 --critical-path \
            --report-out {tmp}/spans.json --trace-out {tmp}/spans_trace.json
        spans --from-jsonl {tmp}/t.jsonl --report-out {tmp}/spans_replay.json"""
    examples = sorted((ROOT / "examples").glob("*.py"))
    return (
        [lambda line=line: cli(line.split()) for line in cli_lines.splitlines()]
        + [lambda ex=ex: runpy.run_path(str(ex), run_name="__main__") for ex in examples]
        + [lambda w=w: run_pass(w, seed=0, quick=quick) for w in WORKLOADS.values()]
    )


def main(runs=None, quick: bool = False) -> dict:
    """Run ``runs`` (default: the whole set) under the hook; print the listing."""
    seen = set()
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        # print the listing only; two examples write a report to argv[1] when there is one
        stack.enter_context(mock.patch.multiple(sys, argv=sys.argv[:1], stdout=io.StringIO()))
        stack.callback(sys.setprofile, None)
        # whatever the event, the frame it carries was entered
        sys.setprofile(lambda f, *_: seen.add((f.f_code.co_filename, f.f_code.co_firstlineno)))
        for run in runs or run_set(quick, tmp):
            run()
    total, lines, unreached = 0, 0, {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        owner = {id(m): c.name + "." for c in nodes if isinstance(c, ast.ClassDef) for m in c.body}
        for node in (n for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            total += 1
            first = min(d.lineno for d in [node, *node.decorator_list])  # = its co_firstlineno
            if (str(path), first) not in seen:
                lines += node.end_lineno - first + 1
                unreached.setdefault(path, []).append(owner.get(id(node), "") + node.name)
    missed = sum(map(len, unreached.values()))
    print(f"reached {total - missed}/{total} definitions, {missed} unreached ({lines} lines)")
    for path, names in unreached.items():
        print(f"{path.relative_to(ROOT)} ({len(names)}): {', '.join(names)}")
    return {"total": total, "unreached": unreached}


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
