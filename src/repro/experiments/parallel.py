"""Sweep executors: fan independent replications out across CPU cores.

Every Figure-10/11/12 grid point and every ablation cell is an independent
simulation, so a sweep parallelizes embarrassingly — *if* each run can be
described by a value that crosses a process boundary.  That value is the
:class:`~repro.streaming.spec.SessionSpec`; this module supplies the
executors that consume lists of them:

* :class:`SerialExecutor` — runs specs in-process, in order.  The default
  everywhere, and the reference semantics.
* :class:`ParallelExecutor` — a :class:`concurrent.futures.\
ProcessPoolExecutor` fan-out over ``jobs`` worker processes.

Both implement the same two-method interface (``map``/``close``) and the
same contract:

* **ordering** — results come back in submission order, regardless of
  which worker finished first;
* **value results** — every result is :meth:`~repro.streaming.session.\
SessionResult.detach`-ed, so trace/timeseries handles arrive as plain
  JSON-able data and serial and parallel sweeps return identical objects;
* **determinism** — a spec's outcome depends only on the spec (all
  randomness is seeded from ``spec.config.seed``), so equal-seed sweeps
  are byte-identical across executors and worker counts;
* **errors** — a failing run raises :class:`SweepError` carrying the
  failing spec and its index, with the worker's exception chained as the
  cause; remaining parallel work is cancelled;
* **progress** — an optional callback receives a :class:`ProgressTick`
  after every completed run.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import SessionResult
    from repro.streaming.spec import SessionSpec

__all__ = [
    "ParallelExecutor",
    "ProgressTick",
    "SerialExecutor",
    "SweepError",
    "auto_executor",
    "available_cores",
    "run_specs",
]


def available_cores() -> int:
    """CPU cores actually available to this process.

    ``os.cpu_count()`` reports the machine; a container or CI runner may
    pin the process to a subset.  Scheduler affinity is the honest
    number where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def auto_executor(
    n_specs: Optional[int] = None, jobs: Optional[int] = None
) -> "SerialExecutor | ParallelExecutor":
    """Pick serial vs parallel from the *measured* core count.

    Fanning out on a single-core runner is a pure loss —
    ``BENCH_parallel_sweep`` measured 0.63× there, all pool setup and
    pickling with no parallelism to pay for it.  So: serial when fewer
    than two cores are actually available (affinity-aware) or when the
    sweep has fewer than two specs; otherwise a
    :class:`ParallelExecutor` sized to ``min(cores, n_specs)``.  An
    explicit ``jobs`` overrides the core probe but still degrades to
    serial at 1.
    """
    cores = jobs if jobs is not None else available_cores()
    if n_specs is not None:
        cores = min(cores, n_specs)
    if cores < 2:
        return SerialExecutor()
    return ParallelExecutor(jobs=cores)


@dataclass(frozen=True)
class ProgressTick:
    """One unit of sweep progress: ``done`` of ``total`` runs finished."""

    done: int
    total: int


ProgressCallback = Callable[[ProgressTick], None]


class SweepError(RuntimeError):
    """A sweep run failed; carries the failing spec and its index.

    The worker's original exception is chained as ``__cause__``.
    """

    def __init__(self, spec: "SessionSpec", index: int, cause: BaseException):
        self.spec = spec
        self.index = index
        super().__init__(
            f"sweep run #{index} failed for {spec.describe()}: "
            f"{type(cause).__name__}: {cause}"
        )


def _execute_spec(spec: "SessionSpec") -> "SessionResult":
    """Worker entry point: build, run, and detach one spec.

    Module-level (not a closure) so it pickles under every
    multiprocessing start method.
    """
    return spec.run().detach()


class SerialExecutor:
    """Run specs one after another in the calling process."""

    jobs = 1

    def map(
        self,
        specs: Sequence["SessionSpec"],
        progress: Optional[ProgressCallback] = None,
    ) -> List["SessionResult"]:
        specs = list(specs)
        results: List["SessionResult"] = []
        for index, spec in enumerate(specs):
            try:
                results.append(_execute_spec(spec))
            except Exception as exc:
                raise SweepError(spec, index, exc) from exc
            if progress is not None:
                progress(ProgressTick(done=index + 1, total=len(specs)))
        return results

    def close(self) -> None:
        """Nothing to release; present for interface parity."""

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan specs out over a process pool, preserving result order.

    ``jobs`` worker processes (default ``os.cpu_count()``) under the
    platform's default start method.  Spec arguments and results are
    pickled, so specs must be declarative (or otherwise picklable).
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs or os.cpu_count() or 1

    def map(
        self,
        specs: Sequence["SessionSpec"],
        progress: Optional[ProgressCallback] = None,
    ) -> List["SessionResult"]:
        specs = list(specs)
        if len(specs) <= 1 or self.jobs == 1:
            # nothing to fan out; keep semantics without pool overhead
            return SerialExecutor().map(specs, progress=progress)
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(specs))) as pool:
            futures = [pool.submit(_execute_spec, spec) for spec in specs]
            pending = set(futures)
            done_count = 0
            while pending:
                finished, pending = wait(pending, return_when=FIRST_EXCEPTION)
                failed = [f for f in finished if f.exception() is not None]
                if failed:
                    index = min(futures.index(f) for f in failed)
                    cause = futures[index].exception()
                    for f in pending:
                        f.cancel()
                    raise SweepError(specs[index], index, cause) from cause
                done_count += len(finished)
                if progress is not None:
                    progress(
                        ProgressTick(done=done_count, total=len(specs))
                    )
            return [f.result() for f in futures]

    def close(self) -> None:
        """Pools are scoped to each :meth:`map` call; nothing persists."""

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


def run_specs(
    specs: Iterable["SessionSpec"],
    executor: Optional[SerialExecutor | ParallelExecutor] = None,
    progress: Optional[ProgressCallback] = None,
) -> List["SessionResult"]:
    """Run a flat list of specs through ``executor`` (default serial)."""
    if executor is None:
        executor = SerialExecutor()
    return executor.map(list(specs), progress=progress)
