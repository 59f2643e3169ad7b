#!/usr/bin/env python
"""Fan a figure sweep out across CPU cores — identical results, less wall
clock.

Every grid point of a figure sweep is an independent simulation described
by a picklable :class:`repro.SessionSpec`, so a sweep parallelizes
embarrassingly: pass ``executor=ParallelExecutor(jobs=N)`` and the specs
are shipped to worker processes while results come back in submission
order.  All randomness derives from ``config.seed``, so the parallel
table is byte-identical to the serial one.

Run:  python examples/parallel_sweep.py
"""

import os
import time

from repro.experiments import ParallelExecutor, run_experiment


def timed(executor=None):
    start = time.perf_counter()
    series = run_experiment(
        "fig10",
        values=[10, 20, 30, 40, 60, 80, 100],
        content_packets=300,
        executor=executor,
    )
    return time.perf_counter() - start, series


def main() -> None:
    jobs = os.cpu_count() or 1
    serial_s, serial = timed()
    parallel_s, parallel = timed(ParallelExecutor(jobs=jobs))

    print(serial.render())
    same = serial.render() == parallel.render()
    print(f"\nserial: {serial_s:.2f}s   parallel(jobs={jobs}): "
          f"{parallel_s:.2f}s   identical tables: {same}")
    if not same:
        raise SystemExit("executor results diverged — this is a bug")


if __name__ == "__main__":
    main()
