#!/usr/bin/env python
"""Fan a figure sweep out across CPU cores — identical results, less wall
clock.

Every grid point of a figure sweep is an independent simulation described
by a picklable :class:`repro.SessionSpec`, so a sweep parallelizes
embarrassingly: pass ``jobs=N`` (or ``"auto"``, the cores this process
may use) and the specs are shipped to worker processes while results
come back in submission order.  All randomness derives from ``config.seed``, so the parallel
table is byte-identical to the serial one.

Run:  python examples/parallel_sweep.py
"""

import time

from repro.experiments import available_cores, run_experiment


def timed(jobs=1):
    start = time.perf_counter()
    series = run_experiment(
        "fig10",
        values=[10, 20, 30, 40, 60, 80, 100],
        content_packets=300,
        jobs=jobs,
    )
    return time.perf_counter() - start, series


def main() -> None:
    serial_s, serial = timed()
    parallel_s, parallel = timed("auto")

    print(serial.render())
    same = serial.render() == parallel.render()
    print(f"\nserial: {serial_s:.2f}s   parallel(jobs=auto, "
          f"{available_cores()} cores): "
          f"{parallel_s:.2f}s   identical tables: {same}")
    if not same:
        raise SystemExit("parallel results diverged — this is a bug")


if __name__ == "__main__":
    main()
