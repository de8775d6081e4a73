"""Set-up and one part of a workload, run by one program in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --program current|seed [--part I]

``run.py`` starts two of these at once on one CPU: one with the program
under test (``src/`` of the checkout) and one with the frozen seed program
(``perfbench/seedprog/``). The worker times, in CPU time of its own process,
the import of its program plus the construction of the workload's objects
(set-up). With ``--part`` it then collects garbage, times part I of the
workload the same way and checks the part's output against
``reference.json``. It prints one JSON line with ``setup_cpu_s``, and with
``--part`` also ``cpu_s``, ``wall_s``, ``problems`` and ``peak_rss_mib``.
Without the program's sources it exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from run import HERE, OUT, PROGRAMS, BenchError, checked, import_program
from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--program", required=True, choices=sorted(PROGRAMS))
    parser.add_argument("--part", type=int, default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)

    c0 = time.process_time()
    try:
        eb = import_program(workload, PROGRAMS[args.program])
    except BenchError as exc:
        print(f"perfbench worker: {exc}", file=sys.stderr)
        return 2
    workload.build(eb, inputs)
    result = {"setup_cpu_s": time.process_time() - c0}

    if args.part is not None:
        part = workload.parts(inputs)[args.part]
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)
        OUT.mkdir(exist_ok=True)
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            output = workload.iterate(eb, part, OUT)
        except Exception as exc:  # noqa: BLE001 - a raising part failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = None
        result["cpu_s"] = time.process_time() - c0
        result["wall_s"] = time.perf_counter() - t0
        if problems is None:
            problems = checked(eb, workload, part, output, reference)
        result["problems"] = problems
        result["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
