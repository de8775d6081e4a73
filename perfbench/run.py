"""esobank benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The program under test is imported from
``src/`` of that checkout; without it the benchmark exits with code 2 and
prints no result. The process pins itself and its children to one CPU (see
``pin_to_one_cpu``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` (default) measures the end-to-end metrics listed in
``BENCHMARK.json``. The shared machine this runs on changes speed by tens of
percent from minute to minute, so every time is taken against a yardstick:
the seed program, frozen in ``perfbench/seedprog/``. Iterations run until
``--seconds`` have passed; each part of an iteration runs once with the
program and once with the seed program, each in a fresh ``worker.py``
process, and which goes first alternates. Set-up (import and construction)
is timed in the same processes. A time is reported as the program's time
over the seed's, times the seed's time on the machine the benchmark was
written on (``Workload.seed_wall_s``, ``seed_setup_s``). Every part the
program runs is checked against ``perfbench/reference.json``.

``--trace 1`` runs untraced iterations of the program for ``--seconds``
(their median is the base of the overhead), then one iteration with every
esobank layer wrapped by ``tracer.py``, and prints the per-layer metrics.
The span breakdown goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools are pinned to one thread in this process and in its
# workers, before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Where each program's esobank package lives: the one under test, and the
# seed commit's copy that serves as the yardstick.
PROGRAMS = {"current": SRC, "seed": HERE / "seedprog"}
SETUP_PAIRS = 3
WORKER_TIMEOUT_S = 150

from workloads import WORKLOADS  # noqa: E402  (after the thread pins)


class BenchError(Exception):
    pass


def import_program(workload, src=SRC):
    """Import esobank from ``src``, never from elsewhere."""
    if not (src / "esobank" / "__init__.py").is_file():
        raise BenchError(f"no esobank sources under {src}")
    sys.path.insert(0, str(src))
    for name in workload.modules:
        importlib.import_module(name)
    eb = sys.modules["esobank"]
    if src not in Path(eb.__file__).resolve().parents:
        raise BenchError(f"esobank imported from {eb.__file__}, not {src}")
    return eb


def checked(eb, workload, inputs, output, reference):
    """Problems found in one iteration's output; a crashing check is one."""
    try:
        return workload.check(eb, inputs, output, reference)
    except Exception as exc:  # noqa: BLE001 - reported as a failed iteration
        return [f"output check raised {type(exc).__name__}: {exc}"]


def run_pair(workload, seed, part, flip):
    """Both programs at once, each in a fresh ``worker.py`` process on this
    process's CPU, so that they share every change in the machine's speed.
    ``part`` None runs set-up only. Which starts first alternates with
    ``flip``. Returns the workers' results by program."""
    order = list(PROGRAMS)
    if flip:
        order.reverse()
    procs = {}
    try:
        for program in order:
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
                   workload.name, "--seed", str(seed), "--program", program]
            if part is not None:
                cmd += ["--part", str(part)]
            procs[program] = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                              text=True, cwd=ROOT)
        results = {}
        for program, proc in procs.items():
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"{program} worker exited with code "
                                 f"{proc.returncode}")
            results[program] = json.loads(out.strip().splitlines()[-1])
        return results
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def run_pairs(workload, inputs, seed, seconds):
    """Set-up pairs, then iterations until ``seconds`` have passed (at least
    one), each part of an iteration as one pair. Returns the set-up pairs
    and, per iteration, the part pairs."""
    setups = [run_pair(workload, seed, None, i % 2 == 1)
              for i in range(SETUP_PAIRS)]
    parts = len(workload.parts(inputs))
    iterations, flip = [], False
    start = time.perf_counter()
    while True:
        pairs = []
        for part in range(parts):
            pairs.append(run_pair(workload, seed, part, flip))
            flip = not flip
        iterations.append(pairs)
        if time.perf_counter() - start >= seconds:
            return setups, iterations


def run_iterations(eb, workload, inputs, reference, seconds):
    """Iterations back to back until ``seconds`` have passed (at least one).
    Returns the wall time of each and the problems found in its output."""
    walls, problems = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            output = workload.iterate(eb, inputs, OUT)
        except Exception as exc:  # noqa: BLE001 - a raising iteration failed
            walls.append(time.perf_counter() - t0)
            problems.append([f"raised {type(exc).__name__}: {exc}"])
        else:
            walls.append(time.perf_counter() - t0)
            problems.append(checked(eb, workload, inputs, output, reference))
        if time.perf_counter() - start >= seconds:
            return walls, problems


def traced_iteration(eb, workload, inputs, reference):
    """One iteration with every layer wrapped. The wrapper cost is
    calibrated just before and just after it, and the mean is used."""
    from tracer import Tracer, calibrate

    before = calibrate()
    tracer = Tracer(eb)
    tracer.install()
    try:
        t0 = time.perf_counter()
        output = workload.iterate(eb, inputs, OUT)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    after = calibrate()
    overhead = {
        "span": {k: (before["span"][k] + after["span"][k]) / 2 for k in ("in", "out")},
        "leaf": {k: (before["leaf"][k] + after["leaf"][k]) / 2 for k in ("in", "out")},
        "nested": (before["nested"] + after["nested"]) / 2,
    }
    problems = checked(eb, workload, inputs, output, reference)
    return tracer.summary(overhead), overhead, output, wall, problems


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def select(metrics, section):
    """The metrics BENCHMARK.json declares for this section, by name and
    unit, in its order."""
    out = {}
    for spec in benchmark_spec()[section]:
        name, unit = spec["name"], spec["unit"]
        value, got_unit = metrics[name]
        if got_unit != unit:
            raise BenchError(f"{name}: unit {got_unit} != declared {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def pin_to_one_cpu():
    """Run this process, its threads and its children on one CPU.

    The two workers of a pair time-share that CPU, so a change in its speed
    reaches both within milliseconds and cancels out of their ratio.
    ``sweep`` still starts its two threads (``os.cpu_count()`` is unchanged),
    and they take turns on that CPU too. Returns the CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    try:
        OUT.mkdir(exist_ok=True)
        inputs = workload.inputs(args.seed)
        if args.trace:
            result, report = traced_run(workload, inputs, args)
        else:
            result, report = timed_run(workload, inputs, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    report.update(workload=workload.name, seed=args.seed, inputs=inputs,
                  seconds=args.seconds, trace=args.trace, pinned_cpu=cpu,
                  environment=environment(), result=result)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _result(problems, metrics):
    failed = sum(1 for p in problems if p)
    return {"correct": failed == 0, "attempted": len(problems),
            "failed": failed, "metrics": metrics}


def timed_run(workload, inputs, args):
    setups, iterations = run_pairs(workload, inputs, args.seed, args.seconds)
    pairs = [pair for it in iterations for pair in it]

    def cpu(program):
        return sum(pair[program]["cpu_s"] for pair in pairs)

    # Program CPU time over seed CPU time, both run at once on one CPU: the
    # machine's speed cancels out.
    time_ratio = cpu("current") / cpu("seed")
    setup_ratio = statistics.median(
        pair["current"]["setup_cpu_s"] / pair["seed"]["setup_cpu_s"]
        for pair in setups)
    norm_time = time_ratio * workload.seed_time_s
    problems = [[p for pair in it for p in pair["current"]["problems"]]
                for it in iterations]
    ok = sum(1 for p in problems if not p)
    metrics = {
        "norm_time_s": (norm_time, "s"),
        "norm_steps_per_s": (workload.periods / norm_time, "1/s"),
        "setup_s": (setup_ratio * workload.seed_setup_s, "s"),
        "peak_rss_mib": (max(pair["current"]["peak_rss_mib"]
                             for pair in pairs), "MiB"),
        "success_rate": (ok / len(problems), "ratio"),
    }
    result = _result(problems, select(metrics, "end_to_end"))
    report = {"time_ratio": time_ratio, "setup_ratio": setup_ratio,
              "setup_pairs": setups, "iterations": iterations,
              "problems": [p for p in problems if p]}
    return result, report


def traced_run(workload, inputs, args):
    from layers import breakdown, layer_metrics

    eb = import_program(workload)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)

    walls, problems = run_iterations(eb, workload, inputs, reference,
                                     args.seconds)
    summary, overhead, output, traced_s, traced_problems = traced_iteration(
        eb, workload, inputs, reference)
    problems.append(traced_problems)
    untraced_s = statistics.median(walls)
    metrics = layer_metrics(summary, workload.periods, workload.extras(output),
                            untraced_s, traced_s, overhead)
    result = _result(problems, select(metrics, "per_layer"))
    report = {"untraced_walls_s": walls, "traced_wall_s": traced_s,
              "overhead_ns": overhead,
              "problems": [p for p in problems if p],
              "breakdown": breakdown(summary)}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
