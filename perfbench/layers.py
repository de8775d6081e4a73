"""Per-layer metrics of a traced iteration, derived from the tracer summary.

Layers are the modules of ``src/esobank``. Times are seconds of self time
(span minus child spans, with the calibrated wrapper cost taken out) unless
the name says otherwise. The self time of a plant, observer, z-filter or x*
step includes the RK4 integration it calls, which is also reported on its
own as ``integrate.rk4_self_s``. ``*_us_p50`` and ``*_us_p99`` are per-call
inclusive durations in microseconds, less the mean wrapper cost inside one
call. A metric that does not apply to a workload (the CSV writer on a
workload that exports nothing, the verify checks outside ``verify-bounds``)
reads 0.
"""

from __future__ import annotations

import json
import math

from workloads import VERIFY_CHECKS

PLANT_STEP = ("plant.ChainPlant.step", "plant.RfcPlant.step")
OBSERVER_STEP = ("observer.Leso.step",)
ZFILTER = ("evaluator.ZFilter.advance", "evaluator.ZFilter.output")
SWITCH = ("evaluator.SwitchIndex.update", "evaluator.SwitchIndex.reselect")
XSTAR = ("controller.IdealTrajectory.step",)
EVALUATE = ("controller.Supervisor.evaluate", "controller.SingleEsoAdrc.evaluate")
LAW = ("controller.adrc_law",)
CONTROLLERS = ("controller.Supervisor.__init__", "controller.SingleEsoAdrc.__init__")
VERIFY_LOOPS = ("verify.identity_probe", "verify.decay_probe",
                "verify.run_bound_audit", "verify.run_bank_bound_audit")
RK4_PREFIX = "integrate.rk4_step@"


def _check_function(check):
    return "verify.check_" + check.replace("-", "_")


def _percentile_us(summary, names, q):
    by = summary["by_name"]
    values = sorted(v - by[name]["overhead_ns"]
                    for name in names
                    for v in summary["durations"].get(name, ()))
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)] / 1e3


def _xstar_useful(instances, xstar_steps):
    """Distinct x* periods over x* steps. Two trajectories compute the same
    periods when gain row, initial state, start time, step and reference
    agree; each such group counts once, at its longest run."""
    if not xstar_steps:
        return 0.0
    initial = {id(obj): attrs for name, obj, attrs in instances
               if name == "controller.IdealTrajectory.__init__"}
    longest = {}
    for name, ctrl, attrs in instances:
        if name not in CONTROLLERS:
            continue
        traj = attrs["trajectory"]
        start = initial.get(id(traj))
        if start is None:
            continue
        dt = attrs["dt"]
        steps = round((traj.t - start["t"]) / dt)
        key = (start["gain_row"], tuple(start["x"]), start["t"], dt,
               json.dumps(attrs["reference"].to_config(), sort_keys=True))
        longest[key] = max(longest.get(key, 0), steps)
    return sum(longest.values()) / xstar_steps


def _sweep_efficiency(summary, sweep_wall_ns):
    """Sum of per-run busy (CPU) time in the sweep's worker threads over
    (sweep wall time x workers); 0 when the workload runs no sweep."""
    if not sweep_wall_ns:
        return 0.0
    run_id = summary["names"].index("harness.run_scenario")
    busy = 0.0
    workers = 0
    for thread in summary["threads"]:
        if thread["main"]:
            continue
        edge = thread["edges"].get((0, run_id))
        if edge:
            workers += 1
            busy += edge[1]
    if not workers:
        return 0.0
    return busy / (sweep_wall_ns * workers)


def layer_metrics(summary, periods, extras, untraced_s, traced_s, overhead):
    """name -> (value, unit) for every per-layer metric."""
    by = summary["by_name"]
    rk4 = [n for n in by if n.startswith(RK4_PREFIX)]

    def calls(names):
        return sum(by[n]["calls"] for n in names)

    def self_s(names):
        """Self time, plus that of the RK4 steps these names called."""
        names = list(names) + [f"{RK4_PREFIX}{n}" for n in names]
        return sum(by[n]["self_ns"] for n in names if n in by) / 1e9

    def incl_s(names):
        return sum(by[n]["incl_ns"] for n in names) / 1e9

    references = [n for n in by if n.startswith("controller.")
                  and n.split(".")[1].endswith("Reference")]
    polynomials = [n for n in by if n.startswith("polynomials.")]
    switch_index = [obj for name, obj, _ in summary["instances"]
                    if name == "evaluator.SwitchIndex.__init__"]
    observer_self = self_s(OBSERVER_STEP)
    zfilter_self = self_s(ZFILTER)
    xstar_steps = calls(XSTAR)
    measured = extras.get("measured", {})
    spans = sum(by[n]["calls"] for n in by)
    corrected_total = sum(by[n]["self_ns"] for n in by) / 1e9
    pct = _percentile_us

    m = {
        "plant.step_calls": (calls(PLANT_STEP), "count"),
        "plant.step_self_s": (self_s(PLANT_STEP), "s"),
        "plant.step_us_p50": (pct(summary, PLANT_STEP, 0.50), "us"),
        "plant.step_us_p99": (pct(summary, PLANT_STEP, 0.99), "us"),
        "observer.step_calls": (calls(OBSERVER_STEP), "count"),
        "observer.step_self_s": (observer_self, "s"),
        "observer.step_us_p50": (
            pct(summary, OBSERVER_STEP, 0.50), "us"),
        "evaluator.zfilter_calls": (calls(ZFILTER), "count"),
        "evaluator.zfilter_self_s": (zfilter_self, "s"),
        "evaluator.switch_calls": (calls(SWITCH), "count"),
        "evaluator.switch_self_s": (self_s(SWITCH), "s"),
        "evaluator.switch_count": (
            sum(s.switch_count for s in switch_index), "count"),
        "evaluator.windows": (
            sum(len(s.window_selections) for s in switch_index), "count"),
        "evaluator.z_over_observer": (
            zfilter_self / observer_self if observer_self else 0.0, "ratio"),
        "controller.xstar_calls": (xstar_steps, "count"),
        "controller.xstar_self_s": (self_s(XSTAR), "s"),
        "controller.xstar_useful_frac": (
            _xstar_useful(summary["instances"], xstar_steps), "ratio"),
        "controller.reference_calls": (calls(references), "count"),
        "controller.reference_calls_per_period": (
            calls(references) / periods, "1/period"),
        "controller.reference_self_s": (self_s(references), "s"),
        "controller.evaluate_self_s": (self_s(EVALUATE), "s"),
        "controller.evaluate_us_p50": (
            pct(summary, EVALUATE, 0.50), "us"),
        "controller.evaluate_us_p99": (
            pct(summary, EVALUATE, 0.99), "us"),
        "controller.law_self_s": (self_s(LAW), "s"),
        "harness.setup_s": (summary["setup_ns"] / 1e9, "s"),
        "harness.loop_self_s": (self_s(("harness._simulate",)), "s"),
        "harness.trace_append_self_s": (
            self_s(("harness.SimulationTrace.append",)), "s"),
        "harness.csv_s": (incl_s(("harness.SimulationTrace.write_csv",)), "s"),
        "harness.csv_bytes": (extras.get("csv_bytes", 0), "bytes"),
        "harness.sweep_parallel_eff": (
            _sweep_efficiency(summary, sum(summary["durations"].get(
                "harness.sweep", ()))), "ratio"),
        "verify.loop_self_s": (self_s(VERIFY_LOOPS), "s"),
        "polynomials.calls": (calls(polynomials), "count"),
        "polynomials.self_s": (self_s(polynomials), "s"),
        "integrate.rk4_calls": (calls(rk4), "count"),
        "integrate.rk4_self_s": (sum(by[n]["self_ns"] for n in rk4) / 1e9, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.residual_frac": (corrected_total / untraced_s - 1.0, "ratio"),
        "trace.spans": (spans, "count"),
        "trace.span_cost_us": (
            (overhead["span"]["in"] + overhead["span"]["out"]) / 1e3, "us"),
        "trace.leaf_cost_us": (
            (overhead["leaf"]["in"] + overhead["leaf"]["out"]) / 1e3, "us"),
    }
    for check in VERIFY_CHECKS:
        m[f"verify.check_s.{check}"] = (incl_s((_check_function(check),)), "s")
        m[f"verify.measured.{check}"] = (measured.get(check, 0.0), "measured")
    return m


def breakdown(summary):
    """Rows for the written trace report, the largest self time first: one
    per traced function, and one per caller -> callee edge."""
    functions = [
        {"name": name, "calls": s["calls"], "incl_s": s["incl_ns"] / 1e9,
         "self_s": s["self_ns"] / 1e9}
        for name, s in summary["by_name"].items() if s["calls"]
    ]
    names = summary["names"]
    edges = [
        {"caller": names[pid], "callee": names[nid], "calls": n,
         "incl_s": d / 1e9, "self_s": s / 1e9}
        for (pid, nid), (n, d, s) in summary["edges"].items()
    ]
    functions.sort(key=lambda r: -r["self_s"])
    edges.sort(key=lambda r: -r["self_s"])
    return {"functions": functions, "edges": edges}
