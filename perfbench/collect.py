"""Run the benchmark repeatedly and summarise the spread of every metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--traced 2]
                                 [--held-out SEED] [--against OLD.json]
                                 [--out perfbench/baseline.json]

For each workload, one untraced run per seed (workloads interleaved, so a
slow spell of the machine is shared out), then ``--traced`` traced runs
with the first seed. Per end-to-end metric it reports n, median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound. Per traced run it reports the
per-layer values and checks that every count repeats exactly across the
traced runs. ``--held-out`` runs each workload once more on a seed that was
not used while the benchmark was written. ``--against`` compares the medians
with an earlier summary: a metric whose median got worse by more than its
bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

# Per-layer metrics that must repeat exactly between traced runs of the same
# code and seed.
EXACT_UNITS = ("count", "bytes", "1/period", "measured")
EXACT_NAMES = ("controller.xstar_useful_frac",)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    status = "ok" if result["correct"] else "INCORRECT"
    print(f"{workload} seed={seed} trace={trace} {status}", file=sys.stderr,
          flush=True)
    return result


def spread_summary(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "spread": spread,
            "bound": bound, "within_bound": spread <= bound,
            "within_third": spread <= bound / 3, "values": values}


def exact_mismatches(runs, spec):
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_NAMES]
    out = []
    for name in exact:
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v != values[0] for v in values):
            out.append({"metric": name, "values": values})
    return out


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--against", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    untraced = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            untraced[w].append(bench(w, seed, args.seconds, 0))

    summary = {"environment": run.environment(), "run_seconds": args.seconds,
               "seeds": seeds, "workloads": {}}
    for w in workloads:
        runs = untraced[w]
        entry = {
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": {
                name: spread_summary(
                    [r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            },
        }
        if args.traced:
            traced = [bench(w, seeds[0], args.seconds, 1)
                      for _ in range(args.traced)]
            entry["traced"] = {
                "seed": seeds[0],
                "all_correct": all(r["correct"] for r in traced),
                "metrics": {k: v["value"]
                            for k, v in traced[0]["metrics"].items()},
                "count_mismatches": exact_mismatches(traced, spec),
            }
        if args.held_out is not None:
            held = bench(w, args.held_out, args.seconds, 0)
            entry["held_out"] = {"seed": args.held_out,
                                 "correct": held["correct"]}
        summary["workloads"][w] = entry

    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        for w, entry in summary["workloads"].items():
            for name, stats in entry["end_to_end"].items():
                before = old["workloads"][w]["end_to_end"][name]["median"]
                change = (stats["median"] - before) / before if before else 0.0
                worse = change > 0 if better[name] == "lower" else change < 0
                stats["vs_against"] = change
                stats["worse_than_bound"] = worse and abs(change) > stats["bound"]

    for w, entry in summary["workloads"].items():
        print(f"{w}: correct={entry['all_correct']}")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["within_third"] else "  (spread above a third of bound)"
            extra = (f" vs_against={s['vs_against']:+.4f}"
                     if "vs_against" in s else "")
            print(f"  {name}: median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"bound={s['bound']}{extra}{flag}")
        if "traced" in entry:
            print(f"  traced counts repeat: "
                  f"{not entry['traced']['count_mismatches']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
