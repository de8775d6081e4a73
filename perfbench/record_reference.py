"""Record the outputs the benchmark checks against into reference.json.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference (the benchmark was
recorded on the seed commit). It takes a few minutes: every
(noise seed, amplitude) case of ``bank6-sweep`` is run once, directly through
``run_scenario`` rather than through ``sweep``.
"""

from __future__ import annotations

import json
import os
import shutil

import run
from workloads import (AMPLITUDES, NOISE_SEEDS, WORKLOADS, bank6_config,
                       case_key, selections_text)


def record_p2p(eb):
    workload = WORKLOADS["p2p-r10"]
    output = workload.iterate(eb, workload.inputs(0), run.OUT)
    out = output["dir"]
    try:
        assert output["code"] == 0, output
        with open(os.path.join(out, f"{workload.preset}_metrics.txt")) as fh:
            rows = dict(line.split(",", 1) for line in fh.read().splitlines())
        with open(os.path.join(out, f"{workload.preset}_trace.csv")) as fh:
            body = [line for line in fh.read().splitlines()
                    if not line.startswith("#")]
    finally:
        shutil.rmtree(out)
    laws = {}
    for law in ("multi", "single_0", "single_1"):
        iae, sup = (float(v) for v in rows[law].split(","))
        laws[law] = {"iae": iae, "sup": sup}
    return {
        "laws": laws,
        "switch_count": int(rows["switch_count"]),
        "window_selections": rows["window_selections"].replace(" ", ""),
        "columns": body[0].split(","),
        "rows": len(body) - 1,
    }


def record_bank6(eb):
    cases = {}
    for noise_seed in NOISE_SEEDS:
        for amplitude in AMPLITUDES:
            cfg = eb.ScenarioConfig.from_dict(bank6_config(amplitude, noise_seed))
            _, metrics = eb.run_scenario(cfg)
            cases[case_key(noise_seed, amplitude)] = {
                "iae": metrics.iae["multi"],
                "sup": metrics.sup_tracking_error["multi"],
                "switch_count": metrics.switch_count,
                "window_selections": selections_text(metrics.window_selections),
            }
            print(case_key(noise_seed, amplitude), metrics.switch_count,
                  flush=True)
    return {"amplitudes": list(AMPLITUDES), "noise_seeds": list(NOISE_SEEDS),
            "cases": cases}


def record_verify(eb):
    workload = WORKLOADS["verify-bounds"]
    results = workload.iterate(eb, workload.inputs(0), run.OUT)["results"]
    assert all(r.passed for r in results), [r.line() for r in results]
    return {"measured": {r.name: r.measured for r in results}}


def main():
    for workload in WORKLOADS.values():
        eb = run.import_program(workload)
    run.OUT.mkdir(exist_ok=True)
    reference = {
        "p2p-r10": record_p2p(eb),
        "bank6-sweep": record_bank6(eb),
        "verify-bounds": record_verify(eb),
    }
    path = run.HERE / "reference.json"
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
