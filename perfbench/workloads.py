"""The benchmark's workloads: inputs from a seed, set-up, one iteration, and
the output check.

Each workload is driven from one process. ``iterate`` is the unit that is
timed; ``check`` compares its outputs with ``reference.json`` (recorded from
the seed commit by ``record_reference.py``) and returns a list of problems,
empty when the outputs are correct.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import tempfile

# IAE and sup|ebar1| may drift by this relative amount from the reference.
# Reordered floating-point arithmetic (precomputed RK4 step maps, time as
# k*dt, batched lanes) moves them by about 1e-10; a changed control law or
# plant model moves them by far more than 1e-6. Switch counts and window
# selections must match exactly.
RTOL = 1e-6


def _close(got, want, rtol=RTOL):
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def _compare_law(tag, got_iae, got_sup, ref):
    problems = []
    if not _close(got_iae, ref["iae"]):
        problems.append(f"{tag}: IAE {got_iae!r} != reference {ref['iae']!r}")
    if not _close(got_sup, ref["sup"]):
        problems.append(f"{tag}: sup|ebar1| {got_sup!r} != reference {ref['sup']!r}")
    return problems


def selections_text(selections):
    """Window selections as one digit per window (banks here have at most
    ten observers)."""
    return "".join(str(s) for s in selections)


def _compare_switching(tag, switch_count, selections, ref):
    problems = []
    if switch_count != ref["switch_count"]:
        problems.append(f"{tag}: switch_count {switch_count} != reference "
                        f"{ref['switch_count']}")
    if selections_text(selections) != ref["window_selections"]:
        problems.append(f"{tag}: window selections differ from the reference")
    return problems


class Workload:
    """Each workload sets ``seed_time_s`` and ``seed_setup_s``: the seed
    program's iteration and set-up times on the machine the benchmark was
    written on (see README.md). ``run.py`` reports a time as the program's
    CPU time over the seed program's, both run at once on one CPU, times
    these."""

    def parts(self, inputs):
        """The inputs of the pieces one iteration runs, one after another.
        The program and the seed program take turns piece by piece."""
        return [inputs]


def runtime(eb, cfg, observer_index=None):
    """Plant, trajectory and controller of one law, built through the
    public constructors the harness uses."""
    harness = eb.harness
    plant = harness.build_plant(cfg)
    char = harness.build_char(cfg, plant.n)
    reference = eb.reference_from_config(cfg.reference)
    bank = harness.build_bank(cfg, plant.n, plant.b,
                              plant.y - reference.value(0.0))
    trajectory = eb.IdealTrajectory(char.gain_row, plant.tracking_state)
    if observer_index is None:
        return eb.Supervisor(char, plant.b, reference, trajectory, bank,
                             cfg.dt, window=cfg.window, u_limit=cfg.u_limit)
    return eb.SingleEsoAdrc(char, plant.b, reference, trajectory,
                            bank[observer_index], cfg.dt, u_limit=cfg.u_limit)


# ---------------------------------------------------------------------------
# p2p-r10
# ---------------------------------------------------------------------------


class P2pR10(Workload):
    """The paper-p2p-r10 preset, run as ``esobank preset paper-p2p-r10
    --out DIR`` runs it: the switched law and both baselines, then the trace
    CSV, the metrics text and the config written to a fresh directory."""

    name = "p2p-r10"
    modules = ("esobank", "esobank.cli")
    preset = "paper-p2p-r10"
    periods = 3 * 22_001
    seed_time_s = 5.5
    seed_setup_s = 0.5

    def inputs(self, seed):
        return {"preset": self.preset}  # the paper preset verbatim

    def build(self, eb, inputs):
        cfg = eb.make_preset(inputs["preset"])
        return [runtime(eb, cfg, idx) for idx in (None, 0, 1)]

    def iterate(self, eb, inputs, workdir):
        out = tempfile.mkdtemp(prefix="p2p-", dir=workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = eb.cli.main(["preset", inputs["preset"], "--out", out])
        return {"code": code, "dir": out}

    def check(self, eb, inputs, output, reference):
        ref = reference[self.name]
        out = output["dir"]
        try:
            if output["code"] != 0:
                return [f"esobank preset exited with {output['code']}"]
            with open(os.path.join(out, f"{self.preset}_metrics.txt")) as fh:
                problems = self._check_metrics(fh.read(), ref)
            csv_path = os.path.join(out, f"{self.preset}_trace.csv")
            output["csv_bytes"] = os.path.getsize(csv_path)
            with open(csv_path) as fh:
                problems += self._check_trace(fh.read(), ref)
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _check_metrics(text, ref):
        rows = {}
        for line in text.splitlines():
            key, _, rest = line.partition(",")
            rows[key] = rest
        problems = []
        for law, want in ref["laws"].items():
            if law not in rows:
                problems.append(f"metrics text has no line for {law}")
                continue
            iae, sup = (float(v) for v in rows[law].split(","))
            problems += _compare_law(law, iae, sup, want)
        selections = [int(s) for s in rows.get("window_selections", "").split()]
        problems += _compare_switching(
            "multi", int(rows.get("switch_count", -1)), selections, ref)
        return problems

    @staticmethod
    def _check_trace(text, ref):
        lines = text.splitlines()
        body = [line for line in lines if not line.startswith("#")]
        columns = ref["columns"]
        if not body or body[0] != ",".join(columns):
            return ["trace CSV column header differs from the reference"]
        rows = body[1:]
        problems = []
        if len(rows) != ref["rows"]:
            problems.append(f"trace CSV has {len(rows)} rows, expected "
                            f"{ref['rows']}")
        commas = len(columns) - 1
        ragged = sum(1 for row in rows if row.count(",") != commas)
        if ragged:
            problems.append(f"{ragged} trace CSV rows do not have "
                            f"{len(columns)} fields")
        return problems

    def extras(self, output):
        return {"csv_bytes": output.get("csv_bytes", 0)}


# ---------------------------------------------------------------------------
# bank6-sweep
# ---------------------------------------------------------------------------

# Disturbance amplitudes: 64 log-spaced points over [1, 200], rounded to six
# significant digits so the inputs do not depend on the last bit of pow().
AMPLITUDES = tuple(float(f"{200.0 ** (i / 63):.6g}") for i in range(64))
# Noise seeds the config may take. Every (noise seed, amplitude) pair has a
# recorded reference, so any benchmark seed can be checked.
NOISE_SEEDS = (0, 1, 2, 3)
SWEEP_VALUES = 8
SWEEP_PARAM = "plant.disturbance.amplitude"


def bank6_config(amplitude=1.0, noise_seed=0):
    return {
        "name": "bank6",
        "plant": {
            "kind": "chain", "n": 2, "b": 3.25,
            "disturbance": {"kind": "sinusoid", "amplitude": amplitude,
                            "omega": 2.0 * math.pi},
        },
        "reference": {"kind": "constant", "value": 10.0},
        "poles": [[150.0, 2]],
        "observers": [
            {"order": order, "omega_o": omega_o}
            for order, omega_o in zip((3, 3, 4, 4, 5, 5),
                                      (1500.0, 500.0, 1500.0, 500.0,
                                       1500.0, 800.0))
        ],
        "window": 20,
        "dt": 1e-4,
        "duration": 0.5,
        "run_baselines": False,
        "noise_amplitude": 1e-4,
        "seed": noise_seed,
    }


def case_key(noise_seed, amplitude):
    return f"{noise_seed}/{amplitude!r}"


class Bank6Sweep(Workload):
    """``harness.sweep`` over 8 disturbance amplitudes drawn log-uniform from
    the benchmark seed, on a chain plant with a six-observer bank."""

    name = "bank6-sweep"
    modules = ("esobank",)
    periods = SWEEP_VALUES * 5_001
    seed_time_s = 7.1
    seed_setup_s = 0.63

    def inputs(self, seed):
        rng = random.Random(seed)
        picks = rng.sample(range(len(AMPLITUDES)), SWEEP_VALUES)
        return {
            "values": [AMPLITUDES[i] for i in picks],
            "noise_seed": rng.choice(NOISE_SEEDS),
        }

    def build(self, eb, inputs):
        return [
            runtime(eb, eb.ScenarioConfig.from_dict(
                bank6_config(value, inputs["noise_seed"])))
            for value in inputs["values"]
        ]

    def iterate(self, eb, inputs, workdir):
        cfg = eb.ScenarioConfig.from_dict(
            bank6_config(noise_seed=inputs["noise_seed"]))
        return {"results": eb.sweep(cfg, SWEEP_PARAM, inputs["values"])}

    def check(self, eb, inputs, output, reference):
        cases = reference[self.name]["cases"]
        results = output["results"]
        got_values = [value for value, _ in results]
        if got_values != inputs["values"]:
            return ["sweep returned values out of order"]
        problems = []
        for value, metrics in results:
            key = case_key(inputs["noise_seed"], value)
            ref = cases.get(key)
            if ref is None:
                problems.append(f"no reference for case {key}")
                continue
            problems += _compare_law(key, metrics.iae["multi"],
                                     metrics.sup_tracking_error["multi"], ref)
            problems += _compare_switching(key, metrics.switch_count,
                                           metrics.window_selections, ref)
        return problems

    def extras(self, output):
        return {}


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------

# surrogate-identity (two identity probes, about 45 % of the six checks'
# time) is left out to keep a run short, since a run times every check once
# per program. Its probes step the same plant, observer and controller
# classes the bound audits step.
VERIFY_CHECKS = (
    "gain-expansion",
    "residue-reconstruction",
    "gap-decay-rate",
    "estimation-error-bounds",
    "tracking-error-bound",
)
# Checks whose measured value comes out of a simulation, like IAE, and must
# stay within RTOL of the reference. gain-expansion and
# residue-reconstruction measure round-off (0 and 1.6e-10 at the seed),
# which reordered arithmetic may change freely; for them only PASS counts.
SIMULATED_CHECKS = ("gap-decay-rate", "estimation-error-bounds",
                    "tracking-error-bound")


class VerifyBounds(Workload):
    """``verify_suite`` restricted to five checks that run the verify
    module's own loops at dt 1e-5, one check per part."""

    name = "verify-bounds"
    modules = ("esobank", "esobank.verify")
    # The decay probe (30,001 periods), six bound audits (50,001 each) and
    # the bank audit (40,001).
    periods = 30_001 + 6 * 50_001 + 40_001
    seed_time_s = 20.6
    seed_setup_s = 0.43

    def inputs(self, seed):
        return {"checks": list(VERIFY_CHECKS)}  # fixed scenarios

    def parts(self, inputs):
        return [{"checks": [check]} for check in inputs["checks"]]

    def build(self, eb, inputs):
        verify = eb.verify
        objs = []
        # decay probe, then the three bound-audit scenarios
        scenarios = [
            (((150.0, 1), (450.0, 1)), 3, 1500.0, 0.0, math.pi),
        ] + [
            (((150.0, 2),), s["order"], s["omega_o"], s["amp"], s["omega_d"])
            for s in verify.BOUND_SCENARIOS
        ]
        for poles, order, omega_o, amp, omega_d in scenarios:
            spec = eb.PoleSpec(poles)
            char = eb.char_poly(spec)
            ref = eb.ConstantReference(10.0)
            plant = eb.ChainPlant(2, 3.25, x0=[10.0, 0.0],
                                  disturbance=eb.SinusoidDisturbance(amp, omega_d))
            leso = eb.Leso(2, order - 2, omega_o, 3.25, e1_initial=0.0)
            traj = eb.IdealTrajectory(char.gain_row, plant.tracking_state)
            ctrl = eb.SingleEsoAdrc(char, 3.25, ref, traj, leso, 1e-5)
            table = eb.ResidueTable.for_gain_family(
                char, eb.build_g_family(char.gain_row, leso.beta, 2))
            objs.append((plant, ctrl, table))
        bank_scn = verify.BANK_BOUND_SCENARIO
        char = eb.char_poly(eb.PoleSpec(((150.0, 2),)))
        plant = eb.ChainPlant(2, 3.25, x0=[10.0, 0.0],
                              disturbance=eb.SinusoidDisturbance(
                                  bank_scn["amp"], bank_scn["omega_d"]))
        bank = [eb.Leso(2, order - 2, bank_scn["omega_o"], 3.25)
                for order in bank_scn["orders"]]
        traj = eb.IdealTrajectory(char.gain_row, plant.tracking_state)
        objs.append(eb.Supervisor(char, 3.25, eb.ConstantReference(10.0), traj,
                                  bank, 1e-5, window=bank_scn["window"]))
        return objs

    def iterate(self, eb, inputs, workdir):
        return {"results": eb.verify.verify_suite(names=inputs["checks"],
                                                  printer=None)}

    def check(self, eb, inputs, output, reference):
        results = output["results"]
        names = [r.name for r in results]
        if names != inputs["checks"]:
            return [f"verify_suite ran {names}, expected {inputs['checks']}"]
        measured = reference[self.name]["measured"]
        problems = []
        for r in results:
            if not r.passed:
                problems.append(f"{r.name} did not pass: {r.line()}")
            elif (r.name in SIMULATED_CHECKS
                  and not _close(r.measured, measured[r.name])):
                problems.append(f"{r.name}: measured {r.measured!r} != "
                                f"reference {measured[r.name]!r}")
        return problems

    def extras(self, output):
        return {"measured": {r.name: r.measured for r in output["results"]}}


WORKLOADS = {w.name: w for w in (P2pR10(), Bank6Sweep(), VerifyBounds())}
