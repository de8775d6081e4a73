"""Numerical verification suite.

Each check exercises one guarantee the design rests on, prints the measured
quantity against its bound or target, and reports the margin:

  gain-expansion            observer gains match the binomial expansion exactly
  residue-reconstruction    symbolic residues rebuild g/delta at sample points
  surrogate-identity        z( + initial-error gap) reproduces the measured
                            tracking deviation in closed loop
  gap-decay-rate            log|z - ebar1| decays at the slowest design pole
  estimation-error-bounds   per-state and scaled estimation errors stay inside
                            their computed envelopes on smooth scenarios
  tracking-error-bound      |ebar1| stays inside the closed-loop envelope
  switching                 a one-observer bank equals a bare single-observer
                            oracle loop bitwise; a detuned observer is
                            deselected; the switched law's IAE tracks the
                            best baseline
  switch-transient          switching causes bounded control jumps and leaves
                            the output continuous
  determinism               fixed-seed reruns produce byte-identical traces
  detuned-gain-sensitivity  negative controls: corrupting the observer gains
                            must trip the matching check (envelope for a
                            top-row typo, identity for an in-map gain)
  low-bandwidth-stress      an observer slower than the closed loop degrades
                            margins but runs to completion
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .controller import (
    IdealTrajectory,
    Supervisor,
    adrc_law,
    reference_sup_bound,
)
from .evaluator import (
    ZFilter,
    initial_state_gap,
    tracking_error_bound,
)
from .harness import (
    ScenarioConfig,
    _make_runtime,
    _simulate,
    closed_loop,
    make_preset,
    run_scenario,
)
from .observer import (
    Leso,
    bound_tail_coefficient,
    bound_tail_max,
    contraction_norm_profile,
)
from .plant import ChainPlant
from .polynomials import (
    PoleSpec,
    Poly,
    ResidueTable,
    build_g_family,
    char_poly,
    leso_gains,
    reconstruct_fraction,
    residues,
)
from .signals import Constant, Sinusoid

IDENTITY_TOL = 1e-2          # relative to sup|ebar1|
DECAY_SLOPE_TARGET = -150.0
DECAY_SLOPE_RTOL = 0.10
DECAY_FIT_WINDOW = (0.02, 0.08)
IAE_ADVANTAGE_FACTOR = 1.02
DETUNED_WINDOW_FRACTION = 0.90
# Switch-jump budget for the point-to-point preset, about 7% of its peak
# drive; configurable per scenario.
SWITCH_DU_LIMIT = 100.0
RESIDUE_RTOL = 1e-9
# Distinct poles closer than this are inherently ill-conditioned in
# partial-fraction form (use a multiplicity for equal poles), so random
# specs keep at least this relative separation.
RESIDUE_POLE_SEPARATION = 0.3


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    target: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured={self.measured:.6g} "
            f"target={self.target:.6g} {self.detail}"
        )


# ---------------------------------------------------------------------------
# Scenario helpers (shared with the acceptance tests)
# ---------------------------------------------------------------------------


def _sine_loop(poles, setpoint, b, amp, omega_d, dt, observers, window=20):
    """The verify scenarios' closed loop: a double integrator started at rest
    on a constant setpoint, against a sinusoidal disturbance at zero phase,
    under a supervisor over one observer per ``(order, omega_o,
    initial_estimates, beta)`` entry of ``observers``.

    Returns (plant, supervisor, disturbance).
    """
    char = char_poly(PoleSpec(tuple(poles)))
    ref = Constant(setpoint)
    dist = Sinusoid(amp, omega_d)
    plant = ChainPlant(2, b, x0=[setpoint, 0.0], disturbance=dist)
    e1_0 = plant.y - ref.value(0.0)
    bank = [
        Leso(2, order - 2, omega_o, b, e1_initial=e1_0,
             initial_estimates=init, beta=beta)
        for order, omega_o, init, beta in observers
    ]
    traj = IdealTrajectory(char.gain_row, plant.tracking_state)
    sup = Supervisor(char, b, ref, traj, bank, dt, window=window)
    return plant, sup, dist


def _true_errors(plant, ref, dist, t, e1, order):
    """Ground-truth tracking-error state (e_1, e_2) and extended states
    (d^(i) - r^(2+i)) of a double-integrator loop at time t."""
    e_true = [e1, plant.x[1] - ref.derivative(t, 1)]
    for extra in range(order - 2):
        e_true.append(dist.derivative(t, extra) - ref.derivative(t, 2 + extra))
    return e_true


def _tracking_ratio(char, beta, omega_o, gamma, ebar):
    """The tracking-error envelope of a double-integrator loop whose
    observers have gains ``beta`` and running scaled-error sup ``gamma``
    (the ideal trajectory starts on the plant), and max |ebar1|/envelope
    after t0."""
    table = ResidueTable.for_gain_family(
        char, build_g_family(char.gain_row, beta, 2))
    bound = tracking_error_bound(char, table.row(2), omega_o, 0.0, gamma, 0.0)
    with np.errstate(invalid="ignore"):
        return bound, float(np.max(np.abs(ebar[1:]) / bound[1:]))


def identity_probe(poles=((150.0, 2),), omega_o=1500.0, order=3, amp=5.0,
                   omega_d=math.pi, dt=1e-5, duration=1.0, inject_e2=0.0,
                   setpoint=10.0, b=3.25, beta_actual=None, beta_assumed=None):
    """Closed-loop run returning the measured tracking deviation, the
    surrogate, and the predicted initial-error gap.

    The plant starts on the reference with the disturbance at zero phase, so
    the only nonzero initial estimation error is the injected e_tilde_2.
    ``beta_actual``/``beta_assumed`` let a test run an observer whose real
    gains differ from the gains the evaluator was designed for.
    """
    init = [-inject_e2] + [0.0] * (order - 2)
    plant, ctrl, _ = _sine_loop(poles, setpoint, b, amp, omega_d, dt,
                                [(order, omega_o, init, beta_actual)])
    char = ctrl.char
    if beta_assumed is not None:
        g_family = build_g_family(char.gain_row, beta_assumed, 2)
        ctrl.filters[0] = ZFilter(g_family[2], char.delta)
    steps = round(duration / dt)
    t = np.empty(steps + 1)
    z = np.empty(steps + 1)
    ebar = np.empty(steps + 1)

    def probe(k, rec):
        t[k] = rec.t
        z[k] = rec.z[0]
        ebar[k] = rec.ebar1

    closed_loop(plant, ctrl, steps, dt, probe)
    design_beta = beta_assumed if beta_assumed is not None else ctrl.bank[0].beta
    g_family = build_g_family(char.gain_row, design_beta, 2)
    table = ResidueTable.for_gain_family(char, g_family)
    gap = initial_state_gap(table, [0.0, inject_e2], t)
    sup = float(np.max(np.abs(ebar)))
    resid = float(np.max(np.abs(z - gap - ebar)))
    return {
        "t": t, "z": z, "ebar": ebar, "gap": gap,
        "sup": sup, "resid": resid, "ratio": resid / sup,
        "char": char, "table": table,
    }


def decay_probe(poles=((150.0, 1), (450.0, 1)), omega_o=1500.0, inject_e2=5.0,
                dt=1e-5, duration=0.3, fit_window=DECAY_FIT_WINDOW):
    """Slope of log|z - ebar1| for a pure injected initial estimation error.

    Distinct poles keep the envelope a clean exponential at the slowest pole;
    a repeated pole would add a polynomial factor that biases any finite-window
    slope fit well beyond 10%.
    """
    probe = identity_probe(poles=poles, omega_o=omega_o, amp=0.0,
                           inject_e2=inject_e2, dt=dt, duration=duration)
    t, gap_meas = probe["t"], np.abs(probe["z"] - probe["ebar"])
    lo, hi = fit_window
    mask = (t >= lo) & (t <= hi) & (gap_meas > 0)
    slope = float(np.polyfit(t[mask], np.log(gap_meas[mask]), 1)[0])
    return slope, probe


BOUND_SCENARIOS = (
    {
        "name": "sine-3rd",
        "order": 3, "omega_o": 100.0,
        "amp": 2.0, "omega_d": 2.0 * math.pi,
        "inject_e2": 0.0, "dt": 1e-5, "duration": 0.5,
    },
    {
        "name": "sine-3rd-injected",
        "order": 3, "omega_o": 200.0,
        "amp": 2.0, "omega_d": 2.0 * math.pi,
        "inject_e2": 0.5, "dt": 1e-5, "duration": 0.5,
    },
    {
        "name": "sine-4th",
        "order": 4, "omega_o": 150.0,
        "amp": 2.0, "omega_d": math.pi,
        "inject_e2": 0.0, "dt": 1e-5, "duration": 0.5,
    },
)


def run_bound_audit(scn, poles=((150.0, 2),), setpoint=10.0, b=3.25,
                    beta=None):
    """Closed-loop run that also logs ground-truth estimation errors, their
    computed envelopes, and the tracking-error envelope.

    Returns arrays plus worst-case ratios measured/bound (all must stay
    below 1). ``beta`` overrides the observer gains (negative controls)."""
    order = scn["order"]
    omega_o = scn["omega_o"]
    dt = scn["dt"]
    init = [-scn.get("inject_e2", 0.0)] + [0.0] * (order - 2)
    plant, ctrl, dist = _sine_loop(poles, setpoint, b, scn["amp"],
                                   scn["omega_d"], dt,
                                   [(order, omega_o, init, beta)])
    char, ref, leso = ctrl.char, ctrl.reference, ctrl.bank[0]
    if scn.get("truth_init"):
        # start the estimates on the ground truth so the scaled error is
        # exactly zero and the bound reduces to its tail term
        leso.e_hat[1:] = _true_errors(plant, ref, dist, 0.0, 0.0, order)[1:]

    h1 = max(dist.sup_derivative(k) for k in range(1, order - 1))
    h2 = reference_sup_bound(ref, order)
    steps = round(scn["duration"] / dt)
    scales = [omega_o**i for i in range(order)]

    etilde = np.empty((steps + 1, order))
    ebar = np.empty(steps + 1)
    t_grid = np.arange(steps + 1) * dt

    def probe(k, rec):
        e_true = _true_errors(plant, ref, dist, rec.t, rec.e1, order)
        for i in range(order):
            etilde[k, i] = e_true[i] - leso.e_hat[i]
        ebar[k] = rec.ebar1

    closed_loop(plant, ctrl, steps, dt, probe)

    eps = np.abs(etilde) / scales
    eps_norm = np.max(eps, axis=1)
    eps0_norm = eps_norm[0]
    gamma = np.maximum.accumulate(eps_norm)

    if eps0_norm > 0:
        norms = contraction_norm_profile(leso.beta, omega_o, dt, steps)
    else:
        norms = np.zeros(steps + 1)

    ratios = {}
    for i in range(1, order + 1):
        tail = (h1 + h2) * bound_tail_coefficient(order, i) / omega_o ** (
            order - i + 1
        )
        bound_i = omega_o ** (i - 1) * norms * eps0_norm + tail
        ratios[f"etilde_{i}"] = float(np.max(np.abs(etilde[:, i - 1]) / bound_i))
    tail_norm = (h1 + h2) * bound_tail_max(order) / omega_o**order
    bound_norm = norms * eps0_norm + tail_norm
    ratios["eps_norm"] = float(np.max(eps_norm / bound_norm))

    tracking_bound, ratios["ebar_1"] = _tracking_ratio(char, leso.beta,
                                                       omega_o, gamma, ebar)

    return {
        "t": t_grid, "etilde": etilde, "ebar": ebar, "gamma": gamma,
        "ratios": ratios, "h1": h1, "h2": h2,
        "tracking_bound": tracking_bound,
    }


BANK_BOUND_SCENARIO = {
    "name": "sine-bank",
    "orders": (3, 4), "omega_o": 150.0,
    "amp": 2.0, "omega_d": 2.0 * math.pi,
    "dt": 1e-5, "duration": 0.4, "window": 20,
}


def run_bank_bound_audit(scn=BANK_BOUND_SCENARIO, poles=((150.0, 2),),
                         setpoint=10.0, b=3.25):
    """Tracking-error envelope audit for the switched law itself: gamma is
    the running sup of the scaled estimation error across the whole bank,
    which dominates whichever observer is active at each instant."""
    omega_o = scn["omega_o"]
    dt = scn["dt"]
    plant, sup, dist = _sine_loop(
        poles, setpoint, b, scn["amp"], scn["omega_d"], dt,
        [(order, omega_o, (), None) for order in scn["orders"]],
        window=scn["window"],
    )
    ref, bank = sup.reference, sup.bank
    top = max(leso.order for leso in bank)

    steps = round(scn["duration"] / dt)
    scales = [omega_o**i for i in range(top)]
    ebar = np.empty(steps + 1)
    gamma_bank = np.empty(steps + 1)
    running = 0.0

    def probe(k, rec):
        nonlocal running
        e_true = _true_errors(plant, ref, dist, rec.t, rec.e1, top)
        for leso in bank:
            eps = max(
                abs(e - eh) / s
                for e, eh, s in zip(e_true, leso.e_hat, scales)
            )
            running = max(running, eps)
        ebar[k] = rec.ebar1
        gamma_bank[k] = running

    closed_loop(plant, sup, steps, dt, probe)

    _, ratio = _tracking_ratio(sup.char, bank[0].beta, omega_o, gamma_bank, ebar)
    return {"ebar_ratio": ratio, "switches": sup.switch_count}


def single_eso_oracle(plant, char, reference, leso, dt, steps):
    """The plain single-observer ADRC law as one bare loop, apart from
    ``Supervisor`` and ``closed_loop``: after each plant step the observer
    takes the trapezoidal average of the boundary errors, then the z-filter
    and x* advance and the new control comes from the fresh estimates.
    Returns the u, y, ebar1 and z_0 columns (noise-free plants)."""
    zfilter = ZFilter(
        build_g_family(char.gain_row, leso.beta, char.order)[char.order],
        char.delta,
    )
    trajectory = IdealTrajectory(char.gain_row, plant.tracking_state)
    cols = {"u": [], "y": [], "ebar1": [], "z_0": []}

    def sample(y, e1):
        etilde1 = e1 - leso.e_hat[0]
        u = adrc_law(leso.e_hat, char.gain_row, plant.b)
        row = (u, y, y - trajectory.x[0], zfilter.output(etilde1))
        for col, value in zip(cols.values(), row):
            col.append(value)
        return etilde1, u

    y = plant.y
    e1 = y - reference.value(0.0)
    etilde1, u = sample(y, e1)
    for k in range(1, steps + 1):
        plant.step(u, dt)
        y = plant.y
        e1_prev, e1 = e1, y - reference.value(k * dt)
        leso.step(0.5 * (e1_prev + e1), u, dt)
        zfilter.advance(etilde1, dt)
        trajectory.step(reference, dt)
        etilde1, u = sample(y, e1)
    return cols


def bitwise_single_eso():
    """True when the harness's one-observer bank reproduces the oracle's u,
    y, ebar1 and z_0 columns bit for bit, on the detuned-bank preset cut to
    its well-tuned observer and 0.3 s."""
    data = make_preset("detuned-bank").to_dict()
    data.update(name="bitwise-check", observers=data["observers"][:1],
                duration=0.3, run_baselines=False)
    cfg = ScenarioConfig.from_dict(data)
    trace, _ = _simulate(cfg)
    plant, reference, ctrl, _ = _make_runtime(cfg)
    oracle = single_eso_oracle(plant, ctrl.char, reference, ctrl.bank[0],
                               cfg.dt, round(cfg.duration / cfg.dt))
    return all(trace.data[name] == col for name, col in oracle.items())


def steady_window_selections(metrics, cfg, settle_time=0.25):
    boundary_times = [
        ((w + 1) * cfg.window - 1) * cfg.dt
        for w in range(len(metrics.window_selections))
    ]
    return [
        sel
        for sel, tb in zip(metrics.window_selections, boundary_times)
        if tb >= settle_time
    ]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_gain_expansion():
    worst = 0
    for order in range(2, 9):
        for omega_o in (1, 10, 1500):
            got = leso_gains(order, omega_o)
            expansion = Poly((omega_o, 1)) ** order
            expected = tuple(reversed(expansion.coeffs[:-1]))
            if got != expected:
                worst += 1
    return CheckResult(
        "gain-expansion", worst == 0, float(worst), 0.0,
        "orders 2..8, bandwidths {1,10,1500}, exact integer agreement",
    )


def random_pole_spec(rng, max_degree=6):
    poles = []
    total = 0
    target = int(rng.integers(2, max_degree + 1))
    while total < target:
        s = float(rng.uniform(0.5, 50.0))
        if any(abs(s - p) < RESIDUE_POLE_SEPARATION * max(s, p) for p, _ in poles):
            continue
        d = int(rng.integers(1, min(3, target - total) + 1))
        poles.append((s, d))
        total += d
    return PoleSpec(tuple(poles))


def residue_reconstruction_error(spec, num, rng, points=20):
    """Worst reconstruction error at random sample points, relative to the
    largest sampled magnitude (pointwise relative error is ill-posed where
    the fraction crosses zero)."""
    rows = residues(num, spec)
    delta = char_poly(spec).delta
    samples = rng.uniform(0.1, 100.0, size=points)
    exact = np.array([num(s) / delta(s) for s in samples])
    approx = np.array([reconstruct_fraction(rows, spec, s) for s in samples])
    return float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))


def check_residue_reconstruction(count=100, seed=2024):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        spec = random_pole_spec(rng)
        num = Poly(tuple(rng.uniform(-5.0, 5.0) for _ in range(spec.degree)))
        worst = max(worst, residue_reconstruction_error(spec, num, rng))
    return CheckResult(
        "residue-reconstruction", worst < RESIDUE_RTOL, worst, RESIDUE_RTOL,
        f"{count} random pole/numerator pairs, 20 sample points each",
    )


def check_surrogate_identity():
    clean = identity_probe(inject_e2=0.0, duration=1.0)
    injected = identity_probe(inject_e2=1.0, duration=1.0)
    worst = max(clean["ratio"], injected["ratio"])
    return CheckResult(
        "surrogate-identity", worst < IDENTITY_TOL, worst, IDENTITY_TOL,
        f"zero-init ratio={clean['ratio']:.2e}, "
        f"injected ratio={injected['ratio']:.2e}",
    )


def check_gap_decay_rate():
    slope, _ = decay_probe()
    err = abs(slope - DECAY_SLOPE_TARGET) / abs(DECAY_SLOPE_TARGET)
    return CheckResult(
        "gap-decay-rate", err < DECAY_SLOPE_RTOL, slope, DECAY_SLOPE_TARGET,
        f"fit window {DECAY_FIT_WINDOW}, relative error {err:.2%}",
    )


def _worst_ratio(name, quantity, ratios):
    """Check that every (scenario, measured/bound) ratio stays below 1."""
    worst = 0.0
    for _, ratio in ratios:
        worst = max(worst, ratio)
    details = " ".join(f"{scn}:{ratio:.3f}" for scn, ratio in ratios)
    return CheckResult(name, worst < 1.0, worst, 1.0,
                       f"max {quantity}/bound per scenario {details}")


@functools.cache
def _bound_audit_ratios():
    """(name, ratios) per BOUND_SCENARIOS audit, shared by two checks."""
    return tuple((scn["name"], run_bound_audit(scn)["ratios"])
                 for scn in BOUND_SCENARIOS)


@functools.cache
def _p2p_metrics():
    """paper-p2p-r10 with both baselines, shared by two checks."""
    return run_scenario(make_preset("paper-p2p-r10"))[1]


def check_estimation_error_bounds():
    return _worst_ratio("estimation-error-bounds", "|etilde_i|", [
        (name, max(v for k, v in ratios.items() if k != "ebar_1"))
        for name, ratios in _bound_audit_ratios()
    ])


def check_tracking_error_bound():
    ratios = [(name, ratios["ebar_1"])
              for name, ratios in _bound_audit_ratios()]
    ratios.append(("sine-bank", run_bank_bound_audit()["ebar_ratio"]))
    return _worst_ratio("tracking-error-bound", "|ebar1|", ratios)


def check_switching():
    bitwise = bitwise_single_eso()

    detuned_cfg = make_preset("detuned-bank")
    _, metrics = run_scenario(detuned_cfg)
    steady = steady_window_selections(metrics, detuned_cfg)
    fraction = steady.count(0) / len(steady) if steady else 0.0

    p2p_metrics = _p2p_metrics()
    singles = [v for k, v in p2p_metrics.iae.items() if k.startswith("single")]
    advantage = p2p_metrics.iae["multi"] / min(singles)

    passed = bitwise and fraction >= DETUNED_WINDOW_FRACTION and (
        advantage <= IAE_ADVANTAGE_FACTOR
    )
    return CheckResult(
        "switching", passed, advantage, IAE_ADVANTAGE_FACTOR,
        f"bitwise={bitwise}, steady selection fraction={fraction:.2%}, "
        f"multi/best-single IAE={advantage:.4f}",
    )


def check_switch_transient():
    tr = _p2p_metrics().transient
    du_ok = tr["max_switch_du"] <= SWITCH_DU_LIMIT
    dy_ok = tr["max_switch_dy"] <= tr["max_dy"]
    return CheckResult(
        "switch-transient", du_ok and dy_ok, tr["max_switch_du"],
        SWITCH_DU_LIMIT,
        f"{tr['switch_steps']} switches, max |du| at switch="
        f"{tr['max_switch_du']:.3g}, max |dy| at switch "
        f"{tr['max_switch_dy']:.3g} vs overall {tr['max_dy']:.3g}",
    )


def check_determinism():
    data = make_preset("tiny").to_dict()
    data["noise_amplitude"] = 1e-6
    data["duration"] = 0.05
    cfg = ScenarioConfig.from_dict(data)
    first, _ = _simulate(cfg)
    second, _ = _simulate(cfg)
    same = first.to_csv_text() == second.to_csv_text()
    return CheckResult(
        "determinism", same, float(same), 1.0,
        "fixed-seed rerun produces byte-identical trace",
    )


def check_detuned_gain_sensitivity():
    """Negative controls: corrupting a 4th-order observer's gains must trip
    the matching check.

    The surrogate map for a 2nd-order plant involves only the first two
    observer gains, so the classic third-gain typo (6*omega_o^3 instead of
    the binomial 4*omega_o^3) cannot disturb the identity; it blows the
    estimation-error tail bounds instead. Inflating the second gain by the
    same 6/4 factor corrupts the map itself and breaks the identity. The
    identity pair runs at a fine step so the clean control stays below
    tolerance (the 4th-order loop's hold-induced residual is larger than the
    3rd-order one).
    """
    omega_o = 1500.0
    good = leso_gains(4, omega_o)

    # Third-gain typo: identity-neutral, envelope-breaking. It inflates the
    # top extended state's static error gain by 6/4, so it is exposed by a
    # slack-free scenario: zero reference, quasi-static disturbance running
    # through its derivative peak, estimates started on the ground truth so
    # the envelope is the pure tail term the gain design promises.
    scn = {
        "order": 4, "omega_o": 150.0, "amp": 2.0, "omega_d": 2.0,
        "dt": 1e-5, "duration": 1.0, "truth_init": True,
    }
    typo = list(leso_gains(4, scn["omega_o"]))
    typo[2] = 6.0 * scn["omega_o"] ** 3
    audit = run_bound_audit(scn, setpoint=0.0, beta=tuple(typo))
    typo_ratio = max(v for k, v in audit["ratios"].items() if k != "ebar_1")

    # second-gain corruption: breaks the surrogate identity
    dt = 2e-6
    warped = (good[0], 1.5 * good[1], good[2], good[3])
    probe = identity_probe(order=4, omega_o=omega_o, duration=0.3, dt=dt,
                           beta_actual=warped, beta_assumed=good)
    control = identity_probe(order=4, omega_o=omega_o, duration=0.3, dt=dt)

    passed = (
        typo_ratio > 1.0
        and probe["ratio"] > IDENTITY_TOL
        and control["ratio"] < IDENTITY_TOL
    )
    return CheckResult(
        "detuned-gain-sensitivity", passed, probe["ratio"], IDENTITY_TOL,
        f"third-gain typo bound ratio={typo_ratio:.2f} (>1 required), "
        f"second-gain identity ratio={probe['ratio']:.3f} (>tol required), "
        f"clean ratio={control['ratio']:.2e}",
    )


def check_low_bandwidth_stress():
    """Observer slower than the closed loop: margins degrade but the run
    completes and stays finite. Envelope margins at the low bandwidth are
    reported for inspection, not gated."""
    slow = identity_probe(omega_o=50.0, duration=0.5)
    fast = identity_probe(omega_o=1500.0, duration=0.5)
    degradation = slow["sup"] / fast["sup"]
    finite = math.isfinite(slow["sup"]) and math.isfinite(slow["ratio"])
    audit = run_bound_audit({
        "order": 3, "omega_o": 50.0, "amp": 2.0, "omega_d": 2.0 * math.pi,
        "inject_e2": 0.0, "dt": 1e-5, "duration": 0.5,
    })
    worst_envelope = max(audit["ratios"].values())
    return CheckResult(
        "low-bandwidth-stress", finite and degradation > 1.0, degradation, 1.0,
        f"sup|ebar1| inflates {degradation:.1f}x at omega_o=50; identity "
        f"ratio {slow['ratio']:.2e}, worst envelope ratio "
        f"{worst_envelope:.3f} (informational)",
    )


ALL_CHECKS = (
    ("gain-expansion", check_gain_expansion),
    ("residue-reconstruction", check_residue_reconstruction),
    ("surrogate-identity", check_surrogate_identity),
    ("gap-decay-rate", check_gap_decay_rate),
    ("estimation-error-bounds", check_estimation_error_bounds),
    ("tracking-error-bound", check_tracking_error_bound),
    ("switching", check_switching),
    ("switch-transient", check_switch_transient),
    ("determinism", check_determinism),
    ("detuned-gain-sensitivity", check_detuned_gain_sensitivity),
    ("low-bandwidth-stress", check_low_bandwidth_stress),
)


def verify_suite(names=None, printer=print):
    """Run the verification checks (optionally a named subset) and return the
    results. Prints one line per check."""
    selected = ALL_CHECKS
    if names:
        wanted = set(names)
        unknown = wanted - {name for name, _ in ALL_CHECKS}
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
        selected = [(n, f) for n, f in ALL_CHECKS if n in wanted]
    # a suite run simulates its shared scenarios, never reusing an earlier run
    _bound_audit_ratios.cache_clear()
    _p2p_metrics.cache_clear()
    results = []
    for name, func in selected:
        try:
            result = func()
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(name, False, math.nan, math.nan,
                                 f"raised {type(exc).__name__}: {exc}")
        results.append(result)
        if printer:
            printer(result.line())
    return results
