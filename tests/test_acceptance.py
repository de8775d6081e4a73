"""Acceptance suite.

One test per release criterion, each printing a PASS/FAIL line with the
measured quantity and its target (run with ``pytest -s`` to see every line):

  1. observer gain expansion is exactly binomial for orders 2..8
  2. symbolic residues rebuild 100 random rational fractions to 1e-9
  3. the tracking surrogate (plus initial-error gap) reproduces the measured
     tracking deviation to 1e-2 of its sup in closed loop at dt=1e-5
  4. the surrogate-vs-truth gap decays at the slowest design pole (10%)
  5. ground-truth estimation errors never leave their computed envelopes
  6. the measured tracking deviation never leaves its closed-loop envelope
  7. switching: a one-observer bank is bitwise a bare single-observer
     oracle loop; a
     detuned observer is deselected in >= 90% of steady windows; the
     switched law's IAE is within 2% of the best baseline on the
     point-to-point preset
  8. switch transients: control jumps at switch instants stay inside the
     configured budget and the output stays continuous
  9. fixed-seed reruns produce byte-identical traces

Runtime budgets from the criteria are asserted too.
"""

import time

import numpy as np
import pytest

from esobank.harness import ScenarioConfig, make_preset, run_scenario, _simulate
from esobank.polynomials import Poly, leso_gains
from esobank.verify import (
    BOUND_SCENARIOS,
    DECAY_FIT_WINDOW,
    DECAY_SLOPE_RTOL,
    DECAY_SLOPE_TARGET,
    DETUNED_WINDOW_FRACTION,
    IAE_ADVANTAGE_FACTOR,
    IDENTITY_TOL,
    RESIDUE_RTOL,
    SWITCH_DU_LIMIT,
    bitwise_single_eso,
    decay_probe,
    identity_probe,
    random_pole_spec,
    residue_reconstruction_error,
    run_bank_bound_audit,
    run_bound_audit,
    steady_window_selections,
)


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    return passed


@pytest.fixture(scope="module")
def bound_audits():
    start = time.perf_counter()
    audits = [(scn, run_bound_audit(scn)) for scn in BOUND_SCENARIOS]
    return audits, time.perf_counter() - start


@pytest.fixture(scope="module")
def p2p_result():
    cfg = make_preset("paper-p2p-r10")
    trace, metrics = run_scenario(cfg)
    return cfg, trace, metrics


def test_criterion_1_gain_expansion_exact():
    start = time.perf_counter()
    mismatches = 0
    for order in range(2, 9):
        for omega in (1, 10, 1500):
            expansion = Poly((omega, 1)) ** order
            expected = tuple(reversed(expansion.coeffs[:-1]))
            if leso_gains(order, omega) != expected:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    assert _report(
        1, ok,
        f"binomial gain expansion exact for orders 2..8 x bandwidths "
        f"{{1,10,1500}}, {mismatches} mismatches, {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_residue_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        spec = random_pole_spec(rng)
        num = Poly(tuple(rng.uniform(-5.0, 5.0) for _ in range(spec.degree)))
        worst = max(worst, residue_reconstruction_error(spec, num, rng))
    elapsed = time.perf_counter() - start
    ok = worst < RESIDUE_RTOL and elapsed < 5.0
    assert _report(
        2, ok,
        f"100 random fractions rebuilt, worst error {worst:.2e} "
        f"(target {RESIDUE_RTOL:.0e}), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_3_surrogate_identity():
    start = time.perf_counter()
    clean = identity_probe(inject_e2=0.0, dt=1e-5, duration=1.0)
    injected = identity_probe(inject_e2=1.0, dt=1e-5, duration=1.0)
    elapsed = time.perf_counter() - start
    ok = (
        clean["ratio"] < IDENTITY_TOL
        and injected["ratio"] < IDENTITY_TOL
        and elapsed < 30.0
    )
    assert _report(
        3, ok,
        f"z matches ebar1 to {clean['ratio']:.2e} of sup (zero-init) and "
        f"z-gap to {injected['ratio']:.2e} (injected), target "
        f"{IDENTITY_TOL}, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_4_gap_decay_rate():
    start = time.perf_counter()
    slope, _ = decay_probe()
    elapsed = time.perf_counter() - start
    rel = abs(slope - DECAY_SLOPE_TARGET) / abs(DECAY_SLOPE_TARGET)
    ok = rel < DECAY_SLOPE_RTOL and elapsed < 30.0
    assert _report(
        4, ok,
        f"log-gap slope {slope:.1f} vs {DECAY_SLOPE_TARGET} "
        f"({rel:.1%}, target {DECAY_SLOPE_RTOL:.0%}) over window "
        f"{DECAY_FIT_WINDOW}, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_estimation_error_envelopes(bound_audits):
    audits, elapsed = bound_audits
    worst = 0.0
    details = []
    for scn, audit in audits:
        local = max(v for k, v in audit["ratios"].items() if k != "ebar_1")
        details.append(f"{scn['name']}={local:.3f}")
        worst = max(worst, local)
    ok = worst < 1.0 and elapsed < 60.0
    assert _report(
        5, ok,
        "max |etilde_i|/envelope and ||eps||/envelope per scenario: "
        + ", ".join(details) + f" (all < 1), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_6_tracking_error_envelope(bound_audits):
    audits, _ = bound_audits
    worst = 0.0
    details = []
    for scn, audit in audits:
        local = audit["ratios"]["ebar_1"]
        details.append(f"{scn['name']}={local:.3f}")
        worst = max(worst, local)
    bank = run_bank_bound_audit()
    details.append(f"sine-bank={bank['ebar_ratio']:.3f}")
    worst = max(worst, bank["ebar_ratio"])
    ok = worst < 1.0
    assert _report(
        6, ok,
        "max |ebar1|/envelope per scenario (last one runs the switched "
        "bank): " + ", ".join(details) + " (all < 1)",
    )


def test_criterion_7_switching_behavior(p2p_result):
    start = time.perf_counter()

    # (a) a one-observer bank is bitwise identical to the plain law, written
    # out as a bare oracle loop
    bitwise = bitwise_single_eso()

    # (b) the detuned observer loses at least 90% of steady-state windows
    detuned_cfg = make_preset("detuned-bank")
    _, detuned_metrics = run_scenario(detuned_cfg)
    steady = steady_window_selections(detuned_metrics, detuned_cfg)
    fraction = steady.count(0) / len(steady)

    # (c) the switched law stays within 2% of the best baseline IAE
    p2p_cfg, _, metrics = p2p_result
    singles = [v for k, v in metrics.iae.items() if k.startswith("single")]
    advantage = metrics.iae["multi"] / min(singles)

    elapsed = time.perf_counter() - start
    ok = (
        bitwise
        and fraction >= DETUNED_WINDOW_FRACTION
        and advantage <= IAE_ADVANTAGE_FACTOR
        and elapsed < 60.0
    )
    assert _report(
        7, ok,
        f"degenerate bank bitwise={bitwise}; well-tuned observer selected in "
        f"{fraction:.0%} of steady windows (target >= "
        f"{DETUNED_WINDOW_FRACTION:.0%}); switched IAE / best single = "
        f"{advantage:.4f} (target <= {IAE_ADVANTAGE_FACTOR}); IAEs "
        f"multi={metrics.iae['multi']:.3e}, "
        f"singles={[f'{v:.3e}' for v in singles]}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_8_switch_transients(p2p_result):
    _, trace, metrics = p2p_result
    tr = metrics.transient
    ok = (
        tr["switch_steps"] >= 1
        and tr["max_switch_du"] <= SWITCH_DU_LIMIT
        and tr["max_switch_dy"] <= tr["max_dy"]
    )
    assert _report(
        8, ok,
        f"{tr['switch_steps']} switch instants; max |du| at switch "
        f"{tr['max_switch_du']:.2f} (budget {SWITCH_DU_LIMIT}); output "
        f"continuous: max |dy| at switch {tr['max_switch_dy']:.2e} vs "
        f"{tr['max_dy']:.2e} overall",
    )


def test_criterion_9_determinism():
    data = make_preset("tiny").to_dict()
    data["noise_amplitude"] = 1e-6
    data["duration"] = 0.05
    cfg = ScenarioConfig.from_dict(data)
    first, _ = _simulate(cfg)
    second, _ = _simulate(cfg)
    identical = first.to_csv_text() == second.to_csv_text()
    assert _report(
        9, identical,
        f"fixed-seed rerun byte-identical: {identical} "
        f"({first.row_count} rows compared)",
    )
