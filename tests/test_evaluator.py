"""Tracking-error evaluator: the z surrogate filter, the initial-error gap,
the closed-loop tracking bound, and windowed argmin switching."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from esobank.evaluator import (
    SwitchIndex,
    ZFilter,
    companion_matrix,
    initial_state_gap,
    tracking_bound_coefficient,
    tracking_error_bound,
)
from esobank.integrate import rk4_step
from esobank.observer import inf_norm
from esobank.polynomials import (
    PoleSpec,
    Poly,
    PolynomialError,
    ResidueTable,
    build_g_family,
    char_poly,
    leso_gains,
)


def _standard_filter(omega_o=1500.0):
    char = char_poly(PoleSpec(((150.0, 2),)))
    g = build_g_family(char.gain_row, leso_gains(3, omega_o), 2)
    return ZFilter(g[2], char.delta), char, g


def test_zfilter_passthrough_when_numerator_matches():
    char = char_poly(PoleSpec(((150.0, 2),)))
    zf = ZFilter(char.delta, char.delta)
    assert zf.c_out == (0.0, 0.0)
    for v in (0.0, 1.0, -3.5):
        assert zf.output(v) == v
        zf.advance(v, 1e-4)


def test_zfilter_strictly_proper_numerator():
    zf, _, _ = _standard_filter()
    assert zf.c_out == (8100000.0, 4500.0)
    assert zf.state == [0.0, 0.0]


def test_zfilter_realization_transfer_function():
    zf, char, g = _standard_filter()
    a, b, c, d = zf.realization()
    rng = np.random.default_rng(5)
    for s in rng.uniform(1.0, 5000.0, size=20):
        resolvent = np.linalg.solve(s * np.eye(2) - a, b)
        realized = float((c @ resolvent)[0, 0]) + d[0, 0]
        exact = g[2](s) / char.delta(s)
        assert abs(realized - exact) / abs(exact) < 1e-9
    # (A, B) are what the filter steps: one period is one RK4 step of them
    zf.state = [1e-4, -0.02]
    dt = 1e-4
    expected = rk4_step(lambda x, t: list(a @ x + b[:, 0] * 0.5), zf.state,
                        0.0, dt)
    zf.advance(0.5, dt)
    assert zf.state == pytest.approx(expected, rel=1e-12)


def test_zfilter_step_response_final_value():
    zf, char, g = _standard_filter()
    dt = 1e-5
    z = 0.0
    for _ in range(round(0.2 / dt)):
        z = zf.output(1.0)
        zf.advance(1.0, dt)
    assert z == pytest.approx(g[2](0.0) / char.delta(0.0), rel=1e-6)


def test_zfilter_zero_in_zero_out():
    zf, _, _ = _standard_filter()
    for _ in range(100):
        assert zf.output(0.0) == 0.0
        zf.advance(0.0, 1e-4)


def test_zfilter_rejects_mismatched_polynomials():
    char = char_poly(PoleSpec(((150.0, 2),)))
    with pytest.raises(PolynomialError):
        ZFilter(Poly((1.0, 1.0)), char.delta)
    with pytest.raises(PolynomialError):
        ZFilter(2 * char.delta, char.delta)


def _gap_table(poles=((150.0, 2),), omega_o=1500.0):
    char = char_poly(PoleSpec(poles))
    g = build_g_family(char.gain_row, leso_gains(3, omega_o), 2)
    return ResidueTable.for_gain_family(char, g)


def test_gap_zero_for_zero_initial_error():
    table = _gap_table()
    assert initial_state_gap(table, [0.0, 0.0], 0.01) == 0.0


def test_gap_closed_form_for_critical_damping():
    # second-order plant: the gap is e_tilde_2(t0) times the inverse
    # transform of 1/(s+150)^2, i.e. w * tau * exp(-150 tau)
    table = _gap_table()
    w = 2.5
    for tau in (0.0, 0.001, 0.01, 0.05):
        expected = w * tau * math.exp(-150.0 * tau)
        assert initial_state_gap(table, [0.0, w], tau) == pytest.approx(expected)


def test_gap_vanishes_at_long_horizon():
    table = _gap_table()
    peak = abs(initial_state_gap(table, [0.0, 1.0], 1.0 / 150.0))
    # at ten slowest-pole time constants the decay envelope exp(-10) * p(tau)
    # holds exactly; a couple more time constants push the gap below 1e-3 of
    # its peak even with the polynomial factor of the repeated pole
    tau10 = 10.0 / 150.0
    assert abs(initial_state_gap(table, [0.0, 1.0], tau10)) <= (
        math.exp(-10.0) * tau10 * 1.0000001
    )
    late = abs(initial_state_gap(table, [0.0, 1.0], 12.0 / 150.0))
    assert late < 1e-3 * peak


def test_gap_accepts_time_arrays():
    table = _gap_table()
    tau = np.linspace(0.0, 0.05, 7)
    values = initial_state_gap(table, [0.0, 1.0], tau)
    assert values.shape == tau.shape
    assert values[0] == 0.0


def test_closed_loop_surrogate_matches_tracking_error_at_fine_step():
    # with zero initial estimation error the surrogate alone reproduces the
    # measured tracking deviation; the hold-induced residual shrinks with the
    # control period, reaching 1e-3 of sup|ebar1| at a 2 microsecond step
    from esobank.verify import identity_probe

    probe = identity_probe(inject_e2=0.0, dt=2e-6, duration=0.25)
    assert probe["ratio"] < 1e-3, f"residual ratio {probe['ratio']:.2e}"


def test_closed_loop_gap_matches_prediction_pointwise():
    # injected initial estimation error, no disturbance: the measured
    # z - ebar1 tracks the predicted decay pointwise to 1e-2 wherever the
    # gap is significant (relative error is ill-posed as the gap vanishes)
    from esobank.verify import identity_probe

    probe = identity_probe(amp=0.0, inject_e2=2.0, dt=5e-6, duration=0.08)
    gap = probe["gap"]
    resid = np.abs(probe["z"] - gap - probe["ebar"])
    significant = np.abs(gap) >= 0.2 * np.max(np.abs(gap))
    rel = np.max(resid[significant] / np.abs(gap[significant]))
    assert rel < 1e-2, f"pointwise relative error {rel:.2e}"


def test_switch_argmin_and_tie_rule():
    idx = SwitchIndex(2, window=3)
    for _ in range(2):
        assert idx.update((1.0, 2.0)) == 0
    assert idx.update((1.0, 2.0)) == 0  # boundary: argmin is observer 0
    for _ in range(3):
        selected = idx.update((5.0, 1.0))
    assert selected == 1
    assert idx.switch_count == 1
    # exact ties keep the current selection
    for _ in range(3):
        selected = idx.update((2.0, 2.0))
    assert selected == 1
    assert idx.window_selections == [0, 1, 1]


def test_switch_window_of_one_is_per_sample_argmin():
    idx = SwitchIndex(3, window=1)
    assert idx.update((3.0, 1.0, 2.0)) == 1
    assert idx.update((0.5, 1.0, 2.0)) == 0
    assert idx.update((0.5, 0.1, 0.05)) == 2


def test_switch_accumulators_reset_each_window():
    idx = SwitchIndex(2, window=2)
    idx.update((1.0, 0.0))
    assert idx.accumulators == [1.0, 0.0]
    idx.update((1.0, 0.0))
    assert idx.accumulators == [0.0, 0.0]
    assert idx.samples == 0


def test_switch_eligibility_mask():
    # an observer out of candidacy reports z = inf
    idx = SwitchIndex(2, window=1)
    assert idx.update((math.inf, 5.0)) == 1
    idx2 = SwitchIndex(2, window=2)
    idx2.update((0.1, 5.0))
    assert idx2.reselect([False, True]) == 1


def test_companion_matrix_closed_loop():
    a = companion_matrix((22500.0, 300.0))
    assert np.allclose(np.linalg.eigvals(a), (-150.0, -150.0))


def test_tracking_bound_zero_cases():
    char = char_poly(PoleSpec(((150.0, 2),)))
    table = _gap_table()
    row = table.row(2)
    assert tracking_error_bound(char, row, 1500.0, 0.0, 0.0, 0.1) == 0.0


def test_tracking_bound_static_factor():
    char = char_poly(PoleSpec(((150.0, 2),)))
    # delta evaluated at the observer bandwidth: (1500 + 150)^2
    assert char.delta(1500.0) == 2722500.0
    table = _gap_table()
    coeff = tracking_bound_coefficient(table.row(2), char.spec)
    assert coeff == pytest.approx(1.0 / 150.0**2)
    gamma = 2e-5
    bound = tracking_error_bound(char, table.row(2), 1500.0, 0.0, gamma, 0.0)
    assert bound == pytest.approx(2722500.0 * gamma / 22500.0)


def test_tracking_bound_transient_matches_closed_form():
    # for a double pole the matrix exponential has the closed form
    # exp(-s t) (I + (A + s I) t); compare against the scaling-and-squaring
    # route used by the implementation
    char = char_poly(PoleSpec(((150.0, 2),)))
    a = companion_matrix(char.gain_row)
    eye = np.eye(2)
    for tau in (0.01, 0.03, 0.1):
        closed = math.exp(-150.0 * tau) * (eye + (a + 150.0 * eye) * tau)
        assert inf_norm(expm(a * tau)) == pytest.approx(
            inf_norm(closed), rel=1e-9
        )
    table = _gap_table()
    bound_near = tracking_error_bound(char, table.row(2), 1500.0, 1.0, 0.0, 0.05)
    bound_far = tracking_error_bound(char, table.row(2), 1500.0, 1.0, 0.0, 0.2)
    assert bound_far < bound_near
