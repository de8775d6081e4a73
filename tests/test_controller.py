"""Control side: references, ideal trajectory, the disturbance-cancelling
law, and the switching supervisor."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from esobank.controller import (
    IdealTrajectory,
    SingleEsoAdrc,
    Supervisor,
    adrc_law,
    reference_from_config,
    reference_sup_bound,
)
from esobank.errors import ConfigError, DivergenceError
from esobank.harness import ScenarioConfig, make_preset, run_scenario
from esobank.observer import Leso
from esobank.plant import ChainPlant
from esobank.polynomials import PoleSpec, char_poly
from esobank.signals import Constant, Move, Polynomial, Sinusoid
from esobank.verify import bitwise_single_eso, single_eso_oracle


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def test_constant_reference():
    ref = Constant(10.0)
    assert ref.value(3.0) == 10.0
    assert ref.derivatives(1.0, 4) == [10.0, 0.0, 0.0, 0.0]
    assert ref.sup_derivative(0) == 10.0
    assert ref.sup_derivative(2) == 0.0
    assert reference_sup_bound(ref, 4) == 10.0


def test_sinusoid_reference_derivatives():
    ref = Sinusoid(2.0, 3.0, phase=0.3, offset=1.0)
    for order in range(4):
        t = 0.42
        fd = (ref.derivative(t + 1e-6, order) - ref.derivative(t - 1e-6, order)) / 2e-6
        assert fd == pytest.approx(ref.derivative(t, order + 1), rel=1e-4)
    assert ref.sup_derivative(2) == pytest.approx(2.0 * 9.0)


def test_polynomial_reference():
    ref = Polynomial((1.0, 2.0, 3.0))  # 1 + 2t + 3t^2
    assert ref.value(2.0) == pytest.approx(17.0)
    assert ref.derivative(2.0, 1) == pytest.approx(14.0)
    assert ref.derivative(2.0, 2) == pytest.approx(6.0)
    assert ref.derivative(2.0, 3) == 0.0
    assert ref.sup_derivative(2) == 6.0
    assert math.isinf(ref.sup_derivative(1))


def test_move_reference_profile():
    ref = Move(0.0, [{"t_start": 0.1, "t_move": 0.2, "target": 5.0}])
    assert ref.value(0.0) == 0.0
    assert ref.value(0.1) == pytest.approx(0.0)
    assert ref.value(0.2) == pytest.approx(2.5)  # midpoint of minimum jerk
    assert ref.value(0.3) == pytest.approx(5.0)
    assert ref.value(1.0) == 5.0
    # velocity is continuous and zero at both ends
    assert ref.derivative(0.1, 1) == pytest.approx(0.0)
    assert ref.derivative(0.3, 1) == pytest.approx(0.0, abs=1e-9)
    peak_v = ref.sup_derivative(1)
    assert peak_v == pytest.approx(1.875 * 5.0 / 0.2, rel=1e-4)
    for order in (1, 2, 3):
        t = 0.17
        fd = (ref.derivative(t + 1e-7, order - 1) - ref.derivative(t - 1e-7, order - 1)) / 2e-7
        assert fd == pytest.approx(ref.derivative(t, order), rel=1e-5)
    assert ref.derivative(0.15, 6) == 0.0


def test_move_reference_sup_derivative_is_the_exact_peak():
    # unit move over unit time: the peaks of s^(k) on [0, 1] in closed form;
    # the acceleration peak sits off any uniform grid, at tau = 1/2 - sqrt(3)/6
    ref = Move(0.0, [{"t_start": 0.0, "t_move": 1.0, "target": 1.0}])
    exact = {1: 1.875, 2: 10.0 / math.sqrt(3.0), 3: 60.0, 4: math.inf,
             5: math.inf}
    for order, peak in exact.items():
        assert ref.sup_derivative(order) == pytest.approx(peak, rel=1e-12)
    # span and amplitude scale the order-k bound by |target - start| / span^k
    scaled = Move(1.0, [{"t_start": 0.3, "t_move": 0.5, "target": -2.0}])
    assert scaled.sup_derivative(2) == pytest.approx(3.0 * exact[2] / 0.25,
                                                     rel=1e-12)


def test_move_reference_multi_segment_and_validation():
    ref = Move(0.0, [
        {"t_start": 0.0, "t_move": 0.1, "target": 1.0},
        {"t_start": 0.5, "t_move": 0.1, "target": -1.0},
    ])
    assert ref.value(0.3) == 1.0
    assert ref.value(0.8) == -1.0
    with pytest.raises(ConfigError):
        Move(0.0, [
            {"t_start": 0.0, "t_move": 0.3, "target": 1.0},
            {"t_start": 0.1, "t_move": 0.1, "target": 2.0},
        ])
    with pytest.raises(ConfigError):
        Move(0.0, [{"t_start": 0.0, "t_move": -1.0, "target": 1.0}])


def test_reference_config_round_trip():
    for cfg in (
        {"kind": "constant", "value": 10.0},
        {"kind": "sinusoid", "amplitude": 1.0, "omega": 2.0, "phase": 0.0,
         "offset": 0.0},
        {"kind": "poly", "coeffs": [0.0, 1.0]},
        {"kind": "move", "start": 0.0,
         "segments": [{"t_start": 0.1, "t_move": 0.2, "target": 5.0}]},
    ):
        ref = reference_from_config(cfg)
        assert ref.to_config() == cfg
    with pytest.raises(ConfigError):
        reference_from_config({"kind": "nope"})


# ---------------------------------------------------------------------------
# ideal trajectory
# ---------------------------------------------------------------------------


def test_ideal_trajectory_holds_equilibrium():
    char = char_poly(PoleSpec(((150.0, 2),)))
    traj = IdealTrajectory(char.gain_row, [10.0, 0.0])
    ref = Constant(10.0)
    for _ in range(200):
        traj.step(ref, 1e-4)
    assert traj.x == [10.0, 0.0]


def test_ideal_trajectory_critically_damped_settling():
    # offset start, constant reference: e1*(t) = (1 + 150 t) exp(-150 t),
    # which passes 2% at about 0.039 s
    char = char_poly(PoleSpec(((150.0, 2),)))
    ref = Constant(10.0)
    traj = IdealTrajectory(char.gain_row, [11.0, 0.0])
    dt = 1e-5
    at_35ms = at_45ms = None
    for k in range(round(0.05 / dt)):
        traj.step(ref, dt)
        t = (k + 1) * dt
        closed_form = (1 + 150 * t) * math.exp(-150 * t)
        assert traj.x[0] - 10.0 == pytest.approx(closed_form, abs=1e-9)
        if abs(t - 0.035) < dt / 2:
            at_35ms = traj.x[0] - 10.0
        if abs(t - 0.045) < dt / 2:
            at_45ms = traj.x[0] - 10.0
    assert at_35ms > 0.02
    assert at_45ms < 0.02


def test_ideal_trajectory_tracks_sinusoid_from_matched_start():
    # starting exactly on the reference trajectory keeps the ideal error zero
    ref = Sinusoid(1.0, 5.0)
    char = char_poly(PoleSpec(((150.0, 2),)))
    traj = IdealTrajectory(char.gain_row, [ref.value(0.0), ref.derivative(0.0, 1)])
    for k in range(2000):
        traj.step(ref, 1e-4)
    t = traj.t
    assert traj.x[0] == pytest.approx(ref.value(t), abs=1e-8)


@st.composite
def _trajectory_case(draw):
    """n in 1..4, distinct poles in [3, 36] whose degrees add up to n, a
    start time, eps(t0), and a reference whose r^(n-1) is continuous."""
    n = draw(st.integers(1, 4))
    degrees = []
    while sum(degrees) < n:
        degrees.append(draw(st.integers(1, n - sum(degrees))))
    # each pole at least 4/3 times the one before
    poles = tuple((3.0 * 2.0**i * draw(st.floats(1.0, 1.5)), d)
                  for i, d in enumerate(degrees))
    kinds = [
        st.builds(Constant, st.floats(-5.0, 5.0)),
        st.builds(Sinusoid, st.floats(-2.0, 2.0), st.floats(0.5, 10.0),
                  st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)),
        st.builds(Polynomial, st.lists(st.floats(-1.0, 1.0), min_size=1,
                                       max_size=4)),
    ]
    if n <= 3:
        kinds.append(st.builds(
            lambda start, t_start, span, target: Move(start, [
                {"t_start": t_start, "t_move": span, "target": target}]),
            st.floats(-1.0, 1.0), st.floats(0.0, 0.3), st.floats(0.1, 0.3),
            st.floats(-2.0, 2.0)))
    ref = draw(st.one_of(kinds))
    t0 = draw(st.floats(0.0, 0.5))
    eps0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return poles, t0, eps0, ref


# RK4 at h = 5e-4 against DOP853 at rtol 1e-11: the error bound, relative
# to 1 + the component's largest magnitude over the run. At h = 1e-3 RK4's
# own truncation reached 5.3e-8 on four simple poles (4.5, 9, 18, 36) with
# eps(0) = (-1, 1, 1, -1); at 5e-4 the worst of a grid over the drawn pole
# and eps(0) range was 3.2e-9.
TRAJECTORY_RTOL = 1e-8


@settings(max_examples=40, deadline=None)
@given(case=_trajectory_case())
# eps stays 0, so x* = r exactly; without a step cap DOP853's dense output
# at t_eval was off by 2.2e-8 here
@example(case=(((3.9375, 1),), 0.025390625, [0.0],
               Sinusoid(1.0, 7.5, 0.125, 0.0)))
# eps stays 0 here too; integrated across the move's jerk jumps, DOP853
# was off by 3.1e-7
@example(case=(((3.09375, 1),), 0.140625, [0.0], Move(0.0, [
    {"t_start": 0.14420966437036836, "t_move": 0.1, "target": 1.5}])))
# drawn when the step was 1e-3, where RK4's truncation in the last
# component of x* was 1.3e-8
@example(case=(((3.0, 1), (6.0, 1), (12.0, 1), (36.0, 1)), 0.0,
               [0.0, 0.0, 1.0, 0.0], Constant(0.0)))
def test_ideal_trajectory_solves_the_forced_closed_loop(case):
    # x*^(n) = r^(n) - k.(x* - r), solved directly, against x* = r + eps
    poles, t0, eps0, ref = case
    char = char_poly(PoleSpec(poles))
    n, dt, steps = char.order, 5e-4, 1000
    x0 = [r + e for r, e in zip(ref.derivatives(t0, n), eps0)]

    def forced(t, x):
        r = ref.derivatives(t, n + 1)
        last = r[n] - sum(k * (xi - ri) for k, xi, ri in zip(char.gain_row, x, r))
        return [*x[1:], last]

    checks = range(100, steps + 1, 100)
    times = [t0 + k * dt for k in checks]
    # one solve per piece between a move's jerk jumps, each started from the
    # end state of the one before
    jumps = sorted({t for seg in getattr(ref, "segments", ())
                    for t in (seg["t_start"], seg["t_start"] + seg["t_move"])
                    if t0 < t < times[-1]})
    exact, start = [], x0
    for lo, hi in zip([t0, *jumps], [*jumps, times[-1]]):
        inside = [t for t in times if lo < t < hi]
        y = solve_ivp(forced, (lo, hi), start, method="DOP853",
                      t_eval=inside + [hi], rtol=1e-11, atol=1e-12,
                      max_step=100 * dt).y
        exact.append(y[:, :len(inside) + (hi in times)])
        start = y[:, -1]
    exact = np.hstack(exact)
    traj = IdealTrajectory(char.gain_row, x0, t0=t0)
    got = []
    for k in range(1, steps + 1):
        traj.step(ref, dt)
        if k in checks:
            assert traj.t == t0 + k * dt
            got.append(traj.x)
            # the supervisor's read of x1* and the oracle's agree bit for bit
            assert traj.x1(ref.value(traj.t)) == got[-1][0]
    got = np.array(got).T
    scale = 1.0 + np.max(np.abs(exact), axis=1, keepdims=True)
    assert np.all(np.abs(got - exact) <= TRAJECTORY_RTOL * scale)


def test_x1_star_is_the_reference_exactly_from_a_start_on_it():
    # paper-p2p-r10 starts at rest on r, so eps stays exactly 0 through the
    # first move (0.198 to 0.448 s) and x1* reads r1 unchanged
    data = make_preset("paper-p2p-r10").to_dict()
    data.update(duration=0.5, run_baselines=False)
    trace, _ = run_scenario(ScenarioConfig.from_dict(data))
    assert trace.data["x1_star"] == trace.data["r"]
    assert trace.data["ebar1"] == trace.data["e1"]


# ---------------------------------------------------------------------------
# control law
# ---------------------------------------------------------------------------


def test_adrc_law_zero_estimates():
    assert adrc_law([0.0, 0.0, 0.0], (22500.0, 300.0), 3.25) == 0.0


def test_adrc_law_arithmetic():
    u = adrc_law([1.0, 0.0, 5.0], (22500.0, 300.0), 3.25)
    assert u == pytest.approx((-22500.0 * 1.0 - 300.0 * 0.0 - 5.0) / 3.25)
    assert u == pytest.approx(-6924.615384615385)


def test_adrc_law_uses_only_first_n_plus_one_estimates():
    base = adrc_law([1.0, 2.0, 3.0, 4.0], (22500.0, 300.0), 3.25)
    perturbed = adrc_law([1.0, 2.0, 3.0, 999.0], (22500.0, 300.0), 3.25)
    assert base == perturbed
    with pytest.raises(ValueError):
        adrc_law([1.0, 2.0], (22500.0, 300.0), 3.25)
    with pytest.raises(ConfigError):
        adrc_law([1.0, 2.0, 3.0], (22500.0, 300.0), 0.0)


def test_perfect_estimates_keep_output_on_ideal_trajectory():
    # feeding the law the true error state reproduces the ideal closed loop:
    # from an equilibrium start the tracking deviation stays exactly zero
    char = char_poly(PoleSpec(((150.0, 2),)))
    ref = Constant(10.0)
    plant = ChainPlant(2, 3.25, x0=[10.0, 0.0])
    traj = IdealTrajectory(char.gain_row, [10.0, 0.0])
    for _ in range(500):
        e = (plant.x[0] - 10.0, plant.x[1], 0.0)
        u = adrc_law(e, char.gain_row, 3.25)
        plant.step(u, 1e-4)
        traj.step(ref, 1e-4)
        assert plant.y - traj.x[0] == 0.0


def test_perfect_estimates_dynamic_transient():
    # with an offset start the true-state law still shadows the ideal
    # trajectory to discretization accuracy
    char = char_poly(PoleSpec(((150.0, 2),)))
    ref = Constant(10.0)
    plant = ChainPlant(2, 3.25, x0=[0.0, 0.0])
    traj = IdealTrajectory(char.gain_row, [0.0, 0.0])
    dt = 1e-5
    worst = 0.0
    for _ in range(round(0.1 / dt)):
        e = (plant.x[0] - 10.0, plant.x[1], 0.0)
        u = adrc_law(e, char.gain_row, 3.25)
        plant.step(u, dt)
        traj.step(ref, dt)
        worst = max(worst, abs(plant.y - traj.x[0]))
    assert worst < 1e-3 * 10.0


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------


def _make_loop(observers, window=20, dt=1e-4, inject=None):
    char = char_poly(PoleSpec(((150.0, 2),)))
    ref = Constant(10.0)
    plant = ChainPlant(2, 3.25, x0=[10.0, 0.0],
                       disturbance=Sinusoid(4.0, 2 * math.pi))
    e1_0 = plant.y - ref.value(0.0)
    bank = []
    for j, (order, omega) in enumerate(observers):
        init = inject[j] if inject else ()
        bank.append(Leso(2, order - 2, omega, 3.25, e1_initial=e1_0,
                         initial_estimates=init))
    traj = IdealTrajectory(char.gain_row, plant.tracking_state)
    if len(bank) == 1:
        ctrl = SingleEsoAdrc(char, 3.25, ref, traj, bank[0], dt)
    else:
        ctrl = Supervisor(char, 3.25, ref, traj, bank, dt, window=window)
    return plant, ctrl


def _run(plant, ctrl, steps, dt=1e-4):
    records = []
    y = plant.y
    for k in range(steps + 1):
        rec = ctrl.evaluate(y)
        records.append(rec)
        if k < steps:
            plant.step(rec.u, dt)
            y = plant.y
    return records


def test_supervisor_single_bank_is_bitwise_single_eso():
    plant, single = _make_loop([(3, 1500.0)], window=20)
    records = _run(plant, single, 3000)
    oracle_plant, parts = _make_loop([(3, 1500.0)], window=20)
    oracle = single_eso_oracle(oracle_plant, parts.char, parts.reference,
                               parts.bank[0], 1e-4, 3000)
    assert [rec.u for rec in records] == oracle["u"]
    assert [rec.y for rec in records] == oracle["y"]
    assert [rec.ebar1 for rec in records] == oracle["ebar1"]
    assert [rec.z[0] for rec in records] == oracle["z_0"]


def test_bitwise_criterion_catches_a_raw_measurement_feed(monkeypatch):
    # the oracle does not run through Supervisor, so a Supervisor that feeds
    # its observers the raw e1 instead of the trapezoidal average must fail
    # the bitwise criterion
    assert bitwise_single_eso()
    evaluate = Supervisor.evaluate

    def raw_feed(self, y):
        if self._pending is not None:
            _, et_prev, u_prev = self._pending
            # 0.5 * (e1 + e1) is e1 exactly
            e1 = y - self.reference.value(self.t + self.dt)
            self._pending = (e1, et_prev, u_prev)
        return evaluate(self, y)

    monkeypatch.setattr(Supervisor, "evaluate", raw_feed)
    assert not bitwise_single_eso()


def test_supervisor_identical_observers_never_switch():
    plant, sup = _make_loop([(3, 1500.0), (3, 1500.0)], window=20)
    records = _run(plant, sup, 2000)
    for rec in records:
        assert rec.z[0] == rec.z[1]
        assert rec.active == 0
    assert sup.switch_count == 0


def test_supervisor_deselects_corrupted_initialization_in_first_window():
    # one observer starts with a wildly wrong disturbance estimate; the
    # supervisor must select the clean one at the first window boundary
    plant, sup = _make_loop(
        [(3, 1500.0), (3, 1500.0)], window=20,
        inject=[(0.0, 1000.0), (0.0, 0.0)],
    )
    records = _run(plant, sup, 22)
    assert records[18].active == 0  # before the first boundary
    assert records[20].active == 1
    assert sup.switch_count == 1


def test_supervisor_output_ignores_higher_extended_states_instantaneously():
    plant_a, sup_a = _make_loop([(4, 800.0), (3, 1500.0)])
    plant_b, sup_b = _make_loop([(4, 800.0), (3, 1500.0)])
    sup_b.bank[0].e_hat[3] += 50.0  # beyond the n+1 estimates the law uses
    rec_a = sup_a.evaluate(plant_a.y)
    rec_b = sup_b.evaluate(plant_b.y)
    assert rec_a.active == rec_b.active == 0
    assert rec_a.u == rec_b.u
    # but the estimate evolution differs afterwards
    ra = _run(plant_a, sup_a, 200)
    rb = _run(plant_b, sup_b, 200)
    assert ra[-1].u != rb[-1].u


def test_supervisor_drops_diverged_observer_and_continues():
    # the corrupted observer is deselected at the first boundary, then blows
    # up in the background (it keeps integrating the applied input); the
    # supervisor must drop it and carry on with the healthy one
    char = char_poly(PoleSpec(((150.0, 2),)))
    ref = Constant(10.0)
    plant = ChainPlant(2, 3.25, x0=[10.0, 0.0],
                       disturbance=Sinusoid(4.0, 2 * math.pi))
    healthy = Leso(2, 1, 1500.0, 3.25, e1_initial=0.0)
    unstable = Leso(2, 1, 100.0, 3.25, e1_initial=0.0,
                    initial_estimates=(0.0, 1000.0),
                    beta=(-1e4, -1e8, -1e12))
    traj = IdealTrajectory(char.gain_row, plant.tracking_state)
    sup = Supervisor(char, 3.25, ref, traj, [unstable, healthy], 1e-4, window=20)
    records = _run(plant, sup, 4000)
    assert sup.alive == [False, True]
    assert records[-1].active == 1
    assert math.isfinite(records[-1].u)


def test_supervisor_raises_when_every_observer_diverges():
    # clamp the drive so the plant stays bounded while the only observer
    # destroys itself; the supervisor must refuse to continue
    char = char_poly(PoleSpec(((150.0, 2),)))
    ref = Constant(10.0)
    plant = ChainPlant(2, 3.25, x0=[10.0, 0.0])
    bad = Leso(2, 1, 100.0, 3.25, e1_initial=0.0,
               initial_estimates=(0.0, 1.0), beta=(-1e4, -1e8, -1e12))
    traj = IdealTrajectory(char.gain_row, plant.tracking_state)
    sup = Supervisor(char, 3.25, ref, traj, [bad], 1e-4, window=20,
                     u_limit=1.0)
    with pytest.raises(DivergenceError):
        _run(plant, sup, 5000)


def test_supervisor_clamps_control_when_configured():
    plant, sup = _make_loop([(3, 1500.0), (4, 1500.0)])
    sup.u_limit = 0.5
    records = _run(plant, sup, 500)
    assert all(abs(rec.u) <= 0.5 for rec in records)


def test_supervisor_rejects_empty_bank():
    char = char_poly(PoleSpec(((150.0, 2),)))
    with pytest.raises(ConfigError):
        Supervisor(char, 3.25, Constant(0.0),
                   IdealTrajectory(char.gain_row, [0.0, 0.0]), [], 1e-4)
