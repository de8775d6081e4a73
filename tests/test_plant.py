"""Plant models: integrator chain with injectable disturbance, and the
two-mass flexure stage with Karnopp stick-slip friction."""

import math

import numpy as np
import pytest

from esobank.errors import ConfigError, DivergenceError
from esobank.plant import (
    ChainPlant,
    FrictionParams,
    RfcPlant,
    disturbance_from_config,
)
from esobank.signals import Constant, Sinusoid, Step, StickSlip, Sum


def test_chain_equilibrium():
    plant = ChainPlant(2, 3.25)
    for _ in range(100):
        plant.step(0.0, 1e-3)
    assert plant.x == [0.0, 0.0]


def test_chain_double_integrator_closed_form():
    # unit acceleration: x1 = t^2/2, x2 = t (RK4 is exact for polynomials)
    plant = ChainPlant(2, 3.25)
    for _ in range(100):
        plant.step(1.0 / 3.25, 1e-3)
    assert plant.x[0] == pytest.approx(0.1**2 / 2, abs=1e-12)
    assert plant.x[1] == pytest.approx(0.1, abs=1e-12)


def test_chain_disturbance_and_input_are_symmetric():
    driven = ChainPlant(2, 3.25)
    disturbed = ChainPlant(2, 3.25, disturbance=Constant(1.0))
    for _ in range(50):
        driven.step(1.0 / 3.25, 1e-3)
        disturbed.step(0.0, 1e-3)
    assert driven.x == pytest.approx(disturbed.x, rel=1e-12)


def test_chain_rk4_convergence_order():
    # fast smooth disturbance so truncation error sits well above roundoff
    def final_state(dt):
        plant = ChainPlant(
            2, 1.0,
            disturbance=lambda x, t: 400 * math.sin(40 * t) + 5 * math.cos(3 * x[0]),
        )
        for _ in range(round(0.2 / dt)):
            plant.step(5.0, dt)
        return np.array(plant.x)

    reference = final_state(1e-5)
    err_coarse = np.max(np.abs(final_state(8e-4) - reference))
    err_fine = np.max(np.abs(final_state(4e-4) - reference))
    order = math.log2(err_coarse / err_fine)
    assert order >= 3.7, f"observed convergence order {order:.2f}"


def test_chain_divergence_detection():
    # unstable linear feedback grows exponentially to inf
    plant = ChainPlant(2, 1.0, disturbance=lambda x, t: 1e6 * x[0], x0=[1.0, 0.0])
    with pytest.raises(DivergenceError):
        for _ in range(2000):
            plant.step(0.0, 1e-3)


def test_chain_probe_reports_lumped_disturbance():
    plant = ChainPlant(2, 3.25, disturbance=Sinusoid(1.0, 1.0))
    assert plant.total_disturbance(0.0) == pytest.approx(math.sin(0.0))
    plant.step(0.0, 0.25)
    expected = math.sin(plant.t)
    assert plant.total_disturbance(0.0) == pytest.approx(expected)
    assert plant.total_disturbance(0.3) == pytest.approx(expected - 0.3)


def test_disturbance_derivatives_and_bounds():
    sin = Sinusoid(2.0, 3.0, phase=0.4)
    for order in range(4):
        t = 0.7
        fd = (sin.derivative(t + 1e-6, order) - sin.derivative(t - 1e-6, order)) / 2e-6
        assert fd == pytest.approx(sin.derivative(t, order + 1), rel=1e-4)
        assert abs(sin.derivative(t, order)) <= sin.sup_derivative(order) + 1e-12

    step = Step(0.5, 2.0, base=1.0)
    assert step(None, 0.4) == 1.0
    assert step(None, 0.6) == 3.0
    assert math.isinf(step.sup_derivative(1))

    total = Sum([sin, Constant(5.0)])
    assert total(None, 0.2) == pytest.approx(sin(None, 0.2) + 5.0)
    assert total.sup_derivative(1) == sin.sup_derivative(1)

    sticky = StickSlip()
    assert sticky((0.0, 0.0), 0.0) == 0.0
    assert sticky((0.0, 1.0), 0.0) < 0  # opposes motion
    with pytest.raises(ValueError):
        sticky.derivative(0.0, 1)


def test_disturbance_config_round_trip():
    for cfg in (
        {"kind": "constant", "level": 2.0},
        {"kind": "sinusoid", "amplitude": 1.0, "omega": 3.0, "phase": 0.1,
         "offset": 0.5},
        {"kind": "step", "t_step": 0.5, "amplitude": 2.0, "base": 0.0},
        {"kind": "stick_slip", "f_coulomb": 8.0, "f_static": 12.0,
         "v_stribeck": 0.002, "sigma_viscous": 10.0, "v_smooth": 1e-4},
    ):
        dist = disturbance_from_config(cfg)
        assert dist.to_config() == cfg
    with pytest.raises(ConfigError):
        disturbance_from_config({"kind": "nope"})


def test_rfc_equilibrium():
    plant = RfcPlant()
    for _ in range(100):
        plant.step(0.0, 1e-4)
    assert (plant.x_s, plant.v_s, plant.x_f, plant.v_f) == (0.0, 0.0, 0.0, 0.0)


def test_rfc_clamped_frame_oscillation_period():
    # frictionless, frame clamped (infinite mass), undamped: the stage is a
    # pure harmonic oscillator at sqrt(k/m_s)
    plant = RfcPlant(
        m_f=math.inf, c=0.0,
        friction=FrictionParams(0.0, 0.0, 1.0, 0.0, 1e-4),
        x0=(1e-3, 0.0, 0.0, 0.0),
    )
    dt = 1e-5
    period = 2 * math.pi * math.sqrt(plant.m_s / plant.k)
    crossings = []
    prev = plant.x_s
    for k in range(int(10.5 * period / dt)):
        plant.step(0.0, dt)
        if prev < 0.0 <= plant.x_s:
            frac = -prev / (plant.x_s - prev)
            crossings.append((k + frac) * dt)
        prev = plant.x_s
    assert len(crossings) >= 10
    measured = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    assert measured == pytest.approx(period, rel=1e-3)
    assert plant.x_f == 0.0 and plant.v_f == 0.0


def test_rfc_dead_zone_static_deflection():
    # small input: transmitted force stays below breakaway, the frame never
    # moves, and the stage settles at ka_ks*u/k
    plant = RfcPlant()
    u = 0.05
    assert plant.ka_ks * u < plant.friction.f_static
    for _ in range(20000):
        plant.step(u, 1e-4)
    assert plant.x_f == 0.0
    assert plant.v_f == 0.0
    assert plant.x_s == pytest.approx(plant.ka_ks * u / plant.k, rel=1e-6)


def test_rfc_karnopp_no_chatter():
    # canonical stick-slip scenario: a slow sinusoidal drive sweeps the frame
    # back and forth, re-latching it near each reversal. The frame velocity
    # must be exactly zero through every stick interval and must not change
    # sign within a slip episode. The dead band is widened so re-latching is
    # resolvable at the test step size.
    plant = RfcPlant(friction=FrictionParams(v_dead=1e-3))
    dt = 1e-4
    n = 80000  # two full drive cycles at 0.25 Hz
    vf = []
    for k in range(n):
        u = 5.0 * math.sin(2 * math.pi * 0.25 * k * dt)
        plant.step(u, dt)
        vf.append(plant.v_f)
    vf = np.array(vf)
    stuck = vf == 0.0
    assert stuck.sum() > 1000, "expected substantial stick intervals"
    episodes = 0
    k = 0
    while k < n:
        if not stuck[k]:
            j = k
            while j < n and not stuck[j]:
                j += 1
            segment = vf[k:j]
            episodes += 1
            signs = np.sign(segment)
            assert np.all(signs == signs[0]), "frame velocity flipped mid-slip"
            k = j
        else:
            k += 1
    assert episodes >= 3, "expected repeated stick-slip events"


def test_rfc_reduces_to_chain_with_frame_locked():
    fric = FrictionParams(0.0, 0.0, 1.0, 0.0, 1e-4)
    rfc = RfcPlant(m_f=math.inf, friction=fric)
    k, c, m_s = rfc.k, rfc.c, rfc.m_s
    chain = ChainPlant(
        2, rfc.b,
        disturbance=lambda x, t: (k * (0.0 - x[0]) + c * (0.0 - x[1])) / m_s,
    )
    dt = 1e-4
    worst = 0.0
    for step in range(10000):
        u = math.sin(2 * math.pi * 1.0 * step * dt)
        rfc.step(u, dt)
        chain.step(u, dt)
        worst = max(worst, abs(rfc.x_s - chain.x[0]), abs(rfc.v_s - chain.x[1]))
    assert worst < 1e-10, f"models diverged by {worst:.2e}"


def test_rfc_probe_matches_flexure_force():
    plant = RfcPlant(x0=(0.0, 0.0, 1e-3, 0.0))
    expected = plant.k * 1e-3 / plant.m_s
    assert plant.total_disturbance(0.0) == pytest.approx(expected)
    assert plant.total_disturbance(0.2) == pytest.approx(expected - 0.2)


def test_plant_validation():
    with pytest.raises(ConfigError):
        ChainPlant(2, 0.0)
    with pytest.raises(ConfigError):
        ChainPlant(0, 1.0)
    with pytest.raises(ConfigError):
        ChainPlant(2, 1.0, x0=[1.0])
    with pytest.raises(ConfigError):
        RfcPlant(m_s=-1.0)
    with pytest.raises(ConfigError):
        FrictionParams(f_coulomb=5.0, f_static=1.0)
