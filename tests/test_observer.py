"""Extended state observers: update structure, drift-free tracking,
disturbance convergence, and the estimation-error envelopes."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from esobank.observer import (
    Leso,
    bound_tail_coefficient,
    bound_tail_max,
    contraction_norm_profile,
    error_contraction_matrix,
    estimation_error_bound,
    inf_norm,
    scaled_error_bound,
)
from esobank.plant import ChainPlant
from esobank.polynomials import leso_gains
from esobank.signals import Constant, Sinusoid


def test_third_order_update_rows():
    omega = 700.0
    b = 3.25
    leso = Leso(2, 1, omega, b, e1_initial=0.3, initial_estimates=(0.1, -0.2))
    a, b_col = leso.block.a, leso.block.b
    assert a.tolist() == [[-3 * omega, 1.0, 0.0],
                          [-3 * omega**2, 0.0, 1.0],
                          [-omega**3, 0.0, 0.0]]
    assert b_col.tolist() == [[0.0], [b], [0.0]]
    # stepped relative to the held measurement, A xi + B u is the estimate
    # dynamics
    e1, u = 0.9, 1.7
    d = a @ (np.array(leso.e_hat) - [e1, 0.0, 0.0]) + b_col[:, 0] * u
    innov = e1 - 0.3
    assert d[0] == pytest.approx(0.1 + 3 * omega * innov)
    assert d[1] == pytest.approx(-0.2 + 3 * omega**2 * innov + b * u)
    assert d[2] == pytest.approx(omega**3 * innov)


def test_fourth_order_gains_follow_binomial():
    omega = 900.0
    leso = Leso(2, 2, omega, 1.0)
    assert leso.beta == (4 * omega, 6 * omega**2, 4 * omega**3, omega**4)


def test_perfect_initialization_stays_locked():
    # zero forcing (constant disturbance cancelled by constant input) and
    # exact initial estimates: the estimation error must stay at roundoff
    c, b = 2.0, 3.25
    plant = ChainPlant(2, b, x0=[5.0, 0.0],
                       disturbance=Constant(c))
    u = -c / b
    leso = Leso(2, 1, 400.0, b, e1_initial=5.0, initial_estimates=(0.0, c))
    for _ in range(5000):
        plant.step(u, 1e-4)
        leso.step(plant.y, u, 1e-4)
        assert plant.x == [5.0, 0.0]
    e_true = (5.0, 0.0, c)
    for est, true in zip(leso.e_hat, e_true):
        assert est == pytest.approx(true, abs=1e-10)


def test_constant_disturbance_estimate_converges():
    # free double integrator under a constant disturbance: the extended state
    # converges to the disturbance with zero steady error
    c, b, omega = 4.0, 3.25, 50.0
    plant = ChainPlant(2, b, disturbance=Constant(c))
    leso = Leso(2, 1, omega, b, e1_initial=0.0)
    dt = 1e-4
    horizon = round(0.5 / dt)
    settle = round(1.5 * (10.0 / omega) / dt)
    worst_after_settle = 0.0
    for k in range(horizon):
        plant.step(0.0, dt)
        leso.step(plant.y, 0.0, dt)
        if k >= settle:
            worst_after_settle = max(worst_after_settle, abs(leso.e_hat[2] - c))
    assert worst_after_settle < 1e-3 * abs(c)


def test_observer_divergence_flag():
    leso = Leso(2, 1, 100.0, 1.0, beta=(-1e4, -1e6, -1e8))
    for _ in range(5000):
        leso.step(1.0, 0.0, 1e-3)
        if leso.diverged:
            break
    assert leso.diverged


def test_tail_coefficients():
    assert bound_tail_coefficient(3, 1) == 1
    assert bound_tail_coefficient(3, 3) == 3
    assert bound_tail_coefficient(4, 4) == 4
    assert bound_tail_coefficient(4, 3) == 6
    assert bound_tail_max(3) == 3
    assert bound_tail_max(4) == 6
    with pytest.raises(ValueError):
        bound_tail_coefficient(3, 0)
    with pytest.raises(ValueError):
        bound_tail_coefficient(3, 4)


def test_estimation_error_bound_values():
    beta = leso_gains(3, 10.0)
    # no initial error, no forcing bounds: the envelope is zero
    for i in (1, 2, 3):
        assert estimation_error_bound(beta, 10.0, 0.0, 0.0, 0.0, 0.5, i) == 0.0
    # top state tail: (h1+h2) * G_order / omega_o
    assert estimation_error_bound(beta, 10.0, 0.0, 0.5, 0.5, 1.0, 3) == (
        pytest.approx(0.3)
    )
    assert scaled_error_bound(beta, 10.0, 0.0, 0.5, 0.5, 1.0) == (
        pytest.approx(3.0 / 10.0**3)
    )
    with pytest.raises(ValueError):
        estimation_error_bound(beta, -1.0, 0.0, 0.0, 0.0, 0.5, 1)


def test_contraction_matrix_and_norm_profile():
    omega = 40.0
    beta = leso_gains(3, omega)
    a = error_contraction_matrix(beta, omega)
    # binomial gains give eigenvalues all at -1
    eig = np.linalg.eigvals(a)
    assert np.allclose(eig, -1.0)
    # the norm profile matches direct exponentials
    profile = contraction_norm_profile(beta, omega, 1e-3, 50)
    for k in (0, 10, 50):
        direct = inf_norm(expm(omega * k * 1e-3 * a))
        assert profile[k] == pytest.approx(direct, rel=1e-9, abs=1e-12)
    assert profile[0] == 1.0


def test_bandwidth_scaling_reduces_disturbance_error():
    # doubling the bandwidth shrinks the steady-state sup of the extended
    # state error on a sinusoidal disturbance
    dist = Sinusoid(2.0, 2 * math.pi)
    ref = Constant(0.0)
    results = []
    dt = 2e-5  # fine enough that sampling effects stay below the envelope
    for omega in (200.0, 400.0, 800.0):
        plant = ChainPlant(2, 3.25, disturbance=Sinusoid(2.0, 2 * math.pi))
        leso = Leso(2, 1, omega, 3.25, e1_initial=0.0)
        sup = 0.0
        for k in range(round(1.0 / dt)):
            plant.step(0.0, dt)
            leso.step(plant.y - ref.value(plant.t), 0.0, dt)
            if k * dt > 0.7:
                truth = dist.derivative(plant.t, 0)
                sup = max(sup, abs(truth - leso.e_hat[2]))
        results.append(sup)
    assert results[0] > results[1] > results[2]


def test_leso_validation():
    with pytest.raises(ValueError):
        Leso(2, 0, 100.0, 1.0)
    with pytest.raises(ValueError):
        Leso(2, 1, 100.0, 0.0)
    with pytest.raises(ValueError):
        Leso(2, 1, 100.0, 1.0, beta=(1.0, 2.0))
    with pytest.raises(ValueError):
        Leso(2, 1, 100.0, 1.0, initial_estimates=(1.0, 2.0, 3.0))
