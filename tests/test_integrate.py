"""Held-input linear blocks: the precomputed step map is one RK4 step of
(A, B), and its P is exp(hA) up to the RK4 truncation term."""

import importlib
import math
import pkgutil

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from esobank.evaluator import companion_matrix
from esobank.integrate import LinearBlock, rk4_step
from esobank.observer import observer_matrix
from esobank.polynomials import leso_gains


def _scaled_inf_norm(matrix, scale):
    """inf-norm of D^-1 M D, D = diag(scale): the norm in which a
    bandwidth-omega block's entries are all of order one."""
    return float(np.max(np.sum(np.abs(matrix * scale / scale[:, None]),
                               axis=1)))


@settings(deadline=None)
@given(
    order=st.integers(2, 6),
    omega=st.floats(1.0, 1e4),
    h_omega=st.floats(1e-2, 0.5),
    observer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_map_is_rk4_and_near_expm(order, omega, h_omega, observer, seed):
    beta = leso_gains(order, omega)
    if observer:  # a LESO block: estimates of order omega^i
        a = observer_matrix(beta)
        scale = omega ** np.arange(order, dtype=float)
    else:  # a z-filter block: states of order omega^-(order-1-i)
        a = companion_matrix(tuple(reversed(beta)))
        scale = omega ** -np.arange(order - 1, -1, -1, dtype=float)
    rng = np.random.default_rng(seed)
    b = rng.uniform(-5.0, 5.0, order) * scale
    x = list(rng.uniform(-1.0, 1.0, order) * scale)
    w = float(rng.uniform(-1.0, 1.0))
    dt = h_omega / omega
    block = LinearBlock(a, b)

    got = np.array(block.step(x, w, dt))
    want = np.array(rk4_step(lambda y, t: list(a @ y + b * w), x, 0.0, dt))
    size = max(np.max(np.abs(x) / scale), abs(w))
    assert np.max(np.abs(got - want) / scale) <= 1e-12 * size

    # P is the first column block of the map: step unit vectors with w = 0
    p = np.array([block.step(list(e), 0.0, dt) for e in np.eye(order)]).T
    r = _scaled_inf_norm(dt * a, scale)
    truncation = math.exp(r) - sum(r**k / math.factorial(k) for k in range(5))
    assert _scaled_inf_norm(p - expm(dt * a), scale) <= truncation


def test_rk4_step_is_bound_only_in_the_plant_module():
    # observers, z-filters and x* step through LinearBlock maps; only the
    # nonlinear plants integrate with the generic RK4 step
    package = importlib.import_module("esobank")
    modules = [package] + [importlib.import_module(f"esobank.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    holders = {mod.__name__ for mod in modules
               if any(value is rk4_step for value in vars(mod).values())}
    assert holders == {"esobank.integrate", "esobank.plant"}
