"""Fixed-step classical Runge-Kutta integration on plain float lists.

State vectors here are small (2-6 entries), so plain Python lists beat
numpy arrays on per-step overhead by a wide margin.
"""


def rk4_step(deriv, y, t, dt):
    """One RK4 step of dy/dt = deriv(y, t) from time t over dt."""
    half = 0.5 * dt
    k1 = deriv(y, t)
    k2 = deriv([yi + half * ki for yi, ki in zip(y, k1)], t + half)
    k3 = deriv([yi + half * ki for yi, ki in zip(y, k2)], t + half)
    k4 = deriv([yi + dt * ki for yi, ki in zip(y, k3)], t + dt)
    s = dt / 6.0
    return [
        yi + s * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]
