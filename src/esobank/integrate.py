"""Fixed-step classical Runge-Kutta integration on plain float lists.

State vectors here are small (2-6 entries), so plain Python lists beat
numpy arrays on per-step overhead by a wide margin.
"""

import numpy as np


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


class LinearBlock:
    """x' = A x + B w with the scalar input w held over each step, advanced
    by the exact map of one classical RK4 step: x+ = P x + Q w, where
    S = I + hA/2 + (hA)^2/6 + (hA)^3/24, P = I + hA S and Q = S hB. numpy
    builds the map whenever the step size changes; ``step`` applies it as
    plain-float rows."""

    def __init__(self, a, b):
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float).reshape(len(self.a), 1)
        self._dt = None

    def step(self, x, w, dt):
        if dt != self._dt:
            ha = dt * self.a
            eye = np.eye(len(ha))
            s = eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0
            p, q = eye + ha @ s, s @ (dt * self.b)
            self._rows = list(zip(map(tuple, p.tolist()), q[:, 0].tolist()))
            self._dt = dt
        # a plain loop: sum() of floats rounds differently from Python 3.12 on
        out = []
        for row, qi in self._rows:
            acc = qi * w
            for p, xi in zip(row, x):
                acc += p * xi
            out.append(acc)
        return out
