"""Linear extended state observers on tracking-error coordinates, plus the
estimation-error bound machinery used by the verification suite.

A LESO of order n+m estimates (e_1, ..., e_n, e_(n+1), ..., e_(n+m)) where
e_(n+1) is the lumped disturbance and higher entries its derivatives. The
first estimate is initialised to the measured e_1 exactly; the rest come from
configuration. Updates are one RK4 step of the linear estimate dynamics with
measurement and control held over the step, applied as its exact step map.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from .integrate import LinearBlock
from .polynomials import leso_gains


class Leso:
    """(n+m)-th order linear extended state observer.

    estimate dynamics:
        e_hat_i' = e_hat_(i+1) + beta_i (e_1 - e_hat_1)   (i < n+m)
        e_hat_n' gains the known input term b*u
        e_hat_(n+m)' = beta_(n+m) (e_1 - e_hat_1)

    By default beta is the binomial expansion of (s + omega_o)^(n+m); an
    explicit ``beta`` is accepted for deliberately detuned experiments.
    """

    def __init__(self, n, m, omega_o, b, e1_initial=0.0,
                 initial_estimates=(), beta=None):
        if m < 1:
            raise ValueError("extension order m must be >= 1")
        if b == 0:
            raise ValueError("input gain b must be nonzero")
        self.n = int(n)
        self.m = int(m)
        self.order = self.n + self.m
        self.omega_o = float(omega_o)
        self.b = float(b)
        self.beta = tuple(beta) if beta is not None else leso_gains(self.order, omega_o)
        if len(self.beta) != self.order:
            raise ValueError(
                f"beta has length {len(self.beta)}, expected {self.order}"
            )
        initial_estimates = tuple(initial_estimates)
        if len(initial_estimates) > self.order - 1:
            raise ValueError("too many initial estimates: e_hat_1 is measured")
        self.e_hat = [float(e1_initial)] + [
            float(initial_estimates[i]) if i < len(initial_estimates) else 0.0
            for i in range(self.order - 1)
        ]
        self.diverged = False
        # Stepped as xi = e_hat - e1 * e_1 with e1 held: A e_1 = -beta cancels
        # the beta * e1 input, so b * u on row n is the only input.
        self.block = LinearBlock(observer_matrix(self.beta),
                                 self.b * np.eye(self.order)[self.n - 1])

    def step(self, e1, u, dt):
        """Advance the estimates over one control period with (e1, u) held."""
        if self.diverged:
            return self.e_hat
        new = self.block.step([self.e_hat[0] - e1] + self.e_hat[1:], u, dt)
        new[0] += e1
        self.diverged = not all(map(math.isfinite, new))
        self.e_hat = new
        return self.e_hat


def observer_matrix(beta):
    """Estimation-error matrix of a LESO with gains beta: ones on the
    superdiagonal and first column -beta."""
    a = np.eye(len(beta), k=1)
    a[:, 0] -= np.asarray(beta, dtype=float)
    return a


def bound_tail_coefficient(order, i):
    """Combinatorial factor G_i in the estimation-error tail bound:
    sum over j = 0..i-1 of C(order - i + j, order - i)."""
    if not 1 <= i <= order:
        raise ValueError(f"index {i} outside 1..{order}")
    return sum(math.comb(order - i + j, order - i) for j in range(i))


def bound_tail_max(order):
    return max(bound_tail_coefficient(order, i) for i in range(1, order + 1))


def error_contraction_matrix(beta, omega_o):
    """Scaled error-system matrix: the observer matrix of the scaled gains
    alpha_i = beta_i / omega_o^i. With binomial gains its eigenvalues all
    sit at -1."""
    return observer_matrix([b / omega_o ** (i + 1) for i, b in enumerate(beta)])


def inf_norm(matrix):
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def error_envelope(order, omega_o, eps0_norm, h1, h2, norms, i):
    """Upper bound on |e_tilde_i(t0 + tau)| for a LESO of the given order:

        omega_o^(i-1) * norms * ||eps(t0)||_inf
        + (h1 + h2) * G_i / omega_o^(order - i + 1)

    ``norms`` is ||exp(omega_o * A_tilde * tau)||_inf, a scalar or an array
    over a tau grid. h1 bounds the disturbance derivatives, h2 the reference
    derivatives. ``i=None`` bounds ||eps(t0 + tau)||_inf instead, with
    G = max_i G_i and the powers of omega_o taken at i = 1.
    """
    if not (omega_o > 0):
        raise ValueError("omega_o must be positive")
    if i is None:
        scale, g, power = 1.0, bound_tail_max(order), order
    else:
        scale, g = omega_o ** (i - 1), bound_tail_coefficient(order, i)
        power = order - i + 1
    return scale * norms * eps0_norm + (h1 + h2) * g / omega_o**power


def estimation_error_bound(beta, omega_o, eps0_norm, h1, h2, tau, i):
    """``error_envelope`` at one tau, with the matrix exponential evaluated
    by scaling-and-squaring (``i=None``: the ||eps||_inf bound)."""
    norm = 0.0
    if eps0_norm != 0.0:
        a = error_contraction_matrix(beta, omega_o)
        norm = inf_norm(expm(omega_o * tau * a))
    return error_envelope(len(beta), omega_o, eps0_norm, h1, h2, norm, i)


def scaled_error_bound(beta, omega_o, eps0_norm, h1, h2, tau):
    """Upper bound on ||eps(t0 + tau)||_inf (same structure, G = max_i G_i)."""
    return estimation_error_bound(beta, omega_o, eps0_norm, h1, h2, tau, None)


def contraction_norm_profile(beta, omega_o, dt, steps):
    """||exp(omega_o * A_tilde * k dt)||_inf for k = 0..steps, computed by
    repeated multiplication with the one-step exponential."""
    a = error_contraction_matrix(beta, omega_o)
    phi = expm(omega_o * dt * a)
    norms = np.empty(steps + 1)
    current = np.eye(len(beta))
    norms[0] = inf_norm(current)
    for k in range(1, steps + 1):
        current = phi @ current
        norms[k] = inf_norm(current)
    return norms
