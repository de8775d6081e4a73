"""Online tracking-error evaluation: the causal surrogate z for the tracking
deviation of each observer, the decay gap caused by unknown initial
estimation errors, the closed-loop tracking-error bound, and the windowed
argmin-|z| switching index.

z is produced by a state-space filter (controllable canonical realization of
g_n(s)/delta(s) with unit feedthrough) driven by the measurable estimation
error e_tilde_1. A filter step is O(n) and shares the controller's fixed
clock, so the evaluator adds negligible cost per observer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from .integrate import rk4_step
from .observer import inf_norm
from .polynomials import PolynomialError, decay_polys


class ZFilter:
    """Causal realization of g_n(s)/delta(s) acting on e_tilde_1.

    Both polynomials must be monic of the same degree n, so the feedthrough
    is exactly 1 and the strictly proper part has numerator g_n - delta.
    State starts at zero: the surrogate deliberately drops unknown
    initial-condition terms, and the gap they cause decays with the poles of
    delta.

    ``step`` returns the output aligned with the *current* sample, then
    advances the internal state over one period with the input held.
    """

    def __init__(self, g_n, delta):
        if g_n.degree != delta.degree:
            raise PolynomialError(
                f"degree mismatch: g_n has degree {g_n.degree}, "
                f"delta degree {delta.degree}"
            )
        if not (g_n.is_monic and delta.is_monic):
            raise PolynomialError("g_n and delta must both be monic")
        n = delta.degree
        numer = g_n - delta  # strictly proper part
        self.n = n
        self.a = tuple(float(c) for c in delta.coeffs[:-1])
        c_out = [0.0] * n
        for i, coeff in enumerate(numer.coeffs):
            if i < n:
                c_out[i] = float(coeff)
        self.c_out = tuple(c_out)
        self.state = [0.0] * n
        self.z = 0.0
        self.diverged = False
        self.t = 0.0

    def output(self, v):
        acc = v
        for c, s in zip(self.c_out, self.state):
            acc += c * s
        return acc

    def _deriv(self, state, v):
        d = state[1:]
        last = v
        for c, s in zip(self.a, state):
            last -= c * s
        d.append(last)
        return d

    def advance(self, v, dt):
        if self.diverged:
            return
        new = rk4_step(lambda s, t: self._deriv(s, v), self.state, self.t, dt)
        for s in new:
            if not math.isfinite(s):
                self.diverged = True
                break
        self.state = new
        self.t += dt

    def step(self, e_tilde_1, dt):
        z = self.output(e_tilde_1)
        if not math.isfinite(z):
            self.diverged = True
        self.z = z
        self.advance(e_tilde_1, dt)
        return z

    def realization(self):
        """(A, B, C, D) matrices of the filter, for transfer-function checks."""
        n = self.n
        a = np.zeros((n, n))
        for i in range(n - 1):
            a[i, i + 1] = 1.0
        a[n - 1, :] = [-c for c in self.a]
        b = np.zeros((n, 1))
        b[n - 1, 0] = 1.0
        c = np.array(self.c_out).reshape(1, n)
        d = np.array([[1.0]])
        return a, b, c, d


class SwitchIndex:
    """Windowed |z| accumulator with argmin selection.

    Every sample adds |z_j| to each observer's accumulator; at each window
    boundary the observer with the smallest accumulated value becomes the
    active one (ties keep the current selection) and the accumulators reset.
    window=1 degenerates to per-sample argmin.
    """

    def __init__(self, count, window):
        if count < 1:
            raise ValueError("need at least one observer")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.count = count
        self.window = int(window)
        self.accumulators = [0.0] * count
        self.samples = 0
        self.selected = 0
        self.switch_count = 0
        self.window_selections = []

    def update(self, z_values):
        """Add one sample; an observer out of candidacy reports z = inf."""
        acc = self.accumulators
        for j, z in enumerate(z_values):
            acc[j] += abs(z)
        self.samples += 1
        if self.samples >= self.window:
            best = min(acc)
            if acc[self.selected] > best:
                self.switch_count += 1
                self.selected = acc.index(best)
            self.window_selections.append(self.selected)
            self.accumulators = [0.0] * self.count
            self.samples = 0
        return self.selected

    def reselect(self, eligible):
        """Immediate fallback when the active observer drops out mid-window."""
        candidates = [
            (self.accumulators[j], j) for j in range(self.count) if eligible[j]
        ]
        if not candidates:
            raise ValueError("no eligible observer to select")
        _, choice = min(candidates)
        if choice != self.selected:
            self.switch_count += 1
            self.selected = choice
        return self.selected


def companion_matrix(gain_row):
    """Closed-loop matrix of an integrator chain under the gain row:
    shift structure with last row -(k_1, ..., k_n)."""
    n = len(gain_row)
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    a[n - 1, :] = [-float(k) for k in gain_row]
    return a


def initial_state_gap(table, e_tilde_t0, tau):
    """Deviation z - ebar_1 caused by unknown initial estimation errors:

        sum_{i=2..n} sum_j exp(-s_j tau) p_ij(tau) e_tilde_i(t0)

    ``e_tilde_t0`` is the estimation-error vector at t0 (entry 0 is
    e_tilde_1, which a properly initialised observer pins to zero and which
    does not enter the sum). ``tau`` may be a scalar or numpy array.
    """
    decay = decay_polys(table)
    total = 0.0 * np.asarray(tau, dtype=float)
    for i in range(2, table.n + 1):
        w = e_tilde_t0[i - 1] if i - 1 < len(e_tilde_t0) else 0.0
        if w == 0.0:
            continue
        for (sj, _), p in zip(table.spec.poles, decay[i]):
            total = total + w * np.exp(-sj * np.asarray(tau, dtype=float)) * p(tau)
    if np.ndim(tau) == 0:
        return float(total)
    return total


def tracking_bound_coefficient(residue_row, spec):
    """sum_j sum_k |c_jk| / s_j^k for the residues of g_0/delta; the static
    factor multiplying delta(omega_o) * gamma in the tracking-error bound."""
    total = 0.0
    for (sj, dj), row in zip(spec.poles, residue_row):
        for k in range(1, dj + 1):
            total += abs(row[k - 1]) / sj**k
    return total


def tracking_error_bound(char, residue_row, omega_o, ebar0_norm, gamma, tau):
    """Upper bound on |ebar_1(t0 + tau)| for the closed loop driven by any
    bank of bounded observers:

        ||exp(A* tau)||_inf ||ebar(t0)||_inf
        + delta(omega_o) * gamma * sum_jk |c_jk| / s_j^k

    gamma is the running sup of the scaled estimation error over the bank
    (max across observers for a switched law). ebar(t0) is zero whenever the
    ideal trajectory is initialised from the plant state.
    """
    tail = (
        char.delta(omega_o)
        * gamma
        * tracking_bound_coefficient(residue_row, char.spec)
    )
    if ebar0_norm == 0.0:
        return tail
    a_star = companion_matrix(char.gain_row)
    return inf_norm(expm(a_star * tau)) * ebar0_norm + tail
