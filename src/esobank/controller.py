"""Control side: the reference signal kinds, the ideal closed-loop
trajectory, the disturbance-cancelling state-feedback law, and the supervisor
that runs a parallel observer bank with argmin-|z| switching.

Every observer in the bank receives every measurement and the *applied*
control at every period; the selected observer only decides which estimates
feed the control law. A diverged observer is dropped from candidacy and
frozen; the run continues on the remaining bank.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple

from .errors import ConfigError, DivergenceError
from .evaluator import SwitchIndex, ZFilter, companion_matrix
from .integrate import LinearBlock
from .polynomials import build_g_family
from .signals import Constant, Move, Polynomial, Sinusoid, signal_from_config

log = logging.getLogger(__name__)


# The reference kinds; the aliases below exist because perfbench/ wraps
# these methods by class name, and ROADMAP item 7 deletes them.
ConstantReference = Constant
PolynomialReference = Polynomial
MoveReference = Move
SinusoidReference = SinusoidDisturbance = Sinusoid

REFERENCE_KINDS = {cls.kind: cls
                   for cls in (Constant, Polynomial, Sinusoid, Move)}


def reference_from_config(cfg):
    return signal_from_config(cfg, "reference", REFERENCE_KINDS)


def reference_sup_bound(ref, max_order):
    """sup over orders 0..max_order of |r1^(k)|; conservative h2 that also
    covers the derivative forcing the extended error state."""
    return max(ref.sup_derivative(k) for k in range(max_order + 1))


class IdealTrajectory:
    """Reference closed-loop response x*: the trajectory the output is judged
    against. Must start exactly at the plant state.

    x* = r + eps, where eps = x* - (r, r', ..., r^(n-1)) obeys the unforced
    eps' = companion_matrix(gain_row) eps wherever r^(n-1) is continuous: at
    any n for a constant, sinusoid or poly reference, up to n = 3 for a move
    (its r''' jumps at segment ends). eps(t0) is set on the first step, which
    brings the reference. After k steps of dt the time is t0 + k dt."""

    def __init__(self, gain_row, x0, t0=0.0):
        self.gain_row = tuple(float(k) for k in gain_row)
        self.n = len(self.gain_row)
        # the start state; perfbench/tracer.py records it from the instance
        # dict. The first step deletes it, and __getattr__ computes x after.
        self.x = [float(v) for v in x0]
        if len(self.x) != self.n:
            raise ConfigError(
                "trajectory.x0", f"expected {self.n} entries, got {len(self.x)}"
            )
        self.t0 = self.t = float(t0)
        self.steps, self.eps = 0, None
        self.block = LinearBlock(companion_matrix(self.gain_row), [0.0] * self.n)

    def step(self, ref, dt):
        if self.eps is None:
            self.reference = ref
            r = ref.derivatives(self.t0, self.n)
            self.eps = [xi - ri for xi, ri in zip(self.x, r)]
            del self.x
        self.eps = self.block.step(self.eps, 0.0, dt)
        self.steps += 1
        self.t = self.t0 + self.steps * dt

    def __getattr__(self, name):
        if name != "x":
            raise AttributeError(name)
        r = self.reference.derivatives(self.t, self.n)
        return [ri + ei for ri, ei in zip(r, self.eps)]

    def x1(self, r1):
        """x1* given r1 = r(t) at the trajectory's time t."""
        return self.x[0] if self.eps is None else r1 + self.eps[0]


def adrc_law(e_hat, gain_row, b):
    """Disturbance-cancelling law u = -(k . e_hat[0:n] + e_hat[n]) / b.

    Only the first n+1 estimates are consumed, whatever the observer order;
    higher extended states improve estimation only.
    """
    if b == 0:
        raise ConfigError("b", "input gain must be nonzero")
    n = len(gain_row)
    if len(e_hat) < n + 1:
        raise ValueError(f"need at least {n + 1} estimates, got {len(e_hat)}")
    acc = 0.0
    for k, e in zip(gain_row, e_hat):
        acc += k * e
    acc += e_hat[n]
    return -acc / b


StepRecord = namedtuple(
    "StepRecord",
    "t r1 y x1_star e1 ebar1 u active etilde1 z accumulators",
)


class Supervisor:
    """Parallel multi-observer ADRC with windowed argmin-|z| switching.

    The bank is a list of observers sharing the plant's (n, b); each gets its
    own surrogate filter built from its own gain vector. Selection changes
    only at window boundaries (ties keep the current observer). The control
    applied to the plant is always formed from the selected observer's first
    n+1 estimates, and that same control is what every observer integrates.
    A bank of one is the plain single-observer ADRC law.

    ``evaluate(y)`` consumes one measurement per control period: it first
    integrates the bank, the surrogate filters and the ideal trajectory over
    the period that just elapsed, then evaluates the surrogates, selects,
    and forms the new control from the fresh estimates. The observers
    integrate with the trapezoidal average of the two boundary measurements
    (both are available once the new sample arrives), which removes the
    dominant first-order hold error from the estimation-error channel; the
    control input is genuinely zero-order-held and enters as such.
    """

    def __init__(self, char, b, reference, trajectory, bank, dt, window=20,
                 u_limit=None):
        if not bank:
            raise ConfigError("observers", "observer bank is empty")
        if isinstance(reference, Move) and char.order >= 4:
            raise ConfigError("reference", "a move needs plant order <= 3: "
                              "its third derivative jumps at segment ends")
        self.char = char
        self.gain_row = char.gain_row
        self.b = float(b)
        self.reference = reference
        self.trajectory = trajectory
        self.bank = list(bank)
        self.filters = []
        for leso in self.bank:
            g_family = build_g_family(char.gain_row, leso.beta, char.order)
            self.filters.append(ZFilter(g_family[char.order], char.delta))
        self.alive = [True] * len(self.bank)
        self.switch = SwitchIndex(len(self.bank), window)
        self.dt = float(dt)
        self.u_limit = u_limit
        self.t = 0.0
        self.steps = 0
        self._pending = None

    @property
    def switch_count(self):
        return self.switch.switch_count

    @property
    def window_selections(self):
        return self.switch.window_selections

    def _drop(self, j, reason):
        self.alive[j] = False
        log.warning("observer %d dropped from candidacy (%s)", j, reason)
        if not any(self.alive):
            raise DivergenceError("every observer in the bank diverged")

    def evaluate(self, y):
        pending = self._pending
        if pending is not None:
            e1_prev, et_prev, u_prev = pending
            dt = self.dt
            self.steps += 1
            self.t = self.steps * dt
            self.trajectory.step(self.reference, dt)
        t = self.t
        r1 = self.reference.value(t)
        e1 = y - r1
        if pending is not None:
            e1_in = 0.5 * (e1_prev + e1)
        x1_star = self.trajectory.x1(r1)
        alive = self.alive
        etilde = []
        zs = []
        for j, leso in enumerate(self.bank):
            et, z = math.nan, math.inf
            if alive[j]:
                zf = self.filters[j]
                if pending is not None:
                    leso.step(e1_in, u_prev, dt)
                    zf.advance(et_prev[j], dt)
                if leso.diverged or zf.diverged:
                    self._drop(j, "non-finite state")
                else:
                    et = e1 - leso.e_hat[0]
                    z = zf.output(et)
                    if not math.isfinite(z):
                        self._drop(j, "non-finite surrogate output")
                        et, z = math.nan, math.inf
            etilde.append(et)
            zs.append(z)
        selected = self.switch.update(zs)
        if not alive[selected]:
            selected = self.switch.reselect(alive)
        u = adrc_law(self.bank[selected].e_hat, self.gain_row, self.b)
        if self.u_limit is not None:
            u = min(max(u, -self.u_limit), self.u_limit)
        etilde = tuple(etilde)
        self._pending = (e1, etilde, u)
        return StepRecord(t, r1, y, x1_star, e1, y - x1_star, u, selected,
                          etilde, tuple(zs), tuple(self.switch.accumulators))


class SingleEsoAdrc(Supervisor):
    """Plain single-observer ADRC (the baseline law): a supervisor over a
    bank of one."""

    def __init__(self, char, b, reference, trajectory, leso, dt,
                 u_limit=None):
        super().__init__(char, b, reference, trajectory, [leso], dt,
                         u_limit=u_limit)

    # Bound here as well so that perfbench/tracer.py, which wraps methods
    # found in each class's own __dict__, can time this class's periods.
    evaluate = Supervisor.evaluate
