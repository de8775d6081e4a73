"""Control side: reference signals with closed-form derivatives, the ideal
closed-loop trajectory, the disturbance-cancelling state-feedback law, and
the supervisor that runs a parallel observer bank with argmin-|z| switching.

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
from .evaluator import SwitchIndex, ZFilter
from .integrate import rk4_step
from .polynomials import build_g_family

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Reference signals. value(t) is r1(t); derivative(t, k) is r1^(k)(t);
# sup_derivative(k) bounds |r1^(k)| over all t (inf when unbounded).
# ---------------------------------------------------------------------------


class ConstantReference:
    kind = "constant"

    def __init__(self, value=0.0):
        self._value = float(value)

    def value(self, t):
        return self._value

    def derivative(self, t, order):
        return self._value if order == 0 else 0.0

    def derivatives(self, t, count):
        out = [0.0] * count
        if count:
            out[0] = self._value
        return out

    def sup_derivative(self, order):
        return abs(self._value) if order == 0 else 0.0

    def to_config(self):
        return {"kind": self.kind, "value": self._value}


class PolynomialReference:
    """r1(t) = sum_i coeffs[i] t^i (covers setpoint ramps)."""

    kind = "poly"

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)

    def value(self, t):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self, t, order):
        total = 0.0
        for i in range(order, len(self.coeffs)):
            fact = 1
            for j in range(order):
                fact *= i - j
            total += fact * self.coeffs[i] * t ** (i - order)
        return total

    def derivatives(self, t, count):
        return [self.derivative(t, k) for k in range(count)]

    def sup_derivative(self, order):
        degree = len(self.coeffs) - 1
        if order > degree:
            return 0.0
        if order == degree:
            fact = 1
            for j in range(order):
                fact *= degree - j
            return abs(fact * self.coeffs[degree])
        return math.inf

    def to_config(self):
        return {"kind": self.kind, "coeffs": list(self.coeffs)}


class MoveReference:
    """Point-to-point motion profile: minimum-jerk segments between holds.

    Each segment is {"t_start", "t_move", "target"}; between segments the
    reference holds the last target. The profile is s(tau) = 10 tau^3 -
    15 tau^4 + 6 tau^5, so position, velocity and acceleration are continuous
    and all derivatives stay bounded (setpoint steps would not be).
    """

    kind = "move"
    _PROFILE = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)

    def __init__(self, start, segments):
        self.start = float(start)
        self.segments = []
        last_end = -math.inf
        level = self.start
        for idx, seg in enumerate(segments):
            t0 = float(seg["t_start"])
            span = float(seg["t_move"])
            target = float(seg["target"])
            if span <= 0:
                raise ConfigError(f"reference.segments[{idx}].t_move",
                                  "must be positive")
            if t0 < last_end:
                raise ConfigError(f"reference.segments[{idx}].t_start",
                                  "segments overlap")
            self.segments.append((t0, span, level, target))
            level = target
            last_end = t0 + span
        self._deriv_coeffs = [self._PROFILE]
        for order in range(1, 6):
            prev = self._deriv_coeffs[order - 1]
            self._deriv_coeffs.append(
                tuple(i * c for i, c in enumerate(prev))[1:]
            )

    def _segment_at(self, t):
        level = self.start
        for t0, span, from_level, target in self.segments:
            if t < t0:
                return None, level
            if t <= t0 + span:
                return (t0, span, from_level, target), level
            level = target
        return None, level

    def derivative(self, t, order):
        seg, level = self._segment_at(t)
        if seg is None:
            return level if order == 0 else 0.0
        t0, span, from_level, target = seg
        if order > 5:
            return 0.0
        tau = (t - t0) / span
        acc = 0.0
        for c in reversed(self._deriv_coeffs[order]):
            acc = acc * tau + c
        value = acc * (target - from_level) / span**order
        if order == 0:
            value += from_level
        return value

    def value(self, t):
        return self.derivative(t, 0)

    def derivatives(self, t, count):
        return [self.derivative(t, k) for k in range(count)]

    def sup_derivative(self, order):
        if order == 0:
            levels = [self.start] + [seg[3] for seg in self.segments]
            return max(abs(v) for v in levels)
        if order > 5:
            return 0.0
        worst = 0.0
        coeffs = self._deriv_coeffs[order]
        grid = [i / 400.0 for i in range(401)]
        for _, span, from_level, target in self.segments:
            peak = 0.0
            for tau in grid:
                acc = 0.0
                for c in reversed(coeffs):
                    acc = acc * tau + c
                peak = max(peak, abs(acc))
            worst = max(worst, peak * abs(target - from_level) / span**order)
        return worst

    def to_config(self):
        return {
            "kind": self.kind,
            "start": self.start,
            "segments": [
                {"t_start": t0, "t_move": span, "target": target}
                for t0, span, _, target in self.segments
            ],
        }


class SinusoidReference:
    kind = "sinusoid"

    def __init__(self, amplitude, omega, phase=0.0, offset=0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)
        self.offset = float(offset)

    def value(self, t):
        return self.offset + self.amplitude * math.sin(self.omega * t + self.phase)

    def derivative(self, t, order):
        if order == 0:
            return self.value(t)
        return self.amplitude * self.omega**order * math.sin(
            self.omega * t + self.phase + order * math.pi / 2.0
        )

    def derivatives(self, t, count):
        return [self.derivative(t, k) for k in range(count)]

    def sup_derivative(self, order):
        if order == 0:
            return abs(self.offset) + abs(self.amplitude)
        return abs(self.amplitude) * self.omega**order

    def to_config(self):
        return {
            "kind": self.kind,
            "amplitude": self.amplitude,
            "omega": self.omega,
            "phase": self.phase,
            "offset": self.offset,
        }


_REFERENCE_KINDS = {
    "constant": ConstantReference,
    "poly": PolynomialReference,
    "sinusoid": SinusoidReference,
    "move": MoveReference,
}


def reference_from_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("reference", "expected an object")
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    cls = _REFERENCE_KINDS.get(kind)
    if cls is None:
        raise ConfigError("reference.kind", f"unknown kind {kind!r}")
    try:
        return cls(**cfg)
    except TypeError as exc:
        raise ConfigError("reference", str(exc)) from None


def reference_sup_bound(ref, max_order):
    """sup over orders 0..max_order of |r1^(k)|; conservative h2 that also
    covers the derivative forcing the extended error state."""
    return max(ref.sup_derivative(k) for k in range(max_order + 1))


class IdealTrajectory:
    """Reference closed-loop response x*: the trajectory the output is judged
    against. Must start exactly at the plant state."""

    def __init__(self, gain_row, x0, t0=0.0):
        self.gain_row = tuple(float(k) for k in gain_row)
        self.n = len(self.gain_row)
        self.x = [float(v) for v in x0]
        if len(self.x) != self.n:
            raise ConfigError(
                "trajectory.x0", f"expected {self.n} entries, got {len(self.x)}"
            )
        self.t = float(t0)

    def _deriv(self, x, t, ref):
        r = ref.derivatives(t, self.n + 1)
        d = x[1:]
        last = r[self.n]
        for k, xi, ri in zip(self.gain_row, x, r):
            last -= k * (xi - ri)
        d.append(last)
        return d

    def step(self, ref, dt):
        self.x = rk4_step(lambda x, t: self._deriv(x, t, ref), self.x, self.t, dt)
        self.t += dt
        return self.x


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


class SingleEsoAdrc:
    """Plain single-observer ADRC loop (baseline law).

    ``evaluate(y)`` consumes one measurement per control period: it first
    integrates the observer, surrogate filter and ideal trajectory over the
    period that just elapsed, then forms the new control from the fresh
    estimates. The observer integrates with the trapezoidal average of the
    two boundary measurements (both are available once the new sample
    arrives), which removes the dominant first-order hold error from the
    estimation-error channel; the control input is genuinely zero-order-held
    and enters as such.
    """

    def __init__(self, char, b, reference, trajectory, leso, dt,
                 u_limit=None):
        self.char = char
        self.gain_row = char.gain_row
        self.b = float(b)
        self.reference = reference
        self.trajectory = trajectory
        self.leso = leso
        g_family = build_g_family(char.gain_row, leso.beta, char.order)
        self.zfilter = ZFilter(g_family[char.order], char.delta)
        self.dt = float(dt)
        self.u_limit = u_limit
        self.t = 0.0
        self._pending = None

    def evaluate(self, y):
        dt = self.dt
        if self._pending is not None:
            e1_prev, et_prev, u_prev = self._pending
            self.t += dt
            e1 = y - self.reference.value(self.t)
            self.leso.step(0.5 * (e1_prev + e1), u_prev, dt)
            self.zfilter.advance(et_prev, dt)
            self.trajectory.step(self.reference, dt)
            if self.leso.diverged or self.zfilter.diverged:
                raise DivergenceError("single-observer loop diverged")
        else:
            e1 = y - self.reference.value(self.t)
        t = self.t
        r1 = self.reference.value(t)
        x1_star = self.trajectory.x[0]
        ebar1 = y - x1_star
        etilde1 = e1 - self.leso.e_hat[0]
        z = self.zfilter.output(etilde1)
        u = adrc_law(self.leso.e_hat, self.gain_row, self.b)
        if self.u_limit is not None:
            u = min(max(u, -self.u_limit), self.u_limit)
        self._pending = (e1, etilde1, u)
        return StepRecord(
            t=t, r1=r1, y=y, x1_star=x1_star, e1=e1, ebar1=ebar1, u=u,
            active=0, etilde1=(etilde1,), z=(z,), accumulators=(0.0,),
        )


class Supervisor:
    """Parallel multi-observer ADRC with windowed argmin-|z| switching.

    The bank is a list of observers sharing the plant's (n, b); each gets its
    own surrogate filter built from its own gain vector. Selection changes
    only at window boundaries (ties keep the current observer). The control
    applied to the plant is always formed from the selected observer's first
    n+1 estimates, and that same control is what every observer integrates.

    Measurement handling per period matches SingleEsoAdrc: integrate the
    whole bank over the elapsed period first (trapezoidal measurement feed,
    held control), then evaluate surrogates and select.
    """

    def __init__(self, char, b, reference, trajectory, bank, dt, window=20,
                 u_limit=None, initial_selection=0):
        if not bank:
            raise ConfigError("observers", "observer bank is empty")
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
        self.switch = SwitchIndex(len(self.bank), window, initial=initial_selection)
        self.dt = float(dt)
        self.u_limit = u_limit
        self.t = 0.0
        self._pending = None

    @property
    def switch_count(self):
        return self.switch.switch_count

    @property
    def window_selections(self):
        return self.switch.window_selections

    def _drop(self, j, reason):
        if self.alive[j]:
            self.alive[j] = False
            log.warning("observer %d dropped from candidacy (%s)", j, reason)

    def evaluate(self, y):
        dt = self.dt
        if self._pending is not None:
            e1_prev, et_prev, u_prev = self._pending
            self.t += dt
            e1 = y - self.reference.value(self.t)
            e1_in = 0.5 * (e1_prev + e1)
            for j, (leso, zf) in enumerate(zip(self.bank, self.filters)):
                if not self.alive[j]:
                    continue
                leso.step(e1_in, u_prev, dt)
                zf.advance(et_prev[j], dt)
            self.trajectory.step(self.reference, dt)
        else:
            e1 = y - self.reference.value(self.t)
        t = self.t
        r1 = self.reference.value(t)
        x1_star = self.trajectory.x[0]
        ebar1 = y - x1_star
        etilde = []
        zs = []
        for j, (leso, zf) in enumerate(zip(self.bank, self.filters)):
            if self.alive[j] and (leso.diverged or zf.diverged):
                self._drop(j, "non-finite state")
            if self.alive[j]:
                et = e1 - leso.e_hat[0]
                z = zf.output(et)
                if not math.isfinite(z):
                    self._drop(j, "non-finite surrogate output")
                    et, z = math.nan, math.inf
            else:
                et, z = math.nan, math.inf
            etilde.append(et)
            zs.append(z)
        if not any(self.alive):
            raise DivergenceError("every observer in the bank diverged")
        selected = self.switch.update(zs, eligible=self.alive)
        if not self.alive[selected]:
            selected = self.switch.reselect(self.alive)
        u = adrc_law(self.bank[selected].e_hat, self.gain_row, self.b)
        if self.u_limit is not None:
            u = min(max(u, -self.u_limit), self.u_limit)
        self._pending = (e1, tuple(etilde), u)
        return StepRecord(
            t=t, r1=r1, y=y, x1_star=x1_star, e1=e1, ebar1=ebar1, u=u,
            active=selected, etilde1=tuple(etilde), z=tuple(zs),
            accumulators=tuple(self.switch.accumulators),
        )
