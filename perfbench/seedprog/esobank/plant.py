"""Simulated plants: an n-th order integrator chain with an injectable lumped
disturbance, and a two-mass flexure stage whose frame sees stick-slip
friction (Karnopp dead zone, Coulomb + Stribeck + viscous sliding law).

Integration is fixed-step RK4 with the control input held constant over each
step; the controller is discrete, so a zero-order hold is the honest model.
All default stage parameters are desk-scale surrogate values, not identified
hardware numbers, and everything is configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DivergenceError
from .integrate import rk4_step

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Disturbance signals
#
# Each signal is callable as f(x, t). Time-only kinds also expose exact
# derivatives and derivative sup-bounds, which the verification scenarios use
# as ground truth. A step violates smoothness at the jump instant and is
# therefore excluded from bound checks; its ``derivative_bound`` reports the
# almost-everywhere value (0).
# ---------------------------------------------------------------------------


class ConstantDisturbance:
    kind = "constant"

    def __init__(self, level=0.0):
        self.level = float(level)

    def __call__(self, x, t):
        return self.level

    def derivative(self, t, order):
        return self.level if order == 0 else 0.0

    def derivative_bound(self, order):
        return abs(self.level) if order == 0 else 0.0

    def to_config(self):
        return {"kind": self.kind, "level": self.level}


class StepDisturbance:
    kind = "step"

    def __init__(self, t_step, amplitude, base=0.0):
        self.t_step = float(t_step)
        self.amplitude = float(amplitude)
        self.base = float(base)

    def __call__(self, x, t):
        return self.base + (self.amplitude if t >= self.t_step else 0.0)

    def derivative(self, t, order):
        if order == 0:
            return self(None, t)
        return 0.0  # almost everywhere; undefined at the jump itself

    def derivative_bound(self, order):
        if order == 0:
            return abs(self.base) + abs(self.amplitude)
        return 0.0

    def to_config(self):
        return {
            "kind": self.kind,
            "t_step": self.t_step,
            "amplitude": self.amplitude,
            "base": self.base,
        }


class SinusoidDisturbance:
    kind = "sinusoid"

    def __init__(self, amplitude, omega, phase=0.0, offset=0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)
        self.offset = float(offset)

    def __call__(self, x, t):
        return self.offset + self.amplitude * math.sin(self.omega * t + self.phase)

    def derivative(self, t, order):
        if order == 0:
            return self(None, t)
        return self.amplitude * self.omega**order * math.sin(
            self.omega * t + self.phase + order * math.pi / 2.0
        )

    def derivative_bound(self, order):
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


class SumDisturbance:
    kind = "sum"

    def __init__(self, terms):
        self.terms = list(terms)

    def __call__(self, x, t):
        return sum(term(x, t) for term in self.terms)

    def derivative(self, t, order):
        return sum(term.derivative(t, order) for term in self.terms)

    def derivative_bound(self, order):
        return sum(term.derivative_bound(order) for term in self.terms)

    def to_config(self):
        return {"kind": self.kind, "terms": [t.to_config() for t in self.terms]}


class StickSlipDisturbance:
    """Smooth friction-like disturbance acting on the velocity state of a
    chain plant: Stribeck-weighted Coulomb force through a tanh regulariser
    plus viscous drag. State-dependent, so it has no closed-form time
    derivatives; bound checks use the time-only kinds instead.
    """

    kind = "stick_slip"

    def __init__(self, f_coulomb=8.0, f_static=12.0, v_stribeck=0.002,
                 sigma_viscous=10.0, v_smooth=1e-4):
        self.f_coulomb = float(f_coulomb)
        self.f_static = float(f_static)
        self.v_stribeck = float(v_stribeck)
        self.sigma_viscous = float(sigma_viscous)
        self.v_smooth = float(v_smooth)

    def __call__(self, x, t):
        v = x[1]
        level = self.f_coulomb + (self.f_static - self.f_coulomb) * math.exp(
            -((v / self.v_stribeck) ** 2)
        )
        return -level * math.tanh(v / self.v_smooth) - self.sigma_viscous * v

    def derivative(self, t, order):
        raise ValueError("stick-slip disturbance has no closed-form time derivatives")

    def derivative_bound(self, order):
        raise ValueError("stick-slip disturbance has no derivative bounds")

    def to_config(self):
        return {
            "kind": self.kind,
            "f_coulomb": self.f_coulomb,
            "f_static": self.f_static,
            "v_stribeck": self.v_stribeck,
            "sigma_viscous": self.sigma_viscous,
            "v_smooth": self.v_smooth,
        }


_DISTURBANCE_KINDS = {
    "constant": ConstantDisturbance,
    "step": StepDisturbance,
    "sinusoid": SinusoidDisturbance,
    "stick_slip": StickSlipDisturbance,
}


def disturbance_from_config(cfg):
    if cfg is None:
        return ConstantDisturbance(0.0)
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind == "sum":
        return SumDisturbance(
            disturbance_from_config(term) for term in cfg.get("terms", [])
        )
    cls = _DISTURBANCE_KINDS.get(kind)
    if cls is None:
        raise ConfigError("plant.disturbance.kind", f"unknown kind {kind!r}")
    try:
        return cls(**cfg)
    except TypeError as exc:
        raise ConfigError("plant.disturbance", str(exc)) from None


def _check_finite(values, context):
    for v in values:
        if not math.isfinite(v):
            raise DivergenceError(f"{context}: non-finite state {values!r}")


class ChainPlant:
    """n-th order integrator chain: x_i' = x_(i+1), x_n' = b*u + f(x, t),
    y = x_1. The disturbance may be any callable f(x, t)."""

    def __init__(self, n, b, x0=None, disturbance=None):
        if n < 1:
            raise ConfigError("plant.n", f"order {n!r} must be >= 1")
        if b == 0:
            raise ConfigError("plant.b", "input gain must be nonzero")
        self.n = int(n)
        self.b = float(b)
        self.x = [0.0] * self.n if x0 is None else [float(v) for v in x0]
        if len(self.x) != self.n:
            raise ConfigError("plant.x0", f"expected {self.n} entries, got {len(self.x)}")
        self.disturbance = disturbance if disturbance is not None else ConstantDisturbance(0.0)
        self.t = 0.0

    @property
    def y(self):
        return self.x[0]

    @property
    def tracking_state(self):
        return tuple(self.x)

    def _deriv(self, x, t, u):
        d = x[1:]
        d.append(self.b * u + self.disturbance(x, t))
        return d

    def step(self, u, dt):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.x = rk4_step(lambda x, t: self._deriv(x, t, u), self.x, self.t, dt)
        self.t += dt
        _check_finite(self.x, "chain plant")
        return self.y

    def total_disturbance(self, r_nth_derivative):
        """Ground-truth lumped disturbance seen by an observer on
        tracking-error coordinates: f(x, t) - r1^(n)(t)."""
        return self.disturbance(self.x, self.t) - r_nth_derivative


@dataclass
class FrictionParams:
    f_coulomb: float = 8.0
    f_static: float = 12.0
    v_stribeck: float = 0.002
    sigma_viscous: float = 10.0
    v_dead: float = 1e-4

    def __post_init__(self):
        if self.f_coulomb < 0 or self.f_static < self.f_coulomb:
            raise ConfigError(
                "plant.friction", "requires f_static >= f_coulomb >= 0"
            )

    def sliding_force(self, v):
        level = self.f_coulomb + (self.f_static - self.f_coulomb) * math.exp(
            -((v / self.v_stribeck) ** 2)
        )
        return math.copysign(level, v) + self.sigma_viscous * v

    def to_config(self):
        return {
            "f_coulomb": self.f_coulomb,
            "f_static": self.f_static,
            "v_stribeck": self.v_stribeck,
            "sigma_viscous": self.sigma_viscous,
            "v_dead": self.v_dead,
        }


class RfcPlant:
    """Two-mass flexure-coupled motion stage.

    The working stage (mass m_s, measured output) is driven by the motor and
    coupled to a guide frame (mass m_f) through a spring-damper flexure; only
    the frame touches friction. Frame stiction uses the Karnopp treatment:
    while |v_f| is inside the dead band and the transmitted force is below
    breakaway, the frame holds exactly still (v_f pinned to 0).

    m_f = inf is accepted and clamps the frame in place.
    """

    def __init__(self, m_s=2.0, m_f=5.0, k=4.0e4, c=40.0, ka_ks=6.5,
                 friction=None, x0=(0.0, 0.0, 0.0, 0.0), extra_disturbance=None):
        if not (m_s > 0) or not (m_f > 0):
            raise ConfigError("plant.mass", "masses must be positive")
        if not (k > 0):
            raise ConfigError("plant.k", "flexure stiffness must be positive")
        self.m_s = float(m_s)
        self.m_f = float(m_f)
        self.k = float(k)
        self.c = float(c)
        self.ka_ks = float(ka_ks)
        self.friction = friction if friction is not None else FrictionParams()
        if len(x0) != 4:
            raise ConfigError("plant.x0", "expected (x_s, v_s, x_f, v_f)")
        self.x_s, self.v_s, self.x_f, self.v_f = (float(v) for v in x0)
        self.extra_disturbance = extra_disturbance
        self.t = 0.0
        self.n = 2

    @property
    def b(self):
        return self.ka_ks / self.m_s

    @property
    def y(self):
        return self.x_s

    @property
    def tracking_state(self):
        return (self.x_s, self.v_s)

    def flexure_force_on_frame(self):
        """Force the flexure transmits to the frame (breakaway comparator)."""
        return self.k * (self.x_s - self.x_f) + self.c * (self.v_s - self.v_f)

    def _stuck(self):
        return (
            abs(self.v_f) < self.friction.v_dead
            and abs(self.flexure_force_on_frame()) <= self.friction.f_static
        )

    def _stage_accel(self, x_s, v_s, x_f, v_f, u, t):
        a = (
            self.ka_ks * u
            + self.k * (x_f - x_s)
            + self.c * (v_f - v_s)
        ) / self.m_s
        if self.extra_disturbance is not None:
            a += self.extra_disturbance((x_s, v_s), t)
        return a

    def step(self, u, dt):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self._stuck():
            self.v_f = 0.0
            x_f = self.x_f

            def deriv(s, t):
                return [s[1], self._stage_accel(s[0], s[1], x_f, 0.0, u, t)]

            new = rk4_step(deriv, [self.x_s, self.v_s], self.t, dt)
            self.x_s, self.v_s = new
        else:
            def deriv(s, t):
                xs, vs, xf, vf = s
                a_s = self._stage_accel(xs, vs, xf, vf, u, t)
                coupling = self.k * (xf - xs) + self.c * (vf - vs)
                a_f = (-coupling - self.friction.sliding_force(vf)) / self.m_f
                return [vs, a_s, vf, a_f]

            new = rk4_step(deriv, [self.x_s, self.v_s, self.x_f, self.v_f], self.t, dt)
            self.x_s, self.v_s, self.x_f, self.v_f = new
            # Karnopp re-latch: a slow frame inside the dead band sticks again.
            if (
                abs(self.v_f) < self.friction.v_dead
                and abs(self.flexure_force_on_frame()) <= self.friction.f_static
            ):
                self.v_f = 0.0
        self.t += dt
        _check_finite((self.x_s, self.v_s, self.x_f, self.v_f), "flexure stage")
        return self.y

    def total_disturbance(self, r_nth_derivative):
        """Ground-truth lumped disturbance on the stage: flexure force per
        unit stage mass, plus any extra disturbance, minus r1''(t)."""
        d = (
            self.k * (self.x_f - self.x_s) + self.c * (self.v_f - self.v_s)
        ) / self.m_s
        if self.extra_disturbance is not None:
            d += self.extra_disturbance((self.x_s, self.v_s), self.t)
        return d - r_nth_derivative
