"""Simulated plants: an n-th order integrator chain with an injectable lumped
disturbance, and a two-mass flexure stage whose frame sees stick-slip
friction (Karnopp dead zone, Coulomb + Stribeck + viscous sliding law).

Integration is fixed-step RK4 with the control input held constant over each
step; the controller is discrete, so a zero-order hold is the honest model.
All default stage parameters are desk-scale surrogate values, not identified
hardware numbers, and everything is configurable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (ConfigError, DivergenceError, finite_number,
                     finite_numbers, integer)
from .integrate import rk4_step
from .signals import (ConstantLevel, Sinusoid, Step, StickSlip, Sum,
                      config_args, from_config)

DISTURBANCE_KINDS = {cls.kind: cls
                     for cls in (ConstantLevel, Step, Sinusoid, StickSlip, Sum)}


def disturbance_from_config(cfg, where="plant.disturbance"):
    """The disturbance a plant config gives under ``where``; only null means
    none."""
    if cfg is None:
        return None
    return from_config(cfg, where, DISTURBANCE_KINDS)


def _reads_velocity(signal):
    """Whether ``signal`` reads the velocity x[1] of the state it is given."""
    return isinstance(signal, StickSlip) or any(
        map(_reads_velocity, getattr(signal, "terms", ())))


def _check_finite(values, context):
    for v in values:
        if not math.isfinite(v):
            raise DivergenceError(f"{context}: non-finite state {values!r}")


class ChainPlant:
    """n-th order integrator chain: x_i' = x_(i+1), x_n' = b*u + f(x, t),
    y = x_1. The disturbance may be any callable f(x, t)."""

    kind = "chain"
    FIELDS = {"n": functools.partial(integer, least=1), "b": finite_number,
              "x0": finite_numbers, "disturbance": disturbance_from_config}

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
        self.disturbance = disturbance if disturbance is not None else ConstantLevel()
        if self.n < 2 and _reads_velocity(self.disturbance):
            raise ConfigError("plant.disturbance", "stick_slip acts on the "
                              "velocity x[1], which an order-1 chain lacks")
        self.t = 0.0
        self.steps = 0

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
        self.steps += 1
        self.t = self.steps * dt
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

    FIELDS = dict.fromkeys(("f_coulomb", "f_static", "v_stribeck",
                            "sigma_viscous", "v_dead"), finite_number)

    def __post_init__(self):
        if self.f_coulomb < 0 or self.f_static < self.f_coulomb:
            raise ConfigError(
                "plant.friction", "requires f_static >= f_coulomb >= 0"
            )
        if not self.v_stribeck > 0:
            raise ConfigError("plant.friction.v_stribeck",
                              f"{self.v_stribeck!r} must be positive")
        if not self.v_dead >= 0:
            raise ConfigError("plant.friction.v_dead",
                              f"{self.v_dead!r} must be nonnegative")

    def sliding_force(self, v):
        level = self.f_coulomb + (self.f_static - self.f_coulomb) * math.exp(
            -((v / self.v_stribeck) ** 2)
        )
        return math.copysign(level, v) + self.sigma_viscous * v


def _friction(cfg, where):
    return FrictionParams(**config_args(cfg, where, FrictionParams.FIELDS))


class RfcPlant:
    """Two-mass flexure-coupled motion stage.

    The working stage (mass m_s, measured output) is driven by the motor and
    coupled to a guide frame (mass m_f) through a spring-damper flexure; only
    the frame touches friction. Frame stiction uses the Karnopp treatment:
    while |v_f| is inside the dead band and the transmitted force is below
    breakaway, the frame holds exactly still (v_f pinned to 0).

    m_f = inf is accepted and clamps the frame in place.
    """

    kind = "rfc"
    FIELDS = {**dict.fromkeys(("m_s", "m_f", "k", "c", "ka_ks"), finite_number),
              "friction": _friction, "x0": finite_numbers,
              "extra_disturbance": disturbance_from_config}

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
        if self.b == 0:
            raise ConfigError("plant.ka_ks", "input gain ka_ks / m_s must be "
                              "nonzero")
        self.friction = friction if friction is not None else FrictionParams()
        if len(x0) != 4:
            raise ConfigError("plant.x0", "expected (x_s, v_s, x_f, v_f)")
        self.x_s, self.v_s, self.x_f, self.v_f = (float(v) for v in x0)
        self.extra_disturbance = extra_disturbance
        self.t = 0.0
        self.steps = 0
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
            if self._stuck():
                self.v_f = 0.0
        self.steps += 1
        self.t = self.steps * dt
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


PLANT_KINDS = {cls.kind: cls for cls in (ChainPlant, RfcPlant)}
