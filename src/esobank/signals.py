"""Time signals: the reference r(t) and the plant disturbances.

Every signal has ``value(t)``, the exact ``derivative(t, k)``,
``sup_derivative(k)``, a bound on |derivative(t, k)| over all t, and
``to_config()``; it is also callable as ``f(x, t)``, the form the plants
take. The bounds are the h1/h2 of the estimation- and tracking-error
envelopes, so each must hold by construction: where a derivative is
unbounded, or does not exist at some instant (a step's jump), the bound is
``math.inf``, and an envelope built on it is inf rather than false.

``signal_from_config`` is the one parser; each caller passes the table of
kinds it accepts.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import ConfigError, finite_number, finite_numbers
from .integrate import ordered_sum


class Signal:
    """The parts of the interface that no hot path calls. ``FIELDS`` maps
    each config key to the function that checks its value; the attribute of
    the same name holds the value that ``to_config`` writes back."""

    def __call__(self, x, t):
        return self.value(t)

    def to_config(self):
        return {"kind": self.kind,
                **{key: getattr(self, key) for key in self.FIELDS}}


def _positive(value, field):
    if not finite_number(value, field) > 0:
        raise ConfigError(field, f"{value!r} must be positive")
    return value


def _list(value, field):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(field, f"{value!r} must be a list")
    return value


def _segments(value, field):
    for i, seg in enumerate(_list(value, field)):
        if not isinstance(seg, dict):
            raise ConfigError(f"{field}[{i}]", "expected an object")
        for key in [*seg, *Move.SEGMENT_KEYS]:
            if key not in Move.SEGMENT_KEYS:
                raise ConfigError(f"{field}[{i}].{key}", "unknown key")
            finite_number(seg.get(key), f"{field}[{i}].{key}")
    return value


def signal_from_config(cfg, where, kinds):
    """The signal ``cfg`` describes. ``kinds`` maps each kind name the
    caller accepts to its class. Every key and number is checked; a bad one
    raises a ConfigError naming its field path under ``where``."""
    if not isinstance(cfg, dict):
        raise ConfigError(where, "expected an object")
    args = dict(cfg)
    kind = args.pop("kind", None)
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{where}.kind", f"unknown kind {kind!r}")
    for key, value in args.items():
        if key not in cls.FIELDS:
            raise ConfigError(f"{where}.{key}", f"unknown key for kind {kind!r}")
        args[key] = cls.FIELDS[key](value, f"{where}.{key}")
    for name, param in inspect.signature(cls).parameters.items():
        if param.default is param.empty and name not in args:
            raise ConfigError(f"{where}.{name}", "missing")
    if cls is Sum:
        args["terms"] = [signal_from_config(term, f"{where}.terms[{i}]", kinds)
                         for i, term in enumerate(args.get("terms", ()))]
    return cls(**args)


class Constant(Signal):
    kind = "constant"
    FIELDS = {"value": finite_number}

    def __init__(self, value=0.0):
        self.level = float(value)

    def __call__(self, x, t):
        return self.level

    def value(self, t):
        return self.level

    def derivative(self, t, order):
        return self.level if order == 0 else 0.0

    def derivatives(self, t, count):
        out = [0.0] * count
        if count:
            out[0] = self.level
        return out

    def sup_derivative(self, order):
        return abs(self.level) if order == 0 else 0.0

    def to_config(self):
        (key,) = self.FIELDS
        return {"kind": self.kind, key: self.level}


class ConstantLevel(Constant):
    """A constant whose config key is ``level`` (the disturbance form)."""

    FIELDS = {"level": finite_number}

    def __init__(self, level=0.0):
        super().__init__(level)


class Sinusoid(Signal):
    kind = "sinusoid"
    FIELDS = dict.fromkeys(("amplitude", "omega", "phase", "offset"),
                           finite_number)

    def __init__(self, amplitude, omega, phase=0.0, offset=0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)
        self.offset = float(offset)

    def __call__(self, x, t):
        return self.offset + self.amplitude * math.sin(self.omega * t + self.phase)

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
        try:
            return abs(self.amplitude) * abs(self.omega)**order
        except OverflowError:  # past the float range
            return math.inf if self.amplitude else 0.0


class Polynomial(Signal):
    """r(t) = sum_i coeffs[i] t^i (covers setpoint ramps)."""

    kind = "poly"
    FIELDS = {"coeffs": finite_numbers}

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]

    def value(self, t):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self, t, order):
        if order == 0:  # bit for bit what value(t) gives, as in every kind
            return self.value(t)
        total = 0.0
        for i in range(order, len(self.coeffs)):
            total += math.perm(i, order) * self.coeffs[i] * t ** (i - order)
        return total

    def derivatives(self, t, count):
        return [self.derivative(t, k) for k in range(count)]

    def sup_derivative(self, order):
        degree = len(self.coeffs) - 1
        if order > degree:
            return 0.0
        if order == degree:
            try:
                return abs(math.perm(degree, order) * self.coeffs[degree])
            except OverflowError:  # past the float range
                return math.inf if self.coeffs[degree] else 0.0
        return math.inf


class Move(Signal):
    """Point-to-point motion profile: minimum-jerk segments between holds.

    Each segment is {"t_start", "t_move", "target"}; between segments the
    signal holds the last target. The profile is s(tau) = 10 tau^3 -
    15 tau^4 + 6 tau^5, so position, velocity and acceleration are continuous
    and the jerk stays bounded (setpoint steps would not be). The jerk jumps
    at each segment end, so from the fourth derivative on the bound is inf.
    """

    kind = "move"
    FIELDS = {"start": finite_number, "segments": _segments}
    SEGMENT_KEYS = ("t_start", "t_move", "target")
    _PROFILE = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)

    def __init__(self, start, segments):
        self.start = float(start)
        self.segments = []
        self._spans = []
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
            self.segments.append({"t_start": t0, "t_move": span,
                                  "target": target})
            self._spans.append((t0, span, level, target))
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
        for t0, span, from_level, target in self._spans:
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
            levels = [self.start] + [seg[3] for seg in self._spans]
            return max(abs(v) for v in levels)
        if order > 3:
            # r''' jumps at each segment end, so r'''' has an impulse there
            return (math.inf if any(seg[2] != seg[3] for seg in self._spans)
                    else 0.0)
        # |s^(k)| peaks on [0, 1] at an end or at a real root of s^(k+1);
        # a complex root's real part, clipped into [0, 1], is a harmless
        # extra candidate.
        shape = np.polynomial.Polynomial(self._deriv_coeffs[order])
        taus = [0.0, 1.0] + [min(max(r.real, 0.0), 1.0)
                             for r in shape.deriv().roots()]
        peak = float(max(abs(shape(tau)) for tau in taus))
        return max((peak * abs(target - from_level) / span**order
                    for _, span, from_level, target in self._spans),
                   default=0.0)


class Step(Signal):
    """base, plus amplitude from t_step on. Its derivatives are 0 except at
    the jump, where they do not exist; so their bound is inf unless the
    amplitude is 0."""

    kind = "step"
    FIELDS = dict.fromkeys(("t_step", "amplitude", "base"), finite_number)

    def __init__(self, t_step, amplitude, base=0.0):
        self.t_step = float(t_step)
        self.amplitude = float(amplitude)
        self.base = float(base)

    def __call__(self, x, t):
        return self.base + (self.amplitude if t >= self.t_step else 0.0)

    def value(self, t):
        return self.base + (self.amplitude if t >= self.t_step else 0.0)

    def derivative(self, t, order):
        return self.value(t) if order == 0 else 0.0

    def sup_derivative(self, order):
        if order == 0:
            return abs(self.base) + abs(self.amplitude)
        return math.inf if self.amplitude else 0.0


class StickSlip(Signal):
    """Smooth friction-like disturbance acting on the velocity state of a
    chain plant: Stribeck-weighted Coulomb force through a tanh regulariser
    plus viscous drag. It depends on the state, so it has no value or
    derivatives in time alone, and no finite bound."""

    kind = "stick_slip"
    FIELDS = {"f_coulomb": finite_number, "f_static": finite_number,
              "v_stribeck": _positive, "sigma_viscous": finite_number,
              "v_smooth": _positive}

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

    def value(self, t):
        raise ValueError("stick-slip disturbance depends on the plant state")

    def derivative(self, t, order):
        raise ValueError("stick-slip disturbance has no closed-form time derivatives")

    def sup_derivative(self, order):
        return math.inf


class Sum(Signal):
    """The sum of its terms, added from left to right; its bound is the sum
    of theirs, so one unbounded term makes it unbounded."""

    kind = "sum"
    FIELDS = {"terms": _list}

    def __init__(self, terms=()):
        self.terms = list(terms)

    def __call__(self, x, t):
        return ordered_sum(term(x, t) for term in self.terms)

    def value(self, t):
        return self.derivative(t, 0)

    def derivative(self, t, order):
        return ordered_sum(term.derivative(t, order) for term in self.terms)

    def sup_derivative(self, order):
        return ordered_sum(term.sup_derivative(order) for term in self.terms)

    def to_config(self):
        return {"kind": self.kind, "terms": [t.to_config() for t in self.terms]}
