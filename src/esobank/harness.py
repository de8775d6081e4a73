"""Scenario configuration, simulation runner, metrics, and trace export.

A scenario couples one plant, one reference, one closed-loop pole layout and
an observer bank, runs the switched multi-observer law (plus, optionally,
each single-observer baseline on an identical disturbance/noise
realization), and produces a fixed-schema CSV trace and a metrics report.

Configs are plain JSON documents; every trace embeds the fully resolved
config and its hash in comment lines, so runs are self-describing and
diff-able. Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .controller import IdealTrajectory, Supervisor, reference_from_config
from .errors import (ConfigError, DivergenceError, finite_number,
                     finite_numbers, integer)
from .observer import Leso
from .plant import (DISTURBANCE_KINDS, ChainPlant, FrictionParams, RfcPlant,
                    disturbance_from_config)
from .polynomials import PoleSpec, PolynomialError, char_poly
from .signals import signal_from_config


@dataclass
class ScenarioConfig:
    """Fully describes one simulation run. All nested values are JSON-native
    (dicts, lists, scalars) so serialization round-trips losslessly."""

    name: str = "scenario"
    plant: dict = field(default_factory=lambda: {"kind": "chain", "n": 2, "b": 3.25})
    reference: dict = field(default_factory=lambda: {"kind": "constant", "value": 10.0})
    poles: list = field(default_factory=lambda: [[150.0, 2]])
    observers: list = field(
        default_factory=lambda: [{"order": 3, "omega_o": 1500.0}]
    )
    dt: float = 1e-4
    duration: float = 1.0
    window: int = 20
    noise_amplitude: float = 0.0
    seed: int = 0
    u_limit: float = None
    run_baselines: bool = True
    iae_method: str = "rectangle"
    output_dir: str = None  # CLI --out overrides; None falls back to env/cwd

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config", "expected a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        return cls(**data)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from None

    def config_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Construction from config
# ---------------------------------------------------------------------------


def _check_plant_numbers(plant_cfg):
    """Every number of a plant config must be finite; the plant
    constructors check the ranges."""
    for key, value in plant_cfg.items():
        field = f"plant.{key}"
        if key == "n":
            integer(value, field, 1)
        elif key == "x0":
            finite_numbers(value, field)
        elif key == "friction":
            if not isinstance(value, dict):
                raise ConfigError(field, "expected an object")
            for name, number in value.items():
                finite_number(number, f"{field}.{name}")
        elif key not in ("kind", "disturbance", "extra_disturbance"):
            finite_number(value, field)


def build_plant(cfg):
    if not isinstance(cfg.plant, dict):
        raise ConfigError("plant", "expected an object")
    _check_plant_numbers(cfg.plant)
    plant_cfg = dict(cfg.plant)
    kind = plant_cfg.pop("kind", None)
    try:
        if kind == "chain":
            dist = disturbance_from_config(plant_cfg.pop("disturbance", None))
            return ChainPlant(disturbance=dist, **plant_cfg)
        if kind == "rfc":
            friction_cfg = plant_cfg.pop("friction", None)
            friction = FrictionParams(**friction_cfg) if friction_cfg else None
            extra_cfg = plant_cfg.pop("extra_disturbance", None)
            extra = (signal_from_config(extra_cfg, "plant.extra_disturbance",
                                        DISTURBANCE_KINDS)
                     if extra_cfg else None)
            return RfcPlant(friction=friction, extra_disturbance=extra,
                            **plant_cfg)
    except TypeError as exc:
        raise ConfigError("plant", str(exc)) from None
    raise ConfigError("plant.kind", f"unknown kind {kind!r}")


def build_char(cfg, n):
    try:
        spec = PoleSpec(tuple((float(s), int(d)) for s, d in cfg.poles))
        char = char_poly(spec)
    except (PolynomialError, TypeError, ValueError) as exc:
        raise ConfigError("poles", str(exc)) from None
    if char.order != n:
        raise ConfigError(
            "poles", f"total pole degree {char.order} must equal plant order {n}"
        )
    return char


def build_bank(cfg, n, b, e1_initial):
    bank = []
    if not isinstance(cfg.observers, list):
        raise ConfigError("observers", "expected a list of observer objects")
    for idx, ospec in enumerate(cfg.observers):
        if not isinstance(ospec, dict):
            raise ConfigError(f"observers[{idx}]", "expected an object")
        ospec = dict(ospec)
        order = ospec.pop("order", None)
        omega_o = ospec.pop("omega_o", None)
        initial = ospec.pop("initial_estimates", [])
        beta = ospec.pop("beta", None)
        if ospec:
            raise ConfigError(
                f"observers[{idx}]", f"unknown keys {sorted(ospec)}"
            )
        integer(order, f"observers[{idx}].order", n + 1)
        if not finite_number(omega_o, f"observers[{idx}].omega_o") > 0:
            raise ConfigError(
                f"observers[{idx}].omega_o", f"bandwidth {omega_o!r} must be positive"
            )
        finite_numbers(initial, f"observers[{idx}].initial_estimates")
        if beta is not None:
            finite_numbers(beta, f"observers[{idx}].beta")
        try:
            bank.append(
                Leso(
                    n,
                    order - n,
                    omega_o,
                    b,
                    e1_initial=e1_initial,
                    initial_estimates=initial,
                    beta=beta,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"observers[{idx}]", str(exc)) from None
    if not bank:
        raise ConfigError("observers", "at least one observer is required")
    return bank


def _validate_numerics(cfg):
    for name in ("dt", "duration", "u_limit"):
        value = getattr(cfg, name)
        if name == "u_limit" and value is None:
            continue
        if not finite_number(value, name) > 0:
            raise ConfigError(name, f"{value!r} must be positive")
    if cfg.duration / cfg.dt <= 0.5:  # the run takes round() of it steps
        raise ConfigError("duration", f"{cfg.duration!r} is shorter than one "
                          f"step of dt = {cfg.dt!r}")
    if not math.isfinite(cfg.duration / cfg.dt):
        raise ConfigError("dt", f"{cfg.dt!r} is so small that duration / dt "
                          "overflows")
    if not finite_number(cfg.noise_amplitude, "noise_amplitude") >= 0:
        raise ConfigError("noise_amplitude",
                          f"{cfg.noise_amplitude!r} must be nonnegative")
    integer(cfg.window, "window", 1)
    integer(cfg.seed, "seed", 0)
    if cfg.iae_method not in ("rectangle", "trapezoid"):
        raise ConfigError("iae_method", f"unknown method {cfg.iae_method!r}")


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


def trace_columns(observer_count):
    cols = ["t", "r", "y", "x1_star", "e1", "ebar1", "u", "active"]
    cols += [f"etilde1_{j}" for j in range(observer_count)]
    cols += [f"z_{j}" for j in range(observer_count)]
    cols += [f"acc_{j}" for j in range(observer_count)]
    cols.append("probe")
    return cols


class SimulationTrace:
    """Column-oriented record of one run on a uniform time grid."""

    def __init__(self, columns, meta=None):
        self.columns = list(columns)
        self.data = {name: [] for name in self.columns}
        self.meta = dict(meta or {})

    @property
    def row_count(self):
        return len(self.data[self.columns[0]])

    def append(self, row):
        for name, value in zip(self.columns, row):
            self.data[name].append(value)

    def array(self, name):
        return np.asarray(self.data[name])

    def header_lines(self):
        lines = ["# esobank simulation trace"]
        for key in sorted(self.meta):
            lines.append(f"# {key}: {self.meta[key]}")
        lines.append("# columns: " + ",".join(self.columns))
        return lines

    def to_csv_text(self):
        lines = self.header_lines()
        lines.append(",".join(self.columns))
        cols = [self.data[name] for name in self.columns]
        for row in zip(*cols):
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())

    def write_long_csv(self, path):
        """Long-format export (t, series, value) for external plotting."""
        with open(path, "w") as fh:
            for line in self.header_lines():
                fh.write(line + "\n")
            fh.write("t,series,value\n")
            t = self.data["t"]
            for name in self.columns[1:]:
                col = self.data[name]
                for ti, vi in zip(t, col):
                    fh.write(f"{_fmt(ti)},{name},{_fmt(vi)}\n")


def _fmt(value):
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def iae(trace, method=None, column="ebar1"):
    """Integral of the absolute tracking error over the run.

    ``rectangle`` (default) is the left Riemann sum over the step intervals,
    sum_{k<N} |e(t_k)| dt; ``trapezoid`` uses the trapezoidal rule on all
    samples.
    """
    values = trace.array(column)
    if values.size == 0:
        raise ValueError("empty trace")
    t = trace.array("t")
    dt = float(t[1] - t[0]) if values.size > 1 else 0.0
    method = method or trace.meta.get("iae_method", "rectangle")
    if method == "rectangle":
        return float(np.sum(np.abs(values[:-1])) * dt)
    if method == "trapezoid":
        return float(np.trapezoid(np.abs(values), t))
    raise ValueError(f"unknown IAE method {method!r}")


def switch_transient_stats(trace):
    """Per-step |du| and |dy| at switch instants versus the whole run."""
    active = trace.array("active")
    u = trace.array("u")
    y = trace.array("y")
    du = np.abs(np.diff(u))
    dy = np.abs(np.diff(y))
    switched = np.flatnonzero(np.diff(active) != 0)
    return {
        "switch_steps": int(switched.size),
        "max_switch_du": float(np.max(du[switched])) if switched.size else 0.0,
        "max_switch_dy": float(np.max(dy[switched])) if switched.size else 0.0,
        "max_du": float(np.max(du)) if du.size else 0.0,
        "max_dy": float(np.max(dy)) if dy.size else 0.0,
    }


@dataclass
class MetricsReport:
    iae: dict
    sup_tracking_error: dict
    switch_count: int
    window_selections: list
    transient: dict

    def to_text(self):
        lines = ["law,iae,sup|ebar1|"]
        for law in self.iae:
            lines.append(
                f"{law},{self.iae[law]:.9g},{self.sup_tracking_error[law]:.9g}"
            )
        lines.append(f"switch_count,{self.switch_count}")
        sel = " ".join(str(s) for s in self.window_selections)
        lines.append(f"window_selections,{sel}")
        for key in sorted(self.transient):
            lines.append(f"{key},{self.transient[key]:.9g}")
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class _NoisyMeasurement:
    """The plant as the controller sees it: its output plus Gaussian noise,
    one draw per sample, the first when it is made."""

    def __init__(self, plant, amplitude, rng):
        self.plant = plant
        self.amplitude = amplitude
        self.rng = rng
        self.y = plant.y + amplitude * rng.standard_normal()

    def step(self, u, dt):
        self.plant.step(u, dt)
        self.y = self.plant.y + self.amplitude * self.rng.standard_normal()


def _make_runtime(cfg, observer_index=None):
    """Fresh plant, reference and controller for one law, and the plant as
    the controller measures it (the plant itself when there is no noise).
    The switched law runs the whole bank; baseline ``observer_index`` runs a
    bank of that one observer. Identical seeds give identical disturbance
    and noise realizations across laws."""
    plant = build_plant(cfg)
    char = build_char(cfg, plant.n)
    reference = reference_from_config(cfg.reference)
    measured = plant
    if cfg.noise_amplitude:
        measured = _NoisyMeasurement(plant, cfg.noise_amplitude,
                                     np.random.default_rng(cfg.seed))
    bank = build_bank(cfg, plant.n, plant.b, measured.y - reference.value(0.0))
    if observer_index is not None:
        bank = [bank[observer_index]]
    trajectory = IdealTrajectory(char.gain_row, plant.tracking_state)
    controller = Supervisor(
        char, plant.b, reference, trajectory, bank, cfg.dt,
        window=cfg.window, u_limit=cfg.u_limit,
    )
    return plant, reference, controller, measured


def closed_loop(plant, controller, steps, dt, probe):
    """Run ``steps`` control periods of ``dt``: each sample k = 0..steps is
    evaluated by the controller and handed to ``probe(k, record)``, then the
    plant advances under the held control (not after the last sample)."""
    y = plant.y
    for k in range(steps + 1):
        rec = controller.evaluate(y)
        probe(k, rec)
        if k < steps:
            plant.step(rec.u, dt)
            y = plant.y


def _simulate(cfg, observer_index=None):
    _validate_numerics(cfg)
    plant, reference, controller, measured = _make_runtime(cfg, observer_index)
    n = plant.n
    label = "multi" if observer_index is None else f"single_{observer_index}"
    trace = SimulationTrace(
        trace_columns(len(controller.bank)),
        meta={
            "config": cfg.to_json(),
            "config_sha256": cfg.config_hash(),
            "law": label,
            "iae_method": cfg.iae_method,
        },
    )

    def record(k, rec):
        lumped = plant.total_disturbance(reference.derivative(rec.t, n))
        # rec[:8] is (t, r1, y, x1_star, e1, ebar1, u, active)
        trace.append(rec[:8] + rec.etilde1 + rec.z + rec.accumulators
                     + (lumped,))

    try:
        closed_loop(measured, controller, round(cfg.duration / cfg.dt), cfg.dt,
                    record)
    except (ArithmeticError, ValueError) as exc:
        # a float overflow, or a math function given inf: a signal or the
        # plant has left the range of floats
        raise DivergenceError(f"{label} left the range of floats: {exc}") from None
    return trace, controller


def run_scenario(cfg):
    """Run the switched law (and, unless disabled, each single-observer
    baseline on an identical realization). Returns (trace, metrics) where the
    trace belongs to the switched law."""
    trace, controller = _simulate(cfg)
    iae_by_law = {"multi": iae(trace, cfg.iae_method)}
    sup_by_law = {"multi": float(np.max(np.abs(trace.array("ebar1"))))}
    if cfg.run_baselines:
        for j in range(len(cfg.observers)):
            single_trace, _ = _simulate(cfg, observer_index=j)
            iae_by_law[f"single_{j}"] = iae(single_trace, cfg.iae_method)
            sup_by_law[f"single_{j}"] = float(
                np.max(np.abs(single_trace.array("ebar1")))
            )
    metrics = MetricsReport(
        iae=iae_by_law,
        sup_tracking_error=sup_by_law,
        switch_count=controller.switch_count,
        window_selections=list(controller.window_selections),
        transient=switch_transient_stats(trace),
    )
    return trace, metrics


def run_single_law(cfg, observer_index):
    """Trace of one single-observer baseline (used by tests and sweeps)."""
    trace, _ = _simulate(cfg, observer_index=observer_index)
    return trace


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _set_path(data, path, value):
    keys = path.split(".")
    node = data
    for key in keys[:-1]:
        if isinstance(node, list):
            node = node[int(key)]
        elif isinstance(node, dict):
            if key not in node:
                raise ConfigError(path, f"no such field segment {key!r}")
            node = node[key]
        else:
            raise ConfigError(path, f"cannot descend into {type(node).__name__}")
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ConfigError(path, f"cannot assign into {type(node).__name__}")


def sweep(cfg, param_path, values):
    """Run the scenario once per value of the dotted parameter path, in
    order. Returns [(value, MetricsReport), ...]."""
    configs = []
    for value in values:
        data = copy.deepcopy(cfg.to_dict())
        _set_path(data, param_path, value)
        data["name"] = f"{cfg.name}__{param_path.replace('.', '_')}_{value}"
        configs.append(ScenarioConfig.from_dict(data))
    return [(value, run_scenario(c)[1]) for value, c in zip(values, configs)]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _p2p_preset(name, setpoint):
    """Round-trip point-to-point move on the flexure-stage surrogate with the
    standard bank: 3rd- and 4th-order observers, both at bandwidth 1500.

    Moves are minimum-jerk profiles (hardware stages use planned
    trajectories, and setpoint steps would violate the bounded-derivative
    assumption). Each move is commanded two control periods before a
    switching-window boundary so the supervisor's first informed decision
    lands essentially at move onset.
    """
    return ScenarioConfig.from_dict(
        {
            "name": name,
            "plant": {
                "kind": "rfc",
                "m_s": 2.0,
                "m_f": 5.0,
                "k": 4.0e4,
                "c": 40.0,
                "ka_ks": 6.5,
                "friction": {
                    "f_coulomb": 8.0,
                    "f_static": 12.0,
                    "v_stribeck": 0.002,
                    "sigma_viscous": 10.0,
                    "v_dead": 1e-4,
                },
                "x0": [0.0, 0.0, 0.0, 0.0],
            },
            "reference": {
                "kind": "move",
                "start": 0.0,
                "segments": [
                    {"t_start": 0.198, "t_move": 0.25, "target": setpoint},
                    {"t_start": 1.248, "t_move": 0.25, "target": 0.0},
                ],
            },
            "poles": [[150.0, 2]],
            "observers": [
                {"order": 3, "omega_o": 1500.0},
                {"order": 4, "omega_o": 1500.0},
            ],
            "dt": 1e-4,
            "duration": 2.2,
            "window": 100,
            "seed": 0,
        }
    )


def _chain_preset(name, x0, disturbance=None,
                  observers=((3, 1500.0), (4, 1500.0)), **fields):
    """A preset on the double-integrator chain (b = 3.25) with a double pole
    at 150 and a bank of (order, omega_o) observers; unless ``fields`` says
    otherwise it holds a constant reference of 10 for 1 s at dt 1e-4 with
    window 20 and seed 0."""
    plant = {"kind": "chain", "n": 2, "b": 3.25, "x0": x0}
    if disturbance is not None:
        plant["disturbance"] = disturbance
    data = {
        "name": name,
        "plant": plant,
        "reference": {"kind": "constant", "value": 10.0},
        "poles": [[150.0, 2]],
        "observers": [{"order": order, "omega_o": omega_o}
                      for order, omega_o in observers],
        "dt": 1e-4,
        "duration": 1.0,
        "window": 20,
        "seed": 0,
    }
    data.update(fields)
    return ScenarioConfig.from_dict(data)


def _sine(amplitude):
    return {"kind": "sinusoid", "amplitude": amplitude,
            "omega": 6.283185307179586}


_PRESET_BUILDERS = {
    "paper-p2p-r10": lambda: _p2p_preset("paper-p2p-r10", 10.0),
    "paper-p2p-r20": lambda: _p2p_preset("paper-p2p-r20", 20.0),
    "detuned-bank": lambda: _chain_preset(
        "detuned-bank", [10.0, 0.0], _sine(5.0),
        observers=((3, 1500.0), (3, 150.0))),
    "quiet": lambda: _chain_preset("quiet", [10.0, 0.0], duration=0.5),
    "tiny": lambda: _chain_preset(
        "tiny", [0.0, 0.0], _sine(2.0), observers=((3, 300.0), (4, 300.0)),
        reference={"kind": "constant", "value": 1.0}, dt=1e-3,
        duration=0.01, window=5, run_baselines=False),
    "chain-stickslip": lambda: _chain_preset(
        "chain-stickslip", [0.0, 0.0], {"kind": "stick_slip"}),
}


def preset_names():
    return sorted(_PRESET_BUILDERS)


def make_preset(name):
    try:
        return _PRESET_BUILDERS[name]()
    except KeyError:
        raise ConfigError("preset", f"unknown preset {name!r}; "
                          f"available: {', '.join(preset_names())}") from None
