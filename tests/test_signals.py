"""The signal family: derivative bounds that hold by construction, sums that
add from left to right, and the one config parser."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from esobank.errors import ConfigError, DivergenceError
from esobank.harness import ScenarioConfig, make_preset, run_scenario
from esobank.observer import estimation_error_bound
from esobank.polynomials import build_g_family, leso_gains
from esobank.signals import (Constant, Polynomial, Sinusoid, Step, StickSlip,
                             Sum)


def test_an_envelope_built_on_a_step_is_inf():
    beta = leso_gains(4, 300.0)
    sine = Sinusoid(2.0, 6.0)
    for dist in (Step(0.5, 2.0), Sum([sine, Step(0.5, 2.0)])):
        # h1 as the bound audit takes it, over the orders the observer sees
        h1 = max(dist.sup_derivative(k) for k in range(1, 3))
        assert estimation_error_bound(beta, 300.0, 0.0, h1, 0.0, 0.1, 4) == math.inf
    assert Step(0.5, 0.0).sup_derivative(1) == 0.0
    assert Sum([sine, Constant(5.0)]).sup_derivative(2) == sine.sup_derivative(2)
    assert StickSlip().sup_derivative(0) == math.inf


def test_sinusoid_bound_holds_for_a_negative_frequency():
    sine = Sinusoid(1.5, -2.0, phase=0.3)
    for order in range(4):
        assert sine.sup_derivative(order) >= abs(sine.derivative(0.7, order))
    assert sine.sup_derivative(1) == 3.0


def test_a_bound_past_the_float_range_is_inf():
    assert Sinusoid(1.0, 1e200).sup_derivative(2) == math.inf
    assert Polynomial([1.0] * 200).sup_derivative(199) == math.inf
    # a zero amplitude or top coefficient keeps its exact bound of 0
    assert Sinusoid(0.0, 1e200).sup_derivative(2) == 0.0
    assert Polynomial([1.0] * 199 + [0.0]).sup_derivative(199) == 0.0


def test_sums_add_from_left_to_right():
    # compensated summation (sum() from Python 3.12 on) would give 1.0
    total = Sum([Constant(1e16), Constant(1.0), Constant(-1e16)])
    assert total(None, 0.0) == 0.0
    assert total.derivative(0.0, 0) == 0.0
    # top coefficient s^0 of g_2 is k_1 + beta_1 k_2 + beta_2
    g2 = build_g_family((1e16, 1.0), (1.0, -1e16), 2)[2]
    assert g2.coeffs[0] == 0.0


@pytest.mark.parametrize("where,body", [
    ("reference", {"kind": "sinusoid", "amplitude": 1.0, "omega": 1e200}),
    ("disturbance", {"kind": "stick_slip", "v_stribeck": 1e-300}),
])
def test_a_signal_past_the_float_range_is_a_divergence(where, body):
    data = make_preset("tiny").to_dict()
    if where == "reference":
        data["reference"] = body
    else:
        data["plant"]["disturbance"] = body
    with pytest.raises(DivergenceError, match="range of floats"):
        run_scenario(ScenarioConfig.from_dict(data))


# Any JSON value, and mostly-numeric values that reach the signal maths:
# NaN, inf, bools, strings and nested lists stay in the mix.
_any = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
_num = st.floats() | st.integers(-10**20, 10**20)
_val = st.one_of(_num, _num, _num, _any)


def _kind(kind, required=(), optional=(), **special):
    fields = {key: _val for key in required}
    fields.update(special)
    return st.fixed_dictionaries(
        {"kind": st.just(kind), **fields},
        optional={key: _val for key in optional})


_segment = st.fixed_dictionaries(
    {key: _val for key in ("t_start", "t_move", "target")})
_signal = st.deferred(lambda: st.one_of(
    _kind("constant", optional=("value", "level")),
    _kind("sinusoid", ("amplitude", "omega"), ("phase", "offset")),
    _kind("poly", coeffs=st.lists(_val, max_size=4) | _any),
    _kind("move", ("start",), segments=st.lists(_segment, max_size=3) | _any),
    _kind("step", ("t_step", "amplitude"), ("base",)),
    _kind("stick_slip", optional=("f_coulomb", "f_static", "v_stribeck",
                                  "sigma_viscous", "v_smooth")),
    _kind("sum", terms=st.lists(_signal, max_size=3) | _any),
    _kind("ramp", ("slope",)),
    _any,
))


@pytest.mark.parametrize("prefix", ["reference", "plant.disturbance"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=_signal)
def test_any_signal_config_is_rejected_by_name_or_runs(prefix, body):
    data = make_preset("tiny").to_dict()
    if prefix == "reference":
        data["reference"] = body
    else:
        data["plant"]["disturbance"] = body
    try:
        run_scenario(ScenarioConfig.from_dict(data))
    except ConfigError as exc:
        assert exc.field.startswith(prefix)
    except DivergenceError:
        pass
