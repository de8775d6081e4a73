"""Parallel multi-observer active disturbance rejection control:
observer banks, online tracking-error surrogates, windowed switching,
desk-scale plants, and a simulation/verification harness.
"""

from .controller import (
    ConstantReference,
    IdealTrajectory,
    SingleEsoAdrc,
    SinusoidDisturbance,
    Supervisor,
    adrc_law,
    reference_from_config,
    reference_sup_bound,
)
from .errors import ConfigError, DivergenceError
from .harness import (
    MetricsReport,
    ScenarioConfig,
    SimulationTrace,
    iae,
    make_preset,
    preset_names,
    run_scenario,
    sweep,
)
from .evaluator import (
    SwitchIndex,
    ZFilter,
    companion_matrix,
    initial_state_gap,
    tracking_bound_coefficient,
    tracking_error_bound,
)
from .observer import (
    Leso,
    bound_tail_coefficient,
    bound_tail_max,
    estimation_error_bound,
    scaled_error_bound,
)
from .plant import (
    ChainPlant,
    FrictionParams,
    RfcPlant,
    disturbance_from_config,
)
from .polynomials import (
    CharPoly,
    Poly,
    PoleSpec,
    PolynomialError,
    ResidueTable,
    build_g_family,
    char_poly,
    decay_polys,
    leso_gains,
    residues,
)

__version__ = "0.1.0"
