"""Simulation and verification toolkit for KPZ-class growth equations.

Periodic pseudo-spectral solvers (exact Cole-Hopf, mild iteration, damped
splitting), heat-maximal machinery, multi-scale noise decompositions, and
Monte-Carlo large-deviation checks, at desk scale.
"""

from .deposition import (
    DepositionRate,
    builtin_rates,
    check_assumptions,
    check_growth_condition,
    power_clamp_rate,
    quadratic_rate,
    relativistic_rate,
)
from .grid import (
    Field,
    GridSpec,
    SpaceTimeField,
    gradient,
    lp_norm,
    make_bump,
    read_field,
    read_spacetime,
    write_field,
    write_spacetime,
)
from .heat import (
    HeatParams,
    green_apply,
    heat_apply,
    verify_parabolic_estimates,
)
from .maximal import (
    equivalence_constants,
    forcing_quasinorm,
    h_lambda_norm,
    sharp_maximal,
    star_maximal,
    w1inf_lambda_norm,
)
from .noise import (
    NoiseParams,
    ScaleDecomposition,
    build_partition,
    empirical_covariance,
    eta_scale,
    ou_field,
    sample_noise,
    scale_field_trajectory,
)
from .solvers import (
    DecayFit,
    SolveParams,
    Trajectory,
    bump_reference,
    check_comparison,
    decay_experiment,
    evolve,
    homogeneous_step,
    mild_solve,
    trotter_solve,
)

__version__ = "0.1.0"
