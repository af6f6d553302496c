"""Computable core of quantitative bifurcation theory for rational maps.

Submodules: ``arith`` (divisor-sum counting and the bifurcation-mass
series), ``cpoly``/``aberth`` (simultaneous root finding, driven by
black-box evaluators), ``dynamics`` (lifts, period-n wedge evaluators, and
the exact-period cycles as one ``CycleSet`` of arrays), ``lyapunov``
(periodic-point estimators, Green functions, degeneration slopes),
``families`` (parametrized families, center enumeration, continuation,
component counting), ``equidist`` (atomic bifurcation-measure diagnostics)
and ``cli``.
"""

from . import arith, cpoly, dynamics, equidist, families, lyapunov
from .arith import PeriodTuple, m2_mass_series
from .dynamics import CycleSet, RationalMapLift, exact_cycles
from .equidist import (
    AtomicMeasure,
    GridDensity,
    binned_distance,
    center_measure,
    equidist_report,
    moment,
    pern_circle_measure,
)
from .families import (
    CenterSet,
    ComponentCount,
    FamilySpec,
    centers_1d,
    centers_2d,
    component_count,
    family_from_id,
    map_at,
    multiplier_continuation,
    quadrat_fixed_normal_form,
)
from .lyapunov import (
    LyapunovEstimate,
    degeneration_slope,
    green_value,
    lyap_from_spectrum,
    lyap_oracle_backward,
    lyap_periodic,
    lyap_poly_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "CenterSet", "ComponentCount", "CycleSet",
    "FamilySpec", "GridDensity", "LyapunovEstimate", "PeriodTuple",
    "RationalMapLift", "arith",
    "binned_distance", "center_measure", "centers_1d", "centers_2d",
    "component_count", "cpoly",
    "degeneration_slope", "dynamics", "equidist", "equidist_report",
    "exact_cycles", "families", "family_from_id", "green_value",
    "lyap_from_spectrum", "lyap_oracle_backward", "lyap_periodic",
    "lyap_poly_closed_form", "lyapunov", "m2_mass_series", "map_at",
    "moment", "multiplier_continuation", "pern_circle_measure",
    "quadrat_fixed_normal_form",
]
