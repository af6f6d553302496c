"""Computable core of quantitative bifurcation theory for rational maps.

Submodules: ``arith`` (divisor-sum counting and the bifurcation-mass
series), ``cpoly``/``aberth`` (simultaneous root finding, driven by
black-box evaluators), ``dynamics`` (lifts, period-n wedge evaluators, and
the exact-period cycles as one ``CycleSet`` of arrays), ``lyapunov``
(periodic-point estimators, Green functions, degeneration slopes),
``families`` (parametrized families, center enumeration, continuation,
component counting), ``equidist`` (atomic bifurcation-measure diagnostics)
and ``cli``.  Names are imported from their submodule, as in
``from dynbif.families import centers``.
"""

__version__ = "0.1.0"
