"""Gaussian random eigenfunctions on the d-sphere at desk scale.

Simulation of single-multipole Gaussian fields, Gegenbauer moment-integral
asymptotics and their Bessel-integral constants, Wiener-chaos projections,
excursion volumes, the defect, and Monte Carlo CLT diagnostics.
"""
from .specfun import (
    bessel_j,
    gauss_pdf_cdf,
    gegenbauer_eval_many,
    hermite_eval,
    sphere_measure,
)
from .moments import (
    ScalingLaw,
    asymptotic_constant,
    moment_integral,
    projection_variance,
    scaling_law,
)
from .field import (
    FieldSample,
    SphereGrid,
    build_grid,
    dump_field,
    load_field,
    simulate,
)
from .functionals import (
    defect,
    excursion_volume,
    hermite_projection,
    indicator_coeffs,
)
from .stats import (
    EnsembleSummary,
    ExperimentSpec,
    empirical_cum4,
    ks_distance,
    run_ensemble,
    w1_distance,
)

__version__ = "0.1.0"
