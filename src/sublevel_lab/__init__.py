"""Desk-scale numerical verification of dimension-free sublevel-set volume
bounds for bounded analytic functions on the complex unit ball, together
with every constructive ingredient: certified polynomial evaluation, a
radial Moebius-type change of variables with log-concave Jacobian, a
Remez-type estimate on the disk via Blaschke factorization, a localization
inequality for log-concave weights, and thin-rectangle counterexample
experiments."""

__version__ = "0.1.0"

from .intervals import IntervalSet
from .kls import (LocalizationInstance, PiecewiseLogLinear, dense_core_1d,
                  localization_check_1d, min_interval_ratio)
from .mobius import (MapParams, apply_map, check_curvature,
                     check_log_concavity, check_preimage_convexity,
                     check_radial_profile, jacobian, mobius_factor)
from .poly import (MultiPoly, certify_sup, eval_many, from_terms, lift,
                   normalize, parse_poly)
from .remez import (DiskFunction, Factorization, classical_remez_check,
                    factor_bounds, log_abs_f, parse_disk_function,
                    remez_check, remez_exponent, split_zeros)
from .thinrect import (ThinRectFunction, build_function,
                       chebyshev_on_quarter, chebyshev_series,
                       growth_experiment, limit_moduli, rectangle_moduli)
from .volume import (BallSpec, DistributionSummary, check_quantile_bounds,
                     check_superlevel_power_bound, level_fraction,
                     sample_ball, sigma_exponent)

__all__ = [
    "BallSpec", "DiskFunction", "DistributionSummary", "Factorization",
    "IntervalSet", "LocalizationInstance", "MapParams", "MultiPoly",
    "PiecewiseLogLinear", "ThinRectFunction",
    "apply_map", "build_function", "certify_sup", "chebyshev_on_quarter",
    "chebyshev_series", "check_curvature", "check_log_concavity",
    "check_preimage_convexity", "check_quantile_bounds", "check_radial_profile",
    "check_superlevel_power_bound", "classical_remez_check", "dense_core_1d",
    "eval_many", "factor_bounds", "from_terms", "growth_experiment",
    "jacobian", "level_fraction", "lift", "limit_moduli",
    "localization_check_1d", "log_abs_f", "min_interval_ratio",
    "mobius_factor", "normalize", "parse_disk_function",
    "parse_poly", "rectangle_moduli", "remez_check", "remez_exponent",
    "sample_ball", "sigma_exponent", "split_zeros",
]
