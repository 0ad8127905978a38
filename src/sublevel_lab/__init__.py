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
from .poly import (LineSlice, MultiPoly, certify_sup, eval_many, eval_poly,
                   from_terms, lift, normalize, parse_poly, restrict_to_line)
from .remez import (DiskFunction, Factorization, classical_remez_check,
                    eval_disk_function, factor_bounds, log_abs_f,
                    parse_disk_function, remez_check, remez_exponent,
                    split_zeros)
from .thinrect import (RectangleSpec, ThinRectFunction, build_function,
                       chebyshev_on_quarter, growth_experiment, limit_moduli,
                       rectangle_moduli, required_exponent)
from .volume import (BallSpec, DistributionSummary, check_quantile_bounds,
                     check_superlevel_power_bound, level_fraction,
                     modulus_quantile, sample_ball, sigma_exponent)

__all__ = [
    "BallSpec", "DiskFunction", "DistributionSummary", "Factorization",
    "IntervalSet", "LineSlice", "LocalizationInstance", "MapParams",
    "MultiPoly", "PiecewiseLogLinear", "RectangleSpec", "ThinRectFunction",
    "apply_map", "build_function", "certify_sup", "chebyshev_on_quarter",
    "check_curvature", "check_log_concavity", "check_preimage_convexity",
    "check_quantile_bounds", "check_radial_profile",
    "check_superlevel_power_bound", "classical_remez_check", "dense_core_1d",
    "eval_disk_function", "eval_many", "eval_poly", "factor_bounds",
    "from_terms", "growth_experiment", "jacobian", "level_fraction", "lift",
    "limit_moduli", "localization_check_1d", "log_abs_f", "min_interval_ratio",
    "mobius_factor", "modulus_quantile", "normalize", "parse_disk_function",
    "parse_poly", "rectangle_moduli", "remez_check", "remez_exponent",
    "required_exponent", "restrict_to_line", "sample_ball", "sigma_exponent",
    "split_zeros",
]
