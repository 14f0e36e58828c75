"""Tests of the composite null "a product of effects is zero".

The package builds exact rejection regions for the two-coordinate product
null (minimax-optimal unit-fraction regions, their any-level extension, a
Bayes-risk LP refinement), a Latin-square construction for three factors,
generalized p-values with BH/Bonferroni adjustments, regression front ends
that produce the test statistics from data, and Monte Carlo harnesses.
"""

from .statmath import (Interval, folded_interval_prob, gaussian_interval_prob,
                       std_normal_cdf, std_normal_quantile)
from .regions import (FORMAT_VERSION, EstimateProvenance, OutsideRule,
                      RegionFormatError, RegionValidationError, RejectionRegion2D,
                      TestStatisticPair, WeightedRect, analytic_power,
                      analytic_power_batch, deserialize, rejection_prob_at_point,
                      rejection_prob_at_points, serialize)
from .closed_form import (JsTestResult, SobelTestResult, build_extended_region,
                          build_js_region, build_minimax_region, extended_breakpoints,
                          js_test, origin_type1, sobel_test)
from .pvalues import (PvalueResult, benjamini_hochberg, bonferroni, minimax_pvalue,
                      minimax_pvalue_batch)
from .latin3 import (CornerNormalization, LatinSquare, RejectionRegion3D,
                     analytic_power3, build_latin_region, conjugate, cyclic_latin,
                     is_totally_symmetric, normalize_corner, rejects3,
                     square_from_json, square_to_json)
from .bayes_lp import (ConstraintRow, LpProblem, LpSolution, assemble_bayes_region,
                       build_lp, candidate_objective, js_restricted_candidate,
                       solve_lp)
from .mediation import (DataError, FitResult, MediationDataset, OlsFit, fit_ols,
                        load_csv, product_method_stats, standardize_pair)
from .simulate import (DensityTable, EcdfTable, SimResult, SimRow, SimSpec,
                       sample_product_statistic, sample_sobel_density,
                       simulate_power, simulate_pvalue_ecdf, worker_count)
from .cli import cli_dispatch, main

__version__ = "0.1.0"

__all__ = [
    "Interval", "folded_interval_prob", "gaussian_interval_prob",
    "std_normal_cdf", "std_normal_quantile",
    "FORMAT_VERSION", "EstimateProvenance", "OutsideRule", "RegionFormatError",
    "RegionValidationError", "RejectionRegion2D", "TestStatisticPair",
    "WeightedRect", "analytic_power", "analytic_power_batch", "deserialize",
    "rejection_prob_at_point", "rejection_prob_at_points", "serialize",
    "JsTestResult", "SobelTestResult", "build_extended_region",
    "build_js_region", "build_minimax_region", "extended_breakpoints", "js_test",
    "origin_type1", "sobel_test",
    "PvalueResult", "benjamini_hochberg", "bonferroni",
    "minimax_pvalue", "minimax_pvalue_batch",
    "CornerNormalization", "LatinSquare", "RejectionRegion3D", "analytic_power3",
    "build_latin_region", "conjugate", "cyclic_latin", "is_totally_symmetric",
    "normalize_corner", "rejects3", "square_from_json", "square_to_json",
    "ConstraintRow", "LpProblem", "LpSolution", "assemble_bayes_region",
    "build_lp", "candidate_objective", "js_restricted_candidate", "solve_lp",
    "DataError", "FitResult", "MediationDataset", "OlsFit", "fit_ols", "load_csv",
    "product_method_stats", "standardize_pair",
    "DensityTable", "EcdfTable", "SimResult", "SimRow", "SimSpec",
    "sample_product_statistic", "sample_sobel_density", "simulate_power",
    "simulate_pvalue_ecdf", "worker_count",
    "cli_dispatch", "main",
    "__version__",
]
