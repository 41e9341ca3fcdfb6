"""Exact valuation-theoretic invariants of monomial ideals.

Jumping numbers (plain, mixed, and asymptotic), Tian functions,
Zhou-valuation certificates, 2-dimensional valuative-tree quantities,
and an independent multiplier-ideal oracle that cross-checks every
headline number.  All arithmetic is exact rational.
"""

from .errors import (CrossCheckError, DimensionCapError,
                     DimensionMismatchError, DomainError, InfiniteLctError,
                     MixedVariableSetsError, NegativityViolationError,
                     NonUniqueMinimizerError, NormalizationError,
                     NotAMinimizerError, OutOfRangeError, ParseError,
                     VallabError, ZeroIdealError)
from .geometry import NewtonPolyhedron, Ray, critical_rays, newton_polyhedron
from .ideals import ExponentVector, MonomialIdeal, WeightVector
from .jumping import (LctResult, RayCertificate, TransferReport,
                      compute_transfer_check, lct_mixed, lct_mixed_graded)
from .oracle import (MultiplierIdealResult, controlled_growth_check,
                     howald_multiplier, jumping_number_oracle)
from .scalars import INFINITY, Rat, format_rat, is_finite
from .tian import (CriterionVerdict, PLConcave, Piece, default_test_family,
                   slope_report, tian_function, zhou_criterion)
from .tree2d import (ApproxSeq2D, ZhouBound, a_disc_2d, min_zhou_N,
                     relative_value_2d, sigma_profile, zv1_member)
from .valuations import (EnlargedSeq, GradedSeq, PowersSeq, ValSeq,
                         log_discrepancy, truncate, valuation_ideal,
                         value_on_graded, value_on_ideal)
from .zhou import (ComparisonResult, Ordering, SandwichReport,
                   ZhouCertificate, asymptotic_membership, example_zhou_data,
                   power_sandwich, singularity_compare,
                   singularity_compare_graded, val_membership, zhou_rescale)

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "Rat", "format_rat", "is_finite",
    "ExponentVector", "MonomialIdeal", "WeightVector",
    "Ray", "NewtonPolyhedron", "newton_polyhedron", "critical_rays",
    "PowersSeq", "ValSeq", "EnlargedSeq", "GradedSeq",
    "value_on_ideal", "log_discrepancy", "valuation_ideal",
    "value_on_graded", "truncate",
    "LctResult", "RayCertificate", "TransferReport",
    "lct_mixed", "lct_mixed_graded", "compute_transfer_check",
    "PLConcave", "Piece", "tian_function", "slope_report", "zhou_criterion",
    "CriterionVerdict", "default_test_family",
    "ZhouCertificate", "zhou_rescale", "val_membership", "example_zhou_data",
    "Ordering", "ComparisonResult", "singularity_compare",
    "singularity_compare_graded",
    "asymptotic_membership", "SandwichReport", "power_sandwich",
    "ApproxSeq2D", "a_disc_2d", "min_zhou_N", "zv1_member",
    "relative_value_2d", "sigma_profile", "ZhouBound",
    "MultiplierIdealResult", "howald_multiplier", "jumping_number_oracle",
    "controlled_growth_check",
    "VallabError", "ZeroIdealError", "DimensionCapError",
    "DimensionMismatchError",
    "NegativityViolationError", "NotAMinimizerError", "InfiniteLctError",
    "DomainError", "NonUniqueMinimizerError", "NormalizationError",
    "OutOfRangeError", "ParseError", "MixedVariableSetsError",
    "CrossCheckError",
]
