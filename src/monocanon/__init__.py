"""Exact depth and Stanley depth of monomial ideal factors, with a
canonical form that compresses exponents before the expensive searches."""

from .bench import BenchReport, MetricBench, SideTiming, run_bench
from .canonical import (GapError, applicable_gaps, canonicalize,
                        canonicalize_ideal, canonicalize_var,
                        collapse_gap_step, is_canonical, lift,
                        shift_transform, type_wrt)
from .ideals import (MAX_EXPONENT, DimensionError, Factor, FactorError,
                     Monomial, MonomialIdeal, deglex_key, divides,
                     minimalize)
from .invariance import (FAIL, PASS, SKIPPED, CheckRecord,
                         InvarianceViolation, build_forms, check_factor,
                         check_forms)
from .koszul import (FieldChoice, PrimeField, Rationals, depth,
                     homology_dims, matrix_rank, parse_field)
from .limits import (BoxCapError, ResourceError, SearchBudgetError,
                     TimeLimitError)
from .parse import (ParseError, default_names, format_factor, format_ideal,
                    format_ideal_body, format_monomial, format_problem,
                    parse_ideal, parse_problem)
from .randomgen import random_factor, random_ideal
from .sdepth import (CharacteristicPoset, IntervalPartition, char_poset,
                     decomposition_lines, exists_partition, rho, sdepth,
                     verify_decomposition)

__version__ = "0.1.0"

__all__ = [
    "MAX_EXPONENT", "Monomial", "MonomialIdeal", "Factor",
    "DimensionError", "FactorError", "deglex_key", "divides", "minimalize",
    "ParseError", "parse_ideal", "parse_problem", "format_monomial",
    "format_ideal", "format_ideal_body", "format_factor", "format_problem",
    "default_names",
    "GapError", "type_wrt", "canonicalize",
    "canonicalize_var", "canonicalize_ideal", "is_canonical",
    "collapse_gap_step", "applicable_gaps", "shift_transform", "lift",
    "CharacteristicPoset", "IntervalPartition", "char_poset", "rho",
    "exists_partition", "sdepth", "verify_decomposition",
    "decomposition_lines",
    "FieldChoice", "Rationals", "PrimeField", "parse_field", "matrix_rank",
    "homology_dims", "depth",
    "ResourceError", "BoxCapError", "SearchBudgetError", "TimeLimitError",
    "InvarianceViolation", "CheckRecord", "PASS", "FAIL", "SKIPPED",
    "build_forms", "check_factor", "check_forms",
    "BenchReport", "MetricBench", "SideTiming", "run_bench",
    "random_ideal", "random_factor",
]
