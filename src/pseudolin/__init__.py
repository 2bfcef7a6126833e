"""Exact computer algebra for pseudo-linear maps theta = d/dx + T.

The package solves the minimal-relation problem for iterates of a
pseudo-linear map over Q(x) and instantiates it for four D-finite
operations: creative telescoping of bivariate rational functions via
Hermite reduction, differential resolvents of algebraic functions, least
common left multiples, and symmetric products.  It ships executable
degree-bound predictors for each instance and a property-test harness for
the determinantal-denominator laws that drive the bounds.

The hot integer-polynomial kernels are one pure-Python core in
``pseudolin._kernel``; ``BACKEND`` names it (``"python"``).
"""

from pseudolin._kernel import BACKEND
from pseudolin.bipoly import BiPoly, bipoly_gcd, resultant_y, squarefree_y
from pseudolin.exprparse import (ParseError, SemanticError, format_operator,
                                 parse)
from pseudolin.linalg import (PolyMatrix, RatMatrix, companion,
                              det_denominator, det_fraction_free,
                              det_rational, invert, kronecker, rank)
from pseudolin.ore import (GEN_DX, GEN_EULER, OrePoly, full_primitive,
                           infinity_not_irregular, normalize_primitive,
                           ore_mul, to_euler)
from pseudolin.poly import NEG_INF, Poly, poly_divides, poly_gcd, poly_lcm
from pseudolin.ratfun import RatFun, common_denominator
from pseudolin.relations import (BoundReport, PseudoLinearMap, Realisation,
                                 Relation, bound_direct, bound_realisation,
                                 krylov_denominator_check,
                                 krylov_matrix, solve_min_relation,
                                 trivial_realisation, verify_relation)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "BiPoly", "BoundReport", "GEN_DX", "GEN_EULER", "NEG_INF",
    "OrePoly", "ParseError", "Poly", "PolyMatrix", "PseudoLinearMap", "RatFun",
    "RatMatrix", "Realisation", "Relation", "SemanticError", "bipoly_gcd",
    "bound_direct", "bound_realisation", "common_denominator", "companion",
    "det_denominator", "det_fraction_free", "det_rational", "format_operator",
    "full_primitive", "infinity_not_irregular", "invert", "kronecker",
    "krylov_denominator_check", "krylov_matrix", "normalize_primitive",
    "ore_mul", "parse", "poly_divides", "poly_gcd", "poly_lcm", "rank",
    "resultant_y", "solve_min_relation", "squarefree_y", "to_euler",
    "trivial_realisation", "verify_relation",
]
