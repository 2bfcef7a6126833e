"""The four reductions to the minimal-relation problem: telescoping by
Hermite reduction, differential resolvents, LCLM and symmetric product."""

from pseudolin.instances.algebraic import (AlgebraicInstance,
                                           algebraic_bound_report,
                                           bound_algebraic, build_algebraic,
                                           empirical_curve_algebraic,
                                           resolvent, verify_resolvent)
from pseudolin.instances.closures import (ClosureInstance, bound_lclm,
                                          bound_symprod, build_lclm,
                                          build_symprod,
                                          closure_bound_report, lclm,
                                          operator_degree, symprod,
                                          symprod_conjecture_curve,
                                          verify_lclm, verify_symprod)
from pseudolin.instances.hermite import (HermiteInstance, bound_hermite,
                                         build_hermite, certificate_fraction,
                                         certificate_matches,
                                         genericity_check,
                                         hermite_bound_report, hermite_reduce,
                                         telescoper, verify_telescoper)

__all__ = [
    "AlgebraicInstance", "ClosureInstance", "HermiteInstance",
    "algebraic_bound_report", "bound_algebraic", "bound_hermite",
    "bound_lclm", "bound_symprod", "build_algebraic", "build_hermite",
    "build_lclm", "build_symprod", "certificate_fraction",
    "certificate_matches", "closure_bound_report",
    "empirical_curve_algebraic", "genericity_check", "hermite_bound_report",
    "hermite_reduce", "lclm", "operator_degree", "resolvent", "symprod",
    "symprod_conjecture_curve", "telescoper", "verify_lclm",
    "verify_resolvent", "verify_symprod", "verify_telescoper",
]
