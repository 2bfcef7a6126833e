"""The integer-polynomial kernels (see ``_zkernel_py``).

One pure-Python core.  Long products use Kronecker substitution (Harvey,
J. Symb. Comp. 2009) and gcds the heuristic GCDHEU (Char, Geddes and
Gonnet, J. Symb. Comp. 7, 1989), so CPython's big-integer arithmetic does
the inner loops; a matrix product (``zmat_mul``) packs each entry once,
and the content strip of a vector runs on packed values too.  ``BACKEND``
names the core for reports.
"""

from pseudolin._kernel._zkernel_py import (zmat_mul, zp_add, zp_content,
                                           zp_deriv, zp_divexact, zp_gcd,
                                           zp_mul, zp_neg, zp_primitive,
                                           zp_pseudorem, zp_scale, zp_sub,
                                           zp_trim, zvec_cross_content,
                                           zvec_poly_content)

BACKEND = "python"


def zp_divides(b, a):
    """True when b divides a in Q[x] (both integer polynomials)."""
    if not b:
        return not a
    try:
        _divexact_q(a, b)
    except ValueError:
        return False
    return True


def _divexact_q(a, b):
    """Division a/b exact over Q[x]: returns (quotient zpoly, num, den).

    The quotient is num/den * zpoly with den > 0; raises ValueError when b
    does not divide a over Q.  By Gauss's lemma this reduces to an exact
    Z[x] division of the primitive parts.
    """
    pa, ca = zp_primitive(a)
    pb, cb = zp_primitive(b)
    if not pb:
        raise ZeroDivisionError("zpoly division by zero")
    if not pa:
        return [], 0, 1
    q = zp_divexact(pa, pb)
    return q, ca, cb
