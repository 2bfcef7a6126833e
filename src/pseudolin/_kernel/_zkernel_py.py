"""Dense integer-polynomial kernels (pure Python backend).

A "zpoly" is a list of Python ints, little-endian (index i holds the
coefficient of x^i), with no trailing zeros; the zero polynomial is the
empty list.  These functions are the hot inner loops of the package: the
compiled backend in ``_zkernel.pyx`` mirrors this module function for
function, and ``pseudolin._kernel`` picks one at import time.

All functions treat their arguments as read-only and return fresh lists.
"""

from math import gcd

BACKEND = "python"


def zp_trim(c):
    """Strip trailing zero coefficients (in place) and return the list."""
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    del c[n:]
    return c


def zp_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i in range(len(b)):
        out[i] += b[i]
    return zp_trim(out)


def zp_sub(a, b):
    out = list(a)
    if len(b) > len(out):
        out.extend([0] * (len(b) - len(out)))
    for i in range(len(b)):
        out[i] -= b[i]
    return zp_trim(out)


def zp_neg(a):
    return [-c for c in a]


def zp_scale(a, k):
    if k == 0:
        return []
    return [c * k for c in a]


def zp_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def zp_addmul(acc, a, b):
    """Return acc + a*b without building the intermediate product list."""
    if not a or not b:
        return list(acc)
    out = list(acc)
    need = len(a) + len(b) - 1
    if len(out) < need:
        out.extend([0] * (need - len(out)))
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return zp_trim(out)


def zp_deriv(a):
    return [i * a[i] for i in range(1, len(a))]


def zp_divexact(a, b):
    """Exact division a // b in Z[x]; raises ValueError if not exact."""
    if not b:
        raise ZeroDivisionError("zpoly division by zero")
    if not a:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ValueError("inexact zpoly division")
    lb = b[db]
    r = list(a)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        num = r[db + k]
        if num % lb:
            raise ValueError("inexact zpoly division")
        c = num // lb
        q[k] = c
        if c:
            for i in range(db + 1):
                r[i + k] -= c * b[i]
    if any(r):
        raise ValueError("inexact zpoly division")
    return zp_trim(q)


def zp_pseudorem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a modulo b."""
    if not b:
        raise ZeroDivisionError("zpoly pseudo-remainder by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a)
    lb = b[db]
    r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        top = r[-1]
        k = len(r) - 1 - db
        r = [c * lb for c in r]
        for i in range(db + 1):
            r[i + k] -= top * b[i]
        zp_trim(r)
        e -= 1
    if e > 0:
        f = lb**e
        r = [c * f for c in r]
    return r


def zp_content(a):
    """Gcd of the coefficients (nonnegative); 0 for the zero polynomial."""
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def zp_primitive(a):
    """Return (a/content, content); the zero polynomial gives ([], 0)."""
    c = zp_content(a)
    if c == 0:
        return [], 0
    if c == 1:
        return list(a), 1
    return [x // c for x in a], c


_MODP = 2**61 - 1  # Mersenne prime for the coprimality fast path


def zp_modp_coprime(a, b, p=_MODP):
    """Certify gcd(a, b) constant by a gcd over F_p.

    Sound one way only: when the leading coefficients survive mod p, the
    reduction of the true gcd keeps its degree and divides the F_p gcd, so
    a constant F_p gcd proves coprimality.  Returns False when it cannot
    certify (which only costs the caller the full PRS).
    """
    if not a or not b or a[-1] % p == 0 or b[-1] % p == 0:
        return False
    A = [c % p for c in a]
    B = [c % p for c in b]
    while len(B) > 1 or (B and B[0]):
        lb = B[-1]
        inv = pow(lb, -1, p)
        db = len(B) - 1
        while len(A) - 1 >= db:
            top = A[-1] * inv % p
            if top:
                k = len(A) - 1 - db
                for i in range(db + 1):
                    A[i + k] = (A[i + k] - top * B[i]) % p
            del A[-1]
            while A and A[-1] == 0:
                del A[-1]
            if not A:
                break
        A, B = B, A
    return len(A) == 1


def _zp_eval_int(a, xi):
    acc = 0
    for c in reversed(a):
        acc = acc * xi + c
    return acc


def _heu_divisor(a, b):
    """Heuristic common divisor: gcd of integer evaluations, reconstructed
    in balanced base xi and verified by exact division.  Returns a
    primitive nonconstant common divisor or None."""
    xi = 2 * min(max(abs(c) for c in a), max(abs(c) for c in b)) + 4
    for _ in range(4):
        G = gcd(_zp_eval_int(a, xi), _zp_eval_int(b, xi))
        digits = []
        while G:
            r = G % xi
            if 2 * r > xi:
                r -= xi
            digits.append(r)
            G = (G - r) // xi
        g, _ = zp_primitive(zp_trim(digits))
        if len(g) > 1:
            try:
                zp_divexact(a, g)
                zp_divexact(b, g)
                return g
            except ValueError:
                pass
        xi = 2 * xi + 3
    return None


def zp_gcd(a, b):
    """Primitive gcd in Z[x] with positive leading coefficient.

    Coprime inputs (the common case) are certified by a gcd over F_p; a
    nontrivial gcd is first attempted heuristically (integer evaluation,
    balanced-digit reconstruction, division check) and its maximality
    certified through the cofactors, since gcd(a, b) = g * gcd(a/g, b/g);
    the primitive PRS is the fallback that handles whatever remains.
    """
    a, _ = zp_primitive(a)
    b, _ = zp_primitive(b)
    if not a:
        a, b = b, a
    if b and len(a) > 1 and len(b) > 1:
        if zp_modp_coprime(a, b):
            return [1]
        g = _heu_divisor(a, b)
        if g is not None:
            rest = zp_gcd(zp_divexact(a, g), zp_divexact(b, g))
            out = zp_mul(g, rest)
            if out[-1] < 0:
                out = [-c for c in out]
            return out
    while b:
        r = zp_pseudorem(a, b)
        r, _ = zp_primitive(r)
        a, b = b, r
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a
