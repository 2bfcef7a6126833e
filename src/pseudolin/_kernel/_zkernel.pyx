# cython: language_level=3, boundscheck=False, wraparound=False
"""Dense integer-polynomial kernels (compiled backend).

Function-for-function twin of ``_zkernel_py``; coefficients stay Python
ints (arbitrary precision), the compiled loops remove the interpreter
overhead of the inner coefficient arithmetic.
"""

from math import gcd

BACKEND = "cython"


def zp_trim(list c):
    cdef Py_ssize_t n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    del c[n:]
    return c


def zp_add(list a, list b):
    cdef Py_ssize_t i
    if len(a) < len(b):
        a, b = b, a
    cdef list out = list(a)
    for i in range(len(b)):
        out[i] = out[i] + b[i]
    return zp_trim(out)


def zp_sub(list a, list b):
    cdef Py_ssize_t i, la = len(a), lb = len(b)
    cdef list out = list(a)
    if lb > la:
        out.extend([0] * (lb - la))
    for i in range(lb):
        out[i] = out[i] - b[i]
    return zp_trim(out)


def zp_neg(list a):
    return [-c for c in a]


def zp_scale(list a, k):
    if k == 0:
        return []
    return [c * k for c in a]


def zp_mul(list a, list b):
    cdef Py_ssize_t i, j, la = len(a), lb = len(b)
    if la == 0 or lb == 0:
        return []
    cdef list out = [0] * (la + lb - 1)
    cdef object ca
    for i in range(la):
        ca = a[i]
        if ca:
            for j in range(lb):
                out[i + j] = out[i + j] + ca * b[j]
    return out


def zp_addmul(list acc, list a, list b):
    cdef Py_ssize_t i, j, la = len(a), lb = len(b), need
    if la == 0 or lb == 0:
        return list(acc)
    cdef list out = list(acc)
    need = la + lb - 1
    if len(out) < need:
        out.extend([0] * (need - len(out)))
    cdef object ca
    for i in range(la):
        ca = a[i]
        if ca:
            for j in range(lb):
                out[i + j] = out[i + j] + ca * b[j]
    return zp_trim(out)


def zp_deriv(list a):
    cdef Py_ssize_t i
    return [i * a[i] for i in range(1, len(a))]


def zp_divexact(list a, list b):
    cdef Py_ssize_t i, k, da, db
    if not b:
        raise ZeroDivisionError("zpoly division by zero")
    if not a:
        return []
    da = len(a) - 1
    db = len(b) - 1
    if da < db:
        raise ValueError("inexact zpoly division")
    cdef object lb = b[db], num, c
    cdef list r = list(a)
    cdef list q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        num = r[db + k]
        if num % lb:
            raise ValueError("inexact zpoly division")
        c = num // lb
        q[k] = c
        if c:
            for i in range(db + 1):
                r[i + k] = r[i + k] - c * b[i]
    for i in range(len(r)):
        if r[i]:
            raise ValueError("inexact zpoly division")
    return zp_trim(q)


def zp_pseudorem(list a, list b):
    cdef Py_ssize_t i, k, da, db, e
    if not b:
        raise ZeroDivisionError("zpoly pseudo-remainder by zero")
    da = len(a) - 1
    db = len(b) - 1
    if da < db:
        return list(a)
    cdef object lb = b[db], top, f
    cdef list r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        top = r[len(r) - 1]
        k = len(r) - 1 - db
        r = [c * lb for c in r]
        for i in range(db + 1):
            r[i + k] = r[i + k] - top * b[i]
        zp_trim(r)
        e -= 1
    if e > 0:
        f = lb**e
        r = [c * f for c in r]
    return r


def zp_content(list a):
    cdef object g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def zp_primitive(list a):
    cdef object c = zp_content(a)
    if c == 0:
        return [], 0
    if c == 1:
        return list(a), 1
    return [x // c for x in a], c


_MODP = 2**61 - 1  # Mersenne prime for the coprimality fast path


def zp_modp_coprime(a, b, p=_MODP):
    """Certify gcd(a, b) constant by a gcd over F_p (sound one way only)."""
    cdef Py_ssize_t i, k, db
    if not a or not b or a[len(a) - 1] % p == 0 or b[len(b) - 1] % p == 0:
        return False
    cdef list A = [c % p for c in a]
    cdef list B = [c % p for c in b]
    cdef object lb, inv, top
    while len(B) > 1 or (B and B[0]):
        lb = B[len(B) - 1]
        inv = pow(lb, -1, p)
        db = len(B) - 1
        while len(A) - 1 >= db:
            top = A[len(A) - 1] * inv % p
            if top:
                k = len(A) - 1 - db
                for i in range(db + 1):
                    A[i + k] = (A[i + k] - top * B[i]) % p
            del A[len(A) - 1]
            while A and A[len(A) - 1] == 0:
                del A[len(A) - 1]
            if not A:
                break
        A, B = B, A
    return len(A) == 1


def _zp_eval_int(list a, xi):
    cdef object acc = 0
    cdef Py_ssize_t i
    for i in range(len(a) - 1, -1, -1):
        acc = acc * xi + a[i]
    return acc


def _heu_divisor(list a, list b):
    """Heuristic common divisor (evaluation + balanced-digit reconstruction
    + division check); primitive nonconstant divisor or None."""
    cdef object xi, G, r
    cdef list digits, g
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


def zp_gcd(list a, list b):
    """Primitive gcd: modular coprimality certificate, verified heuristic
    divisor extraction, primitive-PRS fallback."""
    cdef list r, g, out
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
            if out[len(out) - 1] < 0:
                out = [-c for c in out]
            return out
    while b:
        r = zp_pseudorem(a, b)
        r, _ = zp_primitive(r)
        a, b = b, r
    if a and a[len(a) - 1] < 0:
        a = [-c for c in a]
    return a
