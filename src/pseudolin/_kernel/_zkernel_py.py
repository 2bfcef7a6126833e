"""Dense integer-polynomial kernels.

A "zpoly" is a list of Python ints, little-endian (index i holds the
coefficient of x^i), with no trailing zeros; the zero polynomial is the
empty list.  These functions are the hot inner loops of the package;
``pseudolin._kernel`` re-exports them.

Long products and the heuristic gcd both go through Kronecker
substitution: a zpoly is evaluated at a power of two by packing its
coefficients into one big integer, CPython's big-integer arithmetic does
the work, and balanced digits are unpacked again (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J. Symb.
Comp. 2009; Char, Geddes and Gonnet, "GCDHEU: heuristic polynomial GCD
algorithm based on integer GCD computation", J. Symb. Comp. 7, 1989).
``zmat_mul`` packs each entry of a matrix product once.
There is one GCDHEU, ``_strip_packed``: the content of a whole vector
from the integer gcd of its values at one point, certified by one integer
division per entry, whose quotients are the stripped entries.
``zvec_poly_content`` packs a vector, ``zvec_cross_content`` forms
lead*v - head*w from packed operands, so that elimination never unpacks a
vector before it is stripped, and ``zp_gcd`` is the two-entry case.
``_strip`` widens the point when the certificate fails, and falls back to
the primitive PRS after the last point.

All functions treat their arguments as read-only and return fresh lists,
except that a content strip that finds no content returns the vector it
was given.
"""

from math import gcd


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


# both factors at least this long: multiply by Kronecker substitution
_KRONECKER_MIN_LEN = 8


def _pack(a, nb):
    """a(2^(8*nb)) as one int; needs |a_i| < 2^(8*nb - 1)."""
    bias = 1 << ((nb << 3) - 1)
    raw = b"".join([(c + bias).to_bytes(nb, "little") for c in a])
    top = (b"\x00" * (nb - 1) + b"\x80") * len(a)
    return int.from_bytes(raw, "little") - int.from_bytes(top, "little")


def _unpack(v, n, nb):
    """The n balanced base-2^(8*nb) digits of v, each in [-2^(8*nb-1),
    2^(8*nb-1)); v must have such an n-digit expansion."""
    bias = 1 << ((nb << 3) - 1)
    top = (b"\x00" * (nb - 1) + b"\x80") * n
    raw = (v + int.from_bytes(top, "little")).to_bytes(n * nb, "little")
    return [int.from_bytes(raw[i:i + nb], "little") - bias
            for i in range(0, n * nb, nb)]


def _maxabs(a):
    return max(max(a), -min(a))


def zp_mul(a, b):
    """Product in Z[x]: schoolbook for short factors, else one big-int
    product of the packed factors (Kronecker substitution)."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la >= _KRONECKER_MIN_LEN and lb >= _KRONECKER_MIN_LEN:
        # every product coefficient is below min(la, lb)*|a|*|b| in size
        bits = (_maxabs(a).bit_length() + _maxabs(b).bit_length()
                + min(la, lb).bit_length() + 1)
        nb = (bits + 7) >> 3
        return _unpack(_pack(a, nb) * _pack(b, nb), la + lb - 1, nb)
    out = [0] * (la + lb - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def zmat_mul(A, B):
    """Product of an I x K and a K x J matrix of zpolys, each a list of
    rows: one Kronecker substitution when some product A_ik B_kj has two
    long factors, else schoolbook, summed into one list per entry.

    Each nonzero entry is packed once at one point xi = 2^(8*nb), and each
    result entry, sum_k A_ik(xi) B_kj(xi), is unpacked once.  xi/2 is
    above every packed entry and above K * min(len a, len b) * |a| * |b|
    for a in column k of A and b in row k of B, for every k, so above
    every coefficient of the result; as the balanced digits are unique
    when every coefficient is below xi/2, they are the entry itself.
    """
    J = len(B[0]) if B else 0
    # (column k of A, row k of B, the shorter of their longest entries)
    ks = []
    for k, brow in enumerate(B):
        col = [row[k] for row in A if row[k]]
        brow = [b for b in brow if b]
        if col and brow:
            ks.append((col, brow, min(max(map(len, col)),
                                      max(map(len, brow)))))
    if all(m < _KRONECKER_MIN_LEN for _, _, m in ks):
        out = []
        for row in A:
            out.append([])
            for j in range(J):
                t = []
                for a, brow in zip(row, B):
                    b = brow[j]
                    if a and b:
                        t.extend([0] * (len(a) + len(b) - 1 - len(t)))
                        for i, ca in enumerate(a):
                            if ca:
                                for k, cb in enumerate(b):
                                    t[i + k] += ca * cb
                out[-1].append(zp_trim(t))
        return out
    bits = max(max(map(_maxabs, col)).bit_length()
               + max(map(_maxabs, brow)).bit_length() + m.bit_length()
               for col, brow, m in ks)
    widest = max(_maxabs(e) for row in A + B for e in row if e)
    nb = (max(bits + len(B).bit_length(), widest.bit_length()) + 8) >> 3
    PB = [[_pack(b, nb) if b else 0 for b in row] for row in B]
    PA = [[(_pack(a, nb), PB[k]) for k, a in enumerate(row) if a]
          for row in A]
    return [[_digits(sum(v * pb[j] for v, pb in pa), nb) for j in range(J)]
            for pa in PA]


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


def zp_gcd(a, b):
    """Primitive gcd in Z[x] with positive leading coefficient: the
    two-entry case of the content strip (``zvec_poly_content``)."""
    a, _ = zp_primitive(a)
    b, _ = zp_primitive(b)
    if not a:
        a, b = b, a
    if not b:
        return zp_neg(a) if a and a[-1] < 0 else a
    return zvec_poly_content([a, b])[0]


# -- the content strip: GCDHEU on a vector -----------------------------------

# bits of the strip's point above the least that ``_strip_packed`` allows:
# room for its quotients' certificate.  With none, 10 of the 198 strips of
# six lclm_heavy instances failed their first point; with 4, none did.
_STRIP_ROOM = 4

# points the strip tries, each wider by half, before the chain of gcds
_STRIP_POINTS = 4


def _strip_nb(bits):
    """Byte width nb of the strip's point xi = 2^(8*nb) for entries whose
    coefficients are below 2^bits: xi >= 2^(bits + 1 + _STRIP_ROOM), so
    xi >= 2|t| + 2 for every entry t."""
    return (bits + _STRIP_ROOM + 8) >> 3


def _digits(v, nb):
    """The balanced base-2^(8*nb) digits of the int v, as a zpoly."""
    k = nb << 3
    return zp_trim(_unpack(v, (abs(v).bit_length() + k + 1) // k, nb))


def _strip_packed(vals, nb, vec):
    """(g, t/g) for the zpoly vector t given by its values vals at
    xi = 2^(8*nb), with xi >= 2|t_j| + 2 for each entry, and g its
    primitive polynomial content with a positive leading coefficient
    (g = [1] when there is none); None when the certificate fails at this
    point.  vec is t itself, returned as it is when there is no content,
    or None when only the values are known.  A single nonzero entry is its
    own content up to sign (``_single_content``).

    GCDHEU (Char, Geddes and Gonnet 1989) on the whole vector: let
    h = gcd_j t_j(xi).  Every root of a nonconstant divisor of a t_j lies
    within 1 + |t_j| <= xi/2 of the origin (Cauchy), so a nonconstant
    primitive divisor d of the content has |d(xi)| > xi/2, and d(xi)
    divides h.

    * h < xi/2, a single digit, proves that there is no polynomial
      content: no division at all.
    * Otherwise g = prim(G) for G the balanced base-xi digits of h, and
      q_j = t_j(xi) / g(xi) comes from one integer division; a nonzero
      remainder proves that g does not divide t_j.  q_j is accepted when
      its digits Q_j satisfy |Q_j| * |g| * min(len Q_j, len g) < xi/2:
      then every coefficient of Q_j * g is below xi/2, and as the
      balanced representation is unique, Q_j * g = t_j exactly.  So g
      divides the content c, say c = g * k, and k(xi) divides
      h / g(xi) = cont(G), which is at most xi/2; |k(xi)| > xi/2 for a
      nonconstant k, so k is a unit and g is the content.

    The point is sized on the largest entry.  A GCDHEU that certifies g by
    trial divisions in Z[x] needs xi >= 2|t_j| + 2 for the smallest entry
    only, as Cauchy's bound for a common divisor follows from any one
    entry.  Here the quotients are read off the values, and the balanced
    digits of a value are the entry itself only when all its coefficients
    are below xi/2, which the argument above uses for every entry.  For
    ``zp_gcd`` that is the larger operand: wider values, but two integer
    divisions in place of two schoolbook trial divisions.
    """
    k = nb << 3
    h, live = 0, 0
    for v in vals:
        if v:
            h = gcd(h, v)
            live += 1
    if live <= 1 or h.bit_length() < k:
        if vec is None:
            vec = [_digits(v, nb) if v else [] for v in vals]
        return _single_content(vec) if live == 1 else ([1], vec)
    # h > 0, so the top balanced digit and the leading coefficient of g
    # are positive
    g, _ = zp_primitive(_digits(h, nb))
    gv = _pack(g, nb)
    room = k - _maxabs(g).bit_length()
    out = []
    for v in vals:
        if not v:
            out.append([])
            continue
        q, r = divmod(v, gv)
        if r:
            return None
        Q = _digits(q, nb)
        if (_maxabs(Q).bit_length() + min(len(Q), len(g)).bit_length()
                >= room):
            return None
        out.append(Q)
    return g, out


def _single_content(vec):
    """(g, vec/g) for a vector with one nonzero entry z: g = +-z with a
    positive lead and the entry [+-1]; g = [1] when z is a constant."""
    g = next(z for z in vec if z)
    if len(g) == 1:
        return [1], vec
    u = 1 if g[-1] > 0 else -1
    return zp_scale(g, u), [[u] if z else [] for z in vec]


def _strip(vals, nb, vec):
    """The content strip of ``_strip_packed`` at up to _STRIP_POINTS
    points, each wider by half than the one before, then ``_strip_chain``.
    Only the first point's values are given; when vec is None, t is
    unpacked from them after a failure, exactly, as xi >= 2|t_j| + 2."""
    for attempt in range(_STRIP_POINTS):
        if attempt:
            nb += 1 + nb // 2
            vals = [_pack(z, nb) if z else 0 for z in vec]
        got = _strip_packed(vals, nb, vec)
        if got is not None:
            return got
        if vec is None:
            vec = [_digits(v, nb) if v else [] for v in vals]
    return _strip_chain(vec)


def _strip_chain(vec):
    """The fallback of ``_strip``, for a vector with two or more nonzero
    entries: the content as a chain of pairwise gcds, each certified
    coprime over F_p (``zp_modp_coprime``) or taken by the primitive
    PRS, then one exact division per entry."""
    live = [z for z in vec if z]
    g, _ = zp_primitive(live[0])
    for b in live[1:]:
        b, _ = zp_primitive(b)
        if zp_modp_coprime(g, b):
            return [1], vec
        while b:
            g, b = b, zp_primitive(zp_pseudorem(g, b))[0]
        if len(g) == 1:
            return [1], vec
    if g[-1] < 0:
        g = zp_neg(g)
    return g, [zp_divexact(z, g) for z in vec]


def zvec_poly_content(vec):
    """(g, vec/g) for g the primitive polynomial content of a zpoly vector,
    with a positive leading coefficient, [1] when there is none; a single
    nonconstant entry z gives g = +-z and [+-1].  The entries are packed
    at one point and stripped by ``_strip``; with no content the vector is
    returned as it is."""
    live = [z for z in vec if z]
    if len(live) == 1:
        return _single_content(vec)
    if not live or any(len(z) == 1 for z in live):
        return [1], vec
    nb = _strip_nb(max(_maxabs(z) for z in live).bit_length())
    return _strip([_pack(z, nb) if z else 0 for z in vec], nb, vec)


def _cross_bits(lead, v, head, w):
    """bits with 2^bits above every coefficient of lead*v - head*w: the
    coefficients of lead*v_j are below min(len lead, len v_j) |lead| |v_j|,
    as ``zp_mul`` bounds them, and those of head*w_j likewise."""
    vb = max((_maxabs(z).bit_length() for z in v if z), default=0)
    wb = max((_maxabs(z).bit_length() for z in w if z), default=0)
    vlen = max(map(len, v))
    wlen = max(map(len, w))
    return 1 + max(
        vb + _maxabs(lead).bit_length() + min(len(lead), vlen).bit_length(),
        wb + _maxabs(head).bit_length() + min(len(head), wlen).bit_length())


def zvec_cross_content(lead, v, head, w):
    """(g, t/g) as ``zvec_poly_content`` gives them, for the vector
    t = lead*v - head*w of two zpoly vectors v and w with lead and head
    nonzero.

    t is formed at one point only, sized from the operands by
    ``_cross_bits``: every entry is packed once, each t_j is two integer
    products, and ``_strip`` takes the content from the values.
    """
    nb = _strip_nb(_cross_bits(lead, v, head, w))
    lv, hv = _pack(lead, nb), _pack(head, nb)
    vals = []
    for a, b in zip(v, w):
        t = _pack(a, nb) * lv if a else 0
        if b:
            t -= hv * _pack(b, nb)
        vals.append(t)
    return _strip(vals, nb, None)
