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
lead*v - head*w and ``zmat_vec_content`` a matrix-vector product from
packed operands, so that elimination and the solver's iterates are never
unpacked before they are stripped, and ``zp_gcd`` is the two-entry case.
``_strip`` widens the point when the certificate fails (``_wider_nb``),
and falls back to the primitive PRS after the last point.

Every point is 2^(8*nb) for a byte width nb, and a width of at most 8
bytes is rounded up to 1, 2, 4 or 8 (``_width``).  At those widths a
coefficient list is converted to and from one integer by a single
``struct.pack``/``struct.unpack`` of two's-complement fields and one XOR
with the bias pattern 2^(8*nb-1) per field (``_pack``, ``_unpack``); a
wider digit goes through ``int.to_bytes``/``int.from_bytes`` on its own,
with the same XOR, so no bias is added or subtracted per digit.

All functions treat their arguments as read-only and return fresh lists,
except that a content strip that finds no content returns the vector it
was given.
"""

import struct
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


def _width(nb):
    """The byte width the kernel packs at for a least width nb: nb rounded
    up to 1, 2, 4 or 8 when it is at most 8, so that ``_pack`` and
    ``_unpack`` convert with one ``struct`` call; nb itself above 8."""
    return nb if nb > 8 else 1 << (nb - 1).bit_length()


# struct codes of the widths that ``_width`` gives up to 8 bytes
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _bias(n, nb):
    """The pattern top = sum_i 2^(k-1) * 2^(k*i), i < n, for k = 8*nb."""
    return int.from_bytes((b"\x00" * (nb - 1) + b"\x80") * n, "little")


def _pack(a, nb):
    """a(2^(8*nb)) as one int; needs -2^(8*nb-1) <= a_i < 2^(8*nb-1).

    Each a_i is written as its k-bit two's-complement field, k = 8*nb:
    one ``struct.pack`` at 1, 2, 4 or 8 bytes, one ``to_bytes`` per
    coefficient at other widths.  Read as an int, the fields sum to
    sum_i (a_i mod 2^k) 2^(k*i).  For -2^(k-1) <= c < 2^(k-1), the field
    of c XOR'd with 2^(k-1) is c + 2^(k-1): for c >= 0 the field is c,
    whose top bit is clear and is set; for c < 0 it is c + 2^k, whose top
    bit is set and is cleared.  The fields stay in [0, 2^k) and XOR acts
    on each field alone, so XOR with top (``_bias``) gives
    sum_i (a_i + 2^(k-1)) 2^(k*i) = a(2^k) + top, and subtracting top
    leaves a(2^k)."""
    n = len(a)
    code = _STRUCT_CODES.get(nb)
    if code:
        raw = struct.pack(f"<{n}{code}", *a)
    else:
        raw = b"".join([c.to_bytes(nb, "little", signed=True) for c in a])
    top = _bias(n, nb)
    return (int.from_bytes(raw, "little") ^ top) - top


def _unpack(v, n, nb):
    """The n balanced base-2^(8*nb) digits of v, each in [-2^(8*nb-1),
    2^(8*nb-1)); v must have such an n-digit expansion.

    ``_pack`` run backwards: v + top has the fields d_i + 2^(k-1) in
    [0, 2^k), and XOR with top turns each into the k-bit two's-complement
    field of d_i, read back by one ``struct.unpack`` at 1, 2, 4 or 8 bytes
    and by a signed ``from_bytes`` per digit at other widths."""
    top = _bias(n, nb)
    raw = ((v + top) ^ top).to_bytes(n * nb, "little")
    code = _STRUCT_CODES.get(nb)
    if code:
        return list(struct.unpack(f"<{n}{code}", raw))
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + nb], "little", signed=True)
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
        nb = _width((bits + 7) >> 3)
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
    nb = _width((max(bits + len(B).bit_length(), widest.bit_length()) + 8)
                >> 3)
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
    return _width((bits + _STRIP_ROOM + 8) >> 3)


def _wider_nb(nb):
    """Byte width of the strip's next point after 2^(8*nb): wider by half
    and a byte, rounded by ``_width``."""
    return _width(nb + 1 + nb // 2)


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
    points, each wider than the one before (``_wider_nb``), then
    ``_strip_chain``.
    Only the first point's values are given; when vec is None, t is
    unpacked from them after a failure, exactly, as xi >= 2|t_j| + 2."""
    for attempt in range(_STRIP_POINTS):
        if attempt:
            nb = _wider_nb(nb)
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


def zmat_vec_content(A, v):
    """(g, t/g) as ``zvec_poly_content`` gives them, for the product
    t = A v of a matrix of zpolys A, a list of rows, and a zpoly vector v.

    As in ``zvec_cross_content``, t is formed at one point only, sized for
    the strip: each entry of A and v that meets a nonzero partner is
    packed once, each t_i is one sum of integer products, and ``_strip``
    takes the content from the values, so t is unpacked once and never
    packed again.  The coefficients of A_ik v_k are below
    min(len A_ik, len v_k) |A_ik| |v_k|, as ``zp_mul`` bounds them, and
    t_i sums at most one such product per live k.
    """
    ks, bits = [], 0
    for k, z in enumerate(v):
        col = [row[k] for row in A if row[k]]
        if z and col:
            ks.append(k)
            bits = max(bits, max(map(_maxabs, col)).bit_length()
                       + _maxabs(z).bit_length()
                       + min(max(map(len, col)), len(z)).bit_length())
    nb = _strip_nb(bits + len(ks).bit_length())
    pv = {k: _pack(v[k], nb) for k in ks}
    vals = [sum(_pack(row[k], nb) * pv[k] for k in ks if row[k])
            for row in A]
    return _strip(vals, nb, None)
