"""Dense exact linear algebra over Q[x] and Q(x).

Two thin immutable matrix types (:class:`PolyMatrix`, :class:`RatMatrix`)
plus the operations the rest of the package needs.  Rows enter Z[x]
through the two clearing helpers, ``poly.zclear`` for Poly rows and
``ratfun.zclear_ratfuns`` for RatFun rows.  One fraction-free (Bareiss)
elimination over Z[x], ``_bareiss``, runs on row-cleared augmented
matrices [A | B] with A square and returns det-scaled solutions; it
serves the determinant, inversion and the cleared map of a realisation
(``relations.Realisation``).  Besides it: exact rank through the
incremental ``GaussTracker``, determinantal denominators (the monic least
common denominator of all minors up to a given order) and Kronecker
products.

Contents in Z[x] come from one packed strip in the kernel: the entries'
values at one power of two xi, their integer gcd h, and, when h is more
than one digit, the balanced digits of h as the candidate content g,
certified by one integer division per entry and a bound on the
quotients' digits (GCDHEU on a whole vector, see
``_kernel._zkernel_py._strip_packed``).  ``poly.zvec_content`` packs a
vector and strips it; ``GaussTracker`` forms each reduction's vector at
the point itself and strips it there, so only the stripped vector is
unpacked, and takes the cofactors of each reduction's lead and head from
the same strip.

Determinantal denominators are computed by exhaustive minor enumeration,
which is combinatorial in the dimensions; they are meant for matrices of
dimension at most about 6 (property tests and small instances).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from pseudolin import _kernel as zk
from pseudolin.poly import (Poly, poly_lcm, zclear, zvec_content,
                            zvec_int_content)
from pseudolin.ratfun import RatFun, zclear_ratfuns


class _Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def col(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def __eq__(self, other):
        return (type(self) is type(other) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((type(self).__name__, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows))
        return f"{type(self).__name__}({self.rows}x{self.cols}: [{body}])"

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(cls._convert(e) for e in r)
        return cls(nrows, ncols, flat)


class PolyMatrix(_Matrix):
    """Dense matrix with Poly entries."""

    @staticmethod
    def _convert(e):
        if isinstance(e, Poly):
            return e
        if isinstance(e, (int, Fraction)):
            return Poly.const(e)
        raise TypeError(f"cannot store {type(e).__name__} in PolyMatrix")

    @staticmethod
    def identity(n: int) -> PolyMatrix:
        return PolyMatrix(n, n, [Poly.one() if i == j else Poly()
                                 for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> PolyMatrix:
        return PolyMatrix(rows, cols, [Poly()] * (rows * cols))


class RatMatrix(_Matrix):
    """Dense matrix with RatFun entries."""

    @staticmethod
    def _convert(e):
        if isinstance(e, RatFun):
            return e
        if isinstance(e, (int, Fraction, Poly)):
            return RatFun(e)
        raise TypeError(f"cannot store {type(e).__name__} in RatMatrix")

    @staticmethod
    def identity(n: int) -> RatMatrix:
        return RatMatrix(n, n, [RatFun.one() if i == j else RatFun.zero()
                                for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> RatMatrix:
        return RatMatrix(rows, cols, [RatFun.zero()] * (rows * cols))

    def add(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return RatMatrix(self.rows, self.cols,
                         [a + b for a, b in zip(self.entries, other.entries)])

    def matmul(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = RatFun.zero()
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                out.append(acc)
        return RatMatrix(self.rows, other.cols, out)

    def is_strictly_proper(self) -> bool:
        return all(e.is_strictly_proper() for e in self.entries)


def block_diag(blocks) -> PolyMatrix:
    """Block-diagonal matrix of ``PolyMatrix`` blocks."""
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    entries = [Poly()] * (n * m)
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                entries[(r0 + i) * m + (c0 + j)] = b.entry(i, j)
        r0 += b.rows
        c0 += b.cols
    return PolyMatrix(n, m, entries)


def hstack_poly(blocks) -> PolyMatrix:
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("row mismatch")
    out = []
    for i in range(rows):
        for b in blocks:
            out.extend(b.row(i))
    return PolyMatrix(rows, sum(b.cols for b in blocks), out)


def vstack_poly(blocks) -> PolyMatrix:
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column mismatch")
    out = []
    for b in blocks:
        out.extend(b.entries)
    return PolyMatrix(sum(b.rows for b in blocks), cols, out)


# -- fraction-free elimination ------------------------------------------------


def _zrows(rows):
    """(s, zrows): each row of Poly entries cleared by ``poly.zclear``,
    and s the product of the row scales."""
    scale, out = 1, []
    for row in rows:
        s, zrow = zclear(row)
        scale *= s
        out.append(zrow)
    return scale, out


def _bareiss(rows, m):
    """Fraction-free (Bareiss) elimination of the integer zpoly rows
    [A | B], A the first m columns of the m rows (destructive).

    The pivot of each column is its shortest nonzero entry.  After step k
    every entry below row k is a minor of order k + 1, so each division by
    the previous pivot is exact in Z[x], and the last pivot is the minor
    of the m pivot rows: delta below is that minor, signed so that it is
    det A.

    Returns (delta, Z) with Z = delta * A^-1 B (m rows of zpolys) from a
    fraction-free back-substitution: with U the eliminated rows and b'
    their right-hand sides, delta*x_i = (delta*b'_i - sum_j U_ij delta*x_j)
    / U_ii, a division that is exact in Z[x] by Cramer's rule.  delta is
    [] (and Z None) when A is singular.
    """
    n = len(rows)
    sign, prev = 1, [1]
    for k in range(m):
        piv, best = -1, None
        for i in range(k, n):
            e = rows[i][k]
            if e and (best is None or len(e) < best):
                piv, best = i, len(e)
        if piv < 0:
            return [], None
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        prow = rows[k]
        pivot = prow[k]
        divide = prev != [1]
        for row in rows[k + 1:]:
            head = row[k]
            for j in range(k + 1, len(row)):
                t = zk.zp_mul(row[j], pivot)
                if head and prow[j]:
                    t = zk.zp_sub(t, zk.zp_mul(head, prow[j]))
                row[j] = zk.zp_divexact(t, prev) if t and divide else t
            row[k] = []
        prev = pivot
    delta = zk.zp_neg(prev) if sign < 0 else prev
    Z = [None] * m
    for i in range(m - 1, -1, -1):
        row = rows[i]
        out = []
        for c in range(len(row) - m):
            t = zk.zp_mul(delta, row[m + c])
            for j in range(i + 1, m):
                if row[j] and Z[j][c]:
                    t = zk.zp_sub(t, zk.zp_mul(row[j], Z[j][c]))
            out.append(zk.zp_divexact(t, row[i]))
        Z[i] = out
    return delta, Z


def det_fraction_free(m: PolyMatrix) -> Poly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are cleared to integer coefficients first, so all intermediate
    entries are integer polynomials and every division is exact.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    scale, zrows = _zrows([m.row(i) for i in range(m.rows)])
    return Poly.from_z(_bareiss(zrows, m.cols)[0], scale)


def det_rational(R: RatMatrix) -> RatFun:
    """Exact determinant of a square RatMatrix (row-cleared Bareiss)."""
    if R.rows != R.cols:
        raise ValueError("determinant of a non-square matrix")
    return _rat_det([R.row(i) for i in range(R.rows)])


def _rat_det(rows) -> RatFun:
    """Determinant of a small square grid of RatFun entries: each row is
    cleared by ``zclear_ratfuns``, and the product of the rows' D is the
    denominator."""
    scale, zrows = [1], []
    for row in rows:
        D, N = zclear_ratfuns(row)
        scale = zk.zp_mul(scale, D)
        zrows.append(N)
    return RatFun(Poly.from_z(_bareiss(zrows, len(rows))[0]),
                  Poly.from_z(scale))


# -- solving and rank ----------------------------------------------------------


class GaussTracker:
    """Incremental fraction-free column elimination over Z[x].

    Offered vectors have ``width`` working slots, optionally followed by
    bookkeeping slots.  Pivots are chosen among the working slots only; a
    vector whose working slots all vanish is dependent, and its remaining
    slots (if any) certify the dependency.  Vectors are normalized up to
    an overall nonzero scalar of Q(x) -- ``zvec_content`` strips their
    content in Z[x] -- which neither the rank nor ratios of slots depend
    on.

    The offer contract: the caller offers a content-free vector (see
    ``zvec_content``); ``offer`` does not strip it again.  Bookkeeping
    slots keep whatever content they are given in place, and content
    carried into the elimination is multiplied through every reduction.

    Each reduction of v by a pivot w with lead = w[pr] and head = v[pr]
    first cancels h = gcd(lead, head), whose cofactors lead/h and head/h
    are the quotients of the two-entry strip ``zvec_poly_content``, and
    forms (lead/h)*v - (head/h)*w: the vector lead*v - head*w divided by a
    part of its content known before the products are formed, so the
    products are smaller and the strip has less to divide out.  As h is
    primitive with a positive leading coefficient, the normalized vector
    is the same as without the step.

    That vector is formed at one Kronecker point only
    (``zvec_cross_content``): every entry is packed once, each value is
    two integer products, and the content is taken from the values -- one
    chain of integer gcds, then one certified integer division per entry
    when the gcd is more than one digit.  The quotients are unpacked once
    and stripped of their integer content.  When the certificate fails at
    every point the strip tries, the chain of pairwise polynomial gcds
    gives the same content.

    The unit-lead step: a pivot whose lead is 1 gives v - head*w, which
    changes only the slots where w is nonzero, and only those are formed.
    Such a reduction defers its content strip; the vector is stripped once,
    by the next other reduction or before it is stored as a pivot or
    returned as a certificate.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots = []  # (pivot slot, normalized vector)

    def offer(self, vec):
        """Reduce the content-free vec against the pivots; keep it as a new
        pivot and return None when independent, else return the
        bookkeeping slots."""
        vec = list(vec)
        pending = False  # content left by unit-lead steps
        for pr, pvec in self.pivots:
            head = vec[pr]
            if not head:
                continue
            lead = pvec[pr]
            if lead == [1]:
                for j, w in enumerate(pvec):
                    if w:
                        vec[j] = zk.zp_sub(vec[j], zk.zp_mul(head, w))
                pending = True
                continue
            _, (head, lead) = zk.zvec_poly_content([head, lead])
            vec = zvec_int_content(
                zk.zvec_cross_content(lead, vec, head, pvec)[1])[1]
            pending = False
        if pending:
            vec = zvec_content(vec)[1]
        if any(vec[j] for j in range(self.width)):
            pr = min((j for j in range(self.width) if vec[j]),
                     key=lambda j: len(vec[j]))
            self.pivots.append((pr, vec))
            return None
        return vec[self.width:]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(A: RatMatrix) -> int:
    """Exact rank over Q(x): each column is cleared to integer polynomials
    by its own common denominator and stripped of its content, which
    leaves the rank unchanged."""
    tracker = GaussTracker(A.rows)
    for j in range(A.cols):
        tracker.offer(zvec_content(zclear_ratfuns(A.col(j))[1])[1])
    return tracker.rank


def invert(A: RatMatrix) -> RatMatrix:
    """Inverse of a square non-singular RatMatrix: one fraction-free
    elimination of [A | I]."""
    if A.rows != A.cols:
        raise ValueError("inverse of a non-square matrix")
    n = A.rows
    eye = RatMatrix.identity(n)
    delta, Z = _bareiss([zclear_ratfuns(A.row(i) + eye.row(i))[1]
                         for i in range(n)], n)
    if not delta:
        raise ValueError("singular matrix")
    d = Poly.from_z(delta)
    return RatMatrix(n, n, [RatFun(Poly.from_z(z), d) for row in Z
                            for z in row])


# -- determinantal denominators ------------------------------------------------


def det_denominator(R: RatMatrix, ell: int) -> Poly:
    """phi_ell(R): monic lcm of the denominators of all minors of order <= ell.

    phi_0 = 1.  Every minor is computed exactly and reduced; the cost is
    combinatorial in the dimensions, intended for matrices up to ~6x6.
    """
    if ell < 0:
        raise ValueError("minor order must be nonnegative")
    out = Poly.one()
    kmax = min(ell, R.rows, R.cols)
    for k in range(1, kmax + 1):
        for rsel in combinations(range(R.rows), k):
            for csel in combinations(range(R.cols), k):
                minor = _rat_det([[R.entry(i, j) for j in csel] for i in rsel])
                out = poly_lcm(out, minor.den)
    return out


# -- structured builders ---------------------------------------------------------


def kronecker(A, B):
    """Kronecker product of two matrices of one type (``PolyMatrix`` or
    ``RatMatrix``): block (i, j) equals A[i, j] * B."""
    rows = A.rows * B.rows
    cols = A.cols * B.cols
    entries = list(type(A).zeros(rows, cols).entries)
    for i in range(A.rows):
        for j in range(A.cols):
            a = A.entry(i, j)
            if a.is_zero():
                continue
            for p in range(B.rows):
                for q in range(B.cols):
                    entries[(i * B.rows + p) * cols + (j * B.cols + q)] = \
                        a * B.entry(p, q)
    return type(A)(rows, cols, entries)
