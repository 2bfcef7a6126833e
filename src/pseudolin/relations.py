"""Pseudo-linear maps theta = d/dx + T and their minimal relations.

Given a square rational matrix T and a polynomial vector a, the solver
finds the shortest linear relation with polynomial coefficients among the
iterates a, theta(a), theta^2(a), ...  where theta(v) = v' + T v.

The solver runs on the cleared pair (den, N = den*T) in Z[x], never on T.
A map made from a realisation T = W + X M^-1 Y carries that pair from the
realisation's single fraction-free elimination of [M | Y]; a map made from
T is cleared when it is read (``PseudoLinearMap.cleared``).  The rational
iterates are never formed, here or in ``krylov_matrix``: with a cleared
to b_0 = sa*a by one integer scale sa, the iterates satisfy

    theta^i(a) = b_i / (sa*den^i),
    b_{i+1}    = den*b_i' - i*den'*b_i + N*b_i,

so the b_i stay polynomial vectors (integer-cleared).  The solver never
forms them either: it keeps b_i = G_i*x_i with x_i content-free in Z[x]
and G_i the content gathered so far, and with q_i = den*G_i'/G_i

    b_{i+1}/G_i = den*x_i' + N*x_i + (q_i - i*den')*x_i,

whose content g gives x_{i+1} and G_{i+1} = G_i*g; the step is formed
at the content strip's own Kronecker point and stripped there, so it is
unpacked once (``_iterate_content``).  q_i is a polynomial
when every irreducible factor of G_i divides den, which holds whenever
the contents are products of den's factors (as on lclm maps), and then
q_{i+1} = q_i + den*g'/g is one exact division.  When den*g'/g is not a
polynomial, G_i goes back into x_i (x_i <- G_i*x_i, G_i <- 1, q_i <- 0)
for that step, which is then the plain step on b_i.

Rank growth is watched by incremental fraction-free elimination
(``GaussTracker``) on the columns x_i, with a coordinate slot appended so
the first dependent column yields the relation certificate directly.
Offer i puts den^i/h_i in slot i, with h_i = gcd(den^i, G_i) (integer
content included): since theta^i(a) = G_i x_i/(sa*den^i), a dependency
sum c_j x_j = 0 read off the slots as coordinates k_j = c_j den^j/h_j
gives the relation eta_j = k_j/(G_j/h_j).  The den power thus cancels in
the slot, and when G_i divides den^i the certificate is the relation
itself.  While G_i = 1 the slot is den^i and no gcd is taken.  Each
reduction first cancels the gcd of the two entries it cross-multiplies,
and reduced vectors are stripped of their content in Z[x].  The relation
is assembled in Z[x] from the certificate and the contents G_j/h_j and
made canonical by content strips.  Each gcd, h_i included, is the
content of two entries (``poly.zvec_content``), which also gives the two
cofactors.

Degree-bound predictors: ``bound_realisation`` (for a strictly proper T
with a realisation T = W + X M^-1 Y, in terms of deg det M) and
``bound_direct`` (Cramer-style, in terms of the degree of den and den*T).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pseudolin import _kernel as zk
from pseudolin.linalg import (GaussTracker, PolyMatrix, RatMatrix, _bareiss,
                              _zrows, det_denominator)
from pseudolin.poly import (NEG_INF, Poly, poly_divides, zclear, zvec_content,
                            zvec_int_content)
from pseudolin.ratfun import RatFun, zclear_ratfuns


class PseudoLinearMap:
    """theta = d/dx + T for a square T over Q(x).

    A map is made either from T or, by ``from_cleared``, from a cleared
    pair (den, N) with T = N/den.  ``cleared()`` is the one Z[x] form of a
    map, which every reader takes.  Each form is derived from the other
    only when it is read: ``cleared()`` clears a map made from T on every
    call, and T of a map made from the pair is built on first access.
    """

    __slots__ = ("_T", "_cleared")

    def __init__(self, T: RatMatrix):
        if T.rows != T.cols:
            raise ValueError("T must be square")
        object.__setattr__(self, "_T", T)
        object.__setattr__(self, "_cleared", None)

    @classmethod
    def from_cleared(cls, den_z, N_z) -> PseudoLinearMap:
        """The map T = N/den for integer zpolys den != 0 and N (n rows of n
        entries): any such pair, with a common content or a negative lead
        too; ``cleared()`` returns it as given."""
        pmap = object.__new__(cls)
        object.__setattr__(pmap, "_T", None)
        object.__setattr__(pmap, "_cleared", (den_z, N_z))
        return pmap

    def __setattr__(self, name, value):
        raise AttributeError("PseudoLinearMap is immutable")

    @property
    def n(self) -> int:
        return self._T.rows if self._cleared is None else len(self._cleared[1])

    @property
    def T(self) -> RatMatrix:
        if self._T is None:
            den_z, N_z = self._cleared
            den = Poly.from_z(list(den_z))
            object.__setattr__(self, "_T", RatMatrix(
                self.n, self.n, [RatFun(Poly.from_z(list(z)), den)
                                 for row in N_z for z in row]))
        return self._T

    def cleared(self):
        """The integer pair (den, N = den*T), N as n rows: as given to
        ``from_cleared``, or T cleared on each call by ``zclear_ratfuns``,
        which gives den a positive lead and (den, N) no common content."""
        if self._cleared is not None:
            return self._cleared
        n = self.n
        den_z, N = zclear_ratfuns(self._T.entries)
        return den_z, [N[i * n:(i + 1) * n] for i in range(n)]


@dataclass(frozen=True)
class Relation:
    """Minimal relation eta_rho * theta^rho a + ... + eta_0 * a = 0.

    Normalized so the eta_i are jointly integer-primitive with no common
    polynomial factor and the leading rational of eta_rho is positive.
    """

    rho: int
    eta: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.eta) != self.rho + 1:
            raise ValueError("relation length mismatch")
        if self.eta[-1].is_zero():
            raise ValueError("leading relation coefficient is zero")

    def degrees(self):
        return [e.degree for e in self.eta]

    @property
    def degree(self):
        return max(self.degrees())


class SingularRealisation(ValueError):
    """M of a realisation (W, X, M, Y) is singular."""


@dataclass(frozen=True)
class Realisation:
    """Quadruple (W, X, M, Y) with T = W + X M^-1 Y and Delta = det M.

    Construction runs one fraction-free elimination of the row-cleared
    [M | Y] (``linalg._bareiss``), which yields both derived fields:
    ``delta`` = Delta, from the last pivot, and ``map``, the map in
    cleared form.  With D the scaled determinant the elimination returns
    and Z = D M^-1 Y, the pair is den = D and N = X Z + D W, divided by
    their joint content in Z[x] (with X and W cleared by one integer
    scale).
    """

    W: PolyMatrix
    X: PolyMatrix
    M: PolyMatrix
    Y: PolyMatrix
    delta: Poly = field(init=False)
    map: PseudoLinearMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m = self.X.rows, self.X.cols
        if self.W.rows != n or self.W.cols != n:
            raise ValueError("W must be n x n")
        if self.M.rows != m or self.M.cols != m:
            raise ValueError("M must be m x m")
        if self.Y.rows != m or self.Y.cols != n:
            raise ValueError("Y must be m x n")
        scale, rows = _zrows([self.M.row(i) + self.Y.row(i)
                              for i in range(m)])
        D, Z = _bareiss(rows, m)
        if not D:
            raise SingularRealisation("singular M in realisation")
        object.__setattr__(self, "delta", Poly.from_z(D, scale))
        s, xw = zclear(self.X.entries + self.W.entries)
        X, W = xw[:n * m], xw[n * m:]
        cleared = [zk.zp_scale(D, s)]
        for i in range(n):
            for j in range(n):
                t = zk.zp_mul(D, W[i * n + j])
                for k in range(m):
                    if X[i * m + k] and Z[k][j]:
                        t = zk.zp_add(t, zk.zp_mul(X[i * m + k], Z[k][j]))
                cleared.append(t)
        _, cleared = zvec_content(cleared)
        if cleared[0][-1] < 0:
            cleared = [zk.zp_neg(z) for z in cleared]
        object.__setattr__(self, "map", PseudoLinearMap.from_cleared(
            cleared[0], [cleared[1 + i * n:1 + (i + 1) * n]
                         for i in range(n)]))

    @property
    def delta_degree(self) -> int:
        return self.delta.degree


def trivial_realisation(pmap: PseudoLinearMap) -> Realisation:
    """T = (den*T)(den*I)^(-1) for den the cleared denominator of T made
    monic (``cleared()``); its Delta is den^n."""
    n = pmap.n
    den_z, N_z = pmap.cleared()
    lead = den_z[-1]
    den = Poly.from_z(den_z, lead)
    X = PolyMatrix(n, n, [Poly.from_z(z, lead) for row in N_z for z in row])
    W = PolyMatrix.zeros(n, n)
    M = PolyMatrix(n, n, [den if i == j else Poly()
                          for i in range(n) for j in range(n)])
    Y = PolyMatrix.identity(n)
    return Realisation(W, X, M, Y)


# -- degree-bound predictors ---------------------------------------------------


def bound_realisation(rho: int, d_a: int, delta: int, i: int) -> int:
    """Bound on deg eta_i for strictly proper T with deg det M = delta."""
    if not 0 <= i <= rho:
        raise ValueError("index out of range")
    return rho * d_a + rho * delta - (rho * (rho + 1) // 2 - i)


def bound_direct(rho: int, d_a: int, d: int, D: int, i: int):
    """Cramer-style shape bound: eta_i = den^i * p_i.

    Returns (i, bound on deg p_i) with Dt = max(d - 1, D), where d is the
    degree of den and D the degree of den*T.
    """
    if not 0 <= i <= rho:
        raise ValueError("index out of range")
    Dt = max(d - 1, D)
    return i, rho * d_a + (rho * (rho + 1) // 2 - i) * Dt


# -- iterate clearing and elimination ---------------------------------------------


def _iterate_operands(den_z, N_z, b, c):
    """[N + c*I | den*I] and [b; b'], whose product is den*b' + N*b + c*b."""
    n = len(b)
    A = [row[:j] + [zk.zp_add(row[j], c)] + row[j + 1:]
         + [[]] * j + [den_z] + [[]] * (n - 1 - j)
         for j, row in enumerate(N_z)]
    return A, b + [zk.zp_deriv(z) for z in b]


def _iterate_step(den_z, N_z, b, c):
    """den*b' + N*b + c*b on an integer polynomial vector b, for a zpoly c.

    With c = -i*den' this is the plain step b_{i+1} from b_i.  It is one
    matrix product ``zmat_mul``: [N + c*I | den*I] times [b; b']."""
    A, v = _iterate_operands(den_z, N_z, b, c)
    return [t for t, in zk.zmat_mul(A, [[z] for z in v])]


def _iterate_content(den_z, N_z, x, c):
    """zvec_content(_iterate_step(den_z, N_z, x, c)), with the step formed
    at the strip's own point (``zmat_vec_content``), so that its values
    are stripped before they are unpacked; the integer content is taken
    afterwards, as ``GaussTracker.offer`` takes it."""
    g, t = zk.zmat_vec_content(*_iterate_operands(den_z, N_z, x, c))
    k, t = zvec_int_content(t)
    return (zk.zp_scale(g, k) if k > 1 else g), t


def _log_derivative(den_z, g):
    """den*g'/g in Z[x], or None when it is not a polynomial (g has an
    irreducible factor that den lacks)."""
    try:
        return zk.zp_divexact(zk.zp_mul(den_z, zk.zp_deriv(g)), g)
    except ValueError:
        return None


def solve_min_relation(pmap: PseudoLinearMap, a) -> Relation:
    """Minimal relation among the theta-iterates of a polynomial vector a.

    Iterates are appended one at a time; the first column that becomes
    dependent fixes rho, and its elimination certificate gives the
    relation, which is then cleared to the canonical primitive form.
    """
    n = pmap.n
    a = [c if isinstance(c, Poly) else Poly.const(c) for c in a]
    if len(a) != n:
        raise ValueError("vector dimension mismatch")
    if all(c.is_zero() for c in a):
        raise ValueError("zero initial vector has no minimal relation")
    den_z, N_z = pmap.cleared()
    denp_z = zk.zp_deriv(den_z)
    # b_i = G*x with x content-free, and q = den*G'/G
    g, x = zvec_content(zclear(a)[1])
    G, q = g, []

    tracker = GaussTracker(n)
    ncoord = n + 1
    contents, slots = [], []
    dpow = [1]  # den^i
    i = 0
    while True:
        # offer x_i with den^i/h_i in its slot, h_i = gcd(den^i, G_i)
        if G == [1] or dpow == [1]:
            slot, content = dpow, G
        else:
            _, (slot, content) = zvec_content([dpow, G])
        contents.append(content)
        slots.append(slot)
        aug = x + [[] for _ in range(ncoord)]
        aug[n + i] = slot
        coords = tracker.offer(aug)
        if coords is not None:
            rho = i
            break
        if i >= n:
            raise AssertionError("no dependence found within n+1 iterates")
        # fold the last content g into q = den*G'/G; when that is not a
        # polynomial, put G back into x for this step
        dq = _log_derivative(den_z, g) if len(g) > 1 else []
        if dq is None:
            x = [zk.zp_mul(G, z) for z in x]
            G, q = [1], []
        elif dq:
            q = zk.zp_add(q, dq)
        # b_{i+1}/G = den*x' + N*x + (den*G'/G - i*den')*x
        c = zk.zp_sub(q, zk.zp_scale(denp_z, i))
        g, x = _iterate_content(den_z, N_z, x, c)
        if g != [1]:
            G = zk.zp_mul(G, g)
        dpow = zk.zp_mul(dpow, den_z)
        i += 1

    return Relation(rho, tuple(Poly.from_z(z) for z in
                               _relation_from_certificate(
                                   coords[:rho + 1], contents, slots)))


def _relation_from_certificate(coords, contents, slots):
    """The canonical relation as integer zpolys eta_0, ..., eta_rho.

    coords certify that eta_j = coords[j]/contents[j] is the relation up
    to a factor of Q(x).  Each coords[j]/contents[j] is reduced to
    num_j/dg_j, and with L the lcm of the dg_j the polynomial vector
    num_j L/dg_j is stripped of its content and given a positive leading
    coefficient in eta_rho.  Each gcd is the content of a pair, taken
    with its cofactors by ``zvec_content``.

    slots[j] is what offer j put in its coordinate slot, den^j/h_j with
    contents[j] = G_j/h_j and h_j = gcd(den^j, G_j), so the two are
    coprime: a coordinate that is +-slots[j] takes no gcd.
    """
    nums, dgs = [], []
    L = [1]
    for num, dg, slot in zip(coords, contents, slots):
        if num and dg != [1]:
            if num != slot and zk.zp_neg(num) != slot:
                _, (num, dg) = zvec_content([num, dg])
            if dg != [1]:
                # lcm(L, dg) = L * dg/gcd(L, dg), the strip's cofactor
                L = (dg if L == [1] else
                     zk.zp_mul(L, zvec_content([L, dg])[1][1]))
        nums.append(num)
        dgs.append(dg)
    eta = [zk.zp_mul(num, zk.zp_divexact(L, dg)) if num else []
           for num, dg in zip(nums, dgs)]
    _, eta = zvec_content(eta)
    if eta[-1][-1] < 0:
        eta = [zk.zp_neg(z) for z in eta]
    return eta


def verify_relation(pmap: PseudoLinearMap, a, rel: Relation) -> bool:
    """Check sum eta_i theta^i(a) = 0 exactly, in Z[x] over one fixed
    denominator.

    With (D, N) = ``pmap.cleared()`` and c_0 = a cleared to integers, the
    recurrence

        c_{i+1} = D c_i' - i D' c_i + N c_i

    gives c_i = sa * D^i * theta^i(a) (sa the clearing scale of a), so the
    relation holds iff sum eta_i D^(rho - i) c_i = 0 in Z[x]^n, with the
    eta_i cleared by one scale as well: the two sides differ by the nonzero
    factor sa * se * D^rho.  Each step is one matrix product, and so is the
    sum; all are exact ring operations in Z[x], so the check is exact.

    Past ``cleared()`` it shares with the solver only ``zmat_mul`` and
    ``zp_mul``: no ``_iterate_step``, elimination or content strip.  Its
    independence is in the map, which the other verifiers build themselves.
    """
    n = pmap.n
    a = [c if isinstance(c, Poly) else Poly.const(c) for c in a]
    if len(a) != n:
        raise ValueError("vector dimension mismatch")
    D, N = pmap.cleared()
    Dp = zk.zp_deriv(D)
    C, Dpow = [zclear(a)[1]], [[1]]
    for i in range(1, rel.rho + 1):
        # c <- [N - (i - 1) D' I | D I] [c; c']
        s, c = zk.zp_scale(Dp, 1 - i), C[-1]
        A = [row[:j] + [zk.zp_add(row[j], s)] + row[j + 1:]
             + [[]] * j + [D] + [[]] * (n - 1 - j) for j, row in enumerate(N)]
        C.append([t for t, in zk.zmat_mul(
            A, [[z] for z in c] + [[zk.zp_deriv(z)] for z in c])])
        Dpow.append(zk.zp_mul(Dpow[-1], D))
    # the row product (eta_i D^(rho - i))_i C = 0
    w = [zk.zp_mul(e, Dpow[rel.rho - i])
         for i, e in enumerate(zclear(rel.eta)[1])]
    return not any(zk.zmat_mul([w], C)[0])


# -- Krylov determinantal-denominator property -----------------------------------


def krylov_matrix(pmap: PseudoLinearMap, a, s_list) -> RatMatrix:
    """K = [theta^{s_1} a | ... | theta^{s_r} a] for nondecreasing s.

    Column s is b_s/(sa*den^s), with b_s from the solver's recurrence
    (``_iterate_step``) on the cleared map and sa the clearing scale of
    the polynomial vector a."""
    if any(s2 < s1 for s1, s2 in zip(s_list, s_list[1:])):
        raise ValueError("exponent list must be nondecreasing")
    if s_list and s_list[0] < 0:
        raise ValueError("exponents must be nonnegative")
    n = pmap.n
    a = [c if isinstance(c, Poly) else Poly.const(c) for c in a]
    if len(a) != n:
        raise ValueError("vector dimension mismatch")
    den_z, N_z = pmap.cleared()
    denp_z = zk.zp_deriv(den_z)
    sa, b = zclear(a)
    scale, i = [sa], 0
    cols = []
    for s in s_list:
        while i < s:
            b = _iterate_step(den_z, N_z, b, zk.zp_scale(denp_z, -i))
            scale = zk.zp_mul(scale, den_z)
            i += 1
        d = Poly.from_z(list(scale))
        cols.append([RatFun(Poly.from_z(list(z)), d) for z in b])
    return RatMatrix(n, len(cols), [cols[j][k] for k in range(n)
                                    for j in range(len(cols))])


def krylov_denominator_check(pmap: PseudoLinearMap, real: Realisation, a,
                             s_list, ell_max: int,
                             allow_improper: bool = False) -> bool:
    """Check phi_ell(K) divides Delta^{s_r} for all ell <= ell_max.

    Requires T strictly proper (the hypothesis under which the property is
    proved); pass allow_improper=True to probe the conjectural general
    case without the properness gate.
    """
    if not allow_improper and not pmap.T.is_strictly_proper():
        raise ValueError("T is not strictly proper "
                         "(use allow_improper=True to probe anyway)")
    K = krylov_matrix(pmap, a, s_list)
    target = real.delta ** (s_list[-1] if s_list else 0)
    for ell in range(ell_max + 1):
        phi = det_denominator(K, ell)
        if not poly_divides(phi, target):
            return False
    return True


# -- bound reporting -------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Observed degrees of a relation against a per-index bound."""

    instance: str
    bound_name: str
    rho: int
    observed: tuple        # degree of eta_i, None for eta_i = 0
    bounds: tuple          # predicted bound per i
    slack: tuple           # bound - observed, None for eta_i = 0
    asserted: bool         # whether the bound hypotheses hold
    global_bound: int | None = None

    def holds(self) -> bool:
        """True when every observed degree is within its bound."""
        return all(obs is None or obs <= bnd
                   for obs, bnd in zip(self.observed, self.bounds))


def realisation_bound_report(instance: str, rel: Relation, d_a: int,
                             delta_deg: int, asserted: bool,
                             bound_name: str = "realisation",
                             global_bound: int | None = None) -> BoundReport:
    """Per-index degree report against the realisation bound."""
    observed = []
    bounds = []
    slack = []
    for i, e in enumerate(rel.eta):
        bnd = bound_realisation(rel.rho, d_a, delta_deg, i)
        obs = None if e.is_zero() else e.degree
        observed.append(obs)
        bounds.append(bnd)
        slack.append(None if obs is None else bnd - obs)
    return BoundReport(instance, bound_name, rel.rho, tuple(observed),
                       tuple(bounds), tuple(slack), asserted, global_bound)


def vector_degree(a) -> int:
    """deg of a polynomial vector: max entry degree (NEG_INF if zero)."""
    degs = [c.degree for c in a]
    return max(degs) if degs else NEG_INF
