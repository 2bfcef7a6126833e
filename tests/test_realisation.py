"""The cleared map of a realisation against the per-column solve path.

``Realisation`` runs one fraction-free elimination of [M | Y] and hands
over T = W + X M^-1 Y as a cleared pair (den, N).  These tests compare it,
on seeded realisations of every build and on random quadruples, with
``_oracle.realisation_map``: one Q[x] elimination per column of Y, a
back-substitution in Q(x) and T summed entry by entry.  They also check
the elimination's certificate M Z = Delta Y in Z[x], and Delta against
sympy's determinant on a subset.
"""

import random

import pytest

from pseudolin import _kernel as zk
from pseudolin.instances import (build_algebraic, build_hermite, build_lclm,
                                 build_symprod)
from pseudolin.linalg import (PolyMatrix, RatMatrix, _bareiss, _zrows,
                              invert)
from pseudolin.poly import Poly
from pseudolin.randgen import (rand_algebraic_input, rand_hermite_input,
                               rand_operator)
from pseudolin.ratfun import RatFun
from pseudolin.relations import PseudoLinearMap, Realisation
from test_poly import rand_q_poly
from test_ratfun import rand_ratfun

from _oracle import cofactor_det, matvec, realisation_map, solve_columns


def _rand_quadruple(rng):
    """(W, X, M, Y) over Q[x] with W != 0 and an X that is not a
    selection matrix (some entry other than 0 and 1)."""
    n, m = rng.randint(1, 3), rng.randint(1, 3)

    def mat(rows, cols):
        return PolyMatrix(rows, cols, [rand_q_poly(rng, 2)
                                       for _ in range(rows * cols)])

    while True:
        W, X, M, Y = mat(n, n), mat(n, m), mat(m, m), mat(m, n)
        if (any(not e.is_zero() for e in W.entries)
                and any(e not in (Poly(), Poly.one()) for e in X.entries)):
            return W, X, M, Y


def _operators(rng):
    return [rand_operator(rng, rng.randint(1, 2), rng.randint(1, 2),
                          regular_infinity=rng.random() < 0.5)
            for _ in range(rng.choice((2, 2, 3)))]


def _realisations():
    """(label, quadruple, realisation or None when M is singular)."""
    rng = random.Random(2026)
    for k in range(30):
        dx, dy = 1 + k % 2, 1 + k % 3
        real = build_hermite(*rand_hermite_input(rng, dx, dy)).realisation
        yield "hermite", (real.W, real.X, real.M, real.Y), real
    for k in range(25):
        dx, dy = 1 + k % 2, 2 + k % 2
        real = build_algebraic(rand_algebraic_input(rng, dx, dy)).realisation
        yield "algebraic", (real.W, real.X, real.M, real.Y), real
    for _ in range(20):
        real = build_lclm(_operators(rng)).realisation
        yield "lclm", (real.W, real.X, real.M, real.Y), real
    for _ in range(20):
        real = build_symprod(_operators(rng)[:2]).realisation
        yield "symprod", (real.W, real.X, real.M, real.Y), real
    for _ in range(40):
        quad = _rand_quadruple(rng)
        try:
            real = Realisation(*quad)
        except ValueError:
            real = None
        yield "random", quad, real


def _certificate(M, Y):
    """(Delta, M Z - Delta Y) from the elimination of the row-cleared
    [M | Y], with the entries of the difference as zpolys."""
    scale, rows = _zrows([M.row(i) + Y.row(i) for i in range(M.rows)])
    Mz = [row[:M.cols] for row in rows]
    Yz = [row[M.cols:] for row in rows]
    D, Z = _bareiss([list(row) for row in rows], M.cols)
    diff = []
    for i in range(M.rows):
        for j in range(Y.cols):
            acc = zk.zp_mul(D, Yz[i][j])
            for k in range(M.cols):
                acc = zk.zp_sub(acc, zk.zp_mul(Mz[i][k], Z[k][j]))
            diff.append(acc)
    return Poly.from_z(D, scale), diff


def test_cleared_map_matches_per_column_solve():
    counts = {}
    for label, (W, X, M, Y), real in _realisations():
        if real is None:
            # only a singular M is refused
            assert cofactor_det([M.row(i) for i in range(M.rows)]).is_zero()
            continue
        counts[label] = counts.get(label, 0) + 1
        T = realisation_map(W, X, M, Y)
        assert real.map.T == T, label
        # the pair is the one the solver clears from T itself
        den, N = real.map.cleared()
        assert (den, N) == PseudoLinearMap(T).cleared(), label
        assert den[-1] > 0
        delta, diff = _certificate(M, Y)
        assert delta == real.delta
        assert not any(diff), label
    assert sum(counts.values()) >= 100
    assert min(counts.values()) >= 15 and len(counts) == 5


def test_delta_matches_sympy_determinant():
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols("x")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * X**i
                   for i, c in enumerate(p.coeffs))

    checked = 0
    for k, (_, (_, _, M, _), real) in enumerate(_realisations()):
        if real is None or k % 4:
            continue
        det = sympy.Matrix(M.rows, M.cols,
                           [expr(e) for e in M.entries]).det(
                               method="berkowitz")
        assert sympy.expand(det - expr(real.delta)) == 0
        checked += 1
    assert checked >= 25


def test_solve_and_invert_match_per_column_solve():
    """invert (one elimination of the row-cleared [A | I]) agrees with the
    columnwise reference, column by column and applied to a right-hand
    side, and refuses a singular A as the reference does."""
    rng = random.Random(2027)
    outcomes = set()
    for _ in range(60):
        m = rng.randint(1, 3)
        A = RatMatrix(m, m, [rand_ratfun(rng) for _ in range(m * m)])
        if rng.random() < 0.15 and m > 1:
            # a repeated column makes A singular
            cols = [A.col(j) for j in range(m)]
            cols[-1] = cols[0]
            A = RatMatrix(m, m, [cols[j][i] for i in range(m)
                                 for j in range(m)])
        b = [rand_ratfun(rng) for _ in range(m)]
        try:
            want = solve_columns(A, b)
        except ValueError:
            with pytest.raises(ValueError):
                invert(A)
            outcomes.add("singular")
            continue
        Ainv = invert(A)
        assert matvec(Ainv, b) == want
        for j in range(m):
            e = [RatFun(int(i == j)) for i in range(m)]
            assert Ainv.col(j) == solve_columns(A, e)
        outcomes.add("solved")
    assert outcomes == {"solved", "singular"}
