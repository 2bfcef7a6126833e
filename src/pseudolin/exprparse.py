"""Expression parsing and printing for the command-line front end.

Grammar (whitespace insignificant, a leading minus is allowed):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' nat)?
    base   := nat | 'x' | 'y' | 'Dx' | '(' expr ')'

A chain of terms or of factors is one n-ary node (``Sum``, ``Prod``),
and the evaluators fold it in a loop, so a flat chain of any length
recurses no deeper than its parentheses nest.

Exponents are capped at ``MAX_EXPONENT``, nested powers counting as the
product of their exponents, so hostile input such as ``x^100000000`` is
a syntax error instead of a computation that never ends.  Parentheses
nest at most ``MAX_NESTING`` deep, so deep nesting is a syntax error
instead of a ``RecursionError``.  Operator
orders are capped at ``MAX_OPERATOR_ORDER`` in the same spirit, and the
command line applies it and the ``MAX_*`` caps below it to its size
flags.

The same grammar feeds three targets: ``operator`` values normalize to
sum p_i(x)*Dx^i with polynomial p_i, ``ratfun2`` values to a reduced pair
of bivariate polynomials, and ``bipoly`` to a single bivariate polynomial.
Syntax errors carry the offending position; using y in an operator or Dx
in a rational expression is a semantic error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from pseudolin.bipoly import (BiPoly, _normalize_bipoly, bipoly_gcd,
                              bipoly_pseudo_divmod, format_bipoly)
from pseudolin.ore import GEN_DX, OrePoly, ore_mul
from pseudolin.poly import Poly, format_terms
from pseudolin.ratfun import RatFun


class ParseError(ValueError):
    """Syntax error with a 0-based input position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


class SemanticError(ValueError):
    """Well-formed input that is invalid for the requested kind."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"semantic error at position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # 'nat' | 'name' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("nat", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(Token("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            out.append(Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(Token("end", "", n))
    return out


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int


@dataclass(frozen=True)
class Sum:
    """first +- operand +- ...: a flat chain of at least two terms, folded
    from the left; ``rest`` holds (op, operand, pos of op) triples."""
    first: object
    rest: tuple


@dataclass(frozen=True)
class Prod:
    """first */ operand */ ...: a flat chain of at least two factors,
    folded from the left like ``Sum``."""
    first: object
    rest: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int
    pos: int


Expr = (Num, Var, Neg, Sum, Prod, Pow)

#: Largest exponent accepted; ``(x^10)^200`` counts as 2000.  The solvers'
#: cost grows quickly with degree: ``lclm`` of ``x^1000*Dx-1`` and ``Dx-1``
#: takes seconds, with ``x^10000`` it runs for more than a minute.
MAX_EXPONENT = 1000

#: Deepest nesting of parentheses accepted.  The parser descends four
#: Python frames per level, so about 250 levels exhaust CPython's default
#: recursion limit; real inputs nest a few levels.
MAX_NESTING = 100

#: Largest operator order accepted, both for a parsed operator and for the
#: ``--order`` of randomly drawn operators.  A symmetric product multiplies
#: orders: for two operators ``Dx^r - x`` and ``Dx^r - x^2 + 1``, r = 4
#: takes about a second, r = 5 six seconds and r = 6 more than twenty.
MAX_OPERATOR_ORDER = 4

#: Largest dimension of a closure map: the product of the factors' orders
#: for ``symprod``, their sum for ``lclm``.  It admits the symmetric product
#: of two operators at the order cap; three order-3 factors (dimension 27)
#: ran for 13 s.
MAX_CLOSURE_DIMENSION = MAX_OPERATOR_ORDER ** 2

#: Largest matrix dimension (``check-props --n``).  The determinantal
#: denominator laws take about 3 s per trial at n = 4 and 27 s at n = 5.
MAX_DIMENSION = 4

#: Largest x- and y-degree of random bivariate inputs (``--dx``, ``--dy``).
#: One ``bounds-table`` trial takes about 7 s at dx = dy = 4, 11 s at
#: dx = 2, dy = 5 and 32 s at dx = dy = 5.
MAX_BIVARIATE_DEGREE = 4

#: Largest coefficient degree of random operators (``--degree``).  At the
#: order cap, the symmetric product of two order-4 operators takes up to
#: 13 s at degree 3 and 20 s at degree 4 (regular at infinity).
MAX_OPERATOR_DEGREE = 3

#: Largest Krylov degree target and iterate exponent (``check-props
#: --delta``, ``--sr``).  With n = 4 and ``--allow-improper`` one trial
#: takes 4 s at delta = 7, sr = 4, 15-18 s at delta = 8 (where the entry
#: denominators reach degree 2) and more than 40 s at sr = 5.
MAX_KRYLOV_DEGREE = 7
MAX_KRYLOV_EXPONENT = 4

#: Largest trial count (``--trials``): the run time is linear in it.
MAX_TRIALS = 1000


def _exponent_weight(node) -> int:
    """Product of the exponents along the deepest chain of nested powers."""
    if isinstance(node, Pow):
        return node.exp * _exponent_weight(node.base)
    if isinstance(node, (Sum, Prod)):
        return max(_exponent_weight(node.first),
                   *(_exponent_weight(t[1]) for t in node.rest))
    if isinstance(node, Neg):
        return _exponent_weight(node.operand)
    return 1


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # open parentheses

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expr(self):
        tok = self.peek()
        node = None
        if tok.kind == "op" and tok.text == "-":
            self.take()
            node = Neg(self.term(), tok.pos)
        else:
            node = self.term()
        rest = []
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                rest.append((tok.text, self.term(), tok.pos))
            else:
                return Sum(node, tuple(rest)) if rest else node

    def term(self):
        node = self.factor()
        rest = []
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.take()
                rest.append((tok.text, self.factor(), tok.pos))
            else:
                return Prod(node, tuple(rest)) if rest else node

    def factor(self):
        node = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            etok = self.take()
            if etok.kind != "nat":
                raise ParseError("exponent must be a natural number",
                                 etok.pos)
            digits = etok.text.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) * _exponent_weight(node) > MAX_EXPONENT):
                raise ParseError(f"exponent above the cap of {MAX_EXPONENT} "
                                 "(nested powers multiply)", etok.pos)
            node = Pow(node, int(digits), tok.pos)
        return node

    def base(self):
        tok = self.take()
        if tok.kind == "nat":
            return Num(int(tok.text), tok.pos)
        if tok.kind == "name":
            if tok.text in ("x", "y", "Dx"):
                return Var(tok.text, tok.pos)
            raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            if self.depth >= MAX_NESTING:
                raise ParseError("parentheses nested deeper than the cap of "
                                 f"{MAX_NESTING}", tok.pos)
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            closing = self.take()
            if closing.kind != "op" or closing.text != ")":
                raise ParseError("expected ')'", closing.pos)
            return node
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.pos)


def parse_text(text: str):
    """Parse to the abstract syntax tree (no semantic checks)."""
    p = _Parser(_tokenize(text))
    node = p.expr()
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected {tail.text!r}", tail.pos)
    return node


# -- evaluation --------------------------------------------------------------


def _check_order(order, pos: int):
    """Reject a power or product before computing it when its operator
    order would exceed ``MAX_OPERATOR_ORDER``."""
    if order > MAX_OPERATOR_ORDER:
        raise SemanticError(f"operator order {order} above the cap of "
                            f"{MAX_OPERATOR_ORDER}", pos)


_DX = OrePoly.gen(GEN_DX)


def _eval_operator(node) -> OrePoly:
    if isinstance(node, Num):
        return OrePoly.from_scalar(node.value, GEN_DX)
    if isinstance(node, Var):
        if node.name == "x":
            return OrePoly.from_scalar(RatFun(Poly.x()), GEN_DX)
        if node.name == "Dx":
            return OrePoly.gen(GEN_DX)
        raise SemanticError("y is not allowed in an operator", node.pos)
    if isinstance(node, Neg):
        return -_eval_operator(node.operand)
    if isinstance(node, Pow):
        base = _eval_operator(node.base)
        if base.order <= 0:
            # a scalar: one RatFun power, not exp operator products
            return OrePoly.from_scalar(base.coeff(0) ** node.exp, GEN_DX)
        _check_order(base.order * node.exp, node.pos)
        if base == _DX:
            return OrePoly((0,) * node.exp + (1,), GEN_DX)
        out = OrePoly.from_scalar(1, GEN_DX)
        for _ in range(node.exp):
            out = ore_mul(out, base)
        return out
    if isinstance(node, Sum):
        acc = _eval_operator(node.first)
        for op, operand, _ in node.rest:
            rhs = _eval_operator(operand)
            acc = acc + rhs if op == "+" else acc - rhs
        return acc
    if isinstance(node, Prod):
        acc = _eval_operator(node.first)
        for op, operand, pos in node.rest:
            rhs = _eval_operator(operand)
            if op == "*":
                _check_order(acc.order + rhs.order, pos)
                # a scalar on the left only scales the coefficients
                acc = (rhs.scale(acc.coeff(0)) if acc.order == 0
                       else ore_mul(acc, rhs))
                continue
            if rhs.is_zero():
                raise SemanticError("division by zero", pos)
            if rhs.order > 0:
                raise SemanticError("Dx cannot appear in a denominator", pos)
            acc = acc.scale(RatFun.one() / rhs.coeff(0))
        return acc
    raise TypeError(f"unknown node {node!r}")


#: The unit denominator of every polynomial subexpression.  ``_mul`` skips
#: products with this object, and ``parse`` skips the gcd of a pair whose
#: denominator is still this object.
_UNIT = BiPoly.one()


def _mul(a: BiPoly, b: BiPoly) -> BiPoly:
    if a is _UNIT:
        return b
    if b is _UNIT:
        return a
    return a * b


def _eval_birat(node):
    """Evaluate to an unreduced pair (numerator, denominator) of BiPoly;
    the denominator of a polynomial is ``_UNIT`` itself."""
    if isinstance(node, Num):
        return BiPoly([Poly.const(node.value)]), _UNIT
    if isinstance(node, Var):
        if node.name == "x":
            return BiPoly([Poly.x()]), _UNIT
        if node.name == "y":
            return BiPoly.y(), _UNIT
        raise SemanticError("Dx is not allowed in a rational expression",
                            node.pos)
    if isinstance(node, Neg):
        n, d = _eval_birat(node.operand)
        return -n, d
    if isinstance(node, Pow):
        n, d = _eval_birat(node.base)
        nn, dd = _UNIT, _UNIT
        for _ in range(node.exp):
            nn, dd = _mul(nn, n), _mul(dd, d)
        return nn, dd
    if isinstance(node, Sum):
        n1, d1 = _eval_birat(node.first)
        for op, operand, _ in node.rest:
            n2, d2 = _eval_birat(operand)
            if op == "+":
                n1 = _mul(n1, d2) + _mul(n2, d1)
            else:
                n1 = _mul(n1, d2) - _mul(n2, d1)
            d1 = _mul(d1, d2)
        return n1, d1
    if isinstance(node, Prod):
        n1, d1 = _eval_birat(node.first)
        for op, operand, pos in node.rest:
            n2, d2 = _eval_birat(operand)
            if op == "*":
                n1, d1 = _mul(n1, n2), _mul(d1, d2)
                continue
            if n2.is_zero():
                raise SemanticError("division by zero", pos)
            n1, d1 = _mul(n1, d2), _mul(d1, n2)
        return n1, d1
    raise TypeError(f"unknown node {node!r}")


def _bipoly_exact_div(a: BiPoly, g: BiPoly) -> BiPoly:
    """a/g for g dividing a in Q[x][y]: lc_y(g)^k a = Q g exactly, so the
    quotient is Q/lc_y(g)^k; ValueError when the division is inexact."""
    Q, R, k = bipoly_pseudo_divmod(a, g)
    if not R.is_zero():
        raise ValueError("inexact bivariate division")
    lck = g.lc_y**k
    return BiPoly(tuple(c.exact_div(lck) for c in Q.ycoeffs))


def _reduce_pair(num: BiPoly, den: BiPoly):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return BiPoly.zero(), BiPoly.one()
    g = bipoly_gcd(num, den)
    if g != BiPoly.one():
        num = _bipoly_exact_div(num, g)
        den = _bipoly_exact_div(den, g)
    dnorm = _normalize_bipoly(den)
    scale = None
    for j, c in enumerate(den.ycoeffs):
        for i, f in enumerate(c.coeffs):
            if f != 0:
                scale = dnorm.ycoeff(j).coeff(i) / f
                break
        if scale is not None:
            break
    return num * scale, dnorm


def parse(text: str, kind: str):
    """Parse text as an ``operator`` (OrePoly), a ``ratfun2`` (reduced pair
    of BiPoly) or a ``bipoly``."""
    node = parse_text(text)
    if kind == "operator":
        op = _eval_operator(node)
        for c in op.coeffs:
            if not c.is_poly():
                raise SemanticError(
                    "operator coefficients must be polynomial in x", 0)
        return op
    if kind in ("ratfun2", "bipoly"):
        num, den = _eval_birat(node)
        if den is not _UNIT:
            num, den = _reduce_pair(num, den)
        if kind == "ratfun2":
            return num, den
        if den.degree_y > 0 or den.ycoeff(0).degree > 0:
            raise SemanticError("expected a polynomial, found a fraction", 0)
        return num * (Fraction(1) / den.ycoeff(0).coeff(0))
    raise ValueError(f"unknown parse kind {kind!r}")


# -- printing -----------------------------------------------------------------


def format_operator(L: OrePoly) -> str:
    """Expanded form with descending Dx powers: ``x^2*Dx^2 - 2*x*Dx + 2``.

    Requires polynomial coefficients (normalize first); round-trips through
    ``parse(..., "operator")``.
    """
    if L.generator != GEN_DX:
        raise ValueError("can only format Dx-generator operators")
    if not all(c.is_poly() for c in L.coeffs):
        raise ValueError("operator has non-polynomial coefficients")
    return format_terms([c.num for c in L.coeffs], "Dx")


def format_ratfun2(num: BiPoly, den: BiPoly) -> str:
    if den == BiPoly.one():
        return format_bipoly(num)
    return f"({format_bipoly(num)})/({format_bipoly(den)})"
