"""Expression grammar, semantic checks, printing round trips."""

import random
import time
from fractions import Fraction

import pytest

from pseudolin.bipoly import BiPoly, format_bipoly
from pseudolin.exprparse import (MAX_NESTING, ParseError, SemanticError,
                                 _eval_operator, _reduce_pair,
                                 format_operator, format_ratfun2, parse,
                                 parse_text)
from pseudolin.ore import OrePoly, normalize_primitive, ore_mul
from pseudolin.poly import Poly
from pseudolin.randgen import (rand_algebraic_input, rand_hermite_input,
                               rand_operator)
from pseudolin.ratfun import RatFun

from _oracle import eval_birat_ref, eval_operator_ref

x = Poly.x()
one = Poly.one()


def test_parse_ratfun2_example():
    p, q = parse("1/(y^2 + x)", "ratfun2")
    assert p == BiPoly([one])
    assert q == BiPoly([x, Poly(), one])


def test_parse_operator_examples():
    op = parse("x*Dx - 1", "operator")
    assert op == OrePoly([-1, RatFun(x)])
    op2 = parse("Dx^2 - 1", "operator")
    assert op2 == OrePoly([-1, 0, 1])


def test_parse_reduces_fractions():
    p, q = parse("(y^2 - 1)/(y - 1)", "ratfun2")
    assert p == BiPoly([one, one]) and q == BiPoly([one])
    b = parse("(x^2 - 1)/(x + 1)", "bipoly")
    assert b == BiPoly([x - 1])


def test_parse_bipoly_rejects_fraction():
    with pytest.raises(SemanticError):
        parse("1/(y + x)", "bipoly")


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("1 + ", "operator")
    assert "position 4" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("(x + 1", "operator")
    assert e.value.pos == 6
    with pytest.raises(ParseError):
        parse("x $ y", "ratfun2")
    with pytest.raises(ParseError):
        parse("x^y", "operator")
    with pytest.raises(ParseError):
        parse("z + 1", "operator")


def test_nesting_cap():
    """Parentheses nest at most MAX_NESTING deep; one more level is a
    syntax error at the offending '(' instead of a RecursionError.  The
    cap counts nesting only: a flat chain of 1000 terms still parses."""
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse(deep + "+1", "bipoly") == parse("x+1", "bipoly")
    p, q = parse("1/(" + "(" * (MAX_NESTING - 1) + "x+y^2"
                 + ")" * MAX_NESTING, "ratfun2")
    assert q == BiPoly([x, Poly(), one])
    with pytest.raises(ParseError) as e:
        parse_text("1/(" + "(" * MAX_NESTING + "x" + ")" * MAX_NESTING + ")")
    assert e.value.pos == 2 + MAX_NESTING
    assert "nested deeper" in str(e.value)
    parse_text("+".join(["x"] * 1000))


def test_exponent_cap():
    assert parse("x^1000*Dx", "operator").order == 1
    assert parse("(x^10 + 1)^100", "bipoly") is not None
    assert parse("x^0001", "bipoly") == parse("x", "bipoly")
    for text in ("x^1001", "(x^10 + 1)^101", "-((x^2)^2)^251",
                 "2^" + "9" * 5000):
        with pytest.raises(ParseError) as e:
            parse(text, "bipoly")
        assert "cap of 1000" in str(e.value)


def test_operator_order_cap():
    assert parse("Dx^4 - x*Dx^2*Dx", "operator").order == 4
    assert parse("(x^2 + Dx)^4", "operator").order == 4
    for text, pos in (("Dx^5", 2), ("Dx^2*Dx^3", 4), ("(Dx^2 - x)^3", 10),
                      ("x*Dx^4*Dx", 6)):
        with pytest.raises(SemanticError) as e:
            parse(text, "operator")
        assert e.value.pos == pos
        assert "above the cap of 4" in str(e.value)


def test_scalar_powers():
    """A power of an order-0 operator is one RatFun power: same result as
    the operator products, without one product per unit of exponent."""
    start = time.perf_counter()
    assert parse("x^1000*Dx-1", "operator") \
        == OrePoly([-1, RatFun(x**1000)])
    assert time.perf_counter() - start < 0.5
    assert parse("(x+1)^3*Dx", "operator") \
        == OrePoly([0, RatFun((x + 1)**3)])
    assert parse("(2*x-1)^5", "operator") == OrePoly([RatFun((2 * x - 1)**5)])
    assert parse("(3/2)^4*Dx", "operator") == OrePoly([0, Fraction(81, 16)])
    assert parse("0^0*Dx", "operator") == OrePoly([0, 1])
    assert parse("(x+1)^0*Dx", "operator") == OrePoly([0, 1])
    assert parse("0^3*Dx + x", "operator") == OrePoly([RatFun(x)])
    gen = OrePoly([RatFun(x), 1])
    assert parse("(Dx+x)^2", "operator") == ore_mul(gen, gen)


def test_semantic_errors():
    with pytest.raises(SemanticError):
        parse("y + 1", "operator")
    with pytest.raises(SemanticError):
        parse("Dx + y", "ratfun2")
    with pytest.raises(SemanticError):
        parse("1/Dx", "operator")
    with pytest.raises(SemanticError):
        parse("Dx/x", "operator")     # 1/x is not polynomial
    with pytest.raises(SemanticError):
        parse("1/0", "ratfun2")


def test_operator_division_by_cancelling_factor():
    from fractions import Fraction
    assert parse("(x*Dx)/x", "operator") == OrePoly([0, 1])
    assert parse("Dx/2", "operator") == OrePoly([0, Fraction(1, 2)])


def test_unary_minus():
    assert parse("-x*Dx + 2", "operator") == OrePoly([2, RatFun(-x)])
    assert parse("-1", "operator") == OrePoly([-1])


def test_noncommutative_products():
    assert parse("Dx*x", "operator") == OrePoly([1, RatFun(x)])
    assert parse("x*Dx", "operator") == OrePoly([0, RatFun(x)])


def test_format_operator_examples():
    assert format_operator(OrePoly([1, RatFun(2 * x)])) == "2*x*Dx + 1"
    assert format_operator(
        OrePoly([2, RatFun(-2 * x), RatFun(x * x)])) \
        == "x^2*Dx^2 - 2*x*Dx + 2"
    assert format_operator(OrePoly([0, 1])) == "Dx"
    assert format_operator(OrePoly.zero()) == "0"


def test_operator_round_trip():
    rng = random.Random(90)
    for _ in range(30):
        L = normalize_primitive(rand_operator(rng, 3, 3))
        text = format_operator(L)
        assert parse(text, "operator") == L


def test_ratfun2_round_trip():
    text = format_ratfun2(BiPoly([one]), BiPoly([x, Poly(), one]))
    p, q = parse(text, "ratfun2")
    assert p == BiPoly([one]) and q == BiPoly([x, Poly(), one])


def test_evaluators_match_reference():
    """Skipping unit denominators, the gcd of a polynomial pair, Dx^k
    products and scalar left factors changes no parsed value."""
    rng = random.Random(93)
    rational = ["((x+y)/(x-1))^2*y", "2/(3*x)", "x^0", "(x*y)^0/(x+1)",
                "y^2/y", "3*(x+1)^2 - y/x^2", "-(y-x)^3/(y-x)", "0/(x+y)",
                "1/x + y/(x+1)", "1/(x+y) - 2/(y-1)", "(1/x)/(y/(x-y))"]
    operators = ["(x*Dx)^2", "Dx*x", "x^2*Dx/x", "2/(3*x)", "Dx^0",
                 "(Dx)^3", "-Dx^2*x", "(2*Dx+x)*(x*Dx-1)", "0*Dx",
                 "x^3*(Dx^2-x)^2", "(x+1)^2*Dx/(x+1)"]
    for _ in range(12):
        p, q = rand_hermite_input(rng, rng.randint(1, 3), rng.randint(1, 3))
        rational.append(format_ratfun2(p, q))
        rational.append(format_bipoly(
            rand_algebraic_input(rng, rng.randint(1, 3), rng.randint(1, 3))))
        operators.append(format_operator(
            rand_operator(rng, rng.randint(1, 3), rng.randint(1, 3))))
    for text in rational:
        want = _reduce_pair(*eval_birat_ref(parse_text(text)))
        assert parse(text, "ratfun2") == want, text
        if want[1] == BiPoly.one():
            assert parse(text, "bipoly") == want[0], text
    for text in operators:
        node = parse_text(text)
        assert _eval_operator(node) == eval_operator_ref(node), text
