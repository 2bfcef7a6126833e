"""Seeded instance generation: constraints, determinism, retry cap."""

import random

import pytest

from pseudolin.bipoly import bipoly_coprime, squarefree_y
from pseudolin.instances.hermite import genericity_check
from pseudolin.ore import infinity_not_irregular
from pseudolin.randgen import (GenerationError, _retrying,
                               rand_algebraic_input, rand_hermite_input,
                               rand_operator, rand_strictly_proper_map)


def test_hermite_instance_constraints():
    p, q = rand_hermite_input(random.Random(5), 2, 2, generic=True)
    assert q.degree_x == 2 and q.degree_y == 2
    assert p.degree_y < 2 and p.degree_x <= 2
    assert squarefree_y(q) and bipoly_coprime(p, q)
    assert genericity_check(q)


def test_operator_pair_constraints():
    rng = random.Random(5)
    ops = [rand_operator(rng, 2, 2, regular_infinity=True) for _ in range(2)]
    assert len(ops) == 2
    for op in ops:
        assert op.order == 2
        assert infinity_not_irregular(op)


def test_determinism():
    a = rand_algebraic_input(random.Random(42), 2, 2)
    b = rand_algebraic_input(random.Random(42), 2, 2)
    assert a == b
    c = rand_algebraic_input(random.Random(43), 2, 2)
    assert a != c


def test_strictly_proper_generator():
    rng = random.Random(3)
    for _ in range(10):
        pmap = rand_strictly_proper_map(rng, 2, 2)
        assert pmap.T.is_strictly_proper()


def test_retry_cap_raises():
    with pytest.raises(GenerationError):
        _retrying(lambda: 0, lambda _: False, "an impossible draw")
