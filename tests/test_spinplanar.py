"""Structural identities of the reference tensor operations.

These exercise the slow exact engine directly; agreement with the
orbit-compressed engine is tested separately in test_closure.py.
"""
from __future__ import annotations

import random

import pytest

from qsymgraph.graphs import (
    complete,
    edgeless,
    n_gon,
    oriented_n_gon,
    parse_graph,
)
from qsymgraph.linalg import ExactMatrix
from qsymgraph.scalars import GaussianRational
from reference_engine import (
    SpinTensor,
    expect,
    graph_seeds,
    incl,
    mult,
    reference_closure,
    rotate,
    star,
)


def random_tensor(rng, n, level, terms=6):
    data = {}
    for _ in range(terms):
        key = tuple(rng.randrange(n) for _ in range(level))
        value = GaussianRational.of(rng.randint(-4, 4), rng.randint(-4, 4))
        data[key] = data.get(key, GaussianRational.of(0)) + value
    return SpinTensor(n, level, data)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_rotation_has_order_level(level):
    rng = random.Random(2400 + level)
    for _ in range(10):
        t = random_tensor(rng, 3, level)
        out = t
        for _ in range(level):
            out = rotate(out)
        assert out == t


def test_rotation_moves_entries_one_click():
    t = SpinTensor(4, 3, {(0, 1, 2): GaussianRational.of(5)})
    assert rotate(t)[(1, 2, 0)] == GaussianRational.of(5)
    assert rotate(t)[(0, 1, 2)] == GaussianRational.of(0)


@pytest.mark.parametrize("n,level", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_expectation_of_inclusion_is_scalar(n, level):
    # Adding a strand and closing it again costs a loop factor n from
    # even levels and nothing from odd ones.
    rng = random.Random(31 * n + level)
    scalar = n if level % 2 == 0 else 1
    for _ in range(8):
        t = random_tensor(rng, n, level)
        assert expect(incl(t)) == t.scale(scalar)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_jones_element_idempotent_up_to_loop(n, level):
    scalar = n if level % 2 == 0 else 1
    j = SpinTensor.jones(n, level)
    assert mult(j, j) == j.scale(scalar)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_identity_is_multiplicative_unit(level):
    rng = random.Random(900 + level)
    one = SpinTensor.identity(3, level)
    for _ in range(6):
        t = random_tensor(rng, 3, level)
        assert mult(one, t) == t
        assert mult(t, one) == t


def test_level_two_mult_is_matrix_mult():
    rng = random.Random(1812)
    for _ in range(6):
        a = ExactMatrix.from_ints([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        b = ExactMatrix.from_ints([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        left = mult(SpinTensor.from_matrix(a), SpinTensor.from_matrix(b))
        assert left == SpinTensor.from_matrix(a @ b)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_inclusion_is_algebra_embedding(level):
    rng = random.Random(7000 + level)
    for _ in range(6):
        a = random_tensor(rng, 3, level)
        b = random_tensor(rng, 3, level)
        assert incl(mult(a, b)) == mult(incl(a), incl(b))
    assert incl(SpinTensor.identity(3, level)) == SpinTensor.identity(3, level + 1)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_star_is_antimultiplicative_involution(level):
    rng = random.Random(5500 + level)
    for _ in range(6):
        a = random_tensor(rng, 3, level)
        b = random_tensor(rng, 3, level)
        assert star(star(a)) == a
        assert star(mult(a, b)) == mult(star(b), star(a))


def test_star_matches_matrix_adjoint_at_level_two():
    rng = random.Random(64)
    rows = [
        [GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        for _ in range(3)
    ]
    m = ExactMatrix(rows)
    assert star(SpinTensor.from_matrix(m)) == SpinTensor.from_matrix(m.adjoint())


def test_graph_seeds_are_self_adjoint():
    for g in (n_gon(5), complete(4), oriented_n_gon(4)):
        for seed in graph_seeds(g):
            assert star(seed) == seed


def test_oriented_seed_entries_are_imaginary_units():
    (seed,) = graph_seeds(oriented_n_gon(3))
    i_unit = GaussianRational.of(0, 1)
    assert seed[(0, 1)] == i_unit
    assert seed[(1, 0)] == -i_unit
    assert seed[(0, 0)] == GaussianRational.of(0)


def test_reference_closure_matches_frozen_small_dims():
    assert reference_closure(edgeless(2), 4) == [1, 1, 2, 4, 8]
    assert reference_closure(edgeless(3), 3) == [1, 1, 2, 5]
    assert reference_closure(complete(3), 3) == [1, 1, 2, 5]
    assert reference_closure(oriented_n_gon(3), 3) == [1, 1, 3, 9]


def test_reference_closure_sees_colors():
    text = """vertices 4
edge e1 0 1
edge e1 2 3
edge e2 0 2
edge e2 1 3
"""
    squared = parse_graph(text)
    plain = n_gon(4)
    assert reference_closure(squared, 2) != reference_closure(plain, 2)
