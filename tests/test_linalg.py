"""Exact matrices, characteristic polynomials, rational spectra, echelon bases."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qsymgraph.linalg import (
    EchelonBasis,
    ExactMatrix,
    char_poly,
    rational_eigenvalues,
    rational_roots,
)
from qsymgraph.scalars import GR_I, GaussianRational


def test_matrix_ring_axioms_random():
    rng = random.Random(911)

    def rand(n):
        return ExactMatrix.from_ints(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )

    for _ in range(50):
        a, b, c = rand(3), rand(3), rand(3)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert (a + b).transpose() == a.transpose() + b.transpose()
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_adjoint_conjugates():
    m = ExactMatrix([[GR_I, GaussianRational.of(2, 3)], [GaussianRational.of(0), GR_I]])
    adj = m.adjoint()
    assert adj[0, 0] == GaussianRational.of(0, -1)
    assert adj[1, 0] == GaussianRational.of(2, -3)
    assert not m.is_rational()


def test_char_poly_companion():
    # Companion matrix of x^3 - 2x - 5 must return exactly that polynomial.
    m = ExactMatrix.from_ints([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(m) == [Fraction(-5), Fraction(-2), Fraction(0), Fraction(1)]


def test_char_poly_identity():
    # (x - 1)^2 = x^2 - 2x + 1
    assert char_poly(ExactMatrix.identity(2)) == [
        Fraction(1),
        Fraction(-2),
        Fraction(1),
    ]


def test_rational_roots_with_residual():
    # (x - 1)(x^2 - 2): the irrational pair stays as residual degree 2.
    poly = [Fraction(2), Fraction(-2), Fraction(-1), Fraction(1)]
    roots, residual = rational_roots(poly)
    assert roots == {Fraction(1): 1}
    assert residual == 2


@pytest.mark.parametrize(
    "rows, expected, split",
    [
        # Complete graph on 4 vertices: eigenvalues 3 and -1 (three times).
        (
            [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
            {Fraction(3): 1, Fraction(-1): 3},
            True,
        ),
        # Square: 2, 0, 0, -2.
        (
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
            {Fraction(2): 1, Fraction(0): 2, Fraction(-2): 1},
            True,
        ),
    ],
)
def test_rational_eigenvalues_split(rows, expected, split):
    eigs, did_split = rational_eigenvalues(ExactMatrix.from_ints(rows))
    assert eigs == expected
    assert did_split is split


def test_rational_eigenvalues_pentagon_does_not_split():
    rows = [[0] * 5 for _ in range(5)]
    for k in range(5):
        rows[k][(k + 1) % 5] = rows[(k + 1) % 5][k] = 1
    eigs, did_split = rational_eigenvalues(ExactMatrix.from_ints(rows))
    assert did_split is False
    assert eigs == {Fraction(2): 1}  # golden ratio pairs stay unresolved


def test_echelon_basis_rank_and_membership():
    rng = random.Random(5150)
    basis = EchelonBasis(4)
    inserted = []
    for _ in range(40):
        vec = [GaussianRational.of(rng.randint(-3, 3)) for _ in range(4)]
        if basis.insert(list(vec)):
            inserted.append(vec)
        assert not basis.insert(list(vec))
        assert basis.rank == len(inserted)
        if basis.rank == 4:
            break
    assert basis.rank == 4
    # A random combination of inserted vectors is always in the span.
    combo = [GaussianRational.of(0)] * 4
    for vec in inserted:
        c = rng.randint(-2, 2)
        combo = [acc + GaussianRational.of(c) * v for acc, v in zip(combo, vec)]
    assert not basis.insert(combo)
    assert basis.rank == 4


def test_echelon_basis_rejects_dependent():
    basis = EchelonBasis(3)
    v = [GaussianRational.of(1), GaussianRational.of(2), GaussianRational.of(0)]
    assert basis.insert(list(v))
    doubled = [x * 2 for x in v]
    assert not basis.insert(doubled)
    assert basis.rank == 1


def test_echelon_basis_complex_pivots():
    basis = EchelonBasis(2)
    assert basis.insert([GR_I, GaussianRational.of(1)])
    # i * (i, 1) = (-1, i): dependent over the Gaussian rationals.
    assert not basis.insert([GaussianRational.of(-1), GR_I])
    assert basis.rank == 1
