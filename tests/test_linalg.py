"""Exact matrices, characteristic polynomials, rational spectra, and the
reference engine's fraction-free echelon basis over the Gaussian integers."""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from qsymgraph.linalg import (
    ExactMatrix,
    char_poly,
    rational_eigenvalues,
    rational_roots,
)
from qsymgraph.scalars import GR_I, GaussianRational, poly_mul
from reference_engine import EchelonBasis


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


def fraction_char_poly(rows: list[list[Fraction]]) -> list[Fraction]:
    """Faddeev-LeVerrier in Fractions, on the entries as given."""
    n = len(rows)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    work = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                work[i][i] += coeffs[n - k + 1]
        work = [
            [sum(rows[i][t] * work[t][j] for t in range(n)) for j in range(n)] for i in range(n)
        ]
        coeffs[n - k] = -sum(work[i][i] for i in range(n)) / k
    return coeffs


def random_matrices(seed: int, rational: bool):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(0, 7)
        yield [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 9) if rational else 1) for _ in range(n)]
            for _ in range(n)
        ]


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_char_poly_over_z_matches_the_fraction_path(rational):
    for rows in random_matrices(5, rational):
        m = ExactMatrix([[GaussianRational.of(x) for x in row] for row in rows])
        got = char_poly(m)
        assert got == fraction_char_poly(rows)
        assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_char_poly_over_z_matches_sympy(rational):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for rows in random_matrices(6, rational):
        if not rows:
            continue
        m = ExactMatrix([[GaussianRational.of(v) for v in row] for row in rows])
        want = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                             for row in rows])
        coeffs = want.charpoly(x).all_coeffs()[::-1]
        assert char_poly(m) == [Fraction(int(c.p), int(c.q)) for c in coeffs]


def test_rational_roots_over_z_find_the_planted_roots():
    # Products of planted rational roots, a rational scale and a factor
    # with no rational root: the search over Z finds exactly the planted
    # roots with their multiplicities and leaves the factor's degree.
    rng = random.Random(8)
    irreducible = ([], [2, 0, 1], [-3, 0, 1], [1, 1, 1], [-1, 0, 2], [2, 0, 0, 1])
    for _ in range(80):
        planted = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                   for _ in range(rng.randint(0, 6))]
        poly = [Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 3))]
        for r in planted:
            poly = poly_mul(poly, [-r, Fraction(1)])
        extra = rng.choice(irreducible)
        if extra:
            poly = poly_mul(poly, [Fraction(c) for c in extra])
        roots, residual = rational_roots(poly)
        assert roots == Counter(planted)
        assert residual == max(len(extra) - 1, 0)


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
        vec = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
        if basis.insert(list(vec)):
            inserted.append(vec)
        assert not basis.insert(list(vec))
        assert basis.rank == len(inserted)
        if basis.rank == 4:
            break
    assert basis.rank == 4
    # A random Gaussian-integer combination of inserted vectors is always
    # in the span.
    combo = [(0, 0)] * 4
    for vec in inserted:
        c_re, c_im = rng.randint(-2, 2), rng.randint(-2, 2)
        combo = [
            (a_re + c_re * re - c_im * im, a_im + c_re * im + c_im * re)
            for (a_re, a_im), (re, im) in zip(combo, vec)
        ]
    assert not basis.insert(combo)
    assert basis.rank == 4


def test_echelon_basis_rejects_dependent():
    basis = EchelonBasis(3)
    v = [(1, 0), (2, 0), (0, 0)]
    assert basis.insert(list(v))
    doubled = [(2 * re, 2 * im) for re, im in v]
    assert not basis.insert(doubled)
    assert not basis.insert([(0, 0)] * 3)
    assert basis.rank == 1


def test_echelon_basis_complex_pivots():
    basis = EchelonBasis(2)
    assert basis.insert([(0, 1), (1, 0)])
    # i * (i, 1) = (-1, i): dependent over the Gaussian rationals.
    assert not basis.insert([(-1, 0), (0, 1)])
    # (1 + i) * (i, 1) = (-1 + i, 1 + i), whose entries share no integer
    # factor: dependent only through a non-real multiplier.
    assert not basis.insert([(-1, 1), (1, 1)])
    assert basis.rank == 1
    assert basis.insert([(1, 0), (0, 1)])
    assert basis.rank == 2


def test_echelon_basis_matches_rational_elimination():
    # Random Gaussian-integer vectors, some of them combinations of earlier
    # ones with Gaussian-rational coefficients cleared of denominators;
    # the rank after every insertion must match the exact rank of the
    # prefix, computed by Gaussian elimination over Q(i).
    rng = random.Random(77)
    for width in (1, 3, 6):
        basis = EchelonBasis(width)
        seen: list[list[GaussianRational]] = []
        for _ in range(3 * width + 2):
            if seen and rng.random() < 0.4:
                picks = rng.sample(seen, min(2, len(seen)))
                coeffs = [
                    GaussianRational.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for _ in picks
                ]
                combo = [sum((c * p[k] for c, p in zip(coeffs, picks)), GaussianRational.of(0))
                         for k in range(width)]
                scale = 1
                for z in combo:
                    for q in (z.re, z.im):
                        scale = scale * q.denominator // gcd(scale, q.denominator)
                vec = [z * scale for z in combo]
            else:
                vec = [GaussianRational.of(rng.randint(-4, 4), rng.randint(-4, 4))
                       for _ in range(width)]
            seen.append(vec)
            basis.insert([(int(z.re), int(z.im)) for z in vec])
            assert basis.rank == rational_rank(seen)


def rational_rank(vectors: list[list[GaussianRational]]) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
