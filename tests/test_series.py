"""Closed-form coefficient series and their exact radii."""
from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from qsymgraph.series import (
    CubeSeries,
    CyclicGroupSeries,
    DihedralSeries,
    FussCatalan,
    HadamardProduct,
    RationalSum,
    tl_series,
)


def test_catalan_prefix():
    cat = FussCatalan(1)
    assert cat.prefix(8) == [1, 1, 2, 5, 14, 42, 132, 429]
    assert cat.radius() == Fraction(1, 4)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_fuss_catalan_formula_oracle(s):
    series = FussCatalan(s)
    for k in range(10):
        # Direct evaluation, written independently of the implementation.
        expected = Fraction(comb((s + 1) * k, k), s * k + 1)
        assert series.coefficient(k) == expected
    assert series.radius() == Fraction(s**s, (s + 1) ** (s + 1))


def test_fuss_catalan_two_prefix():
    assert FussCatalan(2).prefix(5) == [1, 1, 3, 12, 55]
    assert FussCatalan(2).radius() == Fraction(4, 27)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8])
def test_dihedral_series_formula(n):
    series = DihedralSeries(n)
    eps = 2 if n % 2 == 0 else 1
    assert series.coefficient(0) == 1
    for k in range(1, 8):
        assert series.coefficient(k) == Fraction(eps ** (k - 1) + n ** (k - 1), 2)
    assert series.radius() == Fraction(1, n)


def test_dihedral_small_prefixes():
    assert DihedralSeries(5).prefix(5) == [1, 1, 3, 13, 63]
    assert DihedralSeries(6).prefix(4) == [1, 1, 4, 20]
    assert DihedralSeries(8).prefix(4) == [1, 1, 5, 34]
    assert DihedralSeries(2).prefix(5) == [1, 1, 2, 4, 8]
    assert DihedralSeries(3).prefix(6) == [1, 1, 2, 5, 14, 41]


def test_dihedral_equals_burnside_average():
    # The same numbers through the group: average of fixed^k over D_5,
    # packaged as a sum of geometric series by fixed-point count.
    series = RationalSum.from_histogram({0: 4, 1: 5, 5: 1})
    for k in range(8):
        assert series.coefficient(k) == DihedralSeries(5).coefficient(k)
    assert series.radius() == Fraction(1, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_cyclic_group_series(n):
    series = CyclicGroupSeries(n)
    assert series.coefficient(0) == 1
    for k in range(1, 7):
        assert series.coefficient(k) == n ** (k - 1)
    assert series.radius() == Fraction(1, n)


def test_cube_series_is_hadamard_square_of_halves():
    cube = CubeSeries()
    # 2^(k-1) * Catalan(k): the two-point series times the four-point one.
    pair = HadamardProduct(tl_series(2), tl_series(4))
    for k in range(10):
        assert cube.coefficient(k) == pair.coefficient(k)
    assert cube.prefix(5) == [1, 1, 4, 20, 112]
    assert cube.radius() == Fraction(1, 8)
    assert pair.radius() == Fraction(1, 8)


def test_tl_series_dispatch():
    assert tl_series(4).prefix(6) == [1, 1, 2, 5, 14, 42]
    assert tl_series(7).prefix(6) == [1, 1, 2, 5, 14, 42]
    assert tl_series(3).prefix(6) == [1, 1, 2, 5, 14, 41]
    assert tl_series(2).prefix(5) == [1, 1, 2, 4, 8]
    assert tl_series(1).prefix(4) == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        tl_series(0)


def test_hadamard_commutes_and_associates():
    a, b, c = FussCatalan(1), DihedralSeries(6), CyclicGroupSeries(3)
    left = HadamardProduct(HadamardProduct(a, b), c)
    right = HadamardProduct(a, HadamardProduct(b, c))
    swapped = HadamardProduct(b, a)
    for k in range(8):
        assert left.coefficient(k) == right.coefficient(k)
        assert HadamardProduct(a, b).coefficient(k) == swapped.coefficient(k)


def test_rational_sum_radius_largest_pole():
    series = RationalSum.from_histogram({0: 2, 2: 3, 7: 1})
    assert series.radius() == Fraction(1, 7)


def test_every_closed_form_starts_one_one():
    for series in (
        FussCatalan(1),
        FussCatalan(3),
        DihedralSeries(4),
        CyclicGroupSeries(5),
        CubeSeries(),
        tl_series(6),
    ):
        assert series.coefficient(0) == 1
        assert series.coefficient(1) == 1
