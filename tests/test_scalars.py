"""Exact scalar arithmetic: Gaussian rationals, polynomials, cyclotomics."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qsymgraph.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    CyclotomicElement,
    GaussianRational,
    cyclotomic_polynomial,
    cyclotomic_power,
    euler_phi,
    format_gaussian,
    poly_divmod,
    poly_mul,
)


def _rand_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational.of(
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    )


def test_gaussian_field_axioms_random():
    rng = random.Random(402)
    for _ in range(200):
        a, b, c = (_rand_gaussian(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a
        if not b.is_zero():
            assert (a / b) * b == a
    assert GR_I * GR_I == GaussianRational.of(-1)


def test_gaussian_conjugate_norm():
    z = GaussianRational.of(Fraction(3, 4), Fraction(-2, 5))
    n = z * z.conjugate()
    assert n.is_rational()
    assert n.re == Fraction(3, 4) ** 2 + Fraction(2, 5) ** 2


@pytest.mark.parametrize(
    "z, text",
    [
        (GaussianRational.of(Fraction(1, 2)), "1/2"),
        (GaussianRational.of(0, 1), "0+1*i"),
        (GaussianRational.of(Fraction(-1, 3), Fraction(2, 7)), "-1/3+2/7*i"),
        (GaussianRational.of(5, -3), "5-3*i"),
    ],
)
def test_gaussian_format(z, text):
    assert format_gaussian(z) == text


def test_poly_divmod_reconstructs():
    rng = random.Random(77)
    for _ in range(100):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        if not any(b):
            continue
        q, r = poly_divmod(a, b)
        recon = [x for x in poly_mul(q, b)]
        for i, c in enumerate(r):
            if i < len(recon):
                recon[i] += c
            else:
                recon.append(c)
        trimmed = [x for x in a]
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        while recon and recon[-1] == 0:
            recon.pop()
        assert recon == trimmed


# Cyclotomic polynomials for small orders, straight from the tables.
_KNOWN_CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
}


@pytest.mark.parametrize("n", sorted(_KNOWN_CYCLOTOMIC))
def test_cyclotomic_polynomial_known(n):
    assert list(cyclotomic_polynomial(n)) == [
        Fraction(c) for c in _KNOWN_CYCLOTOMIC[n]
    ]


@pytest.mark.parametrize("n, phi", [(1, 1), (2, 1), (6, 2), (8, 4), (9, 6), (12, 4)])
def test_euler_phi(n, phi):
    assert euler_phi(n) == phi


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9])
def test_roots_of_unity_relations(n):
    one = cyclotomic_power(n, 0)
    assert one.is_rational() and one.rational_part() == 1
    # zeta^a * zeta^b = zeta^(a+b), and the full product over a period is 1.
    for a in range(n):
        for b in range(n):
            assert cyclotomic_power(n, a) * cyclotomic_power(n, b) == cyclotomic_power(
                n, a + b
            )
    # The n-th roots sum to zero for n > 1.
    total = CyclotomicElement.zero(n)
    for k in range(n):
        total = total + cyclotomic_power(n, k)
    assert total.is_zero()


def test_sqrt_two_inside_eighth_roots():
    # zeta_8 - zeta_8^3 is the real number sqrt(2); its square must be 2.
    s = cyclotomic_power(8, 1) - cyclotomic_power(8, 3)
    sq = s * s
    assert sq.is_rational() and sq.rational_part() == 2


def test_cyclotomic_mixed_orders_rejected():
    with pytest.raises(ValueError):
        cyclotomic_power(5, 1) + cyclotomic_power(7, 1)


def test_cyclotomic_scalar_multiply():
    z = cyclotomic_power(5, 2)
    tripled = z * 3
    assert tripled - z - z - z == CyclotomicElement.zero(5)
