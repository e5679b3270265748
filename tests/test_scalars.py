"""Exact scalar arithmetic: Gaussian rationals, polynomials, cyclotomics."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qsymgraph.classify import cyclic_criterion
from qsymgraph.graphs import CyclicProfile, cyclic_from_profile
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


# -- integer cyclotomic arithmetic against a Fraction reference -----------------


def fraction_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division in Fractions; the remainder keeps len(b) - 1 terms."""
    rem, quot = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        quot[len(rem) - len(b)] = c
        for i, bi in enumerate(b):
            rem[len(rem) - len(b) + i] -= c * bi
        rem.pop()
    return quot, rem + [Fraction(0)] * (len(b) - 1 - len(rem))


@lru_cache(maxsize=None)
def fraction_cyclotomic(n: int) -> tuple[Fraction, ...]:
    p = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            p, rem = fraction_divmod(p, list(fraction_cyclotomic(d)))
            assert not any(rem)
    return tuple(p)


def fraction_power(n: int, k: int) -> tuple[Fraction, ...]:
    """zeta_n^k in the power basis, reduced in Fractions."""
    poly = [Fraction(0)] * (k % n) + [Fraction(1)]
    return tuple(fraction_divmod(poly, list(fraction_cyclotomic(n)))[1])


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclotomic_arithmetic_stays_in_z(n):
    phi = cyclotomic_polynomial(n)
    assert phi == fraction_cyclotomic(n)
    assert all(type(c) is int for c in phi)
    for k in range(2 * n):
        z = cyclotomic_power(n, k)
        assert z.coeffs == fraction_power(n, k)
        assert all(type(c) is int for c in z.coeffs)
    assert CyclotomicElement.from_rational(n, -3).coeffs == (-3,) + (0,) * (euler_phi(n) - 1)


def test_cyclic_criterion_values_match_the_fraction_reference():
    # Values and reasons on circulants of up to 24 vertices, against sums of
    # Fraction-reduced powers printed by the same formatter.
    rng = random.Random(24)
    checked = 0
    for n in range(3, 25):
        for _ in range(3):
            chosen = rng.sample(range(1, n // 2 + 1), rng.randint(1, max(1, n // 4)))
            verdict = cyclic_criterion(cyclic_from_profile(CyclicProfile.from_exponents(n, chosen)))
            if verdict.profile is None:
                continue
            checked += 1
            exps = verdict.profile.exponents()
            powers = [[fraction_power(n, j * k) for k in exps] for j in range(n // 2 + 1)]
            want = [CyclotomicElement(n, tuple(map(sum, zip(*row)))) for row in powers]
            assert verdict.values == tuple(want)
            assert [str(v) for v in verdict.values] == [str(w) for w in want]
            assert all(type(c) is int for v in verdict.values for c in v.coeffs)
            pairs = itertools.combinations(range(len(want)), 2)
            pair = next(((a, b) for a, b in pairs if want[a] == want[b]), None)
            if pair is not None:
                a, b = pair
                assert verdict.reason == f"eigenvalue collision Q(w^{a}) = Q(w^{b}) = {want[a]}"
            else:
                assert verdict.accepted == (n != 4)
    assert checked > 40
