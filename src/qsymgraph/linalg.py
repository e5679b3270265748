"""Exact linear algebra over the Gaussian rationals.

Small dense matrices (vertex-sized, so at most 16x16 here) and rational
eigenvalue extraction through the rational-root theorem. Integral input
stays in Z: the characteristic polynomial of a rational matrix is taken
over the integers, from the matrix scaled by its common denominator, and
its coefficients become Fractions only when it is returned; the root
search scales the polynomial back to integers and tests and divides out
each candidate root there.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .scalars import GR_ONE, GR_ZERO, GaussianRational


class ExactMatrix:
    """Immutable square-ish matrix of GaussianRational entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[GaussianRational]]):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @staticmethod
    def from_ints(rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        return ExactMatrix([[GaussianRational.of(x) for x in r] for r in rows])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [
                [sum((a * b for a, b in zip(row, col)), GR_ZERO) for col in cols]
                for row in self.rows
            ]
        )

    def scale(self, c: GaussianRational | int | Fraction) -> "ExactMatrix":
        return ExactMatrix([[a * c for a in row] for row in self.rows])

    def adjoint(self) -> "ExactMatrix":
        return ExactMatrix(
            [
                [self.rows[i][j].conjugate() for i in range(self.nrows)]
                for j in range(self.ncols)
            ]
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def is_rational(self) -> bool:
        return all(a.im == 0 for row in self.rows for a in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


def char_poly(m: ExactMatrix) -> list[Fraction]:
    """Characteristic polynomial det(xI - M), low degree first.

    Faddeev-LeVerrier over Z on B = dM, d the common denominator of the
    entries; requires rational entries. For an integer matrix each step's
    trace is divisible by its step number k (the coefficient it yields is
    an integer), so the division by k is exact. det(xI - B) = d^n p(x/d),
    so the coefficient of x^j of M's polynomial p is B's divided by
    d^(n-j).
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    if not m.is_rational():
        raise ValueError("characteristic polynomial only for rational matrices")
    n = m.nrows
    d = math.lcm(*(e.re.denominator for row in m.rows for e in row))
    b = [[e.re.numerator * (d // e.re.denominator) for e in row] for row in m.rows]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                work[i][i] += coeffs[n - k + 1]
        cols = list(zip(*work))
        work = [[sum(map(operator.mul, row, col)) for col in cols] for row in b]
        coeffs[n - k] = -sum(work[i][i] for i in range(n)) // k
    return [Fraction(c, d ** (n - j)) for j, c in enumerate(coeffs)]


def _divisors(v: int) -> list[int]:
    v = abs(v)
    out = []
    d = 1
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            out.append(v // d)
        d += 1
    return sorted(set(out))


def rational_roots(poly: Sequence[Fraction]) -> tuple[dict[Fraction, int], int]:
    """Rational roots with multiplicity, plus the residual degree.

    Returns (roots, residual_degree) where residual_degree is the degree of
    the factor without rational roots (0 means the polynomial splits over Q).

    The search runs over Z on the polynomial scaled to a primitive integer
    one z of degree d: a candidate a/q in lowest terms, a dividing z_0 and
    q dividing z_d, is a root when the sum of z_i a^i q^(d-i) vanishes, and
    it is divided out as the factor qx - a, which leaves an integer
    quotient (Gauss's lemma). A candidate not in lowest terms is skipped:
    its lowest terms have a smaller q and were tried before it.
    """
    p = [Fraction(c) for c in poly]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial")
    scale = math.lcm(*(c.denominator for c in p))
    z = [c.numerator * (scale // c.denominator) for c in p]
    roots: dict[Fraction, int] = {}
    # Factor out x^k.
    k0 = 0
    while z[k0] == 0:
        k0 += 1
    if k0:
        roots[Fraction(0)] = k0
        z = z[k0:]

    def vanishes(a: int, q: int) -> bool:
        d = len(z) - 1
        return sum(c * a**i * q ** (d - i) for i, c in enumerate(z)) == 0

    while len(z) > 1:
        content = math.gcd(*z)
        z = [c // content for c in z]
        found = next(
            (
                (a, q)
                for q in _divisors(z[-1])
                for pnum in _divisors(z[0])
                for a in (pnum, -pnum)
                if math.gcd(pnum, q) == 1 and vanishes(a, q)
            ),
            None,
        )
        if found is None:
            break
        a, q = found
        # z = (qx - a) w, so w_(i-1) = (z_i + a w_i) / q, exactly, from the top.
        w = [0] * (len(z) - 1)
        acc = 0
        for i in range(len(z) - 1, 0, -1):
            acc = (z[i] + a * acc) // q
            w[i - 1] = acc
        z = w
        root = Fraction(a, q)
        roots[root] = roots.get(root, 0) + 1
    return roots, len(z) - 1


def rational_eigenvalues(m: ExactMatrix) -> tuple[dict[Fraction, int], bool]:
    """Eigenvalues in Q with algebraic multiplicities.

    Returns (eigenvalues, split) where split is True exactly when the
    characteristic polynomial factors completely over the rationals.
    """
    poly = char_poly(m)
    roots, residual = rational_roots(poly)
    return roots, residual == 0
