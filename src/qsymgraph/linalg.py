"""Exact linear algebra over the Gaussian rationals.

Small dense matrices (vertex-sized, so at most 16x16 here) and rational
eigenvalue extraction through the rational-root theorem.
"""
from __future__ import annotations

import math
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

    Faddeev-LeVerrier over the rationals; requires rational entries.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    if not m.is_rational():
        raise ValueError("characteristic polynomial only for rational matrices")
    n = m.nrows
    a = [[e.re for e in row] for row in m.rows]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                work[i][i] += coeffs[n - k + 1]
        nxt = [
            [sum(a[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(nxt[i][i] for i in range(n))
        coeffs[n - k] = -tr / k
        work = nxt
    return coeffs


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
    """
    p = [Fraction(c) for c in poly]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial")
    roots: dict[Fraction, int] = {}
    # Factor out x^k.
    k0 = 0
    while p[k0] == 0:
        k0 += 1
    if k0:
        roots[Fraction(0)] = k0
        p = p[k0:]
    while len(p) > 1:
        lcm = 1
        for c in p:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        z = [int(c * lcm) for c in p]
        g = 0
        for c in z:
            g = math.gcd(g, c)
        if g > 1:
            z = [c // g for c in z]
        found = None
        for q in _divisors(z[-1]):
            for pnum in _divisors(z[0]):
                for sign in (1, -1):
                    cand = Fraction(sign * pnum, q)
                    val = Fraction(0)
                    for c in reversed(z):
                        val = val * cand + c
                    if val == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        # Deflate by (x - found).
        out = [Fraction(0)] * (len(p) - 1)
        acc = Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            acc = p[i] + acc * found
            out[i - 1] = acc
        p = out
        roots[found] = roots.get(found, 0) + 1
    return roots, len(p) - 1


def rational_eigenvalues(m: ExactMatrix) -> tuple[dict[Fraction, int], bool]:
    """Eigenvalues in Q with algebraic multiplicities.

    Returns (eigenvalues, split) where split is True exactly when the
    characteristic polynomial factors completely over the rationals.
    """
    poly = char_poly(m)
    roots, residual = rational_roots(poly)
    return roots, residual == 0
