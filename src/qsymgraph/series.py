"""Dimension series of fixed-point spaces, with exact coefficients.

Every series here is a formal power series sum c_k z^k with c_0 = 1 and
nonnegative rational coefficients. Closed forms carry their convergence
radius as an exact rational.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class PoincareSeries:
    """Base interface: exact coefficients plus an optional exact radius."""

    formula: str = ""

    def coefficient(self, k: int) -> Fraction:
        raise NotImplementedError

    def prefix(self, count: int) -> list[Fraction]:
        return [self.coefficient(k) for k in range(count)]

    def radius(self) -> Fraction | None:
        return None


@dataclass(frozen=True)
class RationalSum(PoincareSeries):
    """f(z) = sum over fixed-point counts m of w_m / (1 - m z).

    This is the shape every ordinary permutation group produces, with
    w_m = (number of elements fixing exactly m points) / group order.
    """

    weights: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_histogram(hist: dict[int, int]) -> "RationalSum":
        order = sum(hist.values())
        weights = tuple(
            (m, Fraction(count, order)) for m, count in sorted(hist.items())
        )
        return RationalSum(weights)

    @property
    def formula(self) -> str:  # type: ignore[override]
        terms = [f"({w})/(1-{m}z)" for m, w in self.weights]
        return " + ".join(terms)

    def coefficient(self, k: int) -> Fraction:
        if k == 0:
            return sum((w for _, w in self.weights), Fraction(0))
        return sum((w * m**k for m, w in self.weights), Fraction(0))

    def radius(self) -> Fraction | None:
        top = max((m for m, w in self.weights if w != 0), default=0)
        return None if top == 0 else Fraction(1, top)


@dataclass(frozen=True)
class FussCatalan(PoincareSeries):
    """c_k = C((s+1)k, k) / (sk + 1); s = 1 is the Catalan series."""

    s: int

    @property
    def formula(self) -> str:  # type: ignore[override]
        s = self.s
        return f"c_k = C({s + 1}k, k)/({s}k+1)"

    def coefficient(self, k: int) -> Fraction:
        return Fraction(math.comb((self.s + 1) * k, k), self.s * k + 1)

    def radius(self) -> Fraction:
        s = self.s
        return Fraction(s**s, (s + 1) ** (s + 1))


def tl_series(n: int) -> PoincareSeries:
    """Series of n bare points: Catalan once n reaches 4, where the free
    quantum symmetry stabilizes; below that the dihedral closed forms."""
    if n < 1:
        raise ValueError("need at least one point")
    if n >= 4:
        return FussCatalan(1)
    return DihedralSeries(n)


@dataclass(frozen=True)
class DihedralSeries(PoincareSeries):
    """c_k = (eps^(k-1) + n^(k-1)) / 2 with eps = 2 for even n, 1 for odd."""

    n: int

    @property
    def eps(self) -> int:
        return 2 if self.n % 2 == 0 else 1

    @property
    def formula(self) -> str:  # type: ignore[override]
        return f"c_k = ({self.eps}^(k-1) + {self.n}^(k-1))/2"

    def coefficient(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        return Fraction(self.eps ** (k - 1) + self.n ** (k - 1), 2)

    def radius(self) -> Fraction:
        return Fraction(1, self.n)


@dataclass(frozen=True)
class CyclicGroupSeries(PoincareSeries):
    """c_k = n^(k-1) for k >= 1; the series of a free cyclic rotation."""

    n: int

    @property
    def formula(self) -> str:  # type: ignore[override]
        return f"c_k = {self.n}^(k-1)"

    def coefficient(self, k: int) -> Fraction:
        return Fraction(1) if k == 0 else Fraction(self.n ** (k - 1))

    def radius(self) -> Fraction:
        return Fraction(1, self.n)


@dataclass(frozen=True)
class CubeSeries(PoincareSeries):
    """c_k = 2^(k-1) C(2k, k)/(k+1) for k >= 1: doubled Catalan growth."""

    @property
    def formula(self) -> str:  # type: ignore[override]
        return "c_k = 2^(k-1) C(2k,k)/(k+1)"

    def coefficient(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        return Fraction(2 ** (k - 1) * math.comb(2 * k, k), k + 1)

    def radius(self) -> Fraction:
        return Fraction(1, 8)


@dataclass(frozen=True)
class HadamardProduct(PoincareSeries):
    """Coefficientwise product, the series of interchangeable copies."""

    left: PoincareSeries
    right: PoincareSeries

    @property
    def formula(self) -> str:  # type: ignore[override]
        return f"c_k = a_k b_k with a: {self.left.formula} and b: {self.right.formula}"

    def coefficient(self, k: int) -> Fraction:
        return self.left.coefficient(k) * self.right.coefficient(k)

    def radius(self) -> Fraction | None:
        ra, rb = self.left.radius(), self.right.radius()
        if ra is None or rb is None:
            return None
        return ra * rb
