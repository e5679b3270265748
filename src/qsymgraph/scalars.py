"""Exact scalar arithmetic: Gaussian rationals and cyclotomic field elements.

All computations in this package that feed a dimension count or an
eigenvalue comparison run over these types; floating point is never used
for anything that decides a result. Integral input stays in Z: the
polynomial helpers keep int coefficients through sums, products and
division by a monic divisor, and the n-th cyclotomic polynomial is monic
with integer coefficients, so a cyclotomic element built from roots of
unity and integers holds ints, each equal to the Fraction it stands for.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence, Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class GaussianRational:
    """A number a + b*i with rational a, b."""

    re: Fraction = _ZERO
    im: Fraction = _ZERO

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(_frac(re), _frac(im))

    def __add__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = _coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = _coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return _coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = _coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = _coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return _coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return format_gaussian(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(_ONE)
GR_I = GaussianRational(_ZERO, _ONE)


def _coerce(x: "GaussianRational | RationalLike") -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(_frac(x))
    raise TypeError(f"cannot use {type(x).__name__} as a GaussianRational")


def format_gaussian(z: GaussianRational) -> str:
    """Render as ``p/q`` when rational, otherwise ``p/q+r/s*i``."""
    if z.im == 0:
        return str(z.re)
    im_part = str(abs(z.im)) + "*i"
    sign = "+" if z.im > 0 else "-"
    return str(z.re) + sign + im_part


# ---------------------------------------------------------------------------
# Polynomials over Q, dense little-endian lists of int or Fraction
# coefficients; int coefficients stay int (module docstring).

def _poly_trim(p: list[RationalLike]) -> list[RationalLike]:
    while p and p[-1] == 0:
        p.pop()
    return p

def poly_mul(a: Sequence[RationalLike], b: Sequence[RationalLike]) -> list[RationalLike]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)

def poly_divmod(
    a: Sequence[RationalLike], b: Sequence[RationalLike]
) -> tuple[list[RationalLike], list[RationalLike]]:
    """Quotient and remainder; by a monic b, int coefficients stay int."""
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    _poly_trim(rem)
    q: list[RationalLike] = [0] * max(0, len(rem) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b):
        c = rem[-1] if lead == 1 else _frac(rem[-1]) / lead
        d = len(rem) - len(b)
        q[d] = c
        for i, bi in enumerate(b):
            rem[d + i] -= c * bi
        _poly_trim(rem)
        if not rem:
            break
    return _poly_trim(q), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree
    first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n, each monic, so every step stays in Z.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    p: list[RationalLike] = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p, rem = poly_divmod(p, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(p)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


@dataclass(frozen=True)
class CyclotomicElement:
    """Element of Q(zeta_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1).

    Coefficients are reduced modulo the n-th cyclotomic polynomial, so
    equality of elements is equality of coefficient vectors. They are ints
    where the arithmetic stayed in Z (module docstring), Fractions
    otherwise.
    """

    order: int
    coeffs: tuple[RationalLike, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError("coefficient vector has wrong length for the order")

    @staticmethod
    def from_rational(n: int, value: RationalLike) -> "CyclotomicElement":
        return CyclotomicElement(n, (value,) + (0,) * (euler_phi(n) - 1))

    @staticmethod
    def zero(n: int) -> "CyclotomicElement":
        return CyclotomicElement.from_rational(n, 0)

    def _check(self, other: "CyclotomicElement") -> None:
        if self.order != other.order:
            raise ValueError("cannot mix cyclotomic fields of different orders")

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicElement | RationalLike") -> "CyclotomicElement":
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(self.order, tuple(a * other for a in self.coeffs))
        self._check(other)
        prod = poly_mul(list(self.coeffs), list(other.coeffs))
        return CyclotomicElement(self.order, _reduce_mod_phi(self.order, prod))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_part(self) -> Fraction:
        return _frac(self.coeffs[0])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def _reduce_mod_phi(n: int, poly: list[RationalLike]) -> tuple[RationalLike, ...]:
    _, rem = poly_divmod(poly, cyclotomic_polynomial(n))
    deg = euler_phi(n)
    rem = rem + [0] * (deg - len(rem))
    return tuple(rem[:deg])


@lru_cache(maxsize=None)
def cyclotomic_power(n: int, k: int) -> CyclotomicElement:
    """zeta_n^k as an exact field element (k taken modulo n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    k %= n
    return CyclotomicElement(n, _reduce_mod_phi(n, [0] * k + [1]))
