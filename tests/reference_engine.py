"""The exact reference engine: spin-model tensors and their closure.

Level-m tensors are functions on m-tuples over the vertex set, stored as
sparse dictionaries of Gaussian-integer values, (re, im) pairs of Python
ints: the seeds have such values, and every operation only adds and
multiplies them. The operations are written directly from the box
placements: multiplication stacks boxes, inclusion adds a strand at the
middle, expectation closes one off, rotation shifts the marked point,
star reflects.

Everything here favors clarity over speed, and nothing here comes from
the orbit-compressed engine in qsymgraph.closure, which the tests check
against it: ranks are decided by fraction-free elimination over the
Gaussian integers Z[i] (EchelonBasis), on every one of the n^m
coordinates, with no orbit compression and no modular arithmetic.

This module holds no tests; test files import it by name.
"""
from __future__ import annotations

import itertools
from collections import deque
from math import gcd
from typing import Iterable

from qsymgraph.graphs import ColoredGraph, incidence
from qsymgraph.linalg import ExactMatrix
from qsymgraph.scalars import GaussianRational

Key = tuple[int, ...]
GaussInt = tuple[int, int]


class EchelonBasis:
    """Row echelon basis over the Gaussian integers, without fractions.

    A vector is a sequence of (re, im) pairs of Python ints, one per
    coordinate. Rows are kept in order of their pivots (first nonzero
    coordinates), which strictly increase, and primitive: the integer gcd
    of all their parts is 1. A vector is reduced in row-echelon order:
    while its first nonzero coordinate c is some row's pivot, it becomes
    row[c] * v - v[c] * row, which clears c and leaves only later
    coordinates, and is made primitive again. Over the fraction field
    Q(i) this is the usual elimination up to a nonzero scalar per step,
    so the rank is the exact rank over the Gaussian rationals. Like
    Bareiss's fraction-free elimination (Sylvester's identity and
    multistep integer-preserving Gaussian elimination, Math. Comp. 22,
    1968) it never leaves the integers; it keeps entries small by
    dividing out the content instead of by his exact division. Inserting
    a vector either leaves the span unchanged (returns False) or adds its
    reduced remainder as a new row (returns True).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[GaussInt]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: Iterable[GaussInt]) -> bool:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("vector has wrong length")
        col = _first_nonzero(v, 0)
        at = 0
        while col < self.dim:
            while at < len(self.pivots) and self.pivots[at] < col:
                at += 1
            if at == len(self.pivots) or self.pivots[at] != col:
                self.rows.insert(at, _primitive(v))
                self.pivots.insert(at, col)
                return True
            v = _eliminate(v, self.rows[at], col)
            col = _first_nonzero(v, col + 1)
        return False


def _first_nonzero(v: list[GaussInt], start: int) -> int:
    """Index of the first nonzero entry at or after start, else len(v)."""
    for j in range(start, len(v)):
        re, im = v[j]
        if re or im:
            return j
    return len(v)


def _eliminate(v: list[GaussInt], row: list[GaussInt], col: int) -> list[GaussInt]:
    """a * v - b * row with a = row[col], b = v[col], made primitive.

    Both vectors vanish before col, and the result vanishes at col too."""
    a_re, a_im = row[col]
    b_re, b_im = v[col]
    g = gcd(a_re, a_im, b_re, b_im)
    if g > 1:
        a_re, a_im, b_re, b_im = a_re // g, a_im // g, b_re // g, b_im // g
    out = v[:col]
    out.append((0, 0))
    for (v_re, v_im), (r_re, r_im) in zip(v[col + 1 :], row[col + 1 :]):
        out.append(
            (
                a_re * v_re - a_im * v_im - b_re * r_re + b_im * r_im,
                a_re * v_im + a_im * v_re - b_re * r_im - b_im * r_re,
            )
        )
    return _primitive(out)


def _primitive(v: list[GaussInt]) -> list[GaussInt]:
    """v divided by the integer gcd of all its parts."""
    g = gcd(*(part for z in v for part in z))
    if g <= 1:
        return v
    return [(re // g, im // g) for re, im in v]


class SpinTensor:
    """A level-m element of the spin-model tensor tower on n points, with
    Gaussian-integer values.

    The constructor takes GaussianRational values and indexing returns
    them; inside, each value is an (re, im) pair of ints, zeros dropped.
    """

    __slots__ = ("n", "level", "data")

    def __init__(self, n: int, level: int, data: dict[Key, GaussianRational]):
        self.n = n
        self.level = level
        self.data = _nonzero({k: _gaussian_int(v) for k, v in data.items()})

    @staticmethod
    def _of(n: int, level: int, data: dict[Key, GaussInt]) -> "SpinTensor":
        t = SpinTensor.__new__(SpinTensor)
        t.n, t.level, t.data = n, level, _nonzero(data)
        return t

    @staticmethod
    def unit(n: int) -> "SpinTensor":
        return SpinTensor._of(n, 0, {(): (1, 0)})

    @staticmethod
    def identity(n: int, level: int) -> "SpinTensor":
        """Unit of level-m multiplication: mirror-symmetric pairing."""
        half = level // 2
        data = {}
        for t in itertools.product(range(n), repeat=level):
            if all(t[j] == t[level - 1 - j] for j in range(half)):
                data[t] = (1, 0)
        return SpinTensor._of(n, level, data)

    @staticmethod
    def jones(n: int, level: int) -> "SpinTensor":
        """The cup-cap element whose right multiplication implements the
        basic construction; level must be at least 2."""
        if level < 2:
            raise ValueError("jones element lives at level >= 2")
        data = {}
        if level % 2 == 0:
            half = (level - 2) // 2
            for t in itertools.product(range(n), repeat=level):
                if all(t[j] == t[level - 1 - j] for j in range(half)):
                    data[t] = (1, 0)
        else:
            h = (level - 1) // 2
            for t in itertools.product(range(n), repeat=level):
                if all(t[j] == t[level - 1 - j] for j in range(h - 1)) and (
                    t[h - 1] == t[h] == t[h + 1]
                ):
                    data[t] = (1, 0)
        return SpinTensor._of(n, level, data)

    @staticmethod
    def from_matrix(m: ExactMatrix) -> "SpinTensor":
        data = {}
        for i in range(m.nrows):
            for j in range(m.ncols):
                data[(i, j)] = m[i, j]
        return SpinTensor(m.nrows, 2, data)

    def __getitem__(self, key: Key) -> GaussianRational:
        return GaussianRational.of(*self.data.get(key, (0, 0)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpinTensor)
            and self.n == other.n
            and self.level == other.level
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"SpinTensor(n={self.n}, level={self.level}, {len(self.data)} entries)"

    def scale(self, c: int) -> "SpinTensor":
        return SpinTensor._of(
            self.n, self.level, {k: (c * re, c * im) for k, (re, im) in self.data.items()}
        )

    def coords(self) -> list[GaussInt]:
        """Dense coordinates in lexicographic tuple order."""
        return [
            self.data.get(t, (0, 0))
            for t in itertools.product(range(self.n), repeat=self.level)
        ]


def _gaussian_int(z: GaussianRational) -> GaussInt:
    if z.re.denominator != 1 or z.im.denominator != 1:
        raise ValueError(f"{z} is not a Gaussian integer")
    return z.re.numerator, z.im.numerator


def _nonzero(data: dict[Key, GaussInt]) -> dict[Key, GaussInt]:
    return {k: v for k, v in data.items() if v[0] or v[1]}


def _check_same_space(a: SpinTensor, b: SpinTensor) -> None:
    if a.n != b.n or a.level != b.level:
        raise ValueError("tensors live in different spaces")


def mult(a: SpinTensor, b: SpinTensor) -> SpinTensor:
    """Stack a on top of b. At level m the product contracts the last
    ceil(m/2) indices of a against the first ceil(m/2) of b, reversed:

        (ab)[s_1..s_h, t_{h+1}..t_m] = sum a[s] b[t]
        over s_{m+1-j} = t_j for j = 1..h,  h = ceil(m/2).

    Level 2 is ordinary matrix multiplication, level 1 pointwise.
    """
    _check_same_space(a, b)
    m = a.level
    h = (m + 1) // 2
    by_head: dict[Key, list[tuple[Key, GaussInt]]] = {}
    for t, bv in b.data.items():
        by_head.setdefault(t[:h], []).append((t[h:], bv))
    out: dict[Key, GaussInt] = {}
    for s, (a_re, a_im) in a.data.items():
        link = tuple(s[m - j] for j in range(1, h + 1))
        for tail, (b_re, b_im) in by_head.get(link, ()):
            key = s[:h] + tail
            re, im = out.get(key, (0, 0))
            out[key] = (re + a_re * b_re - a_im * b_im, im + a_re * b_im + a_im * b_re)
    return SpinTensor._of(a.n, m, out)


def incl(a: SpinTensor) -> SpinTensor:
    """Add a strand, going from level m to m + 1. With m even a free index
    enters at the middle; with m odd the middle index is doubled. This is
    a unital algebra embedding at every level.
    """
    m = a.level
    out: dict[Key, GaussInt] = {}
    if m % 2 == 0:
        cut = m // 2
        for s, v in a.data.items():
            for l in range(a.n):
                out[s[:cut] + (l,) + s[cut:]] = v
    else:
        h = (m + 1) // 2
        for s, v in a.data.items():
            out[s[:h] + (s[h - 1],) + s[h:]] = v
    return SpinTensor._of(a.n, m + 1, out)


def expect(a: SpinTensor) -> SpinTensor:
    """Close a strand, going from level m + 1 down to m (not normalized).

    Down to even m the middle index is summed out; down to odd m the two
    middle indices must agree and collapse to one. Composed with incl this
    gives n times the identity from even levels and the identity from odd.
    """
    m = a.level - 1
    if m < 0:
        raise ValueError("cannot project below level 0")
    out: dict[Key, GaussInt] = {}
    if m % 2 == 0:
        cut = m // 2
        for s, (v_re, v_im) in a.data.items():
            key = s[:cut] + s[cut + 1 :]
            re, im = out.get(key, (0, 0))
            out[key] = (re + v_re, im + v_im)
    else:
        h = (m + 1) // 2
        for s, (v_re, v_im) in a.data.items():
            if s[h - 1] != s[h]:
                continue
            key = s[:h] + s[h + 1 :]
            re, im = out.get(key, (0, 0))
            out[key] = (re + v_re, im + v_im)
    return SpinTensor._of(a.n, m, out)


def rotate(a: SpinTensor) -> SpinTensor:
    """One-click rotation of the box: (i_1..i_m) values move to
    (i_2..i_m, i_1). Applying it level-many times is the identity."""
    return SpinTensor._of(a.n, a.level, {s[1:] + s[:1]: v for s, v in a.data.items()})


def star(a: SpinTensor) -> SpinTensor:
    """Adjoint: reverse the tuple and conjugate the value."""
    return SpinTensor._of(
        a.n, a.level, {s[::-1]: (re, -im) for s, (re, im) in a.data.items()}
    )


def graph_seeds(g: ColoredGraph) -> list[SpinTensor]:
    """The level-2 boxes of a colored graph: one 0/1 (or +-i) incidence
    tensor per color component, values dropped."""
    return [SpinTensor.from_matrix(incidence(g, c.label)) for c in g.components]


def reference_closure(g: ColoredGraph, max_level: int, buffer: int = 1) -> list[int]:
    """Dimensions of the tensor spaces generated by the graph boxes.

    Straight least-fixpoint computation: start from the unit, the graph
    boxes and the cup-cap elements, then saturate under multiplication of
    all pairs, strand addition and closing, rotation and star, working at
    all levels up to max_level + buffer. Exponential in every direction;
    used as ground truth for small graphs.
    """
    n = g.n
    top = max_level + buffer
    bases = [EchelonBasis(n**m) for m in range(top + 1)]
    members: list[list[SpinTensor]] = [[] for _ in range(top + 1)]
    queue: deque[SpinTensor] = deque([SpinTensor.unit(n)])
    for m in range(2, top + 1):
        queue.append(SpinTensor.jones(n, m))
    queue.extend(graph_seeds(g))

    def push(t: SpinTensor) -> None:
        if bases[t.level].insert(t.coords()):
            members[t.level].append(t)
            produce(t)

    def produce(t: SpinTensor) -> None:
        queue.append(rotate(t))
        queue.append(star(t))
        if t.level < top:
            queue.append(incl(t))
        if t.level > 0:
            queue.append(expect(t))
        for other in list(members[t.level]):
            queue.append(mult(t, other))
            queue.append(mult(other, t))

    while queue:
        push(queue.popleft())
    return [bases[m].rank for m in range(max_level + 1)]
