"""Spin-model tensor spaces and their structural operations, reference style.

Level-m tensors are functions on m-tuples over the vertex set, stored as
sparse dictionaries with exact Gaussian-rational values. The operations
here are written directly from the box placements: multiplication stacks
boxes, inclusion adds a strand at the middle, expectation closes one off,
rotation shifts the marked point, star reflects.

Everything in this module favors clarity over speed; the orbit-compressed
engine in closure.py is checked against these on small inputs.
"""
from __future__ import annotations

import itertools
from collections import deque

from .graphs import ColoredGraph, incidence
from .linalg import EchelonBasis, ExactMatrix
from .scalars import GR_ONE, GR_ZERO, GaussianRational

Key = tuple[int, ...]


class SpinTensor:
    """A level-m element of the spin-model tensor tower on n points."""

    __slots__ = ("n", "level", "data")

    def __init__(self, n: int, level: int, data: dict[Key, GaussianRational]):
        self.n = n
        self.level = level
        self.data = {k: v for k, v in data.items() if not v.is_zero()}

    @staticmethod
    def zero(n: int, level: int) -> "SpinTensor":
        return SpinTensor(n, level, {})

    @staticmethod
    def unit(n: int) -> "SpinTensor":
        return SpinTensor(n, 0, {(): GR_ONE})

    @staticmethod
    def identity(n: int, level: int) -> "SpinTensor":
        """Unit of level-m multiplication: mirror-symmetric pairing."""
        half = level // 2
        data = {}
        for t in itertools.product(range(n), repeat=level):
            if all(t[j] == t[level - 1 - j] for j in range(half)):
                data[t] = GR_ONE
        return SpinTensor(n, level, data)

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
                    data[t] = GR_ONE
        else:
            h = (level - 1) // 2
            for t in itertools.product(range(n), repeat=level):
                if all(t[j] == t[level - 1 - j] for j in range(h - 1)) and (
                    t[h - 1] == t[h] == t[h + 1]
                ):
                    data[t] = GR_ONE
        return SpinTensor(n, level, data)

    @staticmethod
    def from_matrix(m: ExactMatrix) -> "SpinTensor":
        data = {}
        for i in range(m.nrows):
            for j in range(m.ncols):
                data[(i, j)] = m[i, j]
        return SpinTensor(m.nrows, 2, data)

    def __getitem__(self, key: Key) -> GaussianRational:
        return self.data.get(key, GR_ZERO)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpinTensor)
            and self.n == other.n
            and self.level == other.level
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"SpinTensor(n={self.n}, level={self.level}, {len(self.data)} entries)"

    def scale(self, c) -> "SpinTensor":
        w = GaussianRational.of(c)
        return SpinTensor(self.n, self.level, {k: w * v for k, v in self.data.items()})

    def add(self, other: "SpinTensor") -> "SpinTensor":
        _check_same_space(self, other)
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, GR_ZERO) + v
        return SpinTensor(self.n, self.level, data)

    def sub(self, other: "SpinTensor") -> "SpinTensor":
        return self.add(other.scale(-1))

    def coords(self) -> tuple[GaussianRational, ...]:
        """Dense coordinates in lexicographic tuple order."""
        return tuple(
            self.data.get(t, GR_ZERO)
            for t in itertools.product(range(self.n), repeat=self.level)
        )


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
    if m == 0:
        return SpinTensor(a.n, 0, {(): a[()] * b[()]})
    h = (m + 1) // 2
    by_head: dict[Key, list[Key]] = {}
    for t in b.data:
        by_head.setdefault(t[:h], []).append(t)
    out: dict[Key, GaussianRational] = {}
    for s, av in a.data.items():
        link = tuple(s[m - j] for j in range(1, h + 1))
        for t in by_head.get(link, ()):
            key = s[:h] + t[h:]
            val = out.get(key, GR_ZERO) + av * b.data[t]
            out[key] = val
    return SpinTensor(a.n, m, out)


def incl(a: SpinTensor) -> SpinTensor:
    """Add a strand, going from level m to m + 1. With m even a free index
    enters at the middle; with m odd the middle index is doubled. This is
    a unital algebra embedding at every level.
    """
    m = a.level
    out: dict[Key, GaussianRational] = {}
    if m % 2 == 0:
        cut = m // 2
        for s, v in a.data.items():
            for l in range(a.n):
                out[s[:cut] + (l,) + s[cut:]] = v
    else:
        h = (m + 1) // 2
        for s, v in a.data.items():
            out[s[:h] + (s[h - 1],) + s[h:]] = v
    return SpinTensor(a.n, m + 1, out)


def expect(a: SpinTensor) -> SpinTensor:
    """Close a strand, going from level m + 1 down to m (not normalized).

    Down to even m the middle index is summed out; down to odd m the two
    middle indices must agree and collapse to one. Composed with incl this
    gives n times the identity from even levels and the identity from odd.
    """
    m = a.level - 1
    if m < 0:
        raise ValueError("cannot project below level 0")
    out: dict[Key, GaussianRational] = {}
    if m % 2 == 0:
        cut = m // 2
        for s, v in a.data.items():
            key = s[:cut] + s[cut + 1 :]
            out[key] = out.get(key, GR_ZERO) + v
    else:
        h = (m + 1) // 2
        for s, v in a.data.items():
            if s[h - 1] != s[h]:
                continue
            key = s[:h] + s[h + 1 :]
            out[key] = out.get(key, GR_ZERO) + v
    return SpinTensor(a.n, m, out)


def rotate(a: SpinTensor) -> SpinTensor:
    """One-click rotation of the box: (i_1..i_m) values move to
    (i_2..i_m, i_1). Applying it level-many times is the identity."""
    return SpinTensor(a.n, a.level, {s[1:] + s[:1]: v for s, v in a.data.items()})


def star(a: SpinTensor) -> SpinTensor:
    """Adjoint: reverse the tuple and conjugate the value."""
    return SpinTensor(
        a.n, a.level, {tuple(reversed(s)): v.conjugate() for s, v in a.data.items()}
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
    bases: list[EchelonBasis] = [EchelonBasis(n**m) for m in range(top + 1)]
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
