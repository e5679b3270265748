"""Ordinary automorphism groups of colored graphs and their fixed-point data.

Permutations are tuples p of length n with p[i] = image of i. A group is
kept as its stabilizer chain along the point sequence 0, 1, ..., n-1:
transversal i holds one element for each image of i under the pointwise
stabilizer of 0, ..., i-1, the identity first. Every element factors
uniquely as t_0 ∘ t_1 ∘ ... ∘ t_(n-1) with t_i from transversal i, so the
chain gives the order as a product of transversal sizes, a generating
set, and, on demand, the element table (Seress, Permutation Group
Algorithms, ch. 4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .graphs import ColoredGraph, _iso_search
from .linalg import ExactMatrix
from .series import RationalSum

Permutation = tuple[int, ...]

_ELEMENT_CAP = 1_000_000


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p after q): i -> p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


class PermutationGroup:
    """A group given by its stabilizer chain; transversals[i] starts with
    the identity, and each later entry fixes 0, ..., i-1 and moves i.

    The element table is built only on demand because it can dwarf the
    chain."""

    def __init__(self, n: int, transversals: tuple[tuple[Permutation, ...], ...]):
        self.n = n
        self.transversals = transversals
        self.order = math.prod(len(t) for t in transversals)
        # The non-identity transversal elements, stage by stage.
        self.generators = tuple(p for t in transversals for p in t[1:])

    @cached_property
    def table(self) -> np.ndarray:
        """Every element once, as the rows of an order x n array.

        Built by the unique factorization: starting from the identity row,
        each stage from the last to the first replaces the rows h by the
        rows t ∘ h = t[h] for every t in its transversal.
        """
        if self.order > _ELEMENT_CAP:
            raise ValueError(
                f"group of order {self.order} is too large to enumerate"
            )
        dtype = np.min_scalar_type(self.n)
        table = np.arange(self.n, dtype=dtype)[None, :]
        for stage in reversed(self.transversals):
            table = np.asarray(stage, dtype=dtype)[:, table].reshape(-1, self.n)
        return table

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(sorted(map(tuple, self.table.tolist())))

    def is_transitive(self) -> bool:
        """Stage 0 is the orbit of vertex 0."""
        return len(self.transversals[0]) == self.n


@lru_cache(maxsize=32)
def automorphism_group(g: ColoredGraph) -> PermutationGroup:
    """All vertex permutations preserving every color component setwise
    (arcs with their orientation).

    Memoized on the graph, which is frozen and hashable: one analysis
    asks for the same group from the command line, from classify and from
    the closure engine.

    Works down the stabilizer chain of the point sequence 0, 1, ..., n-1:
    at stage i one pinned search per candidate image w of i finds an
    element sending i to w while fixing everything earlier, if one exists.
    Only w > i can be hit, since each earlier point is its own image. The
    hits, in order of w, make up transversal i.
    """
    comps = list(g.components)
    identity = tuple(range(g.n))
    transversals = []
    for i in range(g.n):
        pins = [(v, v) for v in range(i)]
        stage = [identity]
        for w in range(i + 1, g.n):
            hit = _iso_search(g.n, comps, comps, pins=pins + [(i, w)])
            if hit is not None:
                stage.append(hit)
        transversals.append(tuple(stage))
    return PermutationGroup(g.n, tuple(transversals))


def fixed_point_histogram(group: PermutationGroup) -> dict[int, int]:
    """How many elements fix exactly m vertices, for each occurring m."""
    counts = np.bincount((group.table == np.arange(group.n)).sum(axis=1))
    return {m: c for m, c in enumerate(counts.tolist()) if c}


def classical_series_coefficient(group: PermutationGroup, k: int) -> Fraction:
    """Average of (number of fixed vertices)^k over the group; for k = 0
    this is 1 (empty product), matching the convention c_0 = 1."""
    return RationalSum.from_histogram(fixed_point_histogram(group)).coefficient(k)


def classical_series_prefix(group: PermutationGroup, count: int) -> list[Fraction]:
    return RationalSum.from_histogram(fixed_point_histogram(group)).prefix(count)


@dataclass(frozen=True)
class ClassicalCoaction:
    """The permutation-group magic matrix: entry (i, j) is the indicator
    function of {g : g(j) = i}, stored as a bitmask over the element list."""

    group: PermutationGroup
    masks: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(group: PermutationGroup) -> "ClassicalCoaction":
        n = group.n
        masks = [[0] * n for _ in range(n)]
        for idx, p in enumerate(group.elements):
            for j in range(n):
                masks[p[j]][j] |= 1 << idx
        return ClassicalCoaction(group, tuple(tuple(r) for r in masks))

    def is_magic(self) -> bool:
        """Rows and columns are partitions of unity; entries idempotent.

        Bitmask indicators are idempotent by construction, so the content
        here is that each row and column ORs to everything, disjointly.
        """
        full = (1 << self.group.order) - 1
        n = self.group.n
        for i in range(n):
            row = col = 0
            for j in range(n):
                if row & self.masks[i][j] or col & self.masks[j][i]:
                    return False
                row |= self.masks[i][j]
                col |= self.masks[j][i]
            if row != full or col != full:
                return False
        return True

    def commutes_with(self, d: ExactMatrix) -> bool:
        """dv = vd as matrices of functions on the group, checked entrywise
        per group element. This is the coaction-invariance equation."""
        n = self.group.n
        if d.nrows != n or d.ncols != n:
            raise ValueError("matrix size does not match the group degree")
        for p in self.group.elements:
            pinv = inverse(p)
            for i in range(n):
                for j in range(n):
                    # (dv)_{ij}(g) = d_{i, g(j)};  (vd)_{ij}(g) = d_{g^{-1}(i), j}
                    if d[i, p[j]] != d[pinv[i], j]:
                        return False
        return True
