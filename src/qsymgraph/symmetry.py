"""Ordinary automorphism groups of colored graphs and their fixed-point data.

Permutations are tuples p of length n with p[i] = image of i. A group is
kept as its stabilizer chain along the point sequence 0, 1, ..., n-1:
transversal i holds one element for each image of i under the pointwise
stabilizer G_i of 0, ..., i-1, the identity first. Every element factors
uniquely as t_0 ∘ t_1 ∘ ... ∘ t_(n-1) with t_i from transversal i, so the
chain gives the order as a product of transversal sizes and, on demand,
the element table (Seress, Permutation Group Algorithms, ch. 4).

automorphism_group builds the chain bottom-up, from stage n-1 to stage 0,
so that stage i starts with generators of G_(i+1). Every generator found
so far fixes 0, ..., i-1 and so lies in G_i, and two rules prune the
searches for an automorphism in G_i sending i to w. A w already in the
orbit of i under the generators is reached without a search. A w in the
orbit of a target w' that failed is skipped: h with h(w') = w and t in
G_i with t(i) = w would give h^-1 ∘ t in G_i sending i to w'. Each
search refines the vertex coloring with 0, ..., i-1 pinned and i sent to
w, fails at once when the target side cannot follow the refinement of
the source side (computed once per stage), and maps each vertex only
into its own cell; see graphs._isomorphism.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .graphs import ColoredGraph, _isomorphism, _refine, _Relations, complement, denser_than_half
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

    generators are strong generators: those in G_i generate G_i for every
    i, and all of them together generate the group. automorphism_group
    passes the automorphisms its searches found, each transversal element
    being a product of them.

    The element table is built only on demand because it can dwarf the
    chain."""

    def __init__(
        self,
        n: int,
        transversals: tuple[tuple[Permutation, ...], ...],
        generators: tuple[Permutation, ...],
    ):
        self.n = n
        self.transversals = transversals
        self.order = math.prod(len(t) for t in transversals)
        self.generators = generators

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
    the closure engine. A graph denser than half gets the group of its
    complement, the graph classify works on: the two have the same
    automorphisms, so the group and its element table are built once.

    Builds the stabilizer chain bottom-up. Stage i holds generators of
    G_(i+1) from the later stages and tries the targets w > i in the
    cell of i in ascending order, skipping each w already in the orbit of
    i and each w in the orbit of a target that failed, both under the
    generators found so far (module docstring). A search that succeeds
    adds its automorphism to the generators and grows the orbit. Each
    transversal element is read off the orbit's Schreier tree as a
    product of generators. The searches share one relation matrix and
    the refined colorings of the chain's stages (graphs._isomorphism).
    """
    if denser_than_half(g):
        return automorphism_group(complement(g))
    n = g.n
    rel = _Relations(n, g.components)
    # cells[i] is the equitable coloring with 0, ..., i-1 individualized,
    # and traces[i] refines cells[i] with i individualized into
    # cells[i + 1]. They stop at the first discrete coloring: every later
    # stage has i alone in its cell and no target.
    colors, _ = _refine(rel, [0] * n)
    cells = [colors]
    traces = []
    while max(colors) < n - 1:
        start = colors[:]
        start[len(traces)] = n
        colors, trace = _refine(rel, start)
        cells.append(colors)
        traces.append(trace)
    generators: list[Permutation] = []
    transversals: list[tuple[Permutation, ...]] = []
    for i in reversed(range(n)):
        cell = cells[min(i, len(traces))]
        tree: dict = {i: None}
        failed: set[int] = set()
        for w in range(i + 1, n):
            if cell[w] != cell[i] or w in tree or w in failed:
                continue
            target = cell[:]
            target[w] = n
            hit = _isomorphism(rel, rel, cells[i + 1], traces[i], target)
            if hit is None:
                failed.update(_schreier_tree(w, generators))
            else:
                generators.append(hit)
                tree = _schreier_tree(i, generators)
        transversals.append(_transversal(n, tree))
    return PermutationGroup(n, tuple(reversed(transversals)), tuple(generators))


def _schreier_tree(root: int, generators: list[Permutation]) -> dict:
    """The orbit of root in breadth-first order, each point w mapped to
    (s, p) with s a generator and s[p] = w, and root mapped to None."""
    tree: dict[int, tuple[Permutation, int] | None] = {root: None}
    queue = [root]
    for p in queue:
        for s in generators:
            if s[p] not in tree:
                tree[s[p]] = (s, p)
                queue.append(s[p])
    return tree


def _transversal(n: int, tree: dict) -> tuple[Permutation, ...]:
    """One element u_w sending the root to each orbit point w, in order of
    w: the identity for the root, s ∘ u_p for each tree edge (s, p)."""
    reps: dict[int, Permutation] = {}
    for w, edge in tree.items():
        if edge is None:
            reps[w] = tuple(range(n))
        else:
            s, p = edge
            reps[w] = compose(s, reps[p])
    return tuple(reps[w] for w in sorted(reps))


def fixed_point_histogram(group: PermutationGroup) -> dict[int, int]:
    """How many elements fix exactly m vertices, for each occurring m.

    Fixed points are counted one vertex at a time into the narrowest
    integer type that holds n, so that no order x n temporary is built."""
    table = group.table
    fixed = np.zeros(len(table), dtype=np.min_scalar_type(group.n))
    for v in range(group.n):
        fixed += table[:, v] == v
    counts = (int(np.count_nonzero(fixed == m)) for m in range(group.n + 1))
    return {m: c for m, c in enumerate(counts) if c}


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
