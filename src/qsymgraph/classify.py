"""Recognition of graphs whose quantum symmetry has a known description.

The entry point is classify, which runs a fixed pipeline of recognizers
over a colored graph: complement normalization, oriented-cycle detection,
Fuss-Catalan shapes (product-of-simplices colorings and their disguises),
the circulant eigenvalue criterion for dihedral symmetry, tensor-product
splitting, and finally a raw dimension computation for everything else.
Each rule leaves a line in the provenance trail whether it fired or not.
The circulant criterion reads its full cycle off the element table of
the automorphism group: the lexicographically least orbit sequence of 0
over the elements whose cycle through 0 has length n, which is the cycle
an ascending depth-first search would find. Groups too large to tabulate
are rejected, as the criterion only accepts groups of order 2n.

The module also hosts the small-graph enumeration: all regular graphs up
to isomorphism on at most CENSUS_MAX_N vertices, the vertex-transitive
ones among them closed under complementation, each classified. Row v of
a generated graph takes the leftmost vertices of each cell of later
vertices alike on 0..v-1, as swapping two of them fixes every earlier
row and v. Duplicates go by the least adjacency bit string over all
vertex relabelings, found by a depth-first search that prunes by the
automorphisms it meets. The census labels only the completions whose
vertices all lie on the same number of triangles, as on every
vertex-transitive graph (22 of the 46 on 1..8 vertices), and classifies
each complement pair once, through the sparse graph it labelled. The
module holds a plain graph's adjacency as neighbour bitmasks, bit j of
nbr[v] set when v ~ j, and a key as the packed row-major adjacency bits,
first bit most significant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .closure import ClosureConfig, closure
from .graphs import (
    LOOP_SCREEN_LENGTH,
    ORIENTED,
    UNORIENTED,
    ColoredGraph,
    CyclicProfile,
    GraphError,
    complement,
    denser_than_half,
    disjoint_copies,
    incidence,
    is_isomorphic,
    loop_counts,
    loop_rule_check,
    multi_simplex,
    n_gon,
    tensor_product,
    validate,
    _single,
)
from .linalg import rational_eigenvalues
from .scalars import CyclotomicElement, cyclotomic_power
from .series import (
    CubeSeries,
    CyclicGroupSeries,
    DihedralSeries,
    FussCatalan,
    HadamardProduct,
    PoincareSeries,
    tl_series,
)
from .symmetry import PermutationGroup, automorphism_group

# The most vertices canonical_key, regular_graph_reps and the census take.
CENSUS_MAX_N = 9


@dataclass(frozen=True)
class Classification:
    """Tagged classification result with a provenance trail.

    kind is one of "fuss_catalan", "dihedral", "cyclic_group",
    "tensor_product", "unknown". Exactly the fields relevant to the tag
    are populated; every result carries a closed-form series or a
    computed coefficient prefix, empty when closures were skipped.
    """

    kind: str
    trail: tuple[str, ...]
    series: PoincareSeries | None = None
    prefix: tuple[int, ...] | None = None
    indices: tuple[int, ...] | None = None
    generic: bool | None = None
    n: int | None = None
    factors: tuple["Classification", ...] = ()

    def __post_init__(self) -> None:
        if self.series is None and self.prefix is None:
            raise ValueError("classification needs a series or a prefix")

    def describe(self) -> str:
        if self.kind == "fuss_catalan":
            inner = ",".join(str(m) for m in self.indices or ())
            return f"FussCatalan({inner})"
        if self.kind == "dihedral":
            return f"Dihedral({self.n})"
        if self.kind == "cyclic_group":
            return f"CyclicGroup({self.n})"
        if self.kind == "tensor_product":
            parts = ", ".join(f.describe() for f in self.factors)
            return f"TensorProduct({parts})"
        return "Unknown"

    def series_prefix(self, count: int) -> list[Fraction] | None:
        """First coefficients, from the closed form or the computed dims."""
        if self.series is not None:
            return self.series.prefix(count)
        assert self.prefix is not None
        if count > len(self.prefix):
            return None
        return [Fraction(c) for c in self.prefix[:count]]


# ---------------------------------------------------------------------------
# Structure helpers.


def _neighbours(g: ColoredGraph) -> list[int]:
    """Neighbour bitmasks over every color: bit j of nbr[v] is set when v ~ j."""
    nbr = [0] * g.n
    for c in g.components:
        for i, j in c.pairs:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    return nbr


def _is_connected(nbr: list[int]) -> bool:
    return len(_connected_pieces(nbr)) <= 1


def _is_regular(nbr: list[int]) -> bool:
    return len({mask.bit_count() for mask in nbr}) <= 1


def _connected_pieces(nbr: list[int]) -> list[int]:
    """The vertex sets of the connected pieces, as bitmasks, by least vertex."""
    pieces = []
    left = (1 << len(nbr)) - 1
    while left:
        piece, grown = 0, left & -left
        while grown != piece:
            piece = grown
            for v in range(len(nbr)):
                if piece >> v & 1:
                    grown |= nbr[v]
        pieces.append(piece)
        left &= ~piece
    return pieces


# ---------------------------------------------------------------------------
# Canonical forms: the least adjacency bit string over all relabelings.


def _spelled(nbr: list[int], order: list[int] | None = None) -> bytes:
    """The key of neighbour bitmasks with vertex order[i] at position i, by
    default in their own labeling, without a search: the packed row-major
    adjacency bits, first bit most significant."""
    n = len(nbr)
    order = list(range(n)) if order is None else order
    bits = 0
    for u in order:
        for w in order:
            bits = bits << 1 | nbr[u] >> w & 1
    return (bits << (-n * n) % 8).to_bytes((n * n + 7) // 8, "big")


def _graph_of_key(key: bytes, n: int) -> ColoredGraph:
    """The graph on n vertices whose adjacency bits the key spells."""
    bits = int.from_bytes(key, "big") >> (-n * n) % 8
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if bits >> n * (n - i) - 1 - j & 1]
    return _single(n, edges)


def _least_key(nbr: list[int]) -> bytes:
    """The least key of neighbour bitmasks over all relabelings.

    A depth-first search places one vertex per position. A node's cells
    order the unplaced vertices; a child places a vertex v of the first
    cell and splits each cell into non-neighbours, then neighbours of v.
    Before column t, row t repeats column t; after it, each cell gives its
    zeros, then its ones. The cell order keeps rows 0..t-1 least, so
    minimising row by row is lexicographic order on the whole string.

    Bound: a node keeps only its children with the least row t, and while
    rows 0..t-1 tie the best leaf so far, a larger row t drops the node.
    Equal leaves: a leaf spelling the best string again gives the
    automorphism g mapping the best leaf's vertex at each position to
    this leaf's. At the node where their paths part, g fixes every placed
    vertex, hence each cell, and maps the best leaf's child, searched
    already, onto this leaf's, subtree onto subtree, string for string;
    the search returns to that node. Orbits: for the same reason a child
    is skipped when automorphisms found so far that fix every placed
    vertex map an explored sibling onto it, or when it is a twin of one,
    u and v with N(u) - {v} = N(v) - {u}: their transposition is such.
    """
    n = len(nbr)
    twins: dict[int, int] = {}
    for v, nv in enumerate(nbr):
        # Twins share N(v) when not adjacent and N(v) + {v} when adjacent;
        # no N(u) is an N(w) + {w}, as u ~ w would put u in N(u).
        for mask in (nv, nv | 1 << v):
            twins[mask] = twins.get(mask, 0) | 1 << v
    gens = []  # automorphisms found, with the masks of the points they move
    order: list[int] = []
    best, best_order = [], []  # the best leaf's rows and vertex order

    # Returns the position of the node to resume at; tied: order's rows tie best's.
    def search(cells: list[int], placed: int, tied: bool) -> int:
        t = len(order)
        if len(cells) == n - t:  # every cell holds one vertex: the leaf is forced
            leaf = order + [cell.bit_length() - 1 for cell in cells]
            rows = []
            for u in leaf:
                row = 0
                for w in leaf:
                    row = row << 1 | nbr[u] >> w & 1
                rows.append(row)
            if tied and rows > best:
                return n
            if not tied or rows < best:
                best[:], best_order[:] = rows, leaf
                return n
            g = [v for _, v in sorted(zip(best_order, leaf))]
            gens.append((g, sum(1 << u for u in range(n) if g[u] != u)))
            return next(i for i in range(n) if best_order[i] != leaf[i])
        least, children = _branches(nbr, cells)
        if tied:
            bound = best[t] & (1 << n - 1 - t) - 1  # best's row t from column t + 1 on
            if least > bound:
                return n
            tied = least == bound
        seen = 0
        for v in children:
            if seen >> v & 1:
                continue
            nv = nbr[v]
            split = []
            for cell in (cells[0] & ~(1 << v), *cells[1:]):
                if cell & ~nv:
                    split.append(cell & ~nv)
                if cell & nv:
                    split.append(cell & nv)
            order.append(v)
            resume = search(split, placed | 1 << v, tied)
            order.pop()
            if resume < t:
                return resume
            # The best leaf now passes through this node, if it did not yet.
            tied = True
            active = [g for g, moved in gens if not moved & placed]
            grown = seen | twins[nv] | twins[nv | 1 << v]
            while grown != seen:
                seen = grown
                grown |= sum({1 << g[u] for g in active for u in range(n) if seen >> u & 1})
        return n

    search([(1 << n) - 1] if n else [], 0, False)
    return _spelled(nbr, best_order)


def _branches(nbr: list[int], cells: list[int]) -> tuple[int, list[int]]:
    """The least row t from column t + 1 on, over the first cell's v, and the v spelling it."""
    first, rest = cells[0], [(cell, cell.bit_count()) for cell in cells[1:]]
    least, children = -1, []
    for v in range(first.bit_length()):
        if first >> v & 1:
            # v is no neighbour of itself, so first & nbr[v] lies in first - v.
            row = (1 << (first & nbr[v]).bit_count()) - 1
            for cell, size in rest:
                row = row << size | (1 << (cell & nbr[v]).bit_count()) - 1
            if row == least:
                children.append(v)
            elif least < 0 or row < least:
                least, children = row, [v]
    return least, children


def canonical_key(g: ColoredGraph) -> bytes:
    """Isomorphism-invariant key for plain graphs on at most CENSUS_MAX_N
    vertices.

    The vertex count leads the key: the packed adjacency bits alone can
    coincide across sizes (any two edgeless graphs whose bit counts round
    up to the same byte length, for one).
    """
    if g.n > CENSUS_MAX_N:
        raise GraphError(f"canonical keys are limited to {CENSUS_MAX_N} vertices")
    if any(c.kind == ORIENTED for c in g.components):
        raise GraphError("needs an unoriented graph")
    if len(g.components) > 1:
        raise GraphError("needs at most one color")
    return bytes([g.n]) + _least_key(_neighbours(g))


# ---------------------------------------------------------------------------
# Regular-graph enumeration, leftmost within cells.


def _regular_completions(n: int, k: int):
    """Labeled k-regular graphs on n vertices as neighbour bitmasks, at
    least one per isomorphism class, with rows filled in order 0..n-1.

    Row v joins v to later vertices w > v with deg(w) < k. These fall
    into cells by their adjacency to 0..v-1, and row v takes the first t
    vertices of each cell for some count t per cell, never any other
    subset. A transposition of two vertices in one cell fixes rows
    0..v-1 and vertex v, so it maps completions of those rows to
    completions of them; by induction on v, every class keeps a
    completion whose every row is leftmost in its cells. At v = 0 there
    is one cell, so N(0) = {1..k}. Isomorphic completions can remain;
    callers keep one per canonical key. Nothing exists when n·k is odd.
    """
    if k >= n or n * k % 2:
        return
    # Bit u of nbr[w] is set when u ~ w; rows 0..v-1 have set all of them.
    nbr = [0] * n

    def rows(v: int):
        if v == n:
            yield list(nbr)
            return
        cells: dict[int, list[int]] = {}
        for w in range(v + 1, n):
            if nbr[w].bit_count() < k:
                cells.setdefault(nbr[w], []).append(w)
        yield from take(v, list(cells.values()), 0, k - nbr[v].bit_count())

    def take(v: int, cells: list[list[int]], i: int, need: int):
        if need == 0:
            yield from rows(v + 1)
            return
        if i == len(cells) or need > sum(map(len, cells[i:])):
            return
        cell = cells[i]
        for t in range(min(need, len(cell)), -1, -1):
            for w in cell[:t]:
                nbr[v] |= 1 << w
                nbr[w] |= 1 << v
            yield from take(v, cells, i + 1, need - t)
            for w in cell[:t]:
                nbr[v] &= ~(1 << w)
                nbr[w] &= ~(1 << v)

    yield from rows(0)


def _even_triangles(nbr: list[int]) -> bool:
    """Whether every vertex of neighbour bitmasks lies on as many triangles
    as vertex 0, as on every vertex-transitive graph. Twice a vertex's
    count is the sum of its neighbours' common neighbours with it."""

    def twice(nv: int) -> int:
        return sum((nbr[u] & nv).bit_count() for u in range(len(nbr)) if nv >> u & 1)

    first = twice(nbr[0])
    return all(twice(nv) == first for nv in nbr[1:])


def regular_graph_reps(n: int, *, triangle_screen: bool = False) -> list[ColoredGraph]:
    """All k-regular graphs on n vertices up to isomorphism, k ≤ (n−1)/2,
    sorted, each in the canonical labeling that spells its key.

    The denser half of the regular world is reachable from these by
    complementation, which is how the callers use it. With
    triangle_screen, only the completions whose vertices all lie on the
    same number of triangles are labelled: every vertex-transitive class
    is among them, so the census keeps its graphs and labels far fewer
    (22 of 46 completions on 1..8 vertices, 34 of 20,061 on 11).
    product_factor_candidates needs every regular graph and labels all.
    """
    if not 1 <= n <= CENSUS_MAX_N:
        raise GraphError(f"regular enumeration is limited to {CENSUS_MAX_N} vertices")
    degrees = range((n - 1) // 2 + 1)
    found = {
        _least_key(nbr)
        for k in degrees
        for nbr in _regular_completions(n, k)
        if not triangle_screen or _even_triangles(nbr)
    }
    return [_graph_of_key(key, n) for key in sorted(found)]


@lru_cache(maxsize=None)
def product_factor_candidates(m: int) -> tuple[ColoredGraph, ...]:
    """Connected regular graphs on m vertices up to isomorphism."""
    out: dict[bytes, ColoredGraph] = {}
    for rep in regular_graph_reps(m):
        nbr, comp = _neighbours(rep), _neighbours(complement(rep))
        for key, masks in ((_spelled(nbr), nbr), (_least_key(comp), comp)):
            if key not in out and _is_connected(masks):
                out[key] = _graph_of_key(key, m)
    return tuple(out[key] for key in sorted(out))


# ---------------------------------------------------------------------------
# The circulant eigenvalue criterion.


@dataclass(frozen=True)
class CyclicVerdict:
    accepted: bool
    n: int
    reason: str
    profile: CyclicProfile | None = None
    values: tuple[CyclotomicElement, ...] = ()


def _cycle_order(group: PermutationGroup) -> list[int]:
    """The lexicographically least sequence 0, p(0), p²(0), ... over the
    elements p of a transitive group whose cycle through 0 has length n,
    or [] if there is none. One column per step, for all elements at once.
    """
    if not group.is_transitive():
        return []
    table = group.table
    seq = np.zeros((len(table), group.n), dtype=table.dtype)
    for k in range(1, group.n):
        seq[:, k] = np.take_along_axis(table, seq[:, k - 1 : k], axis=1)[:, 0]
    full = seq[(seq[:, 1:] != 0).all(axis=1)]
    if not len(full):
        return []
    return full[np.lexsort(full.T[::-1])[0]].tolist()


def cyclic_criterion(g: ColoredGraph) -> CyclicVerdict:
    """Decide dihedral quantum symmetry through circulant eigenvalues.

    Finds a full cycle in the symmetry group, reads off the edge profile
    of vertex 0 along it, and evaluates the profile polynomial at the
    n-th roots of unity w^0..w^(n//2) in exact cyclotomic arithmetic.
    Accepts exactly when the values are pairwise distinct and n is not 4:
    then the quantum symmetry is the dihedral D_n (the paper's circulant
    theorem), and so is Aut(X), its classical quotient.

    The cycle is the lexicographically least sequence 0, p(0), p²(0), ...
    over the n-cycles p in the element table of Aut(X). It is the cycle
    a depth-first search would find trying images in ascending order, as
    that search only prunes partial shifts no automorphism extends, and
    an n-cycle is fixed by its sequence from 0. A transitive group above
    the element cap has no table and is rejected for its size. No
    acceptance is lost: by the theorem an accepted graph has a group of
    order 2n, within the cap for every n up to 500,000.
    """
    n = g.n
    if len(g.components) != 1 or g.components[0].kind != UNORIENTED:
        return CyclicVerdict(False, n, "needs exactly one unoriented color")
    group = automorphism_group(g)
    try:
        order = _cycle_order(group)
    except ValueError:
        return CyclicVerdict(
            False,
            n,
            f"symmetry group of order {group.order} is too large to search "
            "for a full cycle",
        )
    if not order:
        return CyclicVerdict(False, n, "symmetry group has no full cycle")
    nbr = _neighbours(g)
    profile = CyclicProfile(n, tuple(nbr[order[0]] >> v & 1 for v in order))
    values = []
    for j in range(n // 2 + 1):
        acc = CyclotomicElement.zero(n)
        for k in profile.exponents():
            acc = acc + cyclotomic_power(n, j * k)
        values.append(acc)
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            if (values[a] - values[b]).is_zero():
                return CyclicVerdict(
                    False,
                    n,
                    f"eigenvalue collision Q(w^{a}) = Q(w^{b}) = {values[a]}",
                    profile,
                    tuple(values),
                )
    if n == 4:
        return CyclicVerdict(
            False, n, "4 vertices are excluded", profile, tuple(values)
        )
    return CyclicVerdict(True, n, "", profile, tuple(values))


# ---------------------------------------------------------------------------
# Tensor-product splitting.


@dataclass(frozen=True)
class ProductVerdict:
    accepted: bool
    reason: str
    left_spectrum: tuple[Fraction, ...] = ()
    right_spectrum: tuple[Fraction, ...] = ()
    classification: Classification | None = None


def product_test(
    x: ColoredGraph,
    y: ColoredGraph,
    z: ColoredGraph,
    cfg: ClosureConfig | None = None,
    *,
    no_closure: bool = False,
) -> ProductVerdict:
    """Check that x is the tensor product of y and z in the strong sense
    that lets the symmetry split: the factors must be connected, regular,
    with rational spectra avoiding 0 whose eigenvalue ratio sets meet
    only at 1. On success the result carries the coefficientwise product
    of the factor classifications' series.
    """
    for name, f in (("base graph", x), ("first factor", y), ("second factor", z)):
        if len(f.components) != 1 or f.components[0].kind != UNORIENTED:
            return ProductVerdict(False, f"{name} needs exactly one unoriented color")
    if x.n != y.n * z.n:
        return ProductVerdict(False, "vertex counts do not multiply up")
    # (A ⊗ B)^k = A^k ⊗ B^k, so the tensor product has tr(A^k) tr(B^k)
    # closed walks of length k: most candidates that are not factors fail
    # this before the isomorphism search.
    walks = [[sum(loop_counts(f, k)) for f in (x, y, z)] for k in range(1, 7)]
    if any(wx != wy * wz for wx, wy, wz in walks) or not is_isomorphic(
        x, tensor_product(y, z)
    ):
        return ProductVerdict(False, "not isomorphic to the tensor product")
    for name, f in (("first factor", y), ("second factor", z)):
        nbr = _neighbours(f)
        if not _is_regular(nbr):
            return ProductVerdict(False, f"{name} is not regular")
        if not _is_connected(nbr):
            return ProductVerdict(False, f"{name} is not connected")
    spectra: list[tuple[Fraction, ...]] = []
    for name, f in (("first factor", y), ("second factor", z)):
        eigs, split = rational_eigenvalues(incidence(f, f.components[0].label))
        if not split:
            return ProductVerdict(
                False, f"{name} spectrum does not split over the rationals"
            )
        spectra.append(tuple(sorted(eigs)))
    sy, sz = spectra
    if Fraction(0) in sy or Fraction(0) in sz:
        return ProductVerdict(False, "zero eigenvalue in a factor spectrum", sy, sz)
    ratios_y = {a / b for a in sy for b in sy}
    ratios_z = {a / b for a in sz for b in sz}
    shared = ratios_y & ratios_z
    if shared != {Fraction(1)}:
        extra = ", ".join(str(r) for r in sorted(shared - {Fraction(1)}))
        return ProductVerdict(
            False, f"eigenvalue ratio sets share {extra} besides 1", sy, sz
        )
    left = classify(y, cfg, no_closure=no_closure)
    right = classify(z, cfg, no_closure=no_closure)
    series: PoincareSeries | None = None
    prefix: tuple[int, ...] | None = None
    if left.series is not None and right.series is not None:
        series = HadamardProduct(left.series, right.series)
    else:
        count = min(len(f.prefix) for f in (left, right) if f.prefix is not None)
        lp = left.series_prefix(count)
        rp = right.series_prefix(count)
        assert lp is not None and rp is not None
        prefix = tuple(int(a * b) for a, b in zip(lp, rp))
    trail = (
        f"product: split into factors on {y.n} and {z.n} vertices, "
        f"spectra {{{', '.join(map(str, sy))}}} and {{{', '.join(map(str, sz))}}}",
    )
    cls = Classification(
        kind="tensor_product",
        trail=trail,
        series=series,
        prefix=prefix,
        factors=(left, right),
    )
    return ProductVerdict(True, "", sy, sz, cls)


# ---------------------------------------------------------------------------
# Fuss-Catalan recognition.


@dataclass(frozen=True)
class FussCatalanMatch:
    indices: tuple[int, ...]
    generic: bool
    rule: str


def _simplex_shape(g: ColoredGraph) -> tuple[int, ...] | None:
    """The only indices (n_1, ..., n_s) whose multi_simplex can be g.

    Color i of multi_simplex(n_1, ..., n_s) has n(n_i - 1)·n_(i+1)⋯n_s / 2
    edges, which falls strictly with i, so the color sizes, read from the
    smallest, give n_s, n_(s-1), ..., n_1 in turn. None when they fit no
    indices of at least 2 or a color is oriented.
    """
    if not g.n or not g.components or any(c.kind != UNORIENTED for c in g.components):
        return None
    ns: list[int] = []
    tail = 1
    for edges in sorted(len(c.pairs) for c in g.components):
        step, rest = divmod(2 * edges, g.n * tail)
        if rest or step < 1:
            return None
        ns.insert(0, step + 1)
        tail *= step + 1
    return tuple(ns) if tail == g.n else None


def recognize_fuss_catalan(g: ColoredGraph) -> FussCatalanMatch | None:
    """Match the graph against the shapes with product-of-simplices
    symmetry: explicit first-difference colorings, bare point sets and
    their complete complements, disjoint equal complete graphs, and the
    pair of squares. The generic flag says whether every index reaches 4,
    which is when the closed-form series applies for two or more colors.
    """
    n = g.n
    if not g.components:
        return FussCatalanMatch((n,), n >= 4, "point set")
    if len(g.components) == 1 and g.components[0].kind == UNORIENTED:
        c = g.components[0]
        if len(c.pairs) == n * (n - 1) // 2:
            return FussCatalanMatch((n,), n >= 4, "complete graph")
        nbr = _neighbours(g)
        pieces = _connected_pieces(nbr)
        sizes = {p.bit_count() for p in pieces}
        if len(pieces) >= 2 and len(sizes) == 1:
            m = sizes.pop()
            # Connected pieces of m vertices are complete exactly when
            # every vertex has degree m - 1.
            if m >= 2 and all(mask.bit_count() == m - 1 for mask in nbr):
                k = len(pieces)
                return FussCatalanMatch((k, m), k >= 4 and m >= 4, "disjoint complete copies")
        if n == 8 and is_isomorphic(g, disjoint_copies(2, n_gon(4))):
            return FussCatalanMatch((2, 2, 2), False, "two squares")
        return None
    t = _simplex_shape(g)
    if t is not None and is_isomorphic(g, multi_simplex(*t)):
        return FussCatalanMatch(t, all(m >= 4 for m in t), "multi-simplex")
    return None


# ---------------------------------------------------------------------------
# Landau relations for multi-simplex colorings.


@dataclass(frozen=True)
class LandauReport:
    indices: tuple[int, ...]
    symmetric: bool
    row_sums: bool
    diagonal_sums: bool
    exchange: bool
    differences: bool | None
    failures: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.symmetric
            and self.row_sums
            and self.diagonal_sums
            and self.exchange
            and self.differences is not False
        )


Matrix = list[list[Fraction]]


def check_landau_relations(
    ps: list[Matrix], ns: tuple[int, ...], incidences: list[Matrix] | None = None
) -> LandauReport:
    """Exact checks on a tower of averaging matrices p_1..p_(s+1).

    p_i is expected to be the agreement matrix on the first i-1
    coordinates divided by n_i···n_s. The four relation families are
    symmetry, unit row sums, diagonal sums n_1···n_(i-1), and the
    exchange identity p^i_ab p^j_bc = p^i_ab p^j_ac for i ≥ j. When the
    color incidence matrices are supplied, the differences
    e_i − e_(i+1) are checked against them as well.
    """
    s = len(ns)
    if len(ps) != s + 1:
        raise ValueError(f"expected {s + 1} matrices, got {len(ps)}")
    n = math.prod(ns)
    failures: list[str] = []

    symmetric = True
    for i, p in enumerate(ps, start=1):
        bad = next(
            (
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if p[a][b] != p[b][a]
            ),
            None,
        )
        if bad is not None:
            symmetric = False
            failures.append(f"p{i} is not symmetric at {bad}")

    row_sums = True
    for i, p in enumerate(ps, start=1):
        for a in range(n):
            total = sum(p[a], Fraction(0))
            if total != 1:
                row_sums = False
                failures.append(f"row {a} of p{i} sums to {total}")
                break

    diagonal_sums = True
    for i, p in enumerate(ps, start=1):
        want = Fraction(math.prod(ns[: i - 1]))
        got = sum((p[a][a] for a in range(n)), Fraction(0))
        if got != want:
            diagonal_sums = False
            failures.append(f"diagonal of p{i} sums to {got}, expected {want}")

    exchange = True
    for i in range(s + 1, 0, -1):
        for j in range(1, i + 1):
            pi, pj = ps[i - 1], ps[j - 1]
            witness = None
            for a in range(n):
                for b in range(n):
                    if pi[a][b] == 0:
                        continue
                    for c in range(n):
                        if pi[a][b] * pj[b][c] != pi[a][b] * pj[a][c]:
                            witness = (a, b, c)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                exchange = False
                failures.append(
                    f"exchange fails for p{i}, p{j} at (a, b, beta) = {witness}"
                )

    differences: bool | None = None
    if incidences is not None:
        differences = True
        for i in range(1, s + 1):
            scale_i = math.prod(ns[i - 1 :])
            scale_next = math.prod(ns[i:])
            d = incidences[i - 1]
            for a in range(n):
                for b in range(n):
                    lhs = ps[i - 1][a][b] * scale_i - ps[i][a][b] * scale_next
                    if lhs != d[a][b]:
                        differences = False
                        failures.append(
                            f"difference of e{i} and e{i + 1} differs from "
                            f"color {i} at ({a}, {b})"
                        )
                        break
                if differences is False:
                    break
            if differences is False:
                break

    return LandauReport(
        indices=tuple(ns),
        symmetric=symmetric,
        row_sums=row_sums,
        diagonal_sums=diagonal_sums,
        exchange=exchange,
        differences=differences,
        failures=tuple(failures),
    )


def landau_verify(g: ColoredGraph) -> LandauReport:
    """Build the averaging tower of a multi-simplex and check it.

    The input must carry the exact coloring produced by multi_simplex
    (vertices in product order, colors by first differing coordinate);
    anything else raises GraphError.
    """
    ns = _simplex_shape(g)
    if ns is None:
        raise GraphError("not a multi-simplex: color sizes fit no indices")
    for got, want in zip(g.components, multi_simplex(*ns).components):
        if got.pairs != want.pairs:
            raise GraphError("not a multi-simplex: edges do not match")
    s = len(ns)
    n = g.n
    radix = [math.prod(ns[i + 1 :]) for i in range(s)]

    def digits(v: int) -> list[int]:
        return [(v // radix[i]) % ns[i] for i in range(s)]

    digs = [digits(v) for v in range(n)]
    ps: list[Matrix] = []
    for i in range(1, s + 2):
        scale = Fraction(1, math.prod(ns[i - 1 :]))
        ps.append(
            [
                [
                    scale if digs[a][: i - 1] == digs[b][: i - 1] else Fraction(0)
                    for b in range(n)
                ]
                for a in range(n)
            ]
        )
    incidences: list[Matrix] = []
    for c in g.components:
        mat = [[Fraction(0)] * n for _ in range(n)]
        for a, b in c.pairs:
            mat[a][b] = mat[b][a] = Fraction(1)
        incidences.append(mat)
    return check_landau_relations(ps, ns, incidences)


# ---------------------------------------------------------------------------
# The pipeline.


def _oriented_cycle_length(g: ColoredGraph) -> int | None:
    if len(g.components) != 1 or g.components[0].kind != ORIENTED:
        return None
    succ: dict[int, int] = {}
    for i, j in g.components[0].pairs:
        if i in succ:
            return None
        succ[i] = j
    if len(succ) != g.n or len(set(succ.values())) != g.n:
        return None
    v, steps = 0, 0
    while True:
        v = succ[v]
        steps += 1
        if v == 0:
            break
        if steps > g.n:
            return None
    return g.n if steps == g.n else None


def _closed_form_candidates(n: int) -> list[tuple[str, PoincareSeries]]:
    out: list[tuple[str, PoincareSeries]] = []
    for s in range(1, 5):
        out.append((f"fuss-catalan({s})", FussCatalan(s)))
    for m in range(1, max(n, 4) + 1):
        out.append((f"dihedral({m})", DihedralSeries(m)))
        out.append((f"cyclic-group({m})", CyclicGroupSeries(m)))
    out.append(("cube product", CubeSeries()))
    return out


def classify(
    g: ColoredGraph, cfg: ClosureConfig | None = None, *, no_closure: bool = False
) -> Classification:
    """Run the recognition pipeline and return a tagged classification.

    The order matters: complement normalization first so every later rule
    sees the sparser representative, then oriented cycles, Fuss-Catalan
    shapes, the circulant criterion, tensor splitting, and the raw
    dimension fallback. The trail records one line per rule. With
    no_closure, a closure's dims are skipped: the prefix stays empty.
    """
    if cfg is None:
        cfg = ClosureConfig(max_level=4)
    validate(g)
    trail: list[str] = []

    aut = automorphism_group(g)
    transitive = aut.is_transitive()
    loops_ok, bad_len, bad_label = loop_rule_check(g)
    screen = "transitive" if transitive else "not transitive"
    if loops_ok:
        screen += f", loop counts constant through length {LOOP_SCREEN_LENGTH}"
    else:
        screen += f", loop counts uneven at length {bad_len} in color {bad_label}"
    trail.append(f"screen: {screen}")

    def dims() -> tuple[tuple[int, ...], str]:
        if no_closure:
            return (), "dims not computed, closures skipped"
        res = closure(work, cfg)
        return tuple(res.dims), "computed dims " + ",".join(map(str, res.dims))

    work = g
    if denser_than_half(g):
        work = complement(g)
        trail.append(
            f"complement: denser than half, continuing on the complement "
            f"({work.edge_count()} edges)"
        )
    else:
        trail.append("complement: kept as given")

    cyc = _oriented_cycle_length(work)
    if cyc is not None:
        trail.append(f"oriented cycle: full directed {cyc}-cycle")
        return Classification(
            kind="cyclic_group",
            trail=tuple(trail),
            series=CyclicGroupSeries(cyc),
            n=cyc,
        )
    trail.append("oriented cycle: not one")

    match = recognize_fuss_catalan(work)
    if match is not None:
        inner = ",".join(str(m) for m in match.indices)
        trail.append(f"fuss-catalan: {match.rule}, indices ({inner})")
        series: PoincareSeries | None
        prefix: tuple[int, ...] | None = None
        if len(match.indices) == 1:
            series = tl_series(match.indices[0])
        elif match.generic:
            series = FussCatalan(len(match.indices))
        else:
            series = None
            prefix, shown = dims()
            trail.append("series: no closed form for small indices, " + shown)
        return Classification(
            kind="fuss_catalan",
            trail=tuple(trail),
            series=series,
            prefix=prefix,
            indices=match.indices,
            generic=match.generic,
        )
    trail.append("fuss-catalan: no match")

    if len(work.components) == 1 and work.components[0].kind == UNORIENTED:
        verdict = cyclic_criterion(work)
        if verdict.accepted:
            shown = ", ".join(str(v) for v in verdict.values)
            trail.append(f"cyclic: accepted, circulant values {shown}")
            return Classification(
                kind="dihedral",
                trail=tuple(trail),
                series=DihedralSeries(verdict.n),
                n=verdict.n,
            )
        trail.append(f"cyclic: {verdict.reason}")
    else:
        trail.append("cyclic: needs exactly one unoriented color")

    if (
        len(work.components) == 1
        and work.components[0].kind == UNORIENTED
        and work.n >= 4
    ):
        hit: ProductVerdict | None = None
        skipped: list[str] = []
        for n1 in range(2, int(math.isqrt(work.n)) + 1):
            if work.n % n1 != 0:
                continue
            n2 = work.n // n1
            # n1 <= n2, and factor candidates come from regular_graph_reps,
            # which stops at CENSUS_MAX_N vertices.
            if n2 > CENSUS_MAX_N:
                skipped.append(f"{n1} x {n2}")
                continue
            for y in product_factor_candidates(n1):
                for z in product_factor_candidates(n2):
                    verdict = product_test(work, y, z, cfg, no_closure=no_closure)
                    if verdict.accepted:
                        hit = verdict
                        break
                if hit:
                    break
            if hit:
                break
        if hit is not None:
            assert hit.classification is not None
            return replace(
                hit.classification,
                trail=tuple(trail) + hit.classification.trail,
            )
        if skipped:
            trail.append(
                "product: no admissible splitting into factors on at most "
                f"{CENSUS_MAX_N} vertices; not tried: {', '.join(skipped)}"
            )
        else:
            trail.append("product: no admissible splitting")
    else:
        trail.append("product: not attempted")

    prefix, shown = dims()
    trail.append("series: " + shown)
    if len(prefix) >= 4:
        hits = [
            name
            for name, series in _closed_form_candidates(work.n)
            if all(series.coefficient(k) == prefix[k] for k in range(len(prefix)))
        ]
        if hits:
            trail.append(
                "series: consistent with " + ", ".join(hits) + " on this prefix"
            )
    return Classification(
        kind="unknown",
        trail=tuple(trail),
        prefix=prefix,
    )


# ---------------------------------------------------------------------------
# Enumeration of homogeneous graphs.


@dataclass(frozen=True)
class EnumeratedGraph:
    n: int
    graph: ColoredGraph
    classification: Classification


@dataclass(frozen=True)
class EnumerationReport:
    max_n: int
    entries: tuple[EnumeratedGraph, ...]

    @property
    def total(self) -> int:
        return len(self.entries)

    def per_n(self) -> dict[int, list[EnumeratedGraph]]:
        out: dict[int, list[EnumeratedGraph]] = {}
        for e in self.entries:
            out.setdefault(e.n, []).append(e)
        return out

    def class_tally(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for e in self.entries:
            kind = e.classification.kind
            tally[kind] = tally.get(kind, 0) + 1
        return tally


def enumerate_homogeneous(
    max_n: int = 8, cfg: ClosureConfig | None = None
) -> EnumerationReport:
    """All vertex-transitive graphs on up to max_n vertices, classified.

    Regular graphs are enumerated up to isomorphism for degrees up to
    (n−1)/2, only the completions with the same triangle count at every
    vertex labelled (regular_graph_reps), the vertex-transitive ones kept,
    the set closed under complementation, and every member classified.
    Complement partners share one classification run since their
    symmetries agree, and it runs on the sparse partner the enumeration
    returned: its automorphism group and loop screen are memoised already.
    """
    if not 1 <= max_n <= CENSUS_MAX_N:
        raise ValueError(f"enumeration is limited to {CENSUS_MAX_N} vertices")
    if cfg is None:
        cfg = ClosureConfig(max_level=4)
    entries: list[EnumeratedGraph] = []
    cache: dict[bytes, Classification] = {}
    for n in range(1, max_n + 1):
        # Key -> (graph, key of its complement). The reps come in canonical
        # labeling, so only their complements need the search.
        pool: dict[bytes, tuple[ColoredGraph, bytes]] = {}
        for g in regular_graph_reps(n, triangle_screen=True):
            if not automorphism_group(g).is_transitive():
                continue
            key, comp_key = bytes([n]) + _spelled(_neighbours(g)), canonical_key(complement(g))
            pool[key] = (g, comp_key)
            pool.setdefault(comp_key, (_graph_of_key(comp_key[1:], n), key))
        for key in sorted(pool):
            g, comp_key = pool[key]
            dense = denser_than_half(g)
            # A dense graph's partner is a sparse rep, held in the pool.
            norm_key = comp_key if dense else key
            if norm_key not in cache:
                cache[norm_key] = classify(pool[norm_key][0], cfg)
            cls = cache[norm_key]
            if dense:
                cls = replace(
                    cls,
                    trail=("complement: classified via the sparser complement",)
                    + cls.trail,
                )
            entries.append(EnumeratedGraph(n=n, graph=g, classification=cls))
    return EnumerationReport(max_n=max_n, entries=tuple(entries))
