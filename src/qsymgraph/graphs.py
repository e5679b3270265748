"""Finite colored, possibly oriented graphs and their exact adjacency data.

A graph here is a vertex count plus a list of color components. Each
component is either a set of undirected edges or a set of arcs (with no
opposite pairs), all components covering pairwise disjoint vertex pairs.
Numeric color values are carried as metadata: they take part in adjacency
matrices but not in isomorphism comparison, since the symmetry theory only
sees the color partition.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .linalg import ExactMatrix
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational

UNORIENTED = "unoriented"
ORIENTED = "oriented"
LOOP_SCREEN_LENGTH = 6  # longest closed walks the loop screen counts


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ColorComponent:
    label: str
    kind: str
    pairs: frozenset[tuple[int, int]]
    value: Fraction | None = None

    def unordered_pairs(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(p) for p in self.pairs)

    def degree(self, v: int) -> tuple[int, int]:
        """(out, in) for oriented, (deg, deg) for unoriented."""
        if self.kind == UNORIENTED:
            d = sum(1 for p in self.pairs if v in p)
            return (d, d)
        return (
            sum(1 for a, _ in self.pairs if a == v),
            sum(1 for _, b in self.pairs if b == v),
        )


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    components: tuple[ColorComponent, ...] = ()

    def component(self, label: str) -> ColorComponent:
        for c in self.components:
            if c.label == label:
                return c
        raise GraphError(f"no component labeled {label!r}")

    def labels(self) -> list[str]:
        return [c.label for c in self.components]

    def covered_pairs(self) -> set[frozenset[int]]:
        out: set[frozenset[int]] = set()
        for c in self.components:
            out |= c.unordered_pairs()
        return out

    def edge_count(self) -> int:
        return sum(len(c.unordered_pairs()) for c in self.components)


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def validate(g: ColoredGraph) -> None:
    """Raise GraphError unless g satisfies the colored-graph invariants."""
    if g.n < 1:
        raise GraphError("graph needs at least one vertex")
    labels = g.labels()
    if len(set(labels)) != len(labels):
        raise GraphError("component labels must be distinct")
    seen: set[frozenset[int]] = set()
    for c in g.components:
        if c.kind not in (UNORIENTED, ORIENTED):
            raise GraphError(f"component {c.label!r}: unknown kind {c.kind!r}")
        if c.value is not None and c.value == 0:
            raise GraphError(f"component {c.label!r}: value must be nonzero")
        if c.kind == ORIENTED and c.value is not None and c.value < 0:
            raise GraphError(f"component {c.label!r}: oriented value must be positive")
        for pair in c.pairs:
            i, j = pair
            if i == j:
                raise GraphError(f"component {c.label!r}: self-loop at {i}")
            if not (0 <= i < g.n and 0 <= j < g.n):
                raise GraphError(f"component {c.label!r}: vertex out of range in {pair}")
            if c.kind == UNORIENTED and i > j:
                raise GraphError(f"component {c.label!r}: edge {pair} not normalized")
            if c.kind == ORIENTED and (j, i) in c.pairs:
                raise GraphError(
                    f"component {c.label!r}: arcs {(i, j)} and {(j, i)} both present"
                )
            u = frozenset(pair)
            if u in seen:
                raise GraphError(f"pair {set(pair)} covered by more than one component")
            seen.add(u)


def incidence(g: ColoredGraph, label: str) -> ExactMatrix:
    """0/1 symmetric matrix for an unoriented component; for an oriented
    component the arc i->j contributes i at (i,j) and -i at (j,i)."""
    c = g.component(label)
    rows = [[GR_ZERO] * g.n for _ in range(g.n)]
    for i, j in c.pairs:
        if c.kind == UNORIENTED:
            rows[i][j] = GR_ONE
            rows[j][i] = GR_ONE
        else:
            rows[i][j] = GR_I
            rows[j][i] = -GR_I
    return ExactMatrix(rows)


def total_matrix(g: ColoredGraph) -> ExactMatrix:
    """Sum of value-weighted component incidences (value defaults to 1)."""
    rows = [[GR_ZERO] * g.n for _ in range(g.n)]
    for c in g.components:
        w = GaussianRational.of(c.value if c.value is not None else 1)
        for i, j in c.pairs:
            if c.kind == UNORIENTED:
                rows[i][j] = rows[i][j] + w
                rows[j][i] = rows[j][i] + w
            else:
                rows[i][j] = rows[i][j] + w * GR_I
                rows[j][i] = rows[j][i] - w * GR_I
    return ExactMatrix(rows)


def decompose(d: ExactMatrix) -> ColoredGraph:
    """Split a self-adjoint hollow matrix with real or purely imaginary
    entries into one color component per distinct entry value."""
    n = d.nrows
    if d.ncols != n:
        raise GraphError("decompose needs a square matrix")
    if d != d.adjoint():
        raise GraphError("decompose needs a self-adjoint matrix")
    for i in range(n):
        if not d[i, i].is_zero():
            raise GraphError("decompose needs zero diagonal")
    real_groups: dict[Fraction, set[tuple[int, int]]] = {}
    arc_groups: dict[Fraction, set[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            z = d[i, j]
            if z.is_zero():
                continue
            if z.im == 0:
                real_groups.setdefault(z.re, set()).add((i, j))
            elif z.re == 0:
                if z.im > 0:
                    arc_groups.setdefault(z.im, set()).add((i, j))
                else:
                    arc_groups.setdefault(-z.im, set()).add((j, i))
            else:
                raise GraphError(
                    f"entry ({i},{j}) is neither real nor purely imaginary"
                )
    comps = []
    for k, value in enumerate(sorted(real_groups), start=1):
        comps.append(
            ColorComponent(f"u{k}", UNORIENTED, frozenset(real_groups[value]), value)
        )
    for k, value in enumerate(sorted(arc_groups), start=1):
        comps.append(
            ColorComponent(f"o{k}", ORIENTED, frozenset(arc_groups[value]), value)
        )
    g = ColoredGraph(n, tuple(comps))
    validate(g)
    return g


@dataclass(frozen=True)
class MetricSpace:
    """Finite metric space with exact rational distances (often squared
    distances, which is what keeps geometric examples rational)."""

    n: int
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        d = self.dist
        if len(d) != self.n or any(len(r) != self.n for r in d):
            raise GraphError("distance matrix has wrong shape")
        for i in range(self.n):
            if d[i][i] != 0:
                raise GraphError("nonzero diagonal distance")
            for j in range(self.n):
                if d[i][j] != d[j][i]:
                    raise GraphError("distance matrix not symmetric")
                if i != j and d[i][j] <= 0:
                    raise GraphError("off-diagonal distances must be positive")
        for i, j, k in itertools.permutations(range(self.n), 3):
            if d[i][j] > d[i][k] + d[k][j]:
                raise GraphError("triangle inequality violated")


def metric_import(ms: MetricSpace) -> ColoredGraph:
    """One unoriented component per distinct distance value, carrying it."""
    groups: dict[Fraction, set[tuple[int, int]]] = {}
    for i in range(ms.n):
        for j in range(i + 1, ms.n):
            groups.setdefault(ms.dist[i][j], set()).add((i, j))
    comps = tuple(
        ColorComponent(f"d{k}", UNORIENTED, frozenset(groups[v]), v)
        for k, v in enumerate(sorted(groups), start=1)
    )
    g = ColoredGraph(ms.n, comps)
    validate(g)
    return g


# ---------------------------------------------------------------------------
# Moves that preserve the quantum symmetry object.

def _uncovered_pairs(g: ColoredGraph) -> frozenset[tuple[int, int]]:
    """The vertex pairs i < j that no component covers."""
    present = g.covered_pairs()
    return frozenset(
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if frozenset((i, j)) not in present
    )


def complement(g: ColoredGraph) -> ColoredGraph:
    """Complement of a plain graph (at most one unoriented component)."""
    if any(c.kind == ORIENTED for c in g.components):
        raise GraphError("complement is defined for unoriented graphs")
    if len(g.components) > 1:
        raise GraphError("complement needs at most one component")
    missing = _uncovered_pairs(g)
    label = g.components[0].label if g.components else "c"
    if not missing:
        return ColoredGraph(g.n, ())
    return ColoredGraph(g.n, (ColorComponent(label, UNORIENTED, missing),))


def denser_than_half(g: ColoredGraph) -> bool:
    """One unoriented color covering more than half of the vertex pairs:
    the graphs that classify replaces by their complements."""
    return (
        len(g.components) == 1
        and g.components[0].kind == UNORIENTED
        and 4 * g.edge_count() > g.n * (g.n - 1)
    )


def reverse(g: ColoredGraph, label: str) -> ColoredGraph:
    c = g.component(label)
    if c.kind != ORIENTED:
        raise GraphError("reverse applies to oriented components")
    flipped = ColorComponent(c.label, ORIENTED, frozenset((j, i) for i, j in c.pairs), c.value)
    return ColoredGraph(g.n, tuple(flipped if x.label == label else x for x in g.components))


def saturate(g: ColoredGraph) -> ColoredGraph:
    """Add one fresh unoriented component covering the uncovered pairs."""
    missing = _uncovered_pairs(g)
    if not missing:
        return g
    label = "sat"
    k = 0
    while label in g.labels():
        k += 1
        label = f"sat{k}"
    return ColoredGraph(g.n, g.components + (ColorComponent(label, UNORIENTED, missing),))


# ---------------------------------------------------------------------------
# Constructors.

def _single(n: int, edges: Iterable[tuple[int, int]]) -> ColoredGraph:
    pairs = frozenset(_norm_edge(i, j) for i, j in edges)
    g = ColoredGraph(n, (ColorComponent("c", UNORIENTED, pairs),) if pairs else ())
    validate(g)
    return g


def edgeless(n: int) -> ColoredGraph:
    g = ColoredGraph(n, ())
    validate(g)
    return g


def complete(n: int) -> ColoredGraph:
    return _single(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def n_gon(n: int) -> ColoredGraph:
    if n < 3:
        raise GraphError("an n-gon needs n >= 3")
    return _single(n, ((i, (i + 1) % n) for i in range(n)))


def oriented_n_gon(n: int) -> ColoredGraph:
    if n < 3:
        raise GraphError("an oriented n-gon needs n >= 3")
    arcs = frozenset((i, (i + 1) % n) for i in range(n))
    g = ColoredGraph(n, (ColorComponent("c", ORIENTED, arcs),))
    validate(g)
    return g


def disjoint_copies(k: int, g: ColoredGraph) -> ColoredGraph:
    """k disjoint copies sharing colors, so copies are interchangeable."""
    if k < 1:
        raise GraphError("need at least one copy")
    comps = []
    for c in g.components:
        pairs = set()
        for block in range(k):
            off = block * g.n
            pairs |= {(i + off, j + off) for i, j in c.pairs}
        comps.append(ColorComponent(c.label, c.kind, frozenset(pairs), c.value))
    out = ColoredGraph(k * g.n, tuple(comps))
    validate(out)
    return out


@dataclass(frozen=True)
class CyclicProfile:
    """Edge profile of a graph with cyclic symmetry: vertex j is joined to
    j+k exactly when e[k] = 1, with the symmetry e[k] = e[n-k]."""

    n: int
    e: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.e) != self.n:
            raise GraphError("profile length must equal n")
        if any(x not in (0, 1) for x in self.e):
            raise GraphError("profile entries must be 0 or 1")
        if self.e[0] != 0:
            raise GraphError("profile must vanish at 0")
        for k in range(1, self.n):
            if self.e[k] != self.e[self.n - k]:
                raise GraphError("profile must satisfy e(k) = e(n-k)")

    @staticmethod
    def from_exponents(n: int, exponents: Iterable[int]) -> "CyclicProfile":
        e = [0] * n
        for k in exponents:
            e[k % n] = 1
            e[(n - k) % n] = 1
        return CyclicProfile(n, tuple(e))

    def exponents(self) -> list[int]:
        return [k for k in range(1, self.n) if self.e[k] == 1]


def cyclic_from_profile(profile: CyclicProfile) -> ColoredGraph:
    n = profile.n
    edges = set()
    for k in profile.exponents():
        for j in range(n):
            edges.add(_norm_edge(j, (j + k) % n))
    return _single(n, edges)


def multi_simplex(*ns: int) -> ColoredGraph:
    """Product of simplices: vertices are tuples, the edge color is the
    index of the first coordinate where the endpoints differ."""
    if not ns or any(m < 2 for m in ns):
        raise GraphError("multi-simplex needs indices >= 2")
    s = len(ns)
    verts = list(itertools.product(*[range(m) for m in ns]))
    index = {v: i for i, v in enumerate(verts)}
    supports: list[set[tuple[int, int]]] = [set() for _ in range(s)]
    for a, b in itertools.combinations(verts, 2):
        lead = next(i for i in range(s) if a[i] != b[i])
        supports[lead].add(_norm_edge(index[a], index[b]))
    comps = tuple(
        ColorComponent(f"e{i + 1}", UNORIENTED, frozenset(supports[i]))
        for i in range(s)
    )
    g = ColoredGraph(len(verts), comps)
    validate(g)
    return g


def tensor_product(y: ColoredGraph, z: ColoredGraph) -> ColoredGraph:
    """Vertex pairs, joined exactly when both coordinates are joined."""
    ye = _plain_edges(y)
    ze = _plain_edges(z)
    edges = set()
    for a, b in ye:
        for c, d in ze:
            edges.add(_norm_edge(a * z.n + c, b * z.n + d))
            edges.add(_norm_edge(a * z.n + d, b * z.n + c))
    return _single(y.n * z.n, edges)


def _plain_edges(g: ColoredGraph) -> list[tuple[int, int]]:
    if len(g.components) != 1 or g.components[0].kind != UNORIENTED:
        raise GraphError("expected a plain graph with one unoriented component")
    return sorted(g.components[0].pairs)


def cube() -> ColoredGraph:
    """1-skeleton of the 3-cube: vertices are bit triples."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return _single(8, edges)


def cube_metric() -> MetricSpace:
    """Squared Euclidean distances between the unit cube's vertices."""
    rows = []
    for v in range(8):
        row = []
        for w in range(8):
            row.append(Fraction(bin(v ^ w).count("1")))
        rows.append(tuple(row))
    return MetricSpace(8, tuple(rows))


def eight_spoke_wheel() -> ColoredGraph:
    """Octagon plus its four diameters (the hub is not a vertex)."""
    return cyclic_from_profile(CyclicProfile.from_exponents(8, [1, 4]))


def nine_star(e: int) -> ColoredGraph:
    """The nine-vertex stars: cyclic profile z + z^(1+e) + z^(8-e) + z^8."""
    if e not in (1, 2):
        raise GraphError("nine-star parameter must be 1 or 2")
    return cyclic_from_profile(CyclicProfile.from_exponents(9, [1, 1 + e, 8 - e, 8]))


# ---------------------------------------------------------------------------
# Loop counts and the loop rule.

def _component_walk_matrix(g: ColoredGraph, label: str) -> np.ndarray:
    c = g.component(label)
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in c.pairs:
        a[i, j] = 1
        if c.kind == UNORIENTED:
            a[j, i] = 1
    return a


def loop_counts(g: ColoredGraph, length: int, label: str | None = None) -> list[int]:
    """Closed walks of the given length at each vertex, inside one color.

    Unoriented components count ordinary closed walks; oriented ones count
    directed closed walks along the arcs.
    """
    if length < 1:
        raise GraphError("walk length must be >= 1")
    if label is None:
        if len(g.components) != 1:
            raise GraphError("specify the component label for a multicolor graph")
        label = g.components[0].label
    a = _component_walk_matrix(g, label)
    power = np.linalg.matrix_power(a, length)
    return [int(x) for x in power.diagonal()]


@lru_cache(maxsize=32)
def loop_rule_check(g: ColoredGraph) -> tuple[bool, int | None, str | None]:
    """Check that every color has constant diagonal walk counts up to
    length LOOP_SCREEN_LENGTH. Returns (passed, first bad length,
    offending label).

    Memoized on the graph, which is frozen and hashable: one analysis
    screens the same graph from the command line and from classify."""
    for c in g.components:
        a = _component_walk_matrix(g, c.label)
        power = np.eye(g.n, dtype=np.int64)
        for length in range(1, LOOP_SCREEN_LENGTH + 1):
            power = power @ a
            diag = power.diagonal()
            if not np.all(diag == diag[0]):
                return False, length, c.label
    return True, None, None


# ---------------------------------------------------------------------------
# Text format.

def parse_graph(text: str) -> ColoredGraph:
    n: int | None = None
    kinds: dict[str, str] = {}
    pairs: dict[str, set[tuple[int, int]]] = {}
    values: dict[str, Fraction] = {}
    order: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        word = tokens[0]
        if word == "vertices":
            if n is not None:
                raise GraphParseError(lineno, "duplicate vertices directive")
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise GraphParseError(lineno, "expected: vertices N")
            n = int(tokens[1])
        elif word in ("edge", "arc"):
            if n is None:
                raise GraphParseError(lineno, "vertices directive must come first")
            if len(tokens) != 4:
                raise GraphParseError(lineno, f"expected: {word} LABEL I J")
            label = tokens[1]
            try:
                i, j = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise GraphParseError(lineno, "vertex indices must be integers") from None
            if not (0 <= i < n and 0 <= j < n):
                raise GraphParseError(lineno, f"vertex out of range in ({i}, {j})")
            if i == j:
                raise GraphParseError(lineno, f"self-loop at vertex {i}")
            kind = UNORIENTED if word == "edge" else ORIENTED
            if label in kinds and kinds[label] != kind:
                raise GraphParseError(lineno, f"component {label!r} mixes edge and arc")
            if label not in kinds:
                kinds[label] = kind
                pairs[label] = set()
                order.append(label)
            pairs[label].add(_norm_edge(i, j) if kind == UNORIENTED else (i, j))
        elif word == "value":
            if len(tokens) != 3:
                raise GraphParseError(lineno, "expected: value LABEL P/Q")
            label = tokens[1]
            if label in values:
                raise GraphParseError(lineno, f"duplicate value for {label!r}")
            try:
                values[label] = Fraction(tokens[2])
            except (ValueError, ZeroDivisionError):
                raise GraphParseError(lineno, f"bad rational {tokens[2]!r}") from None
        else:
            raise GraphParseError(lineno, f"unknown directive {word!r}")
    if n is None:
        raise GraphParseError(1, "missing vertices directive")
    for label in values:
        if label not in kinds:
            raise GraphParseError(1, f"value for unknown component {label!r}")
    comps = tuple(
        ColorComponent(label, kinds[label], frozenset(pairs[label]), values.get(label))
        for label in order
    )
    g = ColoredGraph(n, comps)
    try:
        validate(g)
    except GraphError as exc:
        raise GraphParseError(1, str(exc)) from None
    return g


def write_graph(g: ColoredGraph) -> str:
    lines = [f"vertices {g.n}"]
    for c in g.components:
        word = "edge" if c.kind == UNORIENTED else "arc"
        for i, j in sorted(c.pairs):
            lines.append(f"{word} {c.label} {i} {j}")
    for c in g.components:
        if c.value is not None:
            lines.append(f"value {c.label} {c.value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Isomorphism. Color values are metadata and do not take part; component
# labels are matched structurally, not by name.
#
# One search core serves both is_isomorphic and
# symmetry.automorphism_group. Each graph becomes a relation matrix, and
# each side starts from a vertex coloring in which a pinned vertex has a
# color of its own. The source coloring is refined once to its coarsest
# equitable partition, recording how each round renames colors; the
# target follows the same renamings and fails as soon as it cannot. A
# backtracking search then maps each source vertex into the target cell
# of its color.


def _component_signature(c: ColorComponent) -> tuple[str, int]:
    return (c.kind, len(c.pairs))


def is_isomorphic(g: ColoredGraph, h: ColoredGraph) -> bool:
    """Vertex bijection carrying each color class of g onto one of h.

    Components are matched by (kind, size); for graphs with several
    same-shape components every matching is tried, each by one
    unpinned _isomorphism search against the refinement of g.
    """
    if g.n != h.n or len(g.components) != len(h.components):
        return False
    gs = sorted(g.components, key=_component_signature)
    hs = sorted(h.components, key=_component_signature)
    if [_component_signature(c) for c in gs] != [_component_signature(c) for c in hs]:
        return False
    g_rel = _Relations(g.n, gs)
    g_colors, g_trace = _refine(g_rel, [0] * g.n)
    blocks = [list(b) for _, b in itertools.groupby(hs, key=_component_signature)]
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        h_rel = _Relations(h.n, [c for block in choice for c in block])
        if _isomorphism(g_rel, h_rel, g_colors, g_trace, [0] * h.n) is not None:
            return True
    return False


class _Relations:
    """The relation of each ordered vertex pair as one code: 0 for an
    uncovered pair, 2k + 1 for an edge of component k or an arc of
    component k read along its direction, 2k + 2 for an arc read against
    it. Components are numbered in the order given."""

    __slots__ = ("matrix", "arcs")

    def __init__(self, n: int, comps: Sequence[ColorComponent]):
        matrix = [[0] * n for _ in range(n)]
        for k, c in enumerate(comps):
            back = 2 * k + (1 if c.kind == UNORIENTED else 2)
            for i, j in c.pairs:
                matrix[i][j] = 2 * k + 1
                matrix[j][i] = back
        self.matrix = matrix
        # (code, other end) for each covered pair at each vertex.
        self.arcs = [[(code, u) for u, code in enumerate(row) if code] for row in matrix]


# One round of refinement: the renaming of signatures to colors, and the
# resulting cell sizes by color.
_Round = tuple[dict, list[int]]


def _signatures(rel: _Relations, colors: Sequence[int]) -> list[tuple]:
    return [
        (colors[v], tuple(sorted([(code, colors[u]) for code, u in arcs])))
        for v, arcs in enumerate(rel.arcs)
    ]


def _cell_sizes(colors: Sequence[int], count: int) -> list[int]:
    sizes = [0] * count
    for c in colors:
        sizes[c] += 1
    return sizes


def _refine(rel: _Relations, colors: Sequence[int]) -> tuple[list[int], list[_Round]]:
    """The coarsest equitable refinement of a vertex coloring (1-dim
    Weisfeiler-Leman) and its trace. Each round gives a vertex its color
    together with the multiset of (code, color) over its covered pairs,
    renamed by rank; the rounds stop once no cell splits."""
    trace: list[_Round] = []
    while True:
        sigs = _signatures(rel, colors)
        table = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        trace.append((table, _cell_sizes(new, len(table))))
        if len(table) == len(set(colors)):
            return new, trace
        colors = new


def _follow(rel: _Relations, colors: Sequence[int], trace: list[_Round]) -> list[int] | None:
    """Refine a coloring of another graph by the renamings of a trace, so
    that colors mean the same on both sides. None once a signature is
    missing from a round's table or the cell sizes differ: an isomorphism
    carries colors onto colors in every round, so none exists then."""
    for table, sizes in trace:
        new = [table.get(s) for s in _signatures(rel, colors)]
        if None in new or _cell_sizes(new, len(sizes)) != sizes:
            return None
        colors = new
    return colors


def _isomorphism(
    g_rel: _Relations,
    h_rel: _Relations,
    g_colors: Sequence[int],
    g_trace: list[_Round],
    h_colors: Sequence[int],
) -> tuple[int, ...] | None:
    """A bijection p with h_rel[p(u)][p(v)] = g_rel[u][v] for all pairs
    that carries each vertex to one of the same color, or None.

    g_colors and g_trace come from _refine on the source side; h_colors
    is the unrefined target coloring, which follows the trace first.
    Vertices are placed smallest cell first, each checked against every
    vertex placed before it.
    """
    h_colors = _follow(h_rel, h_colors, g_trace)
    if h_colors is None:
        return None
    n = len(g_colors)
    cells: list[list[int]] = [[] for _ in g_trace[-1][1]]
    for u, c in enumerate(h_colors):
        cells[c].append(u)
    order = sorted(range(n), key=lambda v: (len(cells[g_colors[v]]), v))
    a, b = g_rel.matrix, h_rel.matrix
    image = [-1] * n
    used = [False] * n

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        row = a[v]
        placed = order[:depth]
        for w in cells[g_colors[v]]:
            if used[w]:
                continue
            target = b[w]
            if any(row[p] != target[image[p]] for p in placed):
                continue
            image[v] = w
            used[w] = True
            if extend(depth + 1):
                return True
            used[w] = False
        return False

    return tuple(image) if extend(0) else None
