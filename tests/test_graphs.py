"""Colored graph model: parsing, constructors, moves, isomorphism."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from qsymgraph.graphs import (
    ORIENTED,
    UNORIENTED,
    ColorComponent,
    ColoredGraph,
    CyclicProfile,
    GraphError,
    GraphParseError,
    MetricSpace,
    complement,
    complete,
    cube,
    cube_metric,
    cyclic_from_profile,
    decompose,
    disjoint_copies,
    edgeless,
    eight_spoke_wheel,
    is_isomorphic,
    loop_counts,
    loop_rule_check,
    metric_import,
    multi_simplex,
    n_gon,
    nine_star,
    oriented_n_gon,
    parse_graph,
    reverse,
    saturate,
    tensor_product,
    total_matrix,
    write_graph,
)


def _relabel(g: ColoredGraph, perm: list[int]) -> ColoredGraph:
    comps = []
    for c in g.components:
        if c.kind == UNORIENTED:
            pairs = frozenset(
                tuple(sorted((perm[i], perm[j]))) for i, j in c.pairs
            )
        else:
            pairs = frozenset((perm[i], perm[j]) for i, j in c.pairs)
        comps.append(type(c)(c.label, c.kind, pairs, c.value))
    return ColoredGraph(g.n, tuple(comps))


def test_parse_write_round_trip():
    g = multi_simplex(2, 3)
    assert parse_graph(write_graph(g)) == g
    h = oriented_n_gon(5)
    assert parse_graph(write_graph(h)) == h


def test_parse_rejects_bad_input():
    with pytest.raises(GraphParseError):
        parse_graph("")
    with pytest.raises(GraphParseError):
        parse_graph("vertices 3\nedge c 0 3\n")
    with pytest.raises(GraphParseError):
        parse_graph("vertices 3\nedge c 1 1\n")
    with pytest.raises(GraphParseError):
        parse_graph("vertices 3\nedge c 0 1\narc c 1 2\n")
    with pytest.raises(GraphParseError):
        parse_graph("edge c 0 1\nvertices 3\n")


def test_parse_comments_and_values():
    g = parse_graph(
        """
        # a weighted segment
        vertices 2
        edge w 0 1
        value w 3/2
        """
    )
    assert g.components[0].value == Fraction(3, 2)


def test_overlapping_colors_rejected():
    with pytest.raises(GraphError):
        parse_graph("vertices 3\nedge a 0 1\nedge b 0 1\n")


def test_constructors_shapes():
    assert edgeless(4).edge_count() == 0
    assert complete(5).edge_count() == 10
    assert n_gon(6).edge_count() == 6
    assert eight_spoke_wheel().edge_count() == 12  # octagon plus four spokes
    assert nine_star(1).edge_count() == 18
    assert cube().n == 8 and cube().edge_count() == 12
    ms = multi_simplex(2, 3)
    assert ms.n == 6
    assert [c.label for c in ms.components] == ["e1", "e2"]
    assert len(ms.component("e1").pairs) == 9  # across the two blocks
    assert len(ms.component("e2").pairs) == 6  # within blocks of three


def test_multi_simplex_colors_partition():
    g = multi_simplex(2, 2, 2)
    covered = set()
    for c in g.components:
        assert not (covered & set(map(frozenset, c.pairs)))
        covered |= set(map(frozenset, c.pairs))
    assert len(covered) == 8 * 7 // 2


def test_complement_involution_and_saturation():
    for g in (n_gon(5), disjoint_copies(2, complete(3)), edgeless(4)):
        assert complement(complement(g)) == g
    sat = saturate(disjoint_copies(2, complete(4)))
    assert len(sat.components) == 2
    assert sat.edge_count() == 28
    assert saturate(complete(3)) == complete(3)
    with pytest.raises(GraphError):
        complement(multi_simplex(2, 2))


def test_tensor_product_edges():
    g = tensor_product(complete(3), complete(2))
    # (a, b) ~ (c, d) exactly when a != c and b != d: 3*2 vertices, each of
    # degree 2, total 6 edges, isomorphic to the hexagon.
    assert g.n == 6
    assert g.edge_count() == 6
    assert is_isomorphic(g, n_gon(6))


def test_cube_three_ways():
    assert is_isomorphic(cube(), tensor_product(complete(4), complete(2)))
    # Metric import of the unit cube: three squared distances 1, 2, 3 give
    # three colors; the distance-1 component is the cube graph itself.
    g = metric_import(cube_metric())
    assert [c.label for c in g.components] == ["d1", "d2", "d3"]
    nearest = ColoredGraph(8, (g.components[0],))
    assert is_isomorphic(nearest, cube())


def test_decompose_total_matrix_round_trip():
    g = multi_simplex(2, 2)
    with_values = ColoredGraph(
        g.n,
        tuple(
            type(c)(c.label, c.kind, c.pairs, Fraction(k + 1))
            for k, c in enumerate(g.components)
        ),
    )
    back = decompose(total_matrix(with_values))
    assert is_isomorphic(back, with_values)
    o = oriented_n_gon(4)
    again = decompose(total_matrix(o))
    assert again.components[0].kind == ORIENTED
    assert is_isomorphic(again, o)


def test_decompose_rejects_mixed_entry():
    from qsymgraph.linalg import ExactMatrix
    from qsymgraph.scalars import GaussianRational

    z = GaussianRational.of(1, 1)
    m = ExactMatrix(
        [
            [GaussianRational.of(0), z],
            [z.conjugate(), GaussianRational.of(0)],
        ]
    )
    with pytest.raises(GraphError):
        decompose(m)


def test_reverse_and_forget():
    o = oriented_n_gon(4)
    r = reverse(o, o.components[0].label)
    assert r != o
    assert reverse(r, r.components[0].label) == o


def test_cyclic_profile_validation():
    with pytest.raises(GraphError):
        CyclicProfile(5, (1, 1, 0, 0, 1))  # e[0] must be 0
    with pytest.raises(GraphError):
        CyclicProfile(5, (0, 1, 0, 0, 0))  # asymmetric
    p = CyclicProfile.from_exponents(8, [1, 4])
    assert is_isomorphic(cyclic_from_profile(p), eight_spoke_wheel())


def test_loop_counts_known():
    assert loop_counts(complete(3), 3) == [2, 2, 2]
    assert loop_counts(n_gon(4), 2) == [2, 2, 2, 2]
    assert loop_counts(n_gon(4), 3) == [0, 0, 0, 0]
    # Oriented triangle: one closed 3-walk each way gives count i^3*... the
    # walk matrix uses the self-adjoint form, so counts stay real.
    counts = loop_counts(oriented_n_gon(3), 3)
    assert len(set(counts)) == 1


def test_loop_rule_check_mixed_components():
    bad = disjoint_copies(1, complete(3))
    # Triangle next to a square: 3-loops count 2 on the triangle, 0 elsewhere.
    from qsymgraph.graphs import _single

    g = _single(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    ok, length, label = loop_rule_check(g)
    assert not ok and length == 3
    ok, _, _ = loop_rule_check(n_gon(5))
    assert ok
    assert loop_rule_check(bad)[0]


def test_is_isomorphic_positive_random():
    rng = random.Random(321)
    base = [n_gon(6), multi_simplex(2, 3), nine_star(2), oriented_n_gon(5)]
    for g in base:
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert is_isomorphic(g, _relabel(g, perm))


def test_is_isomorphic_negative():
    assert not is_isomorphic(n_gon(6), disjoint_copies(2, complete(3)))
    assert not is_isomorphic(nine_star(1), nine_star(2))
    assert not is_isomorphic(multi_simplex(2, 4), multi_simplex(4, 2))
    assert not is_isomorphic(oriented_n_gon(3), complete(3))


def _random_colored(rng: random.Random, n: int) -> ColoredGraph:
    """1-3 colors, each edges or arcs; every pair gets one color or none."""
    kinds = [rng.choice((UNORIENTED, ORIENTED)) for _ in range(rng.randint(1, 3))]
    pairs: list[set[tuple[int, int]]] = [set() for _ in kinds]
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.randint(0, len(kinds))
            if k:
                flip = kinds[k - 1] == ORIENTED and rng.random() < 0.5
                pairs[k - 1].add((j, i) if flip else (i, j))
    comps = tuple(
        ColorComponent(f"c{k}", kind, frozenset(p))
        for k, (kind, p) in enumerate(zip(kinds, pairs))
        if p
    )
    return ColoredGraph(n, comps)


def _shuffled(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    """A relabeled copy whose components come in a new order under new
    names."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    comps = list(_relabel(g, perm).components)
    rng.shuffle(comps)
    return ColoredGraph(
        g.n, tuple(ColorComponent(f"d{k}", c.kind, c.pairs) for k, c in enumerate(comps))
    )


def _moved(g: ColoredGraph, rng: random.Random) -> ColoredGraph | None:
    """A copy with one pair of one component moved to an uncovered pair,
    or None when every pair is covered or no component has a pair."""
    free = [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if frozenset((i, j)) not in g.covered_pairs()
    ]
    if not free or not g.components:
        return None
    k = rng.randrange(len(g.components))
    c = g.components[k]
    pairs = set(c.pairs)
    pairs.remove(rng.choice(sorted(pairs)))
    pairs.add(rng.choice(free))
    moved = ColorComponent(c.label, c.kind, frozenset(pairs))
    return ColoredGraph(g.n, g.components[:k] + (moved,) + g.components[k + 1 :])


def test_is_isomorphic_matches_networkx():
    nx = pytest.importorskip("networkx")

    def digraph(g: ColoredGraph, colors: list[int]):
        """Edges in both directions and arcs in theirs, each tagged with
        the color colors[k] of its component k."""
        d = nx.DiGraph()
        d.add_nodes_from(range(g.n))
        for c, color in zip(g.components, colors):
            for i, j in c.pairs:
                d.add_edge(i, j, color=color)
                if c.kind == UNORIENTED:
                    d.add_edge(j, i, color=color)
        return d

    def vf2(g: ColoredGraph, h: ColoredGraph) -> bool:
        """Isomorphic under some matching of the components of g with
        those of h, by networkx's VF2 with colored edges."""
        if g.n != h.n or len(g.components) != len(h.components):
            return False
        left = digraph(g, list(range(len(g.components))))
        return any(
            nx.is_isomorphic(
                left,
                digraph(h, list(match)),
                edge_match=lambda a, b: a["color"] == b["color"],
            )
            for match in itertools.permutations(range(len(h.components)))
        )

    rng = random.Random(2024)
    outcomes = []
    for _ in range(150):
        g = _random_colored(rng, rng.randint(1, 8))
        h = _shuffled(g, rng)
        assert is_isomorphic(g, h) and vf2(g, h), g
        moved = _moved(g, rng)
        if moved is not None:
            outcomes.append(vf2(g, moved))
            assert is_isomorphic(g, moved) == outcomes[-1], (g, moved)
    assert 0 < sum(outcomes) < len(outcomes)


def test_is_isomorphic_separates_regular_graphs():
    # Color refinement cannot split a regular graph, so each of these
    # searches runs on one cell and rests on its pair checks alone.
    from qsymgraph.classify import regular_graph_reps

    rng = random.Random(5)
    checked = 0
    for n in range(3, 10):
        reps = regular_graph_reps(n)
        degree = [len(r.components[0].pairs) if r.components else 0 for r in reps]
        for a, g in enumerate(reps):
            for b, h in enumerate(reps):
                if degree[a] == degree[b]:
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert is_isomorphic(g, _relabel(h, perm)) == (a == b), (g, h)
                    checked += a != b
    assert checked > 100


def test_metric_space_validation():
    with pytest.raises(GraphError):
        MetricSpace(
            2, ((Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0)))
        )
    # Violating the triangle inequality: d(0,2) = 5 > 1 + 1.
    with pytest.raises(GraphError):
        MetricSpace(
            3,
            (
                (Fraction(0), Fraction(1), Fraction(5)),
                (Fraction(1), Fraction(0), Fraction(1)),
                (Fraction(5), Fraction(1), Fraction(0)),
            ),
        )
