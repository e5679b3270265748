"""Recognition pipeline: circulant criterion, tensor splitting, towers."""
from __future__ import annotations

import importlib
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qsymgraph.classify import (
    CENSUS_MAX_N,
    _even_triangles,
    _graph_of_key,
    _least_key,
    _neighbours,
    _regular_completions,
    _spelled,
    canonical_key,
    check_landau_relations,
    classify,
    cyclic_criterion,
    enumerate_homogeneous,
    landau_verify,
    product_factor_candidates,
    product_test,
    recognize_fuss_catalan,
    regular_graph_reps,
)
from qsymgraph.closure import ClosureConfig
from qsymgraph.graphs import (
    ColoredGraph,
    GraphError,
    _single,
    complement,
    complete,
    cube,
    denser_than_half,
    disjoint_copies,
    edgeless,
    eight_spoke_wheel,
    multi_simplex,
    n_gon,
    nine_star,
    oriented_n_gon,
    parse_graph,
    tensor_product,
)
from qsymgraph.scalars import CyclotomicElement
from qsymgraph.symmetry import automorphism_group


def discrete_torus():
    """Rook moves one step on a 3 by 3 grid with wraparound."""
    edges = set()
    for x in range(3):
        for y in range(3):
            v = 3 * x + y
            for w in (3 * ((x + 1) % 3) + y, 3 * x + (y + 1) % 3):
                edges.add((min(v, w), max(v, w)))
    text = "vertices 9\n" + "".join(f"edge c {a} {b}\n" for a, b in sorted(edges))
    return parse_graph(text)


# -- circulant criterion ------------------------------------------------------


def test_wheel_passes_with_the_five_exact_values():
    verdict = cyclic_criterion(eight_spoke_wheel())
    assert verdict.accepted
    assert verdict.n == 8
    three = CyclotomicElement.from_rational(8, 3)
    one = CyclotomicElement.from_rational(8, 1)
    minus_one = CyclotomicElement.from_rational(8, -1)
    # In the order-8 power basis 1, z, z^2, z^3 the square root of two
    # is z - z^3.
    root_two_minus_one = CyclotomicElement(
        8, (Fraction(-1), Fraction(1), Fraction(0), Fraction(-1))
    )
    minus_root_two_minus_one = CyclotomicElement(
        8, (Fraction(-1), Fraction(-1), Fraction(0), Fraction(1))
    )
    assert verdict.values == (
        three,
        root_two_minus_one,
        one,
        minus_root_two_minus_one,
        minus_one,
    )
    assert len(set(verdict.values)) == 5


@pytest.mark.parametrize("e", [1, 2])
def test_both_nine_stars_pass(e):
    verdict = cyclic_criterion(nine_star(e))
    assert verdict.accepted
    assert verdict.n == 9
    assert len(set(verdict.values)) == len(verdict.values)


def test_square_rejected_by_the_small_n_exclusion():
    verdict = cyclic_criterion(n_gon(4))
    assert not verdict.accepted
    assert verdict.n == 4


def test_two_tetrahedra_rejected_by_value_collision():
    verdict = cyclic_criterion(disjoint_copies(2, complete(4)))
    assert not verdict.accepted
    assert "collision" in verdict.reason
    minus_one = CyclotomicElement.from_rational(8, -1)
    # The middle of the value list shows the collision that matters:
    # both nontrivial character sums degenerate to the same number.
    assert verdict.values[1] == verdict.values[2] == minus_one


def test_pentagon_passes_criterion():
    verdict = cyclic_criterion(n_gon(5))
    assert verdict.accepted
    assert len(set(verdict.values)) == 3


# The depth-first cycle search cyclic_criterion ran before it read the
# element table, kept verbatim as a test-only reference.
def find_cycle_order(g: ColoredGraph) -> list[int] | None:
    """A vertex ordering on which the one-step shift is a symmetry.

    Builds the cycle of the sought automorphism directly: seq[d] is the
    image of seq[d-1], and each placement is checked against all edge
    constraints it completes.
    """
    n = g.n
    if n == 1:
        return [0]
    adj = [[False] * n for _ in range(n)]
    for i, j in g.components[0].pairs:
        adj[i][j] = adj[j][i] = True
    seq = [0]
    used = [False] * n
    used[0] = True

    def rec() -> bool:
        d = len(seq)
        if d == n:
            return all(
                adj[seq[i]][seq[n - 1]] == adj[seq[i + 1]][seq[0]]
                for i in range(n - 1)
            )
        for w in range(n):
            if used[w]:
                continue
            if any(adj[seq[i]][seq[d - 1]] != adj[seq[i + 1]][w] for i in range(d - 1)):
                continue
            seq.append(w)
            used[w] = True
            if rec():
                return True
            seq.pop()
            used[w] = False
        return False

    return seq if rec() else None


def graph_of(nbr, perm=None):
    """The graph of neighbour bitmasks, bit j of nbr[v] set when v ~ j,
    with vertex v renamed perm[v]."""
    n = len(nbr)
    perm = perm or range(n)
    edges = ((perm[v], perm[j]) for v in range(n) for j in range(v + 1, n) if nbr[v] >> j & 1)
    return _single(n, edges)


def cycle_inputs():
    for n in range(1, 10):
        for g in regular_graph_reps(n):
            if len(g.components) == 1:
                yield g
            h = complement(g)
            if len(h.components) == 1:
                yield h
    rng = random.Random(31)
    for n in range(3, 10):
        for k in range(1, n):
            completions = list(_regular_completions(n, k))
            for nbr in rng.choices(completions, k=8) if completions else ():
                perm = list(range(n))
                rng.shuffle(perm)
                yield graph_of(nbr, perm)
    # Connection set {2, 3, 4, 5} on 16 vertices: the first n-cycle in
    # the order of the element table is not the least one.
    yield _single(16, ((i, (i + s) % 16) for i in range(16) for s in (2, 3, 4, 5)))


def test_cycle_from_the_table_matches_the_search(monkeypatch):
    # The package exports the function classify under the module's name.
    classify_module = importlib.import_module("qsymgraph.classify")
    checked = accepted = cycles = 0
    for g in cycle_inputs():
        verdict = cyclic_criterion(g)
        with monkeypatch.context() as m:
            m.setattr(classify_module, "_cycle_order", lambda _: find_cycle_order(g) or [])
            want = cyclic_criterion(g)
        assert (verdict.accepted, verdict.reason) == (want.accepted, want.reason)
        assert (verdict.profile, verdict.values) == (want.profile, want.values)
        checked += 1
        accepted += verdict.accepted
        cycles += verdict.profile is not None
    # The sets reach both sides of every branch.
    assert checked > 200 and 0 < accepted < cycles < checked


def dodecahedron():
    """The generalized Petersen graph GP(10, 2)."""
    edges = []
    for i in range(10):
        edges += [(i, (i + 1) % 10), (i, 10 + i), (10 + i, 10 + (i + 2) % 10)]
    return _single(20, edges)


def test_dodecahedron_has_no_full_cycle_quickly():
    g = dodecahedron()
    assert automorphism_group(g).order == 120
    start = time.perf_counter()
    verdict = cyclic_criterion(g)
    # The depth-first search this replaced took about 12 s on this graph.
    assert time.perf_counter() - start < 1.0
    assert verdict.reason == "symmetry group has no full cycle"


def test_three_hexagons_collide_at_the_antipode():
    verdict = cyclic_criterion(disjoint_copies(3, n_gon(6)))
    assert not verdict.accepted
    assert verdict.reason == "eigenvalue collision Q(w^0) = Q(w^6) = 2"


def test_path_is_not_transitive():
    verdict = cyclic_criterion(_single(3, [(0, 1), (1, 2)]))
    assert (verdict.accepted, verdict.reason) == (False, "symmetry group has no full cycle")


def test_group_over_the_element_cap_is_rejected_for_its_size():
    g = disjoint_copies(5, n_gon(5))
    assert automorphism_group(g).order == 12_000_000
    verdict = cyclic_criterion(g)
    assert not verdict.accepted
    assert verdict.reason == (
        "symmetry group of order 12000000 is too large to search for a full cycle"
    )


# -- tensor splitting ---------------------------------------------------------


def test_cube_splits_as_four_times_two():
    verdict = product_test(cube(), complete(4), complete(2))
    assert verdict.accepted
    assert verdict.classification is not None
    indices = sorted(f.indices for f in verdict.classification.factors)
    assert indices == [(2,), (4,)]
    prefix = verdict.classification.series.prefix(5)
    assert prefix == [1, 1, 4, 20, 112]


def test_hexagon_splits_as_triangle_times_segment():
    verdict = product_test(n_gon(6), complete(3), complete(2))
    assert verdict.accepted
    prefix = verdict.classification.series.prefix(4)
    assert prefix == [1, 1, 4, 20]


def test_torus_is_rejected_on_shared_ratios():
    # The torus really is the square of a triangle, but both factors
    # carry the same spectrum, so the splitting argument cannot run.
    from qsymgraph.graphs import is_isomorphic

    torus = discrete_torus()
    assert is_isomorphic(torus, tensor_product(complete(3), complete(3)))
    verdict = product_test(torus, complete(3), complete(3))
    assert not verdict.accepted
    assert "ratio" in verdict.reason


def test_shape_mismatch_is_rejected_quickly():
    verdict = product_test(n_gon(6), complete(3), complete(3))
    assert not verdict.accepted


def test_hexagon_really_is_that_product():
    from qsymgraph.graphs import is_isomorphic

    assert is_isomorphic(n_gon(6), tensor_product(complete(3), complete(2)))
    assert is_isomorphic(cube(), tensor_product(complete(4), complete(2)))


def test_walk_traces_spare_the_search_for_non_factors(monkeypatch):
    # K2 x (3 x 3 rook's graph) has 18 vertices. Its closed-walk counts rule
    # out every 9-vertex candidate but the rook's graph, whose isomorphism
    # searches once took most of an hour.
    classify_module = importlib.import_module("qsymgraph.classify")
    search = classify_module.is_isomorphic
    calls = []

    def counting_search(g, h):
        calls.append((g.n, h.n))
        return search(g, h)

    monkeypatch.setattr(classify_module, "is_isomorphic", counting_search)
    x = tensor_product(complete(2), discrete_torus())
    c = classify(x, ClosureConfig(max_level=3), no_closure=True)
    assert c.kind == "tensor_product"
    assert [f.kind for f in c.factors] == ["fuss_catalan", "unknown"]
    assert len(calls) == 2
    # The traces differ (24 against 2 x 8 closed 2-walks); the verdict
    # reads as that of a failed search.
    verdict = product_test(cube(), complete(2), n_gon(4))
    assert verdict.reason == "not isomorphic to the tensor product"


def test_factor_candidates_are_connected_regular():
    cands = product_factor_candidates(4)
    assert all(c.n == 4 for c in cands)
    names = sorted(c.edge_count() for c in cands)
    assert names == [4, 6]  # the square and the complete graph


# -- multi-simplex shapes -----------------------------------------------------


def test_point_sets_and_complete_graphs():
    match = recognize_fuss_catalan(edgeless(6))
    assert match is not None and match.indices == (6,)
    match = recognize_fuss_catalan(complete(5))
    assert match is not None and match.indices == (5,)


def test_disjoint_complete_copies():
    match = recognize_fuss_catalan(disjoint_copies(2, complete(4)))
    assert match is not None
    assert match.indices == (2, 4)
    # An index of 2 keeps the closed form out of reach.
    assert not match.generic


def test_two_squares_recognized_as_triple():
    match = recognize_fuss_catalan(disjoint_copies(2, n_gon(4)))
    assert match is not None
    assert match.indices == (2, 2, 2)
    assert not match.generic


def test_explicit_multi_simplex_colors():
    match = recognize_fuss_catalan(multi_simplex(3, 5))
    assert match is not None
    assert match.indices == (3, 5)
    assert not match.generic
    match = recognize_fuss_catalan(multi_simplex(4, 4))
    assert match is not None and match.generic


def test_pentagon_is_no_simplex():
    assert recognize_fuss_catalan(n_gon(5)) is None


@pytest.mark.parametrize(
    "g",
    [disjoint_copies(2, n_gon(5)), disjoint_copies(3, n_gon(4)), disjoint_copies(2, cube())],
    ids=["2C5", "3C4", "2cube"],
)
def test_equal_regular_pieces_that_are_not_complete_match_nothing(g):
    assert recognize_fuss_catalan(g) is None


def test_three_triangles_are_disjoint_complete_copies():
    match = recognize_fuss_catalan(disjoint_copies(3, complete(3)))
    assert match is not None
    assert (match.indices, match.generic, match.rule) == ((3, 3), False, "disjoint complete copies")


# -- averaging tower ----------------------------------------------------------


@pytest.mark.parametrize("ns", [(2, 3), (2, 2, 2), (4,)])
def test_landau_relations_hold_on_simplices(ns):
    report = landau_verify(multi_simplex(*ns))
    assert report.indices == ns
    assert report.all_pass
    assert report.failures == ()


def test_landau_rejects_non_simplices():
    with pytest.raises(GraphError):
        landau_verify(n_gon(5))
    with pytest.raises(GraphError):
        landau_verify(cube())


def test_perturbed_tower_fails_exchange_with_witness():
    ns = (2, 3)
    g = multi_simplex(*ns)
    report = landau_verify(g)
    assert report.all_pass
    # Rebuild the matrices, then knock one entry off.
    import math

    n = 6
    radix = [3, 1]
    digs = [[(v // radix[i]) % ns[i] for i in range(2)] for v in range(n)]
    ps = []
    for i in range(1, 4):
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
    ps[1][0][0] += Fraction(1, 7)
    ps[1][1][1] -= Fraction(1, 7)
    bad = check_landau_relations(ps, ns)
    assert not bad.all_pass
    assert any("exchange" in f or "diagonal" in f or "symmetric" in f for f in bad.failures)


# -- end-to-end classification ------------------------------------------------


def test_classify_pentagon():
    c = classify(n_gon(5))
    assert c.kind == "dihedral"
    assert c.describe() == "Dihedral(5)"
    assert c.series_prefix(5) == [1, 1, 3, 13, 63]


def test_classify_cube():
    c = classify(cube())
    assert c.kind == "tensor_product"
    assert c.describe() == "TensorProduct(FussCatalan(2), FussCatalan(4))"
    assert c.series_prefix(5) == [1, 1, 4, 20, 112]


def test_classify_oriented_cycles():
    for n in (3, 5):
        c = classify(oriented_n_gon(n), ClosureConfig(max_level=2))
        assert c.kind == "cyclic_group"
        assert c.describe() == f"CyclicGroup({n})"


def test_classify_square_through_its_complement():
    c = classify(n_gon(4), ClosureConfig(max_level=3))
    assert c.kind == "fuss_catalan"
    assert c.indices == (2, 2)
    assert not c.generic
    assert c.prefix is not None
    assert list(c.prefix[:3]) == [1, 1, 3]


def test_classify_torus_stays_unknown():
    c = classify(discrete_torus(), ClosureConfig(max_level=3))
    assert c.kind == "unknown"
    assert list(c.prefix) == [1, 1, 3, 15]
    assert any("not transitive" not in line for line in c.trail)


def test_classify_agrees_with_complement():
    base = classify(n_gon(5))
    comp = classify(complement(n_gon(5)))
    assert base.kind == comp.kind == "dihedral"
    assert base.n == comp.n == 5


def test_classify_wheel_is_dihedral():
    c = classify(eight_spoke_wheel(), ClosureConfig(max_level=2))
    assert c.describe() == "Dihedral(8)"
    assert c.series_prefix(5) == [1, 1, 5, 34, 260]


def test_classify_twenty_vertices_skips_factors_over_nine():
    # 20 = 2 x 10 = 4 x 5; factor candidates stop at 9 vertices, so only
    # 4 x 5 is tried, and the trail names the splitting left out.
    c = classify(tensor_product(n_gon(5), complete(4)), ClosureConfig(max_level=2))
    assert c.kind == "unknown"
    assert c.prefix == (1, 1, 6)
    assert (
        "product: no admissible splitting into factors on at most 9 vertices; "
        "not tried: 2 x 10"
    ) in c.trail


# -- enumeration --------------------------------------------------------------


def test_enumeration_to_five_vertices():
    report = enumerate_homogeneous(5, ClosureConfig(max_level=3))
    assert report.total == 12
    sizes = {n: len(v) for n, v in report.per_n().items()}
    assert sizes == {1: 1, 2: 2, 3: 2, 4: 4, 5: 3}
    pentagon_rows = [
        e for e in report.entries if e.n == 5 and e.classification.kind == "dihedral"
    ]
    assert len(pentagon_rows) == 1
    assert pentagon_rows[0].classification.describe() == "Dihedral(5)"


def test_enumeration_single_point():
    report = enumerate_homogeneous(1)
    assert report.total == 1
    assert report.entries[0].classification.indices == (1,)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_homogeneous(10)
    with pytest.raises(ValueError):
        enumerate_homogeneous(0)


@pytest.mark.parametrize(
    "g, message",
    [
        (oriented_n_gon(4), "needs an unoriented graph"),
        (multi_simplex(2, 2), "needs at most one color"),
        (complete(10), "limited to 9 vertices"),
    ],
    ids=["oriented", "two-colors", "ten-vertices"],
)
def test_canonical_key_refuses_what_it_cannot_key(g, message):
    with pytest.raises(GraphError, match=message):
        canonical_key(g)


def test_canonical_key_separates_sizes():
    assert canonical_key(edgeless(3)) != canonical_key(edgeless(4))
    assert canonical_key(n_gon(4)) == canonical_key(
        parse_graph("vertices 4\nedge c 0 2\nedge c 2 1\nedge c 1 3\nedge c 0 3\n")
    )


def test_regular_reps_small_counts():
    assert len(regular_graph_reps(4)) == 2
    assert len(regular_graph_reps(5)) == 2
    for g in regular_graph_reps(6):
        degrees = {sum(1 for c in g.components for p in c.pairs if v in p) for v in range(6)}
        assert len(degrees) == 1


def test_regular_reps_spell_their_keys():
    """The census reads each rep's key off its masks, without a search."""
    for n in range(1, 10):
        reps = regular_graph_reps(n)
        keys = [bytes([n]) + _spelled(_neighbours(g)) for g in reps]
        assert keys == [canonical_key(g) for g in reps]
        assert keys == sorted(set(keys))


# -- regular-graph generation -------------------------------------------------


def pinned_regular_completions(n: int, k: int):
    """Labeled k-regular graphs with the first neighborhood pinned to
    {1..k}; every isomorphism class admits such a labeling, so none is
    missed. Edges are added vertex by vertex toward higher indices."""
    if k >= n:
        return
    adj = np.zeros((n, n), dtype=bool)
    deg = [0] * n
    start = 0
    if k > 0:
        for j in range(1, k + 1):
            adj[0, j] = adj[j, 0] = True
            deg[j] = 1
        deg[0] = k
        start = 1

    def rec(v: int):
        if v == n:
            if deg[v - 1] == k:
                yield adj.copy()
            return
        need = k - deg[v]
        if need < 0:
            return
        if need == 0:
            yield from rec(v + 1)
            return
        cands = [w for w in range(v + 1, n) if deg[w] < k]
        if need > len(cands):
            return
        for combo in itertools.combinations(cands, need):
            for w in combo:
                adj[v, w] = adj[w, v] = True
                deg[w] += 1
            deg[v] += need
            yield from rec(v + 1)
            deg[v] -= need
            for w in combo:
                adj[v, w] = adj[w, v] = False
                deg[w] -= 1

    yield from rec(start)


def pinned_keys(n, k):
    keys = set()
    for adj in pinned_regular_completions(n, k):
        assert adj.shape == (n, n) and adj.dtype == bool
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        assert (adj.sum(axis=1) == k).all()
        keys.add(_least_key(masks_of(adj)))
    return keys


def completion_keys(n, k):
    keys = set()
    for nbr in _regular_completions(n, k):
        assert len(nbr) == n
        for v, nv in enumerate(nbr):
            assert nv >> n == 0 and not nv >> v & 1 and nv.bit_count() == k
            assert all(nbr[j] >> v & 1 for j in range(n) if nv >> j & 1)
        keys.add(_least_key(nbr))
    return keys


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in range(1, 8) for k in range(n)] + [(8, k) for k in range(5)],
)
def test_cell_rule_keeps_every_class_of_the_pinned_generator(n, k):
    assert completion_keys(n, k) == pinned_keys(n, k)


def test_regular_completions_match_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas: dict[tuple[int, int], set[bytes]] = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        degrees = {d for _, d in h.degree()}
        if n == 0 or len(degrees) != 1:
            continue
        adj = nx.to_numpy_array(h, nodelist=range(n), dtype=bool)
        atlas.setdefault((n, degrees.pop()), set()).add(_least_key(masks_of(adj)))
    for n in range(1, 8):
        for k in range(n):
            got = completion_keys(n, k)
            assert got == atlas.get((n, k), set()), (n, k)


def test_odd_degree_sums_yield_nothing():
    for n in range(1, 12):
        for k in range(1, n, 2):
            if n % 2:
                assert next(_regular_completions(n, k), None) is None, (n, k)


def test_triangle_screen_keeps_exactly_the_vertex_transitive_classes():
    # The census labels only completions with one triangle count at every
    # vertex; the vertex-transitive classes among them are those of all
    # completions.
    kept = {}
    for n in range(1, 11):
        every: set[bytes] = set()
        screened: set[bytes] = set()
        for k in range((n - 1) // 2 + 1):
            for nbr in _regular_completions(n, k):
                key = _least_key(nbr)
                every.add(key)
                if _even_triangles(nbr):
                    screened.add(key)
                    kept[n] = kept.get(n, 0) + 1

        def transitive(keys):
            graphs = ((key, _graph_of_key(key, n)) for key in keys)
            return {key for key, g in graphs if automorphism_group(g).is_transitive()}

        assert transitive(screened) == transitive(every), n
        if n <= CENSUS_MAX_N:
            reps = regular_graph_reps(n, triangle_screen=True)
            assert [canonical_key(g)[1:] for g in reps] == sorted(screened), n
    # 22 of the 46 completions on 1..8 vertices, 25 of 275 on 9, 57 of 2,492 on 10.
    assert (sum(kept[n] for n in range(1, 9)), kept[9], kept[10]) == (22, 25, 57)


def test_census_classifies_each_complement_pair_on_its_sparse_rep(monkeypatch):
    # One classification per complement pair, on the sparse rep the
    # enumeration labelled, whose group is memoised already.
    module = importlib.import_module("qsymgraph.classify")
    reps = [g for n in range(1, 9) for g in regular_graph_reps(n, triangle_screen=True)]
    classified, depth = [], [0]

    def recording_classify(g, cfg=None, **kwargs):
        if not depth[0]:  # the product rule classifies its factors too
            classified.append(g)
        depth[0] += 1
        try:
            return classify(g, cfg, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(module, "classify", recording_classify)
    report = enumerate_homogeneous(8, ClosureConfig(max_level=2))
    assert all(g in reps for g in classified)
    pairs = sum(not denser_than_half(e.graph) for e in report.entries)
    assert len(classified) == pairs < report.total


def test_cell_rule_labels_far_fewer_completions():
    # Every labeled completion of the pinned generator would be 14,634.
    assert sum(1 for _ in _regular_completions(9, 4)) < 1000


# -- canonical labeling -------------------------------------------------------


def masks_of(adj):
    """Neighbour bitmasks of a bool matrix: bit j of masks_of(adj)[v] is set when v ~ j."""
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in adj]


def matrix_of(nbr):
    """The bool matrix of neighbour bitmasks, for the reference labelers."""
    return np.array([[m >> j & 1 for j in range(len(nbr))] for m in nbr], dtype=bool)


def brute_force_canonical(adj):
    """Reference labeler: the least packed row-major bit string over all
    n! relabelings, with the first relabeled matrix that spells it."""
    n = adj.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    relabeled = adj[perms[:, :, None], perms[:, None, :]]
    packed = np.packbits(relabeled.reshape(len(perms), n * n), axis=1)
    best = int(np.lexsort(packed.T[::-1])[0])
    return packed[best].tobytes(), relabeled[best]


def oracle_inputs():
    for n in range(1, 8):
        for k in range(n):
            for adj in pinned_regular_completions(n, k):
                yield adj
                yield ~(adj | np.eye(n, dtype=bool))
    rng = random.Random(2024)
    for n in range(1, 8):
        for density in (0.0, 0.25, 0.5, 0.75, 1.0) * 2:
            upper = np.triu(np.array(
                [[rng.random() < density for _ in range(n)] for _ in range(n)]
            ), 1)
            yield upper | upper.T
    k44 = complement(disjoint_copies(2, complete(4)))
    for g in (cube(), n_gon(8), disjoint_copies(4, complete(2)),
              disjoint_copies(2, complete(4)), k44):
        yield matrix_of(_neighbours(g))


def test_canonical_adjacency_matches_brute_force():
    for adj in oracle_inputs():
        key = _least_key(masks_of(adj))
        want_key, want_canon = brute_force_canonical(adj)
        assert key == want_key
        assert _graph_of_key(key, len(adj)) == graph_of(masks_of(want_canon))


# The breadth-first search _least_key ran before it pruned by
# automorphisms, kept verbatim as a test-only reference.
def breadth_first_canonical(adj: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Least packed row-major bit string of a symmetric, loopless adj over
    all relabelings, plus the relabeled matrix that spells it.

    The search fills positions 0..n-1 in order. A state is the vertices
    placed so far and an ordered partition of the others into cells. At
    position t, each vertex v of the first cell is tried: v is placed and
    every cell is split into its non-neighbours of v, then its neighbours.
    That fixes row t of the relabeled matrix: its bits at placed
    positions are v's adjacencies, and each cell gives its zeros before
    its ones, the least arrangement of that cell's bits. Only the states
    whose row t ties the least row t go on to position t + 1. All of
    them share rows 0..t-1, and the cell order is exactly what keeps
    those rows least, so minimising row by row is lexicographic order on
    the whole string: the search is exact, and every surviving leaf
    spells the same string.

    Twin rule: candidate v is skipped when a candidate u already tried in
    the same cell has N(u) - {v} = N(v) - {u}. The transposition (u v) is
    then an automorphism that fixes every placed vertex and every cell,
    so it maps u's subtree onto v's, string for string.
    """
    n = adj.shape[0]
    # Vertex sets are int bitmasks: bit j of nbr[v] is set when v ~ j.
    nbr = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in adj]
    states = [((), [(1 << n) - 1])]
    for _ in range(n):
        least = None
        survivors = []
        for placed, cells in states:
            first = cells[0]
            tried: list[int] = []
            for v in range(n):
                nv = nbr[v]
                if not (first >> v) & 1 or any(
                    (nbr[u] & ~(1 << v)) == (nv & ~(1 << u)) for u in tried
                ):
                    continue
                tried.append(v)
                row = 0
                for p in (*placed, v):
                    row = (row << 1) | ((nv >> p) & 1)
                split = []
                for cell in (first & ~(1 << v), *cells[1:]):
                    ones = cell & nv
                    row = (row << cell.bit_count()) | ((1 << ones.bit_count()) - 1)
                    split += [part for part in (cell & ~nv, ones) if part]
                if least is None or row < least:
                    least, survivors = row, []
                if row == least:
                    survivors.append(((*placed, v), split))
        states = survivors
    perm = list(states[0][0])
    canon = adj[np.ix_(perm, perm)]
    return np.packbits(canon.reshape(-1)).tobytes(), canon


def test_canonical_adjacency_matches_the_breadth_first_search():
    inputs = [
        matrix_of(nbr)
        for n in range(1, 10)
        for k in range(n)
        for nbr in _regular_completions(n, k)
    ]
    rng = random.Random(11)
    for n in range(1, 12):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9) * 4:
            upper = np.triu(np.array(
                [[rng.random() < density for _ in range(n)] for _ in range(n)]
            ).reshape(n, n), 1)
            inputs.append(upper | upper.T)
    # Regular graphs on 10 and 11 vertices, relabeled: many ties, some
    # symmetry.
    for n, k in ((10, 3), (11, 4)):
        for nbr in itertools.islice(_regular_completions(n, k), 0, None, 97):
            perm = rng.sample(range(n), n)
            adj = matrix_of(nbr)
            inputs.append(adj[np.ix_(perm, perm)])
    assert len(inputs) > 800
    for adj in inputs:
        key = _least_key(masks_of(adj))
        want_key, want_canon = breadth_first_canonical(adj)
        assert key == want_key
        assert _graph_of_key(key, len(adj)) == graph_of(masks_of(want_canon))


@pytest.mark.parametrize(
    "g, most",
    [
        (cube(), 6),
        (disjoint_copies(2, n_gon(4)), 23),
        (disjoint_copies(4, complete(2)), 10),
    ],
    ids=["cube", "2C4", "4K2"],
)
def test_automorphisms_prune_the_labeling_search(g, most, monkeypatch):
    # Without the orbit and twin skip and the return to the node where an
    # equal leaf leaves the best one's path, the search expands 33, 209
    # and 249 nodes here; without the skip alone, 19, 63 and 38.
    classify_module = importlib.import_module("qsymgraph.classify")
    branches = classify_module._branches
    expanded = []

    def counting(*args):
        expanded.append(args)
        return branches(*args)

    monkeypatch.setattr(classify_module, "_branches", counting)
    key = _least_key(_neighbours(g))
    assert key == breadth_first_canonical(matrix_of(_neighbours(g)))[0]
    assert len(expanded) <= most


def test_canonical_key_properties_up_to_nine_vertices():
    hypothesis = pytest.importorskip("hypothesis")
    nx = pytest.importorskip("networkx")
    st = hypothesis.strategies

    def plain(n, edges):
        text = f"vertices {n}\n" + "".join(f"edge c {i} {j}\n" for i, j in edges)
        return parse_graph(text)

    @st.composite
    def pairs(draw):
        """A graph, a relabeling of it, and possibly one edge moved."""
        n = draw(st.integers(1, 9))
        slots = list(itertools.combinations(range(n), 2))
        edges = [e for e in slots if draw(st.booleans())]
        perm = draw(st.permutations(range(n)))
        relabeled = [tuple(sorted((perm[i], perm[j]))) for i, j in edges]
        moved = list(relabeled)
        gaps = [e for e in slots if e not in moved]
        if moved and gaps and draw(st.booleans()):
            moved.remove(draw(st.sampled_from(moved)))
            moved.append(draw(st.sampled_from(gaps)))
        return n, edges, relabeled, moved

    def nx_graph(n, edges):
        out = nx.Graph()
        out.add_nodes_from(range(n))
        out.add_edges_from(edges)
        return out

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(pairs())
    def check(case):
        n, edges, relabeled, moved = case
        key = canonical_key(plain(n, edges))
        assert canonical_key(plain(n, relabeled)) == key
        isomorphic = nx.is_isomorphic(nx_graph(n, edges), nx_graph(n, moved))
        assert (canonical_key(plain(n, moved)) == key) == isomorphic

    check()
