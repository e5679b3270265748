"""Automorphism groups, Burnside statistics, classical coactions."""
from __future__ import annotations

import importlib
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from qsymgraph.classify import regular_graph_reps
from qsymgraph.graphs import (
    _single,
    ORIENTED,
    UNORIENTED,
    ColorComponent,
    ColoredGraph,
    CyclicProfile,
    complement,
    complete,
    cube,
    cyclic_from_profile,
    disjoint_copies,
    edgeless,
    eight_spoke_wheel,
    multi_simplex,
    n_gon,
    oriented_n_gon,
    total_matrix,
)
from qsymgraph.linalg import ExactMatrix
from qsymgraph.symmetry import (
    _ELEMENT_CAP,
    ClassicalCoaction,
    PermutationGroup,
    automorphism_group,
    classical_series_prefix,
    compose,
    fixed_point_histogram,
    inverse,
)


def invariance_by_relabeling(group: PermutationGroup, d: ExactMatrix) -> bool:
    """Direct route: d is invariant iff d[g(i), g(j)] = d[i, j] for all g."""
    n = group.n
    for p in group.elements:
        for i in range(n):
            for j in range(n):
                if d[p[i], p[j]] != d[i, j]:
                    return False
    return True


def _brute_force_automorphisms(g: ColoredGraph) -> set[tuple[int, ...]]:
    """Every permutation that preserves each component, by direct check."""
    found = set()
    pair_sets = [
        (c.kind, {p for p in c.pairs}) for c in g.components
    ]
    for perm in itertools.permutations(range(g.n)):
        ok = True
        for kind, pairs in pair_sets:
            if kind == "unoriented":
                mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in pairs}
                plain = {tuple(sorted(p)) for p in pairs}
            else:
                mapped = {(perm[i], perm[j]) for i, j in pairs}
                plain = set(pairs)
            if mapped != plain:
                ok = False
                break
        if ok:
            found.add(perm)
    return found


@pytest.mark.parametrize(
    "g",
    [
        edgeless(4),
        complete(4),
        n_gon(5),
        n_gon(6),
        multi_simplex(2, 3),
        oriented_n_gon(4),
        oriented_n_gon(5),
    ],
    ids=["edgeless4", "k4", "pentagon", "hexagon", "ms23", "oc4", "oc5"],
)
def test_group_matches_brute_force(g):
    group = automorphism_group(g)
    brute = _brute_force_automorphisms(g)
    assert group.order == len(brute)
    assert set(group.elements) == brute


@pytest.mark.parametrize(
    "g, order",
    [
        (n_gon(5), 10),
        (complete(4), 24),
        (cube(), 48),
        (eight_spoke_wheel(), 16),
        (multi_simplex(2, 2), 8),
        (oriented_n_gon(6), 6),  # reflections reverse the arrows
        (edgeless(6), 720),
    ],
)
def test_known_orders(g, order):
    assert automorphism_group(g).order == order


def test_wreath_order_without_enumeration():
    group = automorphism_group(multi_simplex(4, 4))
    # Four blocks permuted freely, each block free inside: (4!)^4 * 4!.
    assert group.order == 24**5
    with pytest.raises(ValueError):
        group.elements


def test_group_closure_properties():
    group = automorphism_group(n_gon(6))
    elems = set(group.elements)
    for a in group.elements:
        assert tuple(inverse(a)) in elems
        for b in group.elements:
            assert tuple(compose(a, b)) in elems


def test_transitivity():
    assert automorphism_group(n_gon(7)).is_transitive()
    assert automorphism_group(multi_simplex(2, 2, 2)).is_transitive()
    from qsymgraph.graphs import _single

    path = _single(3, [(0, 1), (1, 2)])
    assert not automorphism_group(path).is_transitive()


def test_pentagon_fixed_point_histogram():
    hist = fixed_point_histogram(automorphism_group(n_gon(5)))
    assert hist == {0: 4, 1: 5, 5: 1}


def test_symmetric_group_histogram_is_rencontres():
    """S9 has C(9, m) * D(9 - m) elements fixing exactly m points, where
    D counts derangements."""
    derangements = [1, 0]
    for k in range(2, 10):
        derangements.append((k - 1) * (derangements[-1] + derangements[-2]))
    want = {m: math.comb(9, m) * derangements[9 - m] for m in range(10)}
    hist = fixed_point_histogram(automorphism_group(edgeless(9)))
    assert hist == {m: c for m, c in want.items() if c}


def test_group_matches_brute_force_on_generated_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def colored_graphs(draw):
        """n <= 6 vertices, 1-3 colors, each color edges or arcs; every
        pair gets at most one color."""
        n = draw(st.integers(1, 6))
        oriented = draw(st.lists(st.booleans(), min_size=1, max_size=3))
        pairs: list[set[tuple[int, int]]] = [set() for _ in oriented]
        for i, j in itertools.combinations(range(n), 2):
            k = draw(st.integers(0, len(oriented)))
            if k:
                flip = oriented[k - 1] and draw(st.booleans())
                pairs[k - 1].add((j, i) if flip else (i, j))
        comps = tuple(
            ColorComponent(f"c{k}", ORIENTED if o else UNORIENTED, frozenset(p))
            for k, (o, p) in enumerate(zip(oriented, pairs))
        )
        return ColoredGraph(n, comps)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(colored_graphs())
    def check(g):
        group = automorphism_group(g)
        brute = _brute_force_automorphisms(g)
        assert group.order == len(brute)
        assert set(group.elements) == brute
        assert len(np.unique(group.table, axis=0)) == group.order
        fixed = Counter(sum(p[i] == i for i in range(g.n)) for p in brute)
        assert fixed_point_histogram(group) == dict(fixed)
        orbit = {p[0] for p in brute}
        assert group.is_transitive() == (len(orbit) == g.n)

    check()


def _orbit_count(group, k: int) -> int:
    """Independent oracle: orbits of the diagonal action on index tuples,
    counted by marking each tuple's orbit once."""
    n = group.n
    seen: set[tuple[int, ...]] = set()
    orbits = 0
    for tup in itertools.product(range(n), repeat=k):
        if tup in seen:
            continue
        orbits += 1
        for p in group.elements:
            seen.add(tuple(p[t] for t in tup))
    return orbits


@pytest.mark.parametrize(
    "g",
    [n_gon(5), n_gon(6), complete(4), multi_simplex(2, 2)],
    ids=["pentagon", "hexagon", "k4", "ms22"],
)
def test_series_coefficients_equal_orbit_counts(g):
    group = automorphism_group(g)
    prefix = classical_series_prefix(group, 5)
    for k in range(1, 5):
        assert prefix[k] == _orbit_count(group, k)


def test_pentagon_series_prefix():
    group = automorphism_group(n_gon(5))
    assert classical_series_prefix(group, 5) == [
        Fraction(1),
        Fraction(1),
        Fraction(3),
        Fraction(13),
        Fraction(63),
    ]


def test_coefficient_zero_is_one_by_convention():
    group = automorphism_group(n_gon(4))
    assert classical_series_prefix(group, 1)[0] == 1


def test_classical_coaction_magic_and_commutes():
    for g in (n_gon(5), multi_simplex(2, 2), oriented_n_gon(4)):
        group = automorphism_group(g)
        coaction = ClassicalCoaction.build(group)
        assert coaction.is_magic()
        d = total_matrix(g)
        assert coaction.commutes_with(d)
        assert invariance_by_relabeling(group, d)


def test_coaction_detects_breaking():
    # The path graph's matrix is not invariant under the full symmetric group.
    from qsymgraph.graphs import _single

    path = _single(3, [(0, 1), (1, 2)])
    sym = automorphism_group(edgeless(3))
    d = total_matrix(path)
    coaction = ClassicalCoaction.build(sym)
    assert not coaction.commutes_with(d)
    assert not invariance_by_relabeling(sym, d)


def test_random_relabeling_preserves_group_order():
    rng = random.Random(808)
    g = multi_simplex(2, 3)
    base_order = automorphism_group(g).order
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        comps = []
        for c in g.components:
            pairs = frozenset(
                tuple(sorted((perm[i], perm[j]))) for i, j in c.pairs
            )
            comps.append(type(c)(c.label, c.kind, pairs, c.value))
        assert automorphism_group(ColoredGraph(g.n, tuple(comps))).order == base_order


# The pinned searches automorphism_group ran before it built the chain
# bottom-up, kept verbatim as a test-only reference, except that the
# builder is renamed pinned_search_group without its lru_cache and its
# last line passes the transversal elements as the generators, which is
# what the old constructor took them to be.
def _adjacency_maps(n: int, comps: Sequence[ColorComponent]) -> list[dict[tuple[int, int], int]]:
    """Per-component relation maps: 1 for edge/arc, -1 for reverse arc."""
    out = []
    for c in comps:
        rel: dict[tuple[int, int], int] = {}
        for i, j in c.pairs:
            if c.kind == UNORIENTED:
                rel[(i, j)] = 1
                rel[(j, i)] = 1
            else:
                rel[(i, j)] = 1
                rel[(j, i)] = -1
        out.append(rel)
    return out


def _iso_search(
    n: int,
    gs: Sequence[ColorComponent],
    hs: Sequence[ColorComponent],
    pins: Sequence[tuple[int, int]] = (),
) -> tuple[int, ...] | None:
    """Backtracking search for a bijection carrying gs[k] onto hs[k].

    Each (v, w) in pins forces v to map to w; pinned vertices are placed
    first, so contradictions among the pins die at the root.
    """
    g_rel = _adjacency_maps(n, gs)
    h_rel = _adjacency_maps(n, hs)

    def signature(v: int, comps: Sequence[ColorComponent]) -> tuple:
        return tuple(c.degree(v) for c in comps)

    g_sig = [signature(v, gs) for v in range(n)]
    h_sig = [signature(v, hs) for v in range(n)]
    if sorted(g_sig) != sorted(h_sig):
        return None
    candidates = [
        [w for w in range(n) if h_sig[w] == g_sig[v]] for v in range(n)
    ]
    for v, w in pins:
        candidates[v] = [w] if w in candidates[v] else []
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    image = [-1] * n
    used = [False] * n

    def consistent(v: int, w: int, depth: int) -> bool:
        for k, rel in enumerate(g_rel):
            hrel = h_rel[k]
            for prev in order[:depth]:
                pw = image[prev]
                if rel.get((v, prev), 0) != hrel.get((w, pw), 0):
                    return False
                if rel.get((prev, v), 0) != hrel.get((pw, w), 0):
                    return False
        return True

    def rec(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for w in candidates[v]:
            if used[w]:
                continue
            if not consistent(v, w, depth):
                continue
            image[v] = w
            used[w] = True
            if rec(depth + 1):
                return True
            image[v] = -1
            used[w] = False
        return False

    return tuple(image) if rec(0) else None


def pinned_search_group(g: ColoredGraph) -> PermutationGroup:
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
    return PermutationGroup(g.n, tuple(transversals), tuple(p for t in transversals for p in t[1:]))


def _codes(n: int, rows: np.ndarray) -> np.ndarray:
    """Each permutation row as one integer, base n."""
    return rows.astype(np.int64) @ (n ** np.arange(n, dtype=np.int64))


def _generates(generators, reference: PermutationGroup) -> bool:
    """Whether the closure of generators under composition is the group
    of reference.

    Each generator must be an element. Then the closure is a subgroup,
    and it is the whole group when, for every i, the generators fixing
    0, ..., i-1 move i around its whole orbit under the stabilizer of
    0, ..., i-1 (read off reference.transversals[i]): by induction from
    the last stage down, the closure's stabilizer of 0, ..., i-1 has at
    least the order of the group's.
    """
    n = reference.n
    members = set(_codes(n, reference.table).tolist())
    if not set(_codes(n, np.array(generators, dtype=np.int64).reshape(-1, n)).tolist()) <= members:
        return False
    for i, stage in enumerate(reference.transversals):
        fixing = [s for s in generators if all(s[v] == v for v in range(i))]
        orbit = {i}
        queue = [i]
        for p in queue:
            for s in fixing:
                if s[p] not in orbit:
                    orbit.add(s[p])
                    queue.append(s[p])
        if orbit != {t[i] for t in stage}:
            return False
    return True


def seeded_graphs(count: int, max_n: int, seed: int) -> list[ColoredGraph]:
    """Colored graphs with 1-3 colors, each edges or arcs, drawn so that a
    random permutation sigma is an automorphism: each orbit of vertex
    pairs under sigma gets one random color or none. An oriented color
    takes an orbit only when no power of sigma reverses its pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        points = list(range(n))
        rng.shuffle(points)
        sigma = list(range(n))
        start = 0
        while start < n:
            cycle = points[start : start + rng.randint(1, n - start)]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                sigma[a] = b
            start += len(cycle)
        kinds = [rng.choice((UNORIENTED, ORIENTED)) for _ in range(rng.randint(1, 3))]
        pairs: list[set[tuple[int, int]]] = [set() for _ in kinds]
        seen: set[tuple[int, int]] = set()
        for i, j in itertools.permutations(range(n), 2):
            if (i, j) in seen:
                continue
            orbit = [(i, j)]
            while (sigma[orbit[-1][0]], sigma[orbit[-1][1]]) != (i, j):
                orbit.append((sigma[orbit[-1][0]], sigma[orbit[-1][1]]))
            seen.update(orbit)
            seen.update((b, a) for a, b in orbit)
            k = rng.randint(0, len(kinds))
            if not k:
                continue
            if kinds[k - 1] == UNORIENTED:
                pairs[k - 1] |= {(min(a, b), max(a, b)) for a, b in orbit}
            elif (j, i) not in orbit:
                pairs[k - 1] |= set(orbit)
        comps = tuple(
            ColorComponent(f"c{k}", kind, frozenset(p))
            for k, (kind, p) in enumerate(zip(kinds, pairs))
            if p
        )
        out.append(ColoredGraph(n, comps))
    return out


def circulants(max_n: int) -> list[ColoredGraph]:
    """Every one-color circulant on at most max_n vertices, by connection
    set {k, n - k} for each chosen 1 <= k <= n/2."""
    out = []
    for n in range(1, max_n + 1):
        for chosen in itertools.product((0, 1), repeat=n // 2):
            exponents = [k + 1 for k, bit in enumerate(chosen) if bit]
            out.append(cyclic_from_profile(CyclicProfile.from_exponents(n, exponents)))
    return out


def test_bottom_up_chain_matches_the_pinned_searches():
    inputs = []
    for n in range(1, 10):
        for rep in regular_graph_reps(n):
            inputs += [rep, complement(rep)]
    inputs += circulants(12)
    inputs += seeded_graphs(300, 9, seed=11)
    transitive = large = 0
    for g in inputs:
        new = automorphism_group.__wrapped__(g)
        old = pinned_search_group(g)
        assert new.order == old.order, g
        assert new.is_transitive() == old.is_transitive(), g
        transitive += new.is_transitive()
        if new.order > _ELEMENT_CAP:
            large += 1
            continue
        # set(elements), compared as sorted codes: S9 has 362,880 of them.
        assert np.array_equal(np.sort(_codes(g.n, new.table)), np.sort(_codes(g.n, old.table))), g
        assert fixed_point_histogram(new) == fixed_point_histogram(old), g
        assert _generates(new.generators, old), g
    # The inputs reach rigid, transitive and over-cap groups.
    assert len(inputs) > 500 and 100 < transitive < len(inputs) and large > 0


def test_strong_generators_are_few():
    # The transversal elements of the chain are products of the found
    # generators; for the symmetric groups one transposition per stage.
    for g in (complete(9), edgeless(9), n_gon(8), cube()):
        group = automorphism_group(g)
        assert len(group.generators) < sum(len(t) - 1 for t in group.transversals)
        assert all(p != tuple(range(g.n)) for p in group.generators)


def _counted_build(monkeypatch, g: ColoredGraph) -> tuple[PermutationGroup, int, int]:
    """An uncached build of Aut(g) with its searches and successful
    searches counted."""
    symmetry = importlib.import_module("qsymgraph.symmetry")
    search = symmetry._isomorphism
    counts = [0, 0]

    def counting(*args):
        hit = search(*args)
        counts[0] += 1
        counts[1] += hit is not None
        return hit

    with monkeypatch.context() as m:
        m.setattr(symmetry, "_isomorphism", counting)
        group = automorphism_group.__wrapped__(g)
    return group, counts[0], counts[1]


@pytest.mark.parametrize("seed", [4, 2])
def test_random_cubic_graphs_build_quickly(seed, monkeypatch):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.random_regular_graph(3, 20, seed=seed)
    g = _single(20, h.edges())
    start = time.perf_counter()
    group, _, _ = _counted_build(monkeypatch, g)
    # The pinned searches took 13.4 s (seed 4) and 4.3 s (seed 2) here.
    assert time.perf_counter() - start < 1.0
    assert group.order == sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


@pytest.mark.parametrize("g", [complete(9), edgeless(9)], ids=["k9", "edgeless9"])
def test_symmetric_groups_need_one_search_per_stage(g, monkeypatch):
    group, searches, hits = _counted_build(monkeypatch, g)
    assert group.order == math.factorial(9)
    assert hits <= g.n - 1 and searches == hits


def test_five_pentagons_need_few_searches(monkeypatch):
    g = disjoint_copies(5, n_gon(5))
    group, searches, _ = _counted_build(monkeypatch, g)
    # (10^5) * 5! automorphisms; the pinned scheme ran n(n-1)/2 = 300 searches.
    assert group.order == 10**5 * 120
    assert searches <= 30
