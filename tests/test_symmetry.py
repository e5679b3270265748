"""Automorphism groups, Burnside statistics, classical coactions."""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qsymgraph.graphs import (
    ORIENTED,
    UNORIENTED,
    ColorComponent,
    ColoredGraph,
    complete,
    cube,
    edgeless,
    eight_spoke_wheel,
    multi_simplex,
    n_gon,
    oriented_n_gon,
    total_matrix,
)
from qsymgraph.linalg import ExactMatrix
from qsymgraph.symmetry import (
    ClassicalCoaction,
    PermutationGroup,
    automorphism_group,
    classical_series_coefficient,
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
    for k in range(1, 5):
        assert classical_series_coefficient(group, k) == _orbit_count(group, k)


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
    assert classical_series_coefficient(group, 0) == 1


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
