"""The orbit-compressed closure engine against its exact reference."""
from __future__ import annotations

import random

import pytest

from qsymgraph.closure import (
    _PRIMES,
    ClosureConfig,
    ResourceCapError,
    bounded_c1,
    closure,
)
from qsymgraph.graphs import (
    ColoredGraph,
    complement,
    complete,
    edgeless,
    multi_simplex,
    n_gon,
    oriented_n_gon,
    parse_graph,
    reverse,
    saturate,
)
from qsymgraph.scalars import GaussianRational
from qsymgraph.spinplanar import reference_closure


def dims_of(g, max_level, **kwargs):
    return closure(g, ClosureConfig(max_level=max_level, **kwargs)).dims


def relabeled(g, perm):
    comps = []
    for c in g.components:
        if c.kind == "oriented":
            pairs = frozenset((perm[i], perm[j]) for i, j in c.pairs)
        else:
            pairs = frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in c.pairs)
        comps.append(type(c)(c.label, c.kind, pairs, c.value))
    return ColoredGraph(g.n, tuple(comps))


def graph_from_lines(n, lines):
    return parse_graph(f"vertices {n}\n" + "\n".join(lines) + "\n")


# An oriented 4-cycle with its two diagonals as an unoriented color.
DIAGONAL_SQUARE = graph_from_lines(
    4, ["arc a 0 1", "arc a 1 2", "arc a 2 3", "arc a 3 0", "edge d 0 2", "edge d 1 3"]
)


def test_modulus_primes_are_prime():
    for p in (int(q) for q in _PRIMES):
        assert p > 2
        assert all(p % d for d in range(2, int(p**0.5) + 1))


def test_point_set_towers():
    assert dims_of(edgeless(4), 5) == [1, 1, 2, 5, 14, 42]
    assert dims_of(edgeless(3), 5) == [1, 1, 2, 5, 14, 41]
    assert dims_of(edgeless(2), 4) == [1, 1, 2, 4, 8]


@pytest.mark.parametrize(
    "g,level",
    [
        (edgeless(3), 3),
        (complete(3), 3),
        (oriented_n_gon(3), 3),
        (n_gon(4), 2),
        (n_gon(5), 2),
        (multi_simplex(2, 2), 2),
        (oriented_n_gon(4), 2),
        (DIAGONAL_SQUARE, 2),
    ],
    ids=[
        "edgeless3", "triangle", "oriented3", "square", "pentagon", "ms22", "oriented4",
        "diagonal_square",
    ],
)
def test_fast_engine_matches_exact_reference(g, level):
    # The reference engine is exponential, so levels shrink as n grows.
    assert dims_of(g, level) == reference_closure(g, level)


@pytest.mark.parametrize(
    "g,expected",
    [
        (DIAGONAL_SQUARE, [1, 1, 4, 16]),
        (
            graph_from_lines(
                6,
                ["arc a 0 1", "arc a 1 2", "arc a 2 0", "edge b 3 4", "edge b 4 5", "edge b 3 5"],
            ),
            [1, 2, 7, 29],
        ),
        (
            graph_from_lines(
                5,
                [f"arc a {i} {(i + 1) % 5}" for i in range(5)]
                + [f"arc b {i} {(i + 2) % 5}" for i in range(5)],
            ),
            [1, 1, 5, 25],
        ),
    ],
    ids=["diagonal_square", "oriented_triangle_plus_triangle", "pentagon_and_pentagram"],
)
def test_mixed_colors_level_three(g, expected):
    # Values computed with the imaginary box i(A - A^T) as the seed of
    # each oriented color; the arc-matrix seeds must reproduce them.
    assert dims_of(g, 3) == expected


def test_letter_modes_agree():
    for g in (n_gon(4), n_gon(5), oriented_n_gon(4)):
        words = dims_of(g, 3, letter_mode="words")
        full = dims_of(g, 3, letter_mode="full")
        assert words == full


def test_convergence_probe():
    result = closure(edgeless(3), ClosureConfig(max_level=3, verify_convergence=True))
    assert result.converged is True
    plain = closure(edgeless(3), ClosureConfig(max_level=3))
    assert plain.converged is None
    assert plain.dims == result.dims


def test_buffered_dims_extend_reported_dims():
    result = closure(n_gon(5), ClosureConfig(max_level=3, buffer=2))
    assert result.buffered_dims[:4] == result.dims
    assert len(result.buffered_dims) == 6
    assert result.max_level == 3


def test_dims_ignore_complement():
    for g in (n_gon(5), n_gon(4)):
        assert dims_of(complement(g), 3) == dims_of(g, 3)


def test_dims_ignore_saturation():
    for g in (n_gon(5), multi_simplex(2, 3)):
        assert dims_of(saturate(g), 3) == dims_of(g, 3)


def test_dims_ignore_orientation_reversal():
    g = oriented_n_gon(4)
    label = g.components[0].label
    assert dims_of(reverse(g, label), 3) == dims_of(g, 3)


def test_dims_ignore_relabeling():
    rng = random.Random(1618)
    for g in (n_gon(5), oriented_n_gon(4)):
        base = dims_of(g, 3)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert dims_of(relabeled(g, perm), 3) == base


def test_orbit_compression_counts():
    result = closure(n_gon(5), ClosureConfig(max_level=3))
    # Orbits of the dihedral action on 0-, 1- and 2-tuples of vertices.
    assert result.orbit_counts[:3] == [1, 1, 3]
    assert all(r <= 5**m for m, r in enumerate(result.orbit_counts))
    assert result.letter_counts[2] > 0


def test_size_cap_refusal():
    with pytest.raises(ResourceCapError):
        closure(n_gon(5), ClosureConfig(max_level=3, size_limit=100))
    with pytest.raises(ValueError):
        closure(n_gon(5), ClosureConfig(max_level=-1))
    with pytest.raises(ValueError):
        closure(n_gon(5), ClosureConfig(max_level=4, buffer=-2))


def test_c1_bound_splits_mixed_union():
    text = """vertices 8
edge c 0 1
edge c 1 2
edge c 0 2
edge c 3 4
edge c 4 5
edge c 5 6
edge c 6 7
edge c 3 7
"""
    g = parse_graph(text)
    rank, certificates = bounded_c1(g)
    assert rank >= 2
    triangle_part = tuple(
        GaussianRational.of(1 if i < 3 else 0) for i in range(8)
    )
    assert triangle_part in certificates


def test_c1_bound_trivial_on_transitive_graphs():
    for g in (n_gon(5), complete(4)):
        rank, certificates = bounded_c1(g)
        assert rank == 1
        assert certificates == []
