"""The orbit-compressed closure engine against its exact reference."""
from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qsymgraph.closure import (
    _CHUNK,
    _PRIMES,
    ClosureConfig,
    ModularMismatchError,
    ResourceCapError,
    _apply_letters,
    _ModBasis,
    bounded_c1,
    closure,
)
from qsymgraph.graphs import (
    ORIENTED,
    UNORIENTED,
    ColorComponent,
    ColoredGraph,
    complement,
    complete,
    disjoint_copies,
    edgeless,
    loop_rule_check,
    multi_simplex,
    n_gon,
    oriented_n_gon,
    parse_graph,
    reverse,
    saturate,
)
from qsymgraph.scalars import GaussianRational
from qsymgraph.series import CubeSeries
from qsymgraph.symmetry import automorphism_group, classical_series_prefix
from reference_engine import SpinTensor, mult, reference_closure

closure_module = importlib.import_module("qsymgraph.closure")
GRAPHS_DIR = Path(__file__).resolve().parent.parent / "graphs"


def dims_of(g, max_level):
    return closure(g, ClosureConfig(max_level=max_level)).dims


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


def test_cube_level_five_meets_its_closed_form():
    # From level 5 on the letters are the lifted boxes and cup-caps, not
    # the level's rows; the cube (672 against R_5 = 816) and the four
    # points (Catalan 42 against 51) check them where they fall short.
    g = parse_graph((GRAPHS_DIR / "cube.graph").read_text())
    result = closure(g, ClosureConfig(max_level=5))
    assert result.dims == CubeSeries().prefix(6)
    assert result.orbit_counts[5] == 816


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
    "g,top",
    [
        (oriented_n_gon(3), 4),
        (n_gon(4), 3),
        (graph_from_lines(4, ["edge a 0 1", "arc b 1 2", "edge a 2 3"]), 3),
    ],
    ids=["oriented3", "square", "edge_arc_edge"],
)
def test_engine_top_level_matches_exact_reference(g, top):
    # Run the engine directly: every level up to its top, the level where
    # a closure() run stops, must agree with the reference.
    engine = closure_module._Engine(g, top)
    engine.run()
    assert engine.dims() == reference_closure(g, top, buffer=0)


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


# The vertex-transitive graphs on at most six vertices, by file name.
CENSUS_TO_SIX = (
    "point", "two-points", "segment", "three-points", "triangle", "edgeless-4",
    "two-segments", "square", "complete-4", "edgeless-5", "pentagon", "complete-5",
    "edgeless-6", "three-segments", "hexagon", "two-triangles", "k33", "prism",
    "octahedron", "complete-6",
)


def test_algebra_levels_take_their_rows_as_letters():
    # Up to level 4, on these vertex-transitive graphs, the letters are the
    # basis rows themselves: no core letter and no duplicate is counted (the
    # hexagon once gave letter counts 1, 1, 5, 22 against dims 1, 1, 4, 20,
    # and 8 letters at level 4 against a rank of 112).
    for path in sorted(GRAPHS_DIR.glob("*.graph")):
        result = closure(parse_graph(path.read_text()), ClosureConfig(max_level=3))
        assert result.letter_counts[:4] == result.buffered_dims[:4], path.stem
    for name in CENSUS_TO_SIX:
        result = closure(parse_graph((GRAPHS_DIR / f"{name}.graph").read_text()),
                         ClosureConfig(max_level=4))
        assert result.letter_counts[:5] == result.buffered_dims[:5], name


def test_level_four_is_an_algebra_on_vertex_transitive_graphs_only():
    # A graph with several vertex orbits takes the lifted boxes and
    # cup-caps as level 4's letters: a six-vertex graph with |Aut(X)| = 4
    # has 456 orbits there, and closing it as an algebra made its default
    # closure about twice as slow.
    path = graph_from_lines(4, ["edge c 0 1", "edge c 1 2", "edge c 2 3"])
    for g, algebra_top in ((n_gon(6), 4), (edgeless(3), 4), (path, 3)):
        engine = closure_module._Engine(g, 5)
        assert engine.algebra_top == algebra_top
        engine.run()
        letters = engine.letter_counts
        assert letters[: algebra_top + 1] == engine.dims()[: algebra_top + 1]
        assert all(engine.letters[m] is None for m in range(algebra_top + 1))
        assert all(engine.letters[m].shape[1] == letters[m] for m in range(algebra_top + 1, 6))


def test_buffered_dims_extend_reported_dims():
    # buffered_dims covers every level the one run carried. Level 4 of the
    # four points falls short of its orbit count, and no higher level is
    # carried for it.
    result = closure(edgeless(4), ClosureConfig(max_level=4))
    assert result.buffered_dims[:5] == result.dims
    assert len(result.buffered_dims) == 5
    assert result.max_level == 4
    # Every level of the pentagon through 3 is exact.
    certified = closure(n_gon(5), ClosureConfig(max_level=3))
    assert certified.exact == [True] * 4
    assert len(certified.buffered_dims) == 4
    # The run reaches level 2 at least, whatever is reported.
    low = closure(n_gon(5), ClosureConfig(max_level=1))
    assert (low.dims, low.buffered_dims) == ([1, 1], [1, 1, 3])


def test_point_set_level_four_is_not_certified():
    # Catalan 14 against Bell 15: S_4^+ is larger than S_4.
    result = closure(edgeless(4), ClosureConfig(max_level=4))
    assert result.dims == [1, 1, 2, 5, 14]
    assert result.orbit_counts[4] == 15
    assert result.exact == [True, True, True, True, False]
    assert len(result.buffered_dims) == 5


@pytest.fixture
def engine_tops(monkeypatch):
    """The top level of every engine built, in order."""
    tops = []

    class CountingEngine(closure_module._Engine):
        def __init__(self, g, top):
            tops.append(top)
            super().__init__(g, top)

    monkeypatch.setattr(closure_module, "_Engine", CountingEngine)
    return tops


def test_rook_graph_is_certified_at_level_four_by_one_engine(engine_tops):
    # With the lifted boxes and cup-caps as its letters, level 4 of the
    # rook's graph reached 101 in a run to level 4 and needed a run to
    # level 5 for 105 = R_4. Closed as an algebra, it meets R_4 in one run.
    g = parse_graph((GRAPHS_DIR / "discrete-torus.graph").read_text())
    result = closure(g, ClosureConfig(max_level=4))
    assert result.dims == [1, 1, 3, 15, 105]
    assert result.exact == [True] * 5
    assert engine_tops == [4]


def test_certified_input_builds_one_engine_and_one_group(monkeypatch, engine_tops):
    engines, groups = engine_tops, []

    def counting_group(g):
        groups.append(g)
        return automorphism_group(g)

    monkeypatch.setattr(closure_module, "automorphism_group", counting_group)
    result = closure(n_gon(6), ClosureConfig(max_level=3))
    assert all(result.exact)
    assert (engines, len(groups)) == ([3], 1)
    engines.clear()
    groups.clear()
    # An uncertified level builds no second engine either.
    result = closure(edgeless(4), ClosureConfig(max_level=4))
    assert not result.exact[4]
    assert (engines, len(groups)) == ([4], 1)


@pytest.mark.parametrize(
    ("g", "level"),
    [(n_gon(6), 4), (oriented_n_gon(5), 3), (edgeless(4), 4)],
    ids=["hexagon-4", "oriented5-3", "points-4"],
)
def test_each_block_takes_at_most_two_letter_products(monkeypatch, g, level):
    # One cross product for the items queued for a new row, one for those
    # queued for a new letter.
    calls = []
    apply_letters = closure_module._apply_letters
    materialise = closure_module._Engine._materialise

    def counting_apply(*args):
        calls[-1] += 1
        return apply_letters(*args)

    def counting_materialise(self, m, items):
        calls.append(0)
        return materialise(self, m, items)

    monkeypatch.setattr(closure_module, "_apply_letters", counting_apply)
    monkeypatch.setattr(closure_module._Engine, "_materialise", counting_materialise)
    closure(g, ClosureConfig(max_level=level))
    assert 0 < max(calls) <= 2


class QueuedUnitEngine(closure_module._Engine):
    """The engine with no level started full: the unit is queued at level 0,
    and every level's items are materialised and reduced."""

    def _start_full_levels(self):
        self._push(0, ("vec", self._wrap(np.ones(1, dtype=np.int64))))


def test_levels_with_one_orbit_start_full(monkeypatch):
    # A width-1 basis never reduces a block, and starting full changes
    # neither a dimension nor a letter count.
    widths = []
    insert_block = _ModBasis.insert_block

    def recording_insert(self, block):
        widths.append(self.width)
        return insert_block(self, block)

    monkeypatch.setattr(_ModBasis, "insert_block", recording_insert)
    full_levels = 0
    for path in sorted(GRAPHS_DIR.glob("*.graph")):
        g = parse_graph(path.read_text())
        result = closure(g, ClosureConfig(max_level=3))
        assert 1 not in widths, path.stem
        full_levels += result.orbit_counts.count(1)
        queued = QueuedUnitEngine(g, 3)
        queued.run()
        assert queued.dims() == result.buffered_dims, path.stem
        assert queued.letter_counts == result.letter_counts, path.stem
        widths.clear()
    assert full_levels > len(list(GRAPHS_DIR.glob("*.graph")))


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


def test_size_cap_refusal(monkeypatch):
    monkeypatch.setattr(closure_module, "_TUPLE_LIMIT", 100)
    with pytest.raises(ResourceCapError, match="over the limit 100"):
        closure(n_gon(5), ClosureConfig(max_level=3))
    with pytest.raises(ValueError):
        closure(n_gon(5), ClosureConfig(max_level=-1))


@pytest.fixture
def no_basis(monkeypatch):
    """Fail the test if any _ModBasis is built."""

    def no_basis(width):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(closure_module, "_ModBasis", no_basis)


def test_tuple_limit_refuses_before_the_group_and_the_levels(monkeypatch, no_basis):
    # 5C5 at level 5 has 25^5 = 9,765,625 tuples, over the limit: the
    # engine refuses it before it looks up the group of order 12,000,000
    # or codes any tuple.
    def fail(*args):
        raise AssertionError("the run went past the tuple limit")

    monkeypatch.setattr(closure_module, "automorphism_group", fail)
    monkeypatch.setattr(closure_module, "_Level", fail)
    refusal = "level 5 has 9765625 tuples, over the limit 2000000"
    with pytest.raises(ResourceCapError, match=refusal):
        closure(disjoint_copies(5, n_gon(5)), ClosureConfig(max_level=5))


def test_basis_budget_refuses_the_pentagon_at_level_nine(no_basis):
    # 5^9 tuples fit under the tuple limit, but the bases would
    # take about 592 GiB; the budget refuses them before any is built.
    with pytest.raises(ResourceCapError, match="over the budget"):
        closure(n_gon(5), ClosureConfig(max_level=9))


def test_basis_budget_names_the_predicted_bytes(no_basis):
    # Each level's basis holds (2, R_m, R_m) float64 residues, and R_m is
    # the classical series coefficient, counted here by Burnside's lemma.
    # The pentagon at level 8 (R_8 = 39,063) needs about 23.7 GiB.
    counts = classical_series_prefix(automorphism_group(n_gon(5)), 9)
    need = sum(16 * int(r) ** 2 for r in counts)
    with pytest.raises(ResourceCapError, match=f"need {need} bytes"):
        closure(n_gon(5), ClosureConfig(max_level=8))
    # Level 7 predicts 0.95 GiB, under the budget, so the engine goes on to
    # build its bases.
    with pytest.raises(AssertionError, match="a basis was built"):
        closure(n_gon(5), ClosureConfig(max_level=7))


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


def indicators(*vectors):
    return [tuple(GaussianRational.of(x) for x in w) for w in vectors]


def test_c1_witnesses_see_both_directions_of_an_arc():
    # The one arc 1 -> 2 closes no directed walk, so the loop screen passes;
    # the total matrix i(A - A^T) still tells vertex 0 from the other two.
    g = graph_from_lines(3, ["arc a 1 2"])
    assert loop_rule_check(g) == (True, None, None)
    assert bounded_c1(g) == (3, indicators((1, 0, 0), (0, 1, 1)))


def test_c1_witnesses_count_walks_that_change_color():
    # Two perfect matchings whose union is a 4-cycle and a 6-cycle: each
    # color alone has constant loop counts, but a closed walk of length 4
    # alternating the colors exists only on the 4-cycle.
    cycles = [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]]
    lines = [
        f"edge {'ab'[k % 2]} {min(c[k], c[k - 1])} {max(c[k], c[k - 1])}"
        for c in cycles
        for k in range(len(c))
    ]
    g = graph_from_lines(10, lines)
    assert loop_rule_check(g) == (True, None, None)
    assert bounded_c1(g) == (2, indicators((0,) * 4 + (1,) * 6, (1,) * 4 + (0,) * 6))


def random_two_color_graph(rng: random.Random) -> ColoredGraph:
    n = rng.randrange(3, 8)
    second = rng.choice(["edge b", "arc b"])
    lines = []
    for i, j in itertools.combinations(range(n), 2):
        kind = rng.choice(["", "", "edge a", second])
        if kind:
            lines.append(f"{kind} {i} {j}" if rng.random() < 0.5 else f"{kind} {j} {i}")
    return graph_from_lines(n, lines)


def test_c1_witnesses_partition_the_vertices_into_fixed_sets():
    graphs = [parse_graph(path.read_text()) for path in sorted(GRAPHS_DIR.glob("*.graph"))]
    graphs = [g for g in graphs if g.n <= 8]
    rng = random.Random(24)
    graphs += [random_two_color_graph(rng) for _ in range(60)]
    witnessed = 0
    for g in graphs:
        _, certificates = bounded_c1(g)
        if not certificates:
            continue
        witnessed += 1
        assert len(certificates) >= 2
        vectors = [[int(x.re) for x in w] for w in certificates]
        assert all(set(w) == {0, 1} for w in vectors)
        assert [sum(col) for col in zip(*vectors)] == [1] * g.n
        for p in automorphism_group(g).generators:
            assert all(w[p[i]] == w[i] for w in vectors for i in range(g.n))
    assert witnessed


# ---------------------------------------------------------------------------
# Block elimination and the float64 exactness bound.


def residues(vectors) -> np.ndarray:
    """Integer vectors as the (2, k, R) float64 stack of their residues."""
    ints = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), -1)
    return np.stack([ints % int(p) for p in _PRIMES]).astype(np.float64)


def exact_elimination(vectors):
    """Insert the vectors one at a time into a reduced echelon basis over
    the rationals: the indices adjoined, their pivot columns and the
    final rows, in the order adjoined."""
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    adjoined: list[int] = []
    for idx, vec in enumerate(vectors):
        w = [Fraction(x) for x in vec]
        for row, col in zip(rows, pivots):
            if w[col]:
                f = w[col]
                w = [a - f * b for a, b in zip(w, row)]
        lead = next((k for k, x in enumerate(w) if x), -1)
        if lead < 0:
            continue
        w = [x / w[lead] for x in w]
        for i, row in enumerate(rows):
            if row[lead]:
                f = row[lead]
                rows[i] = [a - f * b for a, b in zip(row, w)]
        rows.append(w)
        pivots.append(lead)
        adjoined.append(idx)
    return adjoined, pivots, rows


def candidate_stream(rng: random.Random, width: int, count: int) -> list[list[int]]:
    """Small-integer vectors with duplicates, zero rows and dependent rows
    mixed in; sparse rows keep the leads spread over the columns."""
    out: list[list[int]] = []
    for _ in range(count):
        roll = rng.random()
        if out and roll < 0.15:
            out.append(list(rng.choice(out)))
        elif roll < 0.25:
            out.append([0] * width)
        elif len(out) >= 2 and roll < 0.5:
            picks = rng.sample(out, 2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            out.append([a * x + b * y for x, y in zip(*picks)])
        else:
            density = rng.choice([0.2, 0.5, 1.0])
            out.append(
                [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(width)]
            )
    return out


def check_block_insertion(seed: int) -> None:
    rng = random.Random(seed)
    width = rng.randint(1, 24)
    vectors = candidate_stream(rng, width, rng.randint(1, 3 * width + 4))
    want, pivots, rows = exact_elimination(vectors)
    basis = _ModBasis(width)
    start = 0
    while start < len(vectors):
        size = rng.randint(1, 20)
        basis.insert_block(residues(vectors[start : start + size]))
        start += size
        assert basis.rank == sum(i < start for i in want)
    assert basis.rank == len(want)
    assert basis.pivcols.tolist() == pivots
    stored = basis.rows[:, : basis.rank]
    for k, p in enumerate(int(q) for q in _PRIMES):
        assert np.all((stored[k] >= 0) & (stored[k] < p))
        assert np.array_equal(stored[k][:, pivots], np.eye(len(pivots)))
        expected = [
            [x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in rows
        ]
        assert stored[k].astype(np.int64).tolist() == expected


# _mod's crossover set so that every stack takes the floor path, or the
# np.remainder path.
REDUCTION_PATHS = {"floor": 0, "remainder": 10**9}


def test_insert_block_matches_exact_elimination(monkeypatch):
    for crossover in REDUCTION_PATHS.values():
        monkeypatch.setattr(closure_module, "_REMAINDER_MAX", crossover)
        for seed in range(60):
            check_block_insertion(seed)


def test_insert_block_saturates_partway_through_a_block():
    basis = _ModBasis(3)
    block = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [5, 0, 0], [0, 0, 7], [1, 1, 1]]
    basis.insert_block(residues(block))
    assert basis.saturated and basis.pivcols.tolist() == [0, 1, 2]
    assert np.array_equal(basis.rows, np.broadcast_to(np.eye(3), (2, 3, 3)))
    basis.insert_block(residues([[1, 0, 0]]))
    assert basis.rank == 3


def test_insert_block_with_small_chunks(monkeypatch):
    # A tiny chunk forces the chunked products and the periodic in-block
    # reductions on every path; the results must not change.
    monkeypatch.setattr(closure_module, "_CHUNK", 2)
    for crossover in REDUCTION_PATHS.values():
        monkeypatch.setattr(closure_module, "_REMAINDER_MAX", crossover)
        for seed in range(20):
            check_block_insertion(seed)


def test_mod_basis_allocates_its_rows_once():
    # The rows are allocated at full width up front and never copied: a
    # growth copy holds two row arrays at once, which sets the peak memory
    # of the largest levels.
    width = 9
    basis = _ModBasis(width)
    rows = basis.rows
    assert rows.shape == (2, width, width)
    rng = random.Random(11)
    while not basis.saturated:
        block = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(3)]
        basis.insert_block(residues(block))
        assert basis.rows is rows
    assert basis.rank == width


def test_mismatch_under_one_prime_raises():
    p0 = int(_PRIMES[0])
    # Zero modulo the first prime only, against an empty basis.
    with pytest.raises(ModularMismatchError, match="leads -1 vs 0"):
        _ModBasis(4).insert_block(residues([[p0, 0, 0, 0]]))
    # The same after reduction, behind an independent row in the block.
    basis = _ModBasis(4)
    basis.insert_block(residues([[1, 0, 0, 0]]))
    with pytest.raises(ModularMismatchError, match="leads -1 vs 1"):
        basis.insert_block(residues([[0, 0, 1, 1], [1, p0, 0, 0]]))


@pytest.mark.parametrize("path", REDUCTION_PATHS)
def test_mod_matches_python_remainder(path, monkeypatch):
    # Stacks of sizes on both sides of the crossover, with values spread
    # over the range _mod accepts, the ends of it, and exact multiples of
    # each prime; a zero residue must come out as +0.0. np.remainder is
    # exact on every float64 integer; the floor path needs its rounded
    # multiple q * p, within 2p of x, to stay below 2^53 as well.
    half = closure_module._REMAINDER_MAX // 2
    monkeypatch.setattr(closure_module, "_REMAINDER_MAX", REDUCTION_PATHS[path])
    top = {"floor": 2**53 - 2**22, "remainder": 2**53 - 1}[path]
    rng = np.random.default_rng(7)
    shapes = [(2, 5), (2, 37), (2, half), (2, half + 1), (2, 3, half), (2, 64, 36), (2, 2, 5, 9)]
    for shape in shapes:
        ints = rng.integers(-top, top, size=shape, endpoint=True)
        flat = ints.reshape(2, -1)
        flat[:, :5] = [top, -top, top - 1, -top + 1, 0]
        for k, p in enumerate(int(q) for q in _PRIMES):
            mult = rng.integers(-(top // p), top // p, size=flat.shape[1] // 3, endpoint=True)
            flat[k, 5 : 5 + len(mult)] = mult * p
        got = closure_module._mod(ints.astype(np.float64))
        for k, p in enumerate(int(q) for q in _PRIMES):
            want = [int(v) % p for v in ints[k].ravel().tolist()]
            assert got[k].ravel().astype(np.int64).tolist() == want
        assert not np.signbit(got).any()


def test_float64_exactness_bound():
    for p in (int(q) for q in _PRIMES):
        assert p < 2**21
        assert _CHUNK * (p - 1) ** 2 + p < 2**53 - 2**22


def test_letter_products_stay_exact_past_one_chunk(monkeypatch):
    # A level whose product table is wider than _CHUNK: n = 46, m = 4 has
    # n^(m//2) = 2116 terms per sum, and 46^4 tuples, more than the tuple
    # limit allows. Only tables of that width are built, over R = 3
    # orbits, the first two columns one run. The residues are odd or random
    # and all close to p, so an unchunked float64 sum would pass 2^53 with
    # odd partial sums and round.
    n, m = 46, 4
    width = n ** (m // 2)
    assert width > _CHUNK
    assert width * (int(_PRIMES[0]) - 2) ** 2 > 2**53
    rng = np.random.default_rng(5)
    size = 3
    table = rng.integers(0, size, (size, width))
    table[1] = table[0]
    letter_table = rng.integers(0, size, (size, width))
    runs = [(0, 2), (2, 3)]
    near_top = (_PRIMES - 2)[:, None, None]
    rows = np.broadcast_to(near_top, (2, 2, size)).copy()
    letters = np.broadcast_to(near_top, (2, size, 2)).copy()
    rows[:, 1] -= rng.integers(0, 1000, (2, size))
    letters[..., 1] -= rng.integers(0, 1000, (2, size))

    def exact() -> np.ndarray:
        out = np.zeros((2, 2, 2, size), dtype=object)
        for k, p in enumerate(int(q) for q in _PRIMES):
            for x, i, j in itertools.product(range(size), range(2), range(2)):
                total = sum(
                    int(rows[k, i, table[x, w]]) * int(letters[k, letter_table[x, w], j])
                    for w in range(width)
                )
                out[k, i, j, x] = total % p
        return out

    want = exact()
    got = _apply_letters(rows, letters, (table, letter_table, runs))
    assert np.array_equal(got.astype(np.int64), want.astype(np.int64))
    # Slicing the columns for a small element budget changes nothing.
    monkeypatch.setattr(closure_module, "_ELEMENT_BUDGET", 1000)
    got = _apply_letters(rows, letters[..., ::-1], (table, letter_table, runs))
    assert np.array_equal(got.astype(np.int64), want[:, :, ::-1].astype(np.int64))


# ---------------------------------------------------------------------------
# Orbit levels and op tables against the digit-table construction.
#
# The engine computes them from tuple codes by integer arithmetic. The
# functions below are the digit-table construction it replaced, kept
# verbatim as the reference: every m-tuple as a row of m digits, gathers
# by deleting, inserting and permuting digit columns.


def _digit_table(n: int, m: int, codes: np.ndarray) -> np.ndarray:
    if m == 0:
        return np.zeros((len(codes), 0), dtype=np.int64)
    weights = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // weights[None, :]) % n


class DigitLevel:
    """Orbit structure of the automorphism group acting on m-tuples."""

    __slots__ = ("n", "m", "size", "reps", "R", "orbit_dense", "digits", "weights")

    def __init__(self, n: int, m: int, gens: list[np.ndarray]):
        self.n = n
        self.m = m
        self.size = n**m
        codes = np.arange(self.size, dtype=np.int64)
        self.weights = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
        labels = codes
        if gens and m > 0:
            digits_all = _digit_table(n, m, codes)
            perms = [g[digits_all] @ self.weights for g in gens]
            labels = codes.copy()
            changed = True
            while changed:
                changed = False
                for p in perms:
                    merged = np.minimum(labels, labels[p])
                    if not np.array_equal(merged, labels):
                        labels = merged
                        changed = True
                shortcut = labels[labels]
                if not np.array_equal(shortcut, labels):
                    labels = shortcut
                    changed = True
        self.reps = np.unique(labels)
        self.R = len(self.reps)
        self.orbit_dense = np.searchsorted(self.reps, labels).astype(np.int64)
        self.digits = _digit_table(n, m, self.reps)


def _build_op_tables(self) -> None:
    top, n = self.top, self.n
    self.rot_gather = []
    self.rev_gather = []
    for lv in self.levels:
        d = lv.digits
        if lv.m <= 1:
            idx = np.arange(lv.R, dtype=np.int64)
            self.rot_gather.append(idx)
            self.rev_gather.append(idx)
        else:
            rot_src = np.concatenate([d[:, -1:], d[:, :-1]], axis=1)
            self.rot_gather.append(lv.orbit_dense[rot_src @ lv.weights])
            self.rev_gather.append(lv.orbit_dense[d[:, ::-1] @ lv.weights])
    # incl_map[m]: build a level-m vector from one at m-1
    self.incl_map: list[tuple[np.ndarray, np.ndarray | None] | None] = [None]
    for m in range(1, top + 1):
        lv, below = self.levels[m], self.levels[m - 1]
        d = lv.digits
        mp = m - 1
        if mp % 2 == 0:
            cut = mp // 2
            src = np.delete(d, cut, axis=1)
            self.incl_map.append((below.orbit_dense[src @ below.weights], None))
        else:
            h = (mp + 1) // 2
            mask = d[:, h - 1] == d[:, h]
            src = np.delete(d, h, axis=1)
            self.incl_map.append((below.orbit_dense[src @ below.weights], mask))
    # expect_map[m]: build a level-m vector from one at m+1
    self.expect_map: list[tuple[np.ndarray, bool] | None] = []
    for m in range(top):
        lv, above = self.levels[m], self.levels[m + 1]
        d = lv.digits
        if m % 2 == 0:
            cut = m // 2
            tabs = [
                above.orbit_dense[np.insert(d, cut, l, axis=1) @ above.weights]
                for l in range(n)
            ]
            self.expect_map.append((np.stack(tabs, axis=1), True))
        else:
            h = (m + 1) // 2
            src = np.insert(d, h, d[:, h - 1], axis=1)
            self.expect_map.append((above.orbit_dense[src @ above.weights], False))
    self.expect_map.append(None)


def _mult_tables_for(self, m: int) -> tuple[np.ndarray, np.ndarray]:
    cached = self.mult_tables[m]
    if cached is not None:
        return cached
    lv = self.levels[m]
    n = self.n
    h = (m + 1) // 2
    f = m // 2
    wcodes = np.arange(n**f, dtype=np.int64)
    head = lv.digits[:, :h] @ (n ** np.arange(h - 1, -1, -1, dtype=np.int64))
    if f > 0:
        wd = _digit_table(n, f, wcodes)
        fw = n ** np.arange(f - 1, -1, -1, dtype=np.int64)
        rev_codes = wd[:, ::-1] @ fw
        tail = lv.digits[:, h:] @ fw
    else:
        rev_codes = wcodes
        tail = np.zeros(lv.R, dtype=np.int64)
    a_code = head[:, None] * (n**f) + wcodes[None, :]
    b_code = rev_codes[None, :] * (n ** (m - f)) + tail[:, None]
    if m % 2 == 1:
        b_code = b_code + lv.digits[:, h - 1][:, None] * (n**f)
    tables = (lv.orbit_dense[a_code], lv.orbit_dense[b_code])
    self.mult_tables[m] = tables
    return tables


def _jones_vec(self, m: int) -> np.ndarray:
    lv = self.levels[m]
    d = lv.digits
    if m % 2 == 0:
        ok = np.ones(lv.R, dtype=bool)
        for j in range((m - 2) // 2):
            ok &= d[:, j] == d[:, m - 1 - j]
    else:
        h = (m - 1) // 2
        ok = (d[:, h - 1] == d[:, h]) & (d[:, h] == d[:, h + 1])
        for j in range(h - 1):
            ok &= d[:, j] == d[:, m - 1 - j]
    return self._wrap(ok.astype(np.int64))


def op_table_graphs():
    graphs = [
        (path.stem, parse_graph(path.read_text())) for path in sorted(GRAPHS_DIR.glob("*.graph"))
    ]
    graphs = [(name, g) for name, g in graphs if g.n <= 8]
    graphs += [(f"edgeless-{n}", edgeless(n)) for n in range(1, 10)]
    graphs += [(f"complete-{n}", complete(n)) for n in range(1, 10)]
    graphs += [(f"oriented-{n}", oriented_n_gon(n)) for n in (4, 5, 6)]
    # Graphs with more than one vertex orbit, whose level-1 tables are not
    # trivial.
    path = ["edge c 0 1", "edge c 1 2", "edge c 2 3"]
    graphs += [
        ("path-4", graph_from_lines(4, path)),
        ("triangle-and-arc", graph_from_lines(5, path[:2] + ["edge c 0 2", "arc a 3 4"])),
    ]
    return graphs


def test_op_tables_match_the_digit_table_construction():
    top = 4
    for name, g in op_table_graphs():
        aut = automorphism_group(g)
        engine = closure_module._Engine(g, top)
        gens = [np.asarray(p, dtype=np.int64) for p in aut.generators]
        ref = SimpleNamespace(
            n=g.n, top=top, levels=[DigitLevel(g.n, m, gens) for m in range(top + 1)],
            mult_tables=[None] * (top + 1), _wrap=engine._wrap,
        )
        _build_op_tables(ref)
        assert closure_module._SOURCE == {"rot": 0, "star": 0, "incl": -1, "expect": 1}
        for m in range(top + 1):
            got, want = engine.levels[m], ref.levels[m]
            assert np.array_equal(got.reps, want.reps), (name, m)
            assert np.array_equal(got.orbit_dense, want.orbit_dense), (name, m)
            assert got.R == want.R
            for kind, want_gather in (("rot", ref.rot_gather[m]), ("star", ref.rev_gather[m])):
                gather, mask, summed = engine.ops[kind][m]
                assert (mask, summed) == (None, False), (name, kind, m)
                assert np.array_equal(gather, want_gather), (name, kind, m)
            for a, b in zip(engine._mult_tables_for(m), _mult_tables_for(ref, m)):
                assert np.array_equal(a, b), (name, m)
            if m >= 2:
                assert np.array_equal(engine._jones_vec(m), _jones_vec(ref, m)), (name, m)
        assert engine.ops["incl"][0] is None and ref.incl_map[0] is None
        for m in range(1, top + 1):
            gather, mask, summed = engine.ops["incl"][m]
            ref_gather, ref_mask = ref.incl_map[m]
            assert not summed, (name, m)
            assert np.array_equal(gather, ref_gather), (name, m)
            assert (mask is None) == (ref_mask is None), (name, m)
            assert mask is None or np.array_equal(mask, ref_mask), (name, m)
        assert engine.ops["expect"][top] is None and ref.expect_map[top] is None
        for m in range(top):
            gather, mask, summed = engine.ops["expect"][m]
            ref_gather, ref_summed = ref.expect_map[m]
            assert (mask, summed) == (None, ref_summed), (name, m)
            assert np.array_equal(gather, ref_gather), (name, m)


@pytest.mark.parametrize("name", ["path-4", "triangle-and-arc"])
def test_products_of_rows_match_spinplanar_mult(name):
    g = dict(op_table_graphs())[name]
    top = 4
    engine = closure_module._Engine(g, top)
    rng = random.Random(name)
    for m in range(top + 1):
        lv = engine.levels[m]
        a, b = (np.array([rng.randrange(-3, 4) for _ in range(lv.R)]) for _ in range(2))
        tuples = list(itertools.product(range(g.n), repeat=m))
        A, B = (
            SpinTensor(g.n, m, {t: GaussianRational.of(int(v[lv.orbit_dense[k]]))
                                for k, t in enumerate(tuples)})
            for v in (a, b)
        )
        want = mult(A, B)
        tables = engine._mult_tables_for(m)
        a, b = engine._wrap(a), engine._wrap(b)
        got = _apply_letters(a[:, None, :], b[:, :, None], tables)[:, 0, 0]
        # The star reverses a product, which _materialise uses when a block
        # has more letters than rows.
        starred = _apply_letters(
            engine._image("star", m, b)[:, None], engine._image("star", m, a)[..., None], tables
        )[:, 0, 0]
        assert np.array_equal(engine._image("star", m, starred), got), m
        for x, code in enumerate(lv.reps.tolist()):
            value = want[tuples[code]]
            assert value.im == 0 and value.re.denominator == 1
            assert got[:, x].tolist() == (int(value.re) % _PRIMES).tolist(), (m, x)


# ---------------------------------------------------------------------------
# Generated differential checks.


def test_fast_engine_matches_reference_on_generated_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def colored_graphs(draw):
        """n <= 4 vertices, 1-2 colors, each color edges or arcs; every
        pair gets at most one color."""
        n = draw(st.integers(1, 4))
        oriented = draw(st.lists(st.booleans(), min_size=1, max_size=2))
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

    # The reference works on all n^m coordinates, so level 3 is drawn for
    # n <= 3 only and n = 4 stops at level 2 (one level more made this
    # test 3-5 times slower). The two examples make sure both largest
    # cases run.
    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(colored_graphs(), st.integers(0, 3))
    @hypothesis.example(graph_from_lines(4, ["edge a 0 1", "arc b 1 2", "edge a 2 3"]), 2)
    @hypothesis.example(graph_from_lines(3, ["edge a 0 1", "arc b 1 2"]), 3)
    def check(g, level):
        level = min(level, 2 if g.n == 4 else 3)
        result = closure(g, ClosureConfig(max_level=level))
        top = len(result.buffered_dims) - 1
        assert result.dims == reference_closure(g, level, buffer=top - level)
        assert result.buffered_dims[: level + 1] == result.dims
        assert all(d <= r for d, r in zip(result.buffered_dims, result.orbit_counts))

    check()


def test_closure_matches_a_higher_engine_run_on_generated_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def colored_graphs(draw):
        """n <= 6 vertices, 1-2 colors, each color edges or arcs; every
        pair gets at most one color. In half the draws every vertex gets
        one of two block labels and a pair's color depends on its labels
        only, so that large groups, and levels that fall short of their
        orbit counts, come up often."""
        n = draw(st.integers(1, 6))
        oriented = draw(st.lists(st.booleans(), min_size=1, max_size=2))
        if draw(st.booleans()):
            block = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        else:
            block = list(range(n))
        choice: dict[tuple[int, int], tuple[int, bool]] = {}
        pairs: list[set[tuple[int, int]]] = [set() for _ in oriented]
        for i, j in itertools.combinations(range(n), 2):
            key = (min(block[i], block[j]), max(block[i], block[j]))
            if key not in choice:
                k = draw(st.integers(0, len(oriented)))
                choice[key] = (k, bool(k) and oriented[k - 1] and draw(st.booleans()))
            k, flip = choice[key]
            if k:
                forward = (block[i] <= block[j]) != flip
                pairs[k - 1].add((i, j) if forward else (j, i))
        comps = tuple(
            ColorComponent(f"c{k}", ORIENTED if o else UNORIENTED, frozenset(p))
            for k, (o, p) in enumerate(zip(oriented, pairs))
        )
        return ColoredGraph(n, comps)

    # closure() makes one run and reports its levels. An engine run one or
    # two levels higher can only raise a dim (module docstring); that it
    # raises none is what lets closure() stop at its own top. Levels up to
    # 3 on these inputs rarely fall short of their orbit counts, so level
    # 4 is drawn too, and most often. The level is lowered until n^top <=
    # 500 |Aut(X)| for the higher run (a five-vertex graph with no
    # symmetry took 23 s at top level 5, 3125 orbits). The rook's graph at
    # level 4 once needed the higher run, when only the lifted boxes and
    # cup-caps were level 4's letters
    # (test_rook_graph_is_certified_at_level_four_by_one_engine). The
    # examples are six-vertex graphs that reach level 4 with a run to
    # level 5: K33 with one side's triangle in a second color (|Aut| =
    # 36), and K33 with each side an oriented triangle (|Aut| = 18).
    k33 = [f"edge a {i} {j}" for i in range(3) for j in range(3, 6)]
    triangle = ["edge b 0 1", "edge b 1 2", "edge b 0 2"]
    arcs = [f"arc b {t + i} {t + (i + 1) % 3}" for t in (0, 3) for i in range(3)]

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        colored_graphs(), st.integers(0, 4).map(lambda k: 4 - k), st.integers(1, 2)
    )
    @hypothesis.example(graph_from_lines(6, k33 + triangle), 4, 1)
    @hypothesis.example(graph_from_lines(6, k33 + arcs), 4, 1)
    def check(g, level, extra):
        aut = automorphism_group(g)
        while level and g.n ** (level + extra) > 500 * aut.order:
            level -= 1
        result = closure(g, ClosureConfig(max_level=level))
        engine = closure_module._Engine(g, max(2, level + extra))
        engine.run()
        assert result.dims == engine.dims()[: level + 1]
        assert len(result.exact) == level + 1
        # R_m by Burnside's count, independent of the engine's levels.
        counts = [int(c) for c in classical_series_prefix(aut, len(result.orbit_counts))]
        assert result.orbit_counts == counts
        for m, exact in enumerate(result.exact):
            assert exact == (result.dims[m] == counts[m])

    check()
