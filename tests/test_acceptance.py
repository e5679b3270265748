"""End-to-end acceptance checks, one test per criterion.

Every test wraps its work in the `criterion` context manager, which
records a single pass/fail line (printed in the terminal summary block)
and enforces the runtime budget for that criterion. All numeric checks
are exact integer or exact rational comparisons; nothing here uses
floating point or tolerances.

Run with plain `pytest tests/test_acceptance.py`; the verdict lines
appear under "acceptance criteria" at the end.
"""
from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import conftest
import pytest

from qsymgraph.classify import (
    canonical_key,
    classify,
    cyclic_criterion,
    enumerate_homogeneous,
    landau_verify,
    product_test,
    regular_graph_reps,
)
from qsymgraph.closure import ClosureConfig, bounded_c1, closure
from qsymgraph.graphs import (
    ColoredGraph,
    complement,
    complete,
    cube,
    disjoint_copies,
    edgeless,
    eight_spoke_wheel,
    loop_rule_check,
    multi_simplex,
    n_gon,
    nine_star,
    oriented_n_gon,
    parse_graph,
    reverse,
    saturate,
)
from qsymgraph.linalg import ExactMatrix
from qsymgraph.scalars import CyclotomicElement, GaussianRational
from qsymgraph.series import (
    CubeSeries,
    CyclicGroupSeries,
    DihedralSeries,
    FussCatalan,
    HadamardProduct,
    tl_series,
)
from qsymgraph.symmetry import automorphism_group, classical_series_prefix
from reference_engine import (
    SpinTensor,
    expect,
    incl,
    mult,
    rotate,
    star,
)


@contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        conftest.acceptance_lines.append(
            f"criterion {num:02d} ({name}): FAIL after {elapsed:.1f}s"
        )
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget
    verdict = "PASS" if in_budget else "FAIL (over budget)"
    conftest.acceptance_lines.append(
        f"criterion {num:02d} ({name}): {verdict} in {elapsed:.1f}s"
        f" (budget {budget:.0f}s)"
    )
    assert in_budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def dims_of(g, max_level):
    return closure(g, ClosureConfig(max_level=max_level)).dims


def discrete_torus():
    edges = set()
    for x in range(3):
        for y in range(3):
            v = 3 * x + y
            for w in (3 * ((x + 1) % 3) + y, 3 * x + (y + 1) % 3):
                edges.add((min(v, w), max(v, w)))
    text = "vertices 9\n" + "".join(f"edge c {a} {b}\n" for a, b in sorted(edges))
    return parse_graph(text)


CENSUS_SIZES_TO_EIGHT = {1: 1, 2: 2, 3: 2, 4: 4, 5: 3, 6: 8, 7: 4, 8: 14}


def test_criterion_01_transitive_census():
    with criterion(1, "census of transitive graphs to eight vertices", 300.0):
        report = enumerate_homogeneous(8)
        assert report.total == 38

        sizes = {n: len(rows) for n, rows in report.per_n().items()}
        assert sizes == CENSUS_SIZES_TO_EIGHT

        keys = {canonical_key(e.graph) for e in report.entries}
        assert len(keys) == 38
        for e in report.entries:
            assert canonical_key(complement(e.graph)) in keys

        assert report.class_tally() == {
            "fuss_catalan": 27,
            "dihedral": 9,
            "tensor_product": 2,
        }


def test_criterion_02_point_set_towers():
    with criterion(2, "free towers over bare point sets", 30.0):
        assert dims_of(edgeless(4), 5) == [1, 1, 2, 5, 14, 42]
        three = dims_of(edgeless(3), 5)
        assert three == [1, 1, 2, 5, 14, 41]
        # The two towers agree through level 4 and split at level 5,
        # which is exactly what makes this pair worth computing.
        assert three[5] != 42
        assert dims_of(edgeless(2), 4) == [1, 1, 2, 4, 8]


def test_criterion_03_odd_and_even_cycles():
    with criterion(3, "pentagon and hexagon towers", 60.0):
        pentagon = dims_of(n_gon(5), 4)
        assert pentagon == [1, 1, 3, 13, 63]
        burnside = classical_series_prefix(automorphism_group(n_gon(5)), 5)
        assert pentagon == burnside

        hexagon = dims_of(n_gon(6), 4)
        assert hexagon == [1, 1, 4, 20, 112]
        closed_form = [Fraction(1)] + [
            Fraction(2 ** (k - 1) + 6 ** (k - 1), 2) for k in range(1, 5)
        ]
        assert hexagon == closed_form


def test_criterion_04_cube_tower_is_a_product():
    with criterion(4, "cube tower equals a coefficientwise product", 120.0):
        dims = dims_of(cube(), 4)
        assert dims == [1, 1, 4, 20, 112]
        pair = HadamardProduct(tl_series(4), tl_series(2))
        assert dims == pair.prefix(5)
        assert dims == CubeSeries().prefix(5)


def test_criterion_05_four_by_four_simplex():
    with criterion(5, "four by four simplex tower", 120.0):
        dims = dims_of(multi_simplex(4, 4), 3)
        assert dims == [1, 1, 3, 12]
        assert dims == [Fraction(comb(3 * k, k), 2 * k + 1) for k in range(4)]


@pytest.mark.skipif(
    os.environ.get("QSYMGRAPH_STRETCH") != "1",
    reason="level-4 stretch check enabled by QSYMGRAPH_STRETCH=1",
)
def test_criterion_05_stretch_level_four():
    with criterion(5, "four by four simplex, level-4 stretch", 120.0):
        dims = dims_of(multi_simplex(4, 4), 4)
        assert dims == [1, 1, 3, 12, 55]


def test_criterion_06_two_squares_match_the_triple_simplex():
    with criterion(6, "two squares against the 2x2x2 simplex", 120.0):
        left = dims_of(disjoint_copies(2, n_gon(4)), 4)
        right = dims_of(multi_simplex(2, 2, 2), 4)
        assert left == right


def test_criterion_07_circulant_criterion():
    with criterion(7, "circulant eigenvalue criterion", 1.0):
        wheel = cyclic_criterion(eight_spoke_wheel())
        assert wheel.accepted
        three = CyclotomicElement.from_rational(8, 3)
        one = CyclotomicElement.from_rational(8, 1)
        minus_one = CyclotomicElement.from_rational(8, -1)
        root2_minus_1 = CyclotomicElement(
            8, (Fraction(-1), Fraction(1), Fraction(0), Fraction(-1))
        )
        minus_root2_minus_1 = CyclotomicElement(
            8, (Fraction(-1), Fraction(-1), Fraction(0), Fraction(1))
        )
        assert wheel.values == (
            three,
            root2_minus_1,
            one,
            minus_root2_minus_1,
            minus_one,
        )
        assert len(set(wheel.values)) == 5

        assert cyclic_criterion(nine_star(1)).accepted
        assert cyclic_criterion(nine_star(2)).accepted

        assert not cyclic_criterion(n_gon(4)).accepted

        tetra = cyclic_criterion(disjoint_copies(2, complete(4)))
        assert not tetra.accepted
        assert tetra.values[1] == tetra.values[2] == minus_one


def test_criterion_08_tensor_splitting():
    with criterion(8, "tensor splitting of cube and hexagon", 1.0):
        cube_verdict = product_test(cube(), complete(4), complete(2))
        assert cube_verdict.accepted
        assert cube_verdict.classification.series.prefix(5) == [1, 1, 4, 20, 112]

        hexagon_verdict = product_test(n_gon(6), complete(3), complete(2))
        assert hexagon_verdict.accepted

        torus_verdict = product_test(discrete_torus(), complete(3), complete(3))
        assert not torus_verdict.accepted
        assert "ratio" in torus_verdict.reason


def test_criterion_09_oriented_cycles():
    with criterion(9, "oriented cycles, group series equals tower", 30.0):
        for n in range(3, 7):
            g = oriented_n_gon(n)
            group = automorphism_group(g)
            series = classical_series_prefix(group, 4)
            assert series == [1] + [n ** (k - 1) for k in range(1, 4)]
            assert dims_of(g, 3) == series
            assert classify(g, ClosureConfig(max_level=2)).describe() == (
                f"CyclicGroup({n})"
            )


def random_tensor(rng, n, level, terms=6):
    data = {}
    for _ in range(terms):
        key = tuple(rng.randrange(n) for _ in range(level))
        value = GaussianRational.of(rng.randint(-4, 4), rng.randint(-4, 4))
        data[key] = data.get(key, GaussianRational.of(0)) + value
    return SpinTensor(n, level, data)


def test_criterion_10_property_suites():
    with criterion(10, "property suites", 120.0):
        # Averaging tower relations on both simplex shapes.
        for ns in ((2, 2, 2), (2, 3)):
            report = landau_verify(multi_simplex(*ns))
            assert report.all_pass, report.failures

        # Tangle identities with their recorded scalars.
        rng = random.Random(1010)
        for n, level in ((2, 1), (3, 2), (3, 3), (2, 4)):
            scalar = n if level % 2 == 0 else 1
            for _ in range(5):
                t = random_tensor(rng, n, level)
                u = random_tensor(rng, n, level)
                spun = t
                for _ in range(level):
                    spun = rotate(spun)
                assert spun == t
                assert expect(incl(t)) == t.scale(scalar)
                assert incl(mult(t, u)) == mult(incl(t), incl(u))
                assert star(mult(t, u)) == mult(star(u), star(t))
                assert star(star(t)) == t
            j = SpinTensor.jones(n, level) if level >= 2 else None
            if j is not None:
                assert mult(j, j) == j.scale(scalar)
        m = ExactMatrix(
            [
                [GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
                for _ in range(3)
            ]
        )
        assert star(SpinTensor.from_matrix(m)) == SpinTensor.from_matrix(m.adjoint())

        # Tower dimensions ignore presentation choices.
        pentagon = n_gon(5)
        base = dims_of(pentagon, 3)
        assert dims_of(complement(pentagon), 3) == base
        assert dims_of(saturate(pentagon), 3) == base
        perm = [3, 0, 4, 1, 2]
        shuffled = ColoredGraph(
            5,
            tuple(
                type(c)(
                    c.label,
                    c.kind,
                    frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in c.pairs),
                    c.value,
                )
                for c in pentagon.components
            ),
        )
        assert dims_of(shuffled, 3) == base
        oriented = oriented_n_gon(4)
        label = oriented.components[0].label
        assert dims_of(reverse(oriented, label), 3) == dims_of(oriented, 3)

        # Non-transitive regular graphs betray themselves: a loop count is
        # uneven by length six, and the certified level-1 bound exceeds one
        # with explicit witnesses.
        seen = set()
        non_transitive = 0
        for n in range(2, 9):
            for rep in regular_graph_reps(n):
                for g in (rep, complement(rep)):
                    key = canonical_key(g)
                    if key in seen:
                        continue
                    seen.add(key)
                    if automorphism_group(g).is_transitive():
                        continue
                    non_transitive += 1
                    loops_ok, _, _ = loop_rule_check(g)
                    assert not loops_ok
                    bound, certificates = bounded_c1(g)
                    assert bound >= 2
                    assert certificates
        assert non_transitive == 10

        # Exact radii of every closed form in play.
        assert tl_series(4).radius() == Fraction(1, 4)
        assert FussCatalan(2).radius() == Fraction(4, 27)
        for s in (1, 2, 3, 4):
            assert FussCatalan(s).radius() == Fraction(s**s, (s + 1) ** (s + 1))
        for n in (2, 3, 5, 8):
            assert DihedralSeries(n).radius() == Fraction(1, n)
            assert CyclicGroupSeries(n).radius() == Fraction(1, n)
        assert CubeSeries().radius() == Fraction(1, 8)


def test_criterion_11_transitive_census_to_nine_vertices():
    with criterion(11, "census of transitive graphs to nine vertices", 120.0):
        report = enumerate_homogeneous(9, ClosureConfig(max_level=3))
        sizes = {n: len(rows) for n, rows in report.per_n().items()}
        # OEIS A006799 gives 9 vertex-transitive graphs on nine vertices.
        assert sizes == {**CENSUS_SIZES_TO_EIGHT, 9: 9}

        keys = {canonical_key(e.graph) for e in report.entries}
        assert len(keys) == report.total == 47
        for e in report.entries:
            assert canonical_key(complement(e.graph)) in keys
