"""The workloads of the qsymgraph benchmark and the checks on their outputs.

A workload is a fixed list of operations, called one pass. Each operation
calls qsymgraph through its public API (`closure`) or through its CLI
entry point (`qsymgraph.cli.main`, in-process), and comes with a check
of its output. Functions are looked up on their module at call time, so
that the tracer's wrappers are the ones called during a traced pass.

Why these workloads:

- census: `enumerate --max-vertices 8 --max-level 3 --json`. Canonical
  labeling (`regular_graph_reps`, `canonical_key` and the census's own
  relabelings) takes most of the time and closure a small share. Level 3,
  because at level 4 the two-squares closure would hide the labeler. The
  census has no input to vary, so the seed is only recorded.
- closure: every closure-heavy case in one workload, so that each run
  can be long enough to average out the host's slow swings in speed.
  Through `closure` with buffer 1: the hexagon at level 4 (R = 656 at
  level 5, saturated) and the two squares at level 3 (98 of 103 at
  level 4, not saturated) in the real-mode engine, and the oriented 5-
  and 6-gons at level 3 in its complex-mode branch; canonical labeling
  never runs in them. Through `analyze FILE --json --max-level 3` on the
  files of `graphs/`: many small and medium closures where per-call
  set-up counts, plus parsing, every classify rule, the automorphism
  group and fixed-point histogram, and the JSON writer. Left out: the two
  squares at level 4 (36 s), the oriented 4-gon at level 4 (its time
  moves by a factor of 4.6 with the vertex labeling, which would swamp
  any change between commits), the oriented 5-gon at level 4 (27 s) and
  the files in CORPUS_SKIPPED (2.8-5 s each).

For closure the seed picks a vertex relabeling
of every input graph and the order of the operations. Dims and
classifications do not depend on labels, so the checks still apply.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import expected

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qsymgraph  # noqa: E402

if not Path(qsymgraph.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"qsymgraph comes from {qsymgraph.__file__}, not {ROOT / 'src'}")

from qsymgraph.graphs import (  # noqa: E402
    UNORIENTED,
    ColorComponent,
    ColoredGraph,
    disjoint_copies,
    n_gon,
    oriented_n_gon,
    parse_graph,
    write_graph,
)

cli_module = importlib.import_module("qsymgraph.cli")
closure_module = importlib.import_module("qsymgraph.closure")

WORKLOADS = ("census", "closure")

CORPUS_SKIPPED = frozenset(
    {
        "eight-wheel",
        "eight-wheel-complement",
        "nine-star-1",
        "nine-star-2",
        "octagon",
        "octagon-complement",
        "oriented-ngon-6",
    }
)

CENSUS_SIZES = {1: 1, 2: 2, 3: 2, 4: 4, 5: 3, 6: 8, 7: 4, 8: 14}
CENSUS_TALLY = {"fuss_catalan": 27, "dihedral": 9, "tensor_product": 2}


@dataclass(frozen=True)
class Op:
    """One operation: `run` calls qsymgraph, `check` returns None when the
    output is right and otherwise says what is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def relabel(g: ColoredGraph, perm: list[int]) -> ColoredGraph:
    """The graph with vertex v renamed perm[v]."""
    comps = []
    for c in g.components:
        if c.kind == UNORIENTED:
            pairs = frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in c.pairs)
        else:
            pairs = frozenset((perm[i], perm[j]) for i, j in c.pairs)
        comps.append(ColorComponent(c.label, c.kind, pairs, c.value))
    return ColoredGraph(g.n, tuple(comps))


def hexagon_dims(level: int) -> list[int]:
    """(2^(k-1) + 6^(k-1)) / 2 for k >= 1, acceptance criterion 03."""
    return [1] + [(2 ** (k - 1) + 6 ** (k - 1)) // 2 for k in range(1, level + 1)]


def oriented_dims(n: int, level: int) -> list[int]:
    """n^(k-1) for k >= 1, acceptance criterion 09."""
    return [1] + [n ** (k - 1) for k in range(1, level + 1)]


def dims_check(want: list[int]) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        got = list(result.dims)
        return None if got == want else f"dims {got}, expected {want}"

    return check


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_module.main(argv)
    return code, out.getvalue()


def census_check(sizes: dict[int, int], tally: dict[str, int]) -> Callable[[object], str | None]:
    def check(output: tuple[int, str]) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        got = dict(Counter(g["n"] for g in doc["graphs"]))
        if doc["total"] != sum(sizes.values()):
            return f"total {doc['total']}, expected {sum(sizes.values())}"
        if got != sizes:
            return f"sizes {got}, expected {sizes}"
        if doc["tally"] != tally:
            return f"tally {doc['tally']}, expected {tally}"
        return None

    return check


check_census = census_check(CENSUS_SIZES, CENSUS_TALLY)


def analysis_check(dims: list[int], description: str) -> Callable[[object], str | None]:
    def check(output: tuple[int, str]) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        got_dims = doc["closure"]["dims"] if doc["closure"] else None
        got_desc = doc["classification"]["description"] if doc["classification"] else None
        if got_dims != dims:
            return f"dims {got_dims}, expected {dims}"
        if got_desc != description:
            return f"classification {got_desc!r}, expected {description!r}"
        return None

    return check


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one pass. Every relabelled input graph is written
    under workdir with write_graph; the same seed gives byte-identical
    files and the same operation order."""
    rng = random.Random(seed)

    def shuffled(name: str, g: ColoredGraph) -> Path:
        path = workdir / f"{name}.graph"
        path.write_text(write_graph(relabel(g, rng.sample(range(g.n), g.n))))
        return path

    def closure_op(name: str, g: ColoredGraph, level: int, want: list[int]) -> Op:
        h = parse_graph(shuffled(name, g).read_text())
        cfg = closure_module.ClosureConfig(max_level=level)
        return Op(f"{name}/L{level}", lambda: closure_module.closure(h, cfg), dims_check(want))

    if workload == "census":
        argv = ["enumerate", "--max-vertices", "8", "--max-level", "3", "--json"]
        return [Op("census/n8/L3", lambda: run_cli(argv), check_census)]
    if workload == "closure":
        ops = [
            closure_op("hexagon", n_gon(6), 4, hexagon_dims(4)),
            closure_op("two-squares", disjoint_copies(2, n_gon(4)), 3, expected.TWO_SQUARES_LEVEL3),
        ]
        ops += [
            closure_op(f"oriented-{n}", oriented_n_gon(n), 3, oriented_dims(n, 3))
            for n in (5, 6)
        ]
        for name, (dims, description) in sorted(expected.CORPUS_LEVEL3.items()):
            if name in CORPUS_SKIPPED:
                continue
            g = parse_graph((ROOT / "graphs" / f"{name}.graph").read_text())
            argv = ["analyze", str(shuffled(name, g)), "--json", "--max-level", "3"]
            ops.append(Op(name, lambda argv=argv: run_cli(argv), analysis_check(dims, description)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def warmup() -> list[Op]:
    """Small operations run before timing, so that no timed operation pays
    for the process's first calls (numpy's allocator growing its heap,
    first-use set-up). Their outputs are checked like any other."""
    small_census = ["enumerate", "--max-vertices", "6", "--max-level", "3", "--json"]
    sizes = {n: k for n, k in CENSUS_SIZES.items() if n <= 6}
    g = oriented_n_gon(4)
    cfg = closure_module.ClosureConfig(max_level=3)
    return [
        Op("warmup/census/n6/L3", lambda: run_cli(small_census),
           census_check(sizes, {"dihedral": 3, "fuss_catalan": 17})),
        Op("warmup/oriented-4/L3", lambda: closure_module.closure(g, cfg), dims_check(oriented_dims(4, 3))),
    ]
