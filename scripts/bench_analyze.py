"""Time `analyze`, `closure`, one `classify` and two of its rules on fixed
corpora.

Corpora:
- analyze: in-process `analyze FILE --json --max-level 3` on the 38 files
  of `graphs/` that the benchmark's `closure` workload analyzes (every
  file but the seven in SKIPPED), as `qsymgraph.cli.main` calls;
- closure: `closure` alone at level 3 on the same files;
- level4: `closure` at level 4 on the cube, the two squares and the
  octagon;
- level5: `closure` at level 5 on the cube and the two squares, whose
  level 5 has 816 and 616 orbits;
- rook: `classify` of K2 x (3 x 3 rook's graph), 18 vertices, at level 3
  without closures;
- random: `closure` at level 3 of two graphs with a trivial group, on 8
  and 10 vertices, each edge drawn with probability 0.4 from
  `random.Random(5)` (dims 1, 8, 64, 512 and 1, 10, 100, 1000, every level
  exact). Each level has n^m orbits, so the engine multiplies many rows
  and letters, and a block can mix the products of a new row with those
  of a new letter;
- small-groups: `closure` at level 4, as `analyze` runs it by default,
  of four graphs with |Aut(X)| = 2, so with several vertex orbits, whose
  level 4 takes the lifted boxes and cup-caps as letters:
  edges drawn as above from `random.Random(seed)`, seeds 1, 2 and 3 on 6
  vertices and seed 1 on 7 (648, 648, 776 and 1513 orbits at level 4,
  every level exact);
- cyclic: `cyclic_criterion` on the ten graphs of `graphs/` in CYCLIC,
  each as `classify` hands it on (the sparser of it and its complement):
  every file that reaches the rule is one of them or a complement;
- eigen: `rational_eigenvalues` of the adjacency matrices of the product
  rule's factor candidates on 2, 3 and 4 vertices (K2, K3, C4 and K4),
  the factor sizes the census reaches.

The package's lru caches are cleared before every call, so that each
call starts as cold as a fresh `qsymgraph` command. Per corpus the script
prints, as JSON, the number of inputs, a sha256 of the outputs (the
analyze exit codes and documents; the closure dims, buffered dims, orbit
counts and exact flags; the classification's kind, trail and factors;
the verdict's acceptance, reason and values; the eigenvalues and split)
and the best of REPEAT timings of the whole corpus; the key peak_rss_mib
holds the process's peak resident memory (ru_maxrss) after every corpus
it ran, so run one corpus per process to read a corpus's peak. Run it
on another checkout with `--src CHECKOUT/src` to compare two versions on
the same corpus; `--corpus NAME` (repeatable) runs only the named corpora:

    python3 scripts/bench_analyze.py [--src DIR] [--corpus NAME ...]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

REPEAT = 3
ROOT = Path(__file__).resolve().parent.parent
SKIPPED = frozenset(
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
LEVEL4 = ("cube", "two-squares", "octagon")
LEVEL5 = ("cube", "two-squares")
RANDOM = (8, 10)
SMALL_GROUPS = ((6, 1), (6, 2), (6, 3), (7, 1))
CYCLIC = (
    "cube",
    "discrete-torus",
    "eight-wheel",
    "heptagon",
    "hexagon",
    "nine-star-1",
    "nine-star-2",
    "octagon",
    "pentagon",
    "prism",
)
CORPORA = [
    "analyze", "closure", "level4", "level5", "rook", "random", "small-groups", "cyclic", "eigen"
]


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "qsymgraph" or name.startswith("qsymgraph."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith(
                    "qsymgraph"
                ):
                    value.cache_clear()


def corpora(names: list[str]) -> dict:
    """Per corpus, a list of calls, each returning its output as text."""
    cli = importlib.import_module("qsymgraph.cli")
    from qsymgraph.classify import classify, cyclic_criterion, product_factor_candidates
    from qsymgraph.closure import ClosureConfig, closure
    from qsymgraph.graphs import (
        complement,
        complete,
        denser_than_half,
        incidence,
        parse_graph,
        tensor_product,
    )
    from qsymgraph.linalg import rational_eigenvalues

    def graph(name: str):
        return parse_graph((ROOT / "graphs" / f"{name}.graph").read_text())

    def analyze(path: Path):
        def call() -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["analyze", str(path), "--json", "--max-level", "3"])
            return f"{code}\n{out.getvalue()}"

        return call

    def dims(g, level: int):
        cfg = ClosureConfig(max_level=level)

        def call() -> str:
            r = closure(g, cfg)
            return json.dumps([r.dims, r.buffered_dims, r.orbit_counts, r.exact])

        return call

    def rook() -> str:
        # Rook moves on a 3 x 3 grid: same row or same column.
        rows = [
            f"edge c {a} {b}"
            for a in range(9)
            for b in range(a + 1, 9)
            if a // 3 == b // 3 or a % 3 == b % 3
        ]
        x = tensor_product(complete(2), parse_graph("vertices 9\n" + "\n".join(rows)))
        c = classify(x, ClosureConfig(max_level=3), no_closure=True)
        return json.dumps([c.kind, list(c.trail), [f.describe() for f in c.factors]])

    def random_graph(n: int, seed: int = 5):
        rng = random.Random(seed)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [f"edge e {a} {b}" for a, b in pairs if rng.random() < 0.4]
        return parse_graph(f"vertices {n}\n" + "\n".join(edges) + "\n")

    def cyclic(name: str):
        g = graph(name)
        g = complement(g) if denser_than_half(g) else g

        def call() -> str:
            v = cyclic_criterion(g)
            return json.dumps([v.accepted, v.reason, [str(z) for z in v.values]])

        return call

    def eigen(f):
        m = incidence(f, f.components[0].label)

        def call() -> str:
            eigs, split = rational_eigenvalues(m)
            return json.dumps([sorted((str(e), k) for e, k in eigs.items()), split])

        return call

    files = sorted(p for p in (ROOT / "graphs").glob("*.graph") if p.stem not in SKIPPED)
    out = {
        "analyze": [analyze(p) for p in files],
        "closure": [dims(parse_graph(p.read_text()), 3) for p in files],
        "level4": [dims(graph(name), 4) for name in LEVEL4],
        "level5": [dims(graph(name), 5) for name in LEVEL5],
        "rook": [rook],
        "random": [dims(random_graph(n), 3) for n in RANDOM],
        "small-groups": [dims(random_graph(n, seed), 4) for n, seed in SMALL_GROUPS],
        "cyclic": [cyclic(name) for name in CYCLIC],
        "eigen": [eigen(f) for m in (2, 3, 4) for f in product_factor_candidates(m)],
    }
    return {name: out[name] for name in names}


def measure(calls: list) -> dict:
    outputs: list[str] = []
    best = float("inf")
    for _ in range(REPEAT):
        outputs.clear()
        elapsed = 0.0
        for call in calls:
            clear_caches()
            start = time.perf_counter()
            outputs.append(call())
            elapsed += time.perf_counter() - start
        best = min(best, elapsed)
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    return {"inputs": len(calls), "outputs_sha256": digest, "best_s": round(best, 4)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--corpus", action="append", choices=CORPORA)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    names = args.corpus or CORPORA
    results = {name: measure(calls) for name, calls in corpora(names).items()}
    results["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
