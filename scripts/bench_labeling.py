"""Time the exact canonical labeler on a fixed corpus of graphs.

Corpora:
- census: the inputs one `enumerate --max-vertices 8` run labels: every
  regular completion `regular_graph_reps(n)` labels for n = 1..8, the
  complement of each vertex-transitive representative, and the
  completions and complements `product_factor_candidates` labels for 2
  and 4 vertices, the factor sizes the census reaches;
- n9, n10, n11: every `_regular_completions(n, k)` output, k ≤ (n−1)/2.

Per corpus the script prints, as JSON, the number of inputs, the number
of distinct keys, a sha256 of the sorted keys (each prefixed by its
vertex count, as `canonical_key` does, one hex line each) and the best
of REPEAT timings of `_least_key` over the whole corpus. The inputs are
built as neighbour bitmasks before timing, so these timings leave out
the conversion from a bool matrix (`np.packbits`) that the timings of
`BENCH_11.json` included. Run it on another checkout with
`--src CHECKOUT/src` to compare two versions on the same corpus:

    python3 scripts/bench_labeling.py [--src DIR]
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

REPEAT = 3


def masks(g) -> list[int]:
    """Neighbour bitmasks of a graph: bit j of masks(g)[v] is set when v ~ j."""
    nbr = [0] * g.n
    for c in g.components:
        for i, j in c.pairs:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    return nbr


def corpora(classify, complement, automorphism_group) -> dict[str, list[list[int]]]:
    def completions(n: int) -> list[list[int]]:
        return [nbr for k in range((n - 1) // 2 + 1) for nbr in classify._regular_completions(n, k)]

    def complements(reps) -> list[list[int]]:
        return [masks(complement(g)) for g in reps]

    census: list[list[int]] = []
    for n in range(1, 9):
        census += completions(n)
        reps = classify.regular_graph_reps(n)
        census += complements(g for g in reps if automorphism_group(g).is_transitive())
    for m in (2, 4):
        census += completions(m) + complements(classify.regular_graph_reps(m))
    out = {"census": census}
    for n in (9, 10, 11):
        out[f"n{n}"] = completions(n)
    return out


def measure(label, inputs: list[list[int]]) -> dict:
    keys = [bytes([len(nbr)]) + label(nbr) for nbr in inputs]
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        for nbr in inputs:
            label(nbr)
        best = min(best, time.perf_counter() - start)
    digest = hashlib.sha256("\n".join(k.hex() for k in sorted(keys)).encode()).hexdigest()
    return {
        "inputs": len(inputs),
        "classes": len(set(keys)),
        "keys_sha256": digest,
        "best_s": round(best, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    classify = importlib.import_module("qsymgraph.classify")
    from qsymgraph.graphs import complement
    from qsymgraph.symmetry import automorphism_group

    results = {
        name: measure(classify._least_key, inputs)
        for name, inputs in corpora(classify, complement, automorphism_group).items()
    }
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
