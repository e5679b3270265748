"""Time the exact canonical labeler on a fixed corpus of graphs.

Corpora:
- census: the inputs one `enumerate --max-vertices 8` run labels: every
  regular completion `regular_graph_reps(n, triangle_screen=True)` keeps
  for n = 1..8, those whose vertices all lie on the same number of
  triangles (22 of 46), the complement of each vertex-transitive
  representative, and the completions and complements
  `product_factor_candidates` labels for 2 and 4 vertices, the factor
  sizes the census reaches, unscreened;
- n8, n9, n10, n11: every `_regular_completions(n, k)` output,
  k ≤ (n−1)/2.

Per corpus the script prints, as JSON, the number of inputs, the number
of distinct keys, a sha256 of the sorted keys (each prefixed by its
vertex count, as `canonical_key` does, one hex line each) and the best
of REPEAT timings of `_least_key` over the whole corpus. The inputs are
built as neighbour bitmasks before timing, so these timings leave out
the conversion from a bool matrix (`np.packbits`) that the timings of
`BENCH_11.json` included. The corpora are built by the script's own
triangle screen, so two versions label the same inputs. Run it on
another checkout with `--src CHECKOUT/src` to compare two versions on
the same corpus:

    python3 scripts/bench_labeling.py [--src DIR]

Under "screen", for n = 8..11, it prints the number of completions the
triangle screen keeps and, when the package has its own screen
(`classify._even_triangles`), the best of REPEAT timings of screening
the completions with it and labelling the ones kept, to set against the
n-corpus's best_s for labelling them all.
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


def even_triangles(nbr: list[int]) -> bool:
    """Whether every vertex lies on as many triangles as vertex 0."""

    def twice(nv: int) -> int:
        return sum((nbr[u] & nv).bit_count() for u in range(len(nbr)) if nv >> u & 1)

    first = twice(nbr[0])
    return all(twice(nv) == first for nv in nbr)


def completions(classify, n: int) -> list[list[int]]:
    return [nbr for k in range((n - 1) // 2 + 1) for nbr in classify._regular_completions(n, k)]


def corpora(classify, complement, automorphism_group) -> dict[str, list[list[int]]]:
    def complements(reps) -> list[list[int]]:
        return [masks(complement(g)) for g in reps]

    census: list[list[int]] = []
    for n in range(1, 9):
        census += [nbr for nbr in completions(classify, n) if even_triangles(nbr)]
        reps = classify.regular_graph_reps(n)
        census += complements(g for g in reps if automorphism_group(g).is_transitive())
    for m in (2, 4):
        census += completions(classify, m) + complements(classify.regular_graph_reps(m))
    out = {"census": census}
    for n in (8, 9, 10, 11):
        out[f"n{n}"] = completions(classify, n)
    return out


def best_of(job) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        job()
        best = min(best, time.perf_counter() - start)
    return round(best, 4)


def screen(classify, inputs: list[list[int]]) -> dict:
    label, keep = classify._least_key, getattr(classify, "_even_triangles", None)
    out = {"kept": sum(map(even_triangles, inputs))}
    if keep is not None:
        out["screen_and_label_s"] = best_of(lambda: [label(nbr) for nbr in inputs if keep(nbr)])
    return out


def measure(label, inputs: list[list[int]]) -> dict:
    keys = [bytes([len(nbr)]) + label(nbr) for nbr in inputs]
    digest = hashlib.sha256("\n".join(k.hex() for k in sorted(keys)).encode()).hexdigest()
    return {
        "inputs": len(inputs),
        "classes": len(set(keys)),
        "keys_sha256": digest,
        "best_s": best_of(lambda: [label(nbr) for nbr in inputs]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    classify = importlib.import_module("qsymgraph.classify")
    from qsymgraph.graphs import complement
    from qsymgraph.symmetry import automorphism_group

    inputs = corpora(classify, complement, automorphism_group)
    results = {name: measure(classify._least_key, corpus) for name, corpus in inputs.items()}
    results["screen"] = {f"n{n}": screen(classify, inputs[f"n{n}"]) for n in range(8, 12)}
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
