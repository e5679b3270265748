"""Command-line surface: analyze graph files, print series, enumerate.

All machine output is canonical JSON: keys sorted, rationals rendered as
exact "p/q" strings, no floats, and a schema marker. Identical inputs
give byte-identical documents, which is why the stage timings shown in
the human rendering never enter the JSON.

Exit codes: 0 on success, 2 for usage or parse problems, 3 when a
resource cap cut the computation short (the partial report still prints).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .classify import CENSUS_MAX_N, Classification, classify, enumerate_homogeneous
from .closure import ClosureConfig, ResourceCapError, closure
from .graphs import (
    LOOP_SCREEN_LENGTH,
    ColoredGraph,
    GraphParseError,
    loop_rule_check,
    parse_graph,
)
from .series import (
    CubeSeries,
    CyclicGroupSeries,
    DihedralSeries,
    FussCatalan,
    PoincareSeries,
    tl_series,
)
from .symmetry import automorphism_group, fixed_point_histogram

SCHEMA = "qsymgraph/1"


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _frac(x: Fraction | int) -> str:
    return str(Fraction(x))


def _series_dict(s: PoincareSeries, terms: int) -> dict:
    r = s.radius()
    return {
        "formula": s.formula,
        "radius": None if r is None else _frac(r),
        "coefficients": [_frac(c) for c in s.prefix(terms)],
    }


def _classification_dict(c: Classification, terms: int) -> dict:
    d: dict = {
        "kind": c.kind,
        "description": c.describe(),
        "trail": list(c.trail),
    }
    if c.indices is not None:
        d["indices"] = list(c.indices)
    if c.generic is not None:
        d["generic"] = c.generic
    if c.n is not None:
        d["n"] = c.n
    if c.series is not None:
        d["series"] = _series_dict(c.series, terms)
    if c.prefix is not None:
        d["prefix"] = list(c.prefix)
    if c.factors:
        d["factors"] = [_classification_dict(f, terms) for f in c.factors]
    return d


def _graph_dict(g: ColoredGraph) -> dict:
    return {
        "n": g.n,
        "components": [
            {
                "label": c.label,
                "kind": c.kind,
                "pairs": len(c.pairs),
                "value": None if c.value is None else _frac(c.value),
            }
            for c in g.components
        ],
    }


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.max_level < 0:
        print("error: --max-level must be >= 0", file=sys.stderr)
        return 2
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        g = parse_graph(text)
    except GraphParseError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2

    cfg = ClosureConfig(max_level=args.max_level)
    warnings: list[str] = []
    timings: list[tuple[str, float]] = []

    t0 = time.perf_counter()
    aut = automorphism_group(g)
    transitive = aut.is_transitive()
    try:
        hist: dict[int, int] | None = fixed_point_histogram(aut)
    except ValueError:
        hist = None
        warnings.append(
            f"fixed-point histogram skipped: group order {aut.order} is too "
            "large to enumerate"
        )
    loops_ok, bad_len, bad_label = loop_rule_check(g)
    timings.append(("symmetry", time.perf_counter() - t0))

    t0 = time.perf_counter()
    classification: Classification | None = None
    capped = False
    try:
        classification = classify(g, cfg, no_closure=args.no_closure)
    except ResourceCapError as exc:
        warnings.append(f"classification stopped at a size cap: {exc}")
        capped = True
    timings.append(("classify", time.perf_counter() - t0))

    dims: list[int] | None = None
    t0 = time.perf_counter()
    if not args.no_closure and not capped:
        if (
            classification is not None
            and classification.prefix is not None
            and len(classification.prefix) == args.max_level + 1
        ):
            dims = list(classification.prefix)
        else:
            try:
                res = closure(g, cfg)
                dims = list(res.dims)
            except ResourceCapError as exc:
                warnings.append(f"closure skipped: {exc}")
                capped = True
    timings.append(("closure", time.perf_counter() - t0))

    terms = args.max_level + 1
    prefix: list[str] | None = None
    if dims is not None:
        prefix = [_frac(d) for d in dims]
    elif classification is not None:
        got = classification.series_prefix(terms)
        if got is not None:
            prefix = [_frac(c) for c in got]

    doc: dict = {
        "schema": SCHEMA,
        "kind": "analysis",
        "graph": _graph_dict(g),
        "automorphisms": {
            "order": aut.order,
            "transitive": transitive,
            "fixed_point_histogram": None
            if hist is None
            else {str(k): v for k, v in sorted(hist.items())},
        },
        "loop_rule": {
            "holds": loops_ok,
            "first_bad_length": bad_len,
            "label": bad_label,
        },
        "classification": None
        if classification is None
        else _classification_dict(classification, terms),
        "series": {
            "formula": None
            if classification is None or classification.series is None
            else classification.series.formula,
            "radius": _radius_str(classification),
            "prefix": prefix,
        },
        "closure": None
        if dims is None
        else {
            "levels": list(range(len(dims))),
            "dims": dims,
            # Fixed by the qsymgraph/1 schema.
            "converged": None,
        },
        "warnings": warnings,
    }

    if args.json:
        _emit_json(doc)
    else:
        _render_analysis(doc, timings)
    return 3 if capped else 0


def _radius_str(c: Classification | None) -> str | None:
    if c is None or c.series is None:
        return None
    r = c.series.radius()
    return None if r is None else _frac(r)


def _render_analysis(doc: dict, timings: list[tuple[str, float]]) -> None:
    g = doc["graph"]
    comps = ", ".join(
        f"{c['label']}: {c['kind']}, {c['pairs']} pairs" for c in g["components"]
    )
    print(f"graph: {g['n']} vertices, {len(g['components'])} color(s)"
          + (f" ({comps})" if comps else ""))
    a = doc["automorphisms"]
    print(
        f"automorphisms: order {a['order']}, "
        + ("transitive" if a["transitive"] else "not transitive")
    )
    if a["fixed_point_histogram"] is not None:
        shown = ", ".join(
            f"{k} -> {v}"
            for k, v in sorted(a["fixed_point_histogram"].items(), key=lambda p: int(p[0]))
        )
        print(f"fixed points: {shown}")
    lr = doc["loop_rule"]
    if lr["holds"]:
        print(f"loop rule: holds through length {LOOP_SCREEN_LENGTH}")
    else:
        print(
            f"loop rule: fails at length {lr['first_bad_length']} "
            f"in color {lr['label']}"
        )
    cls = doc["classification"]
    if cls is None:
        print("classification: not reached")
    else:
        print(f"classification: {cls['description']}")
        for line in cls["trail"]:
            print(f"  {line}")
    s = doc["series"]
    if s["formula"] is not None:
        radius = f"  [radius {s['radius']}]" if s["radius"] else ""
        print(f"series: {s['formula']}{radius}")
    if s["prefix"] is not None:
        print("prefix: " + ", ".join(s["prefix"]))
    c = doc["closure"]
    if c is not None:
        levels = f"levels 0..{c['levels'][-1]}"
        print("closure: dims " + ", ".join(str(d) for d in c["dims"]) + f" over {levels}")
    for w in doc["warnings"]:
        print(f"warning: {w}")
    shown = " | ".join(f"{name} {dt:.3f}s" for name, dt in timings)
    print(f"timings: {shown}")


# ---------------------------------------------------------------------------
# series


def _build_series(kind: str, params: list[int]) -> PoincareSeries:
    if kind == "cube":
        if params:
            raise ValueError("cube takes no parameter")
        return CubeSeries()
    if len(params) != 1:
        raise ValueError(f"{kind} takes exactly one integer parameter")
    (m,) = params
    if m < 1:
        raise ValueError(f"{kind} parameter must be a positive integer")
    if kind == "tl":
        return tl_series(m)
    if kind == "fc":
        return FussCatalan(m)
    if kind == "dihedral":
        return DihedralSeries(m)
    if kind == "cyclic":
        return CyclicGroupSeries(m)
    raise ValueError(f"unknown series kind {kind!r}")


def cmd_series(args: argparse.Namespace) -> int:
    try:
        series = _build_series(args.series_kind, args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    terms = args.terms + 1
    coeffs = series.prefix(terms)
    if args.json:
        doc = {
            "schema": SCHEMA,
            "kind": "series",
            "series": args.series_kind,
            "parameters": args.params,
            **_series_dict(series, terms),
        }
        _emit_json(doc)
    else:
        print("coefficients: " + " ".join(_frac(c) for c in coeffs))
        r = series.radius()
        print(f"radius: {_frac(r) if r is not None else 'unknown'}")
        print(f"formula: {series.formula}")
    return 0


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args: argparse.Namespace) -> int:
    if not 1 <= args.max_vertices <= CENSUS_MAX_N:
        print(f"error: --max-vertices must be between 1 and {CENSUS_MAX_N}", file=sys.stderr)
        return 2
    if args.max_level < 0:
        print("error: --max-level must be >= 0", file=sys.stderr)
        return 2
    cfg = ClosureConfig(max_level=args.max_level)
    report = enumerate_homogeneous(args.max_vertices, cfg)
    tally = report.class_tally()
    terms = args.max_level + 1
    if args.json:
        doc = {
            "schema": SCHEMA,
            "kind": "enumeration",
            "max_vertices": args.max_vertices,
            "total": report.total,
            "tally": tally,
            "graphs": [
                {
                    "n": e.n,
                    "edges": sorted(
                        sorted(p) for c in e.graph.components for p in c.pairs
                    ),
                    "degree": _degree(e.graph),
                    "classification": _classification_dict(
                        e.classification, terms
                    ),
                }
                for e in report.entries
            ],
        }
        _emit_json(doc)
        return 0
    for n, entries in sorted(report.per_n().items()):
        print(f"n={n}: {len(entries)} graph(s)")
        for e in entries:
            line = (
                f"  {e.graph.edge_count():2d} edges, {_degree(e.graph)}-regular: "
                f"{e.classification.describe()}"
            )
            print(line)
            if args.classify:
                for t in e.classification.trail:
                    print(f"      {t}")
    print(f"total: {report.total}")
    print("tally: " + ", ".join(f"{k}: {v}" for k, v in sorted(tally.items())))
    return 0


def _degree(g: ColoredGraph) -> int:
    """The degree of a census graph, which has one color or none."""
    return g.components[0].degree(0)[0] if g.components else 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymgraph",
        description="Exact quantum-symmetry invariants of finite colored graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a graph file and compute dims")
    p.add_argument("file", help="graph file (vertices/edge/arc/value directives)")
    p.add_argument("--max-level", type=int, default=4, metavar="M")
    p.add_argument("--no-closure", action="store_true",
                   help="skip the standalone dimension computation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("series", help="print closed-form series coefficients")
    p.add_argument("series_kind", choices=["tl", "fc", "dihedral", "cyclic", "cube"],
                   metavar="kind")
    p.add_argument("params", type=int, nargs="*", metavar="param")
    p.add_argument("--terms", type=int, default=8, metavar="K",
                   help="last coefficient index to print (default 8)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("enumerate",
                       help="vertex-transitive graphs up to a size, classified")
    p.add_argument("--max-vertices", type=int, default=8, metavar="N")
    p.add_argument("--max-level", type=int, default=4, metavar="M")
    p.add_argument("--classify", action="store_true",
                   help="show the provenance trail for every graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


# Built once per process: the build costs about 1 ms per main() call. Not an
# lru_cache, which cache-clearing callers (the benchmark clears them before
# each operation) would rebuild. parse_args leaves the parser unchanged.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
