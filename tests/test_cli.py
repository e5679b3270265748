"""Command line behavior: output shapes, exit codes, stable JSON."""
from __future__ import annotations

import importlib
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from qsymgraph.cli import main
from qsymgraph.closure import ClosureConfig, closure
from qsymgraph.graphs import (
    complement,
    complete,
    disjoint_copies,
    loop_rule_check,
    n_gon,
    parse_graph,
    tensor_product,
    write_graph,
)

GRAPHS_DIR = Path(__file__).resolve().parent.parent / "graphs"


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.graph"
    path.write_text(write_graph(n_gon(5)))
    return str(path)


def test_analyze_human_readable(pentagon_file, capsys):
    assert main(["analyze", pentagon_file]) == 0
    out = capsys.readouterr().out
    assert "5 vertices" in out
    assert "order 10, transitive" in out
    assert "classification: Dihedral(5)" in out
    assert "prefix: 1, 1, 3, 13, 63" in out
    assert "timings:" in out


def count_group_searches(path, g, monkeypatch) -> tuple[int, int]:
    """The searches of one uncached group build of g, and those analyze
    makes on graphs of g's size (a classification may build the groups of
    smaller factor graphs too)."""
    symmetry = importlib.import_module("qsymgraph.symmetry")
    search = symmetry._isomorphism
    searches = []

    def counting_search(rel, *args):
        if len(rel.matrix) == g.n:
            searches.append(args)
        return search(rel, *args)

    monkeypatch.setattr(symmetry, "_isomorphism", counting_search)
    symmetry.automorphism_group.cache_clear()
    symmetry.automorphism_group.__wrapped__(g)
    one_build = len(searches)
    searches.clear()
    symmetry.automorphism_group.cache_clear()
    loop_rule_check.cache_clear()
    assert main(["analyze", path, "--json"]) == 0
    return one_build, len(searches)


def test_analyze_builds_the_automorphism_group_once(pentagon_file, monkeypatch):
    # The command line, classify and the closure engine all ask for the
    # group; analyze makes exactly the searches of one uncached build, and
    # screens the loop counts once.
    one_build, searches = count_group_searches(pentagon_file, n_gon(5), monkeypatch)
    assert one_build > 0
    assert searches == one_build
    assert loop_rule_check.cache_info().misses == 1


def test_analyze_builds_one_group_for_a_dense_graph_and_its_complement(monkeypatch):
    # classify works on the complement of a graph denser than half, the
    # cube, which it splits into factors on 4 and 2 vertices. The graph
    # and its complement share one group, built once for the cube.
    path = GRAPHS_DIR / "cube-complement.graph"
    g = parse_graph(path.read_text())
    one_build, searches = count_group_searches(str(path), complement(g), monkeypatch)
    assert one_build > 0
    assert searches == one_build


def test_analyze_json_is_stable_and_round_trips(pentagon_file, capsys):
    assert main(["analyze", pentagon_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", pentagon_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == "qsymgraph/1"
    assert doc["classification"]["description"] == "Dihedral(5)"
    assert doc["series"]["radius"] == "1/5"
    assert doc["closure"]["dims"] == [1, 1, 3, 13, 63]
    # Wall-clock numbers would break byte stability, so they stay out.
    assert "timings" not in doc


def test_analyze_no_closure_skips_dims(pentagon_file, capsys):
    assert main(["analyze", pentagon_file, "--no-closure", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closure"] is None


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file.graph"]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_bad_parse(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("vertices 3\nedge c 0 5\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "out of range" in err


def test_analyze_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("")
    assert main(["analyze", str(path)]) == 2


def test_analyze_twenty_vertices(tmp_path, capsys):
    path = tmp_path / "c5k4.graph"
    path.write_text(write_graph(tensor_product(n_gon(5), complete(4))))
    argv = ["analyze", str(path), "--no-closure", "--max-level", "2", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["automorphisms"]["order"] == 240
    assert doc["classification"]["kind"] == "unknown"
    assert any("not tried: 2 x 10" in line for line in doc["classification"]["trail"])


@pytest.mark.parametrize("copies, size", [(3, 6), (5, 5)], ids=["3c6", "5c5"])
def test_analyze_no_closure_skips_the_fallback_dims(copies, size, tmp_path, capsys, monkeypatch):
    # With dims, the raw closure of three hexagons takes about 3 s and
    # that of five pentagons about 2 s.
    def no_closure(*args, **kwargs):
        raise AssertionError("closure ran under --no-closure")

    for module in ("qsymgraph.classify", "qsymgraph.cli"):
        monkeypatch.setattr(importlib.import_module(module), "closure", no_closure)
    path = tmp_path / "copies.graph"
    path.write_text(write_graph(disjoint_copies(copies, n_gon(size))))
    assert main(["analyze", str(path), "--no-closure", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closure"] is None
    assert doc["classification"]["kind"] == "unknown"
    assert doc["classification"]["prefix"] == []
    assert "series: dims not computed, closures skipped" in doc["classification"]["trail"]


def test_analyze_five_pentagons_stops_at_the_cap(tmp_path, capsys):
    # The group has order 12,000,000; the full-cycle search used to hang.
    # Level 5 has 25^5 tuples, over the tuple limit.
    path = tmp_path / "5c5.graph"
    path.write_text(write_graph(disjoint_copies(5, n_gon(5))))
    assert main(["analyze", str(path), "--json", "--max-level", "5"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["automorphisms"]["order"] == 12_000_000
    assert doc["classification"] is None
    assert any("size cap" in w for w in doc["warnings"])


def noncrossing_partitions(m):
    """The set partitions of 0..m-1 with no a < b < c < d such that a, c
    share a block and b, d share another."""

    def partitions(points):
        if not points:
            yield []
            return
        for p in partitions(points[1:]):
            yield [[points[0]], *p]
            for i in range(len(p)):
                yield [*p[:i], [points[0], *p[i]], *p[i + 1 :]]

    def crossing(p):
        block = {x: i for i, b in enumerate(p) for x in b}
        return any(
            block[a] == block[c] != block[b] == block[d]
            for a, b, c, d in itertools.combinations(range(m), 4)
        )

    return [p for p in partitions(list(range(m))) if not crossing(p)]


def test_analyze_four_pentagons_gives_the_free_wreath_series(tmp_path, capsys):
    # For k >= 4 copies of a connected Y, G+(kY) is G+(Y) free wreath S_k+
    # (Bichon 2004), so c_m(kY) sums over the non-crossing partitions of m
    # points the product of c_|B|(Y) over the blocks B (Lemeux and Tarrago
    # 2016). At level 4 that is 63 + 4*13 + 2*9 + 6*3 + 1 = 152 for the
    # pentagon, below R_4 = 161.
    pentagon = closure(n_gon(5), ClosureConfig(max_level=4)).dims
    expected = [
        sum(math.prod(pentagon[len(b)] for b in p) for p in noncrossing_partitions(m))
        for m in range(5)
    ]
    assert [len(noncrossing_partitions(m)) for m in range(6)] == [1, 1, 2, 5, 14, 42]
    path = tmp_path / "4c5.graph"
    path.write_text(write_graph(disjoint_copies(4, n_gon(5))))
    assert main(["analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["closure"]["dims"] == expected


def test_analyze_resource_cap_partial_report(pentagon_file, capsys):
    # 5^9 tuples pass the tuple limit; the basis budget refuses level 9.
    code = main(["analyze", pentagon_file, "--max-level", "9"])
    assert code == 3
    out = capsys.readouterr().out
    assert "classification: Dihedral(5)" in out
    assert "warning" in out
    assert "over the budget" in out


@pytest.mark.parametrize(
    "flags",
    [["--max-level", "-1"], ["--max-level", "-3", "--json"], ["--max-level", "-3", "--no-closure"]],
)
def test_analyze_negative_levels_are_usage_errors(pentagon_file, flags, capsys):
    assert main(["analyze", pentagon_file, *flags]) == 2
    captured = capsys.readouterr()
    assert "must be >= 0" in captured.err
    assert captured.out == ""


def test_series_closed_forms(capsys):
    assert main(["series", "fc", "2", "--terms", "4"]) == 0
    out = capsys.readouterr().out
    assert "coefficients: 1 1 3 12 55" in out
    assert "radius: 4/27" in out

    assert main(["series", "tl", "4", "--terms", "5"]) == 0
    out = capsys.readouterr().out
    assert "coefficients: 1 1 2 5 14 42" in out
    assert "radius: 1/4" in out

    assert main(["series", "dihedral", "8", "--terms", "4"]) == 0
    out = capsys.readouterr().out
    assert "coefficients: 1 1 5 34 260" in out

    assert main(["series", "cube", "--terms", "4"]) == 0
    out = capsys.readouterr().out
    assert "coefficients: 1 1 4 20 112" in out
    assert "radius: 1/8" in out


def test_series_json(capsys):
    assert main(["series", "cyclic", "6", "--terms", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"] == ["1", "1", "6", "36"]
    assert doc["radius"] == "1/6"


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "fc", "0"],
        ["series", "fc"],
        ["series", "cube", "3"],
        ["series", "tl", "-2"],
    ],
)
def test_series_bad_parameters(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err != ""


def test_enumerate_single_vertex(capsys):
    assert main(["enumerate", "--max-vertices", "1"]) == 0
    out = capsys.readouterr().out
    assert "n=1: 1 graph(s)" in out
    assert "total: 1" in out
    assert "fuss_catalan: 1" in out


def test_enumerate_range_guard(capsys):
    assert main(["enumerate", "--max-vertices", "12"]) == 2
    assert "between 1 and 9" in capsys.readouterr().err
    assert main(["enumerate", "--max-vertices", "1", "--max-level", "-1"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_enumerate_json_round_trip(capsys):
    assert main(["enumerate", "--max-vertices", "3", "--max-level", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "qsymgraph/1"
    assert doc["total"] == 5
    ns = [entry["n"] for entry in doc["graphs"]]
    assert ns == [1, 2, 2, 3, 3]
    for entry in doc["graphs"]:
        assert "classification" in entry
        assert isinstance(entry["edges"], list)


def test_enumerate_classify_shows_trails(capsys):
    assert main(["enumerate", "--max-vertices", "2", "--classify"]) == 0
    out = capsys.readouterr().out
    assert "screen:" in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_repeated_calls_match_a_first_call(pentagon_file, capsys, monkeypatch):
    # main() reuses one parser for the whole process; interleaved calls,
    # a usage error among them, must each behave as a fresh process does.
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ["series", "fc", "3", "--terms", "4", "--json"],
        ["analyze", pentagon_file, "--max-level", "2", "--json"],
        ["analyze", pentagon_file, "--bogus"],
        ["enumerate", "--max-vertices", "3", "--max-level", "2"],
        ["series", "cube"],
    ]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = {}
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "qsymgraph.cli", *argv],
            capture_output=True,
            text=True,
        )
        first[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    assert first[tuple(runs[2])][0] == 2
    for argv in runs + runs[::-1] + runs:
        assert in_process(argv) == first[tuple(argv)], argv


def test_commands_never_import_numpy_ma():
    # np.unique imports numpy.ma (numpy 2.4), which costs a process about
    # 1.25 MiB resident and 10-15 ms; none of these commands may pull it in.
    runs = [
        ["analyze", str(GRAPHS_DIR / "cube.graph"), "--json"],
        ["analyze", str(GRAPHS_DIR / "oriented-ngon-5.graph"), "--json"],
        ["enumerate", "--max-vertices", "7", "--json"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from qsymgraph.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], False]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qsymgraph.cli", "series", "tl", "2", "--terms", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1 1 2 4 8" in proc.stdout
