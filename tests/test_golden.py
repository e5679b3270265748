"""Golden outputs: the CLI's stdout and exit code, pinned by sha256.

Each case runs `qsymgraph.cli.main` in-process and hashes the exit code
and stdout as "CODE\\nSTDOUT". The cases are `analyze FILE --json
--max-level 3` on every file in graphs/ but the seven slowest, and
`enumerate --max-vertices 8 --max-level 3 --json`. A change that alters
any dimension, classification or byte of the canonical JSON fails here;
if it means to, it says why and regenerates the table with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from qsymgraph.cli import main

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
SLOW = frozenset(
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

GOLDEN = {
    "complete-4": "ebf04ff82d92a9c638cf9eca57298a8238f650a8dc4cb14772aa02f04578ca02",
    "complete-5": "bed66bb3f671933193d3c7c8a354facf613823d17f88990dbafcadd2a0a6be1b",
    "complete-6": "bab3b7d171e5c314e3d57728b921467317015487c9bea351488997f2dca442b8",
    "complete-7": "ffbf27bc3731fb9571cdb49926c9a35fb445e6daf70de8ac1263f7792b48eb83",
    "complete-8": "c563b08894ec008d92c68e46158dde9cce312a8d5283743cdcf3c609eaed429c",
    "cube-complement": "f4ef66ca169b4c878769b94adb4aa69f94056c6530ce75198f25f7eeb63849dc",
    "cube": "0f5abac7e8590b7b2cac78009f62b97fe3fd28b4b7a6e73d9e88b3b74d269a8c",
    "discrete-torus": "79e570178ac5269ffe44bedec18162442d35af0229a4c15f7b40a5c2a5a774b0",
    "edgeless-4": "919cf3adb3fd2db4d10ca8d6cd6689a0d314260396d65807e8c49ee5c70c1224",
    "edgeless-5": "87c78ca18ba3b5cefb3da3098244a065769f444ca20f478dbe5fa7a62edab096",
    "edgeless-6": "574d2157091f82f4c9303e1d1834e0a5d1245f5700a9d8c786eda55dda6658aa",
    "edgeless-7": "eb69862c226a788be8fa2e3447693b8f256aa861bdf44c8e264e40ce06acfa68",
    "edgeless-8": "a7fb39f9a23690114742c03afb544a3e9c315f6bdb42dbef35fa8c0d64d8ff7b",
    "four-segments-complement": "775ed34c7f216dfade2a6b8237dd07bff72c2dec487b9a108d418a20a6ef3bb8",
    "four-segments": "2ce16e185d040a50aeac16f754f6966d7c7d82cfd06508ec6e7eaec6d0884658",
    "heptagon-complement": "cfeea042d91fff73a508643d4eba507e7e905ad74f536b31922b37e8e65ab4f6",
    "heptagon": "ac468e2e5fa08244f338747911ab81bcf8f7b844583ac242d84e46c355c02b52",
    "hexagon": "b796e897d0f3115e6767724325088b351cd43643c1549cc2acd3906757cae1f1",
    "k33": "cf93712af4313ef712a6d47ebec93866fa5485c50f7a4ced7dfaeb8293baad31",
    "k44": "313e6b2d3449b1ad48e82636f32e0177b9f557147a7360b781545a7228f01e29",
    "octahedron": "152a5fd9610509638b3df9252af3b4782cacdbe98f9e603722c77fef7cb3fd3c",
    "oriented-ngon-3": "f0374e4af2d4608ae0ea1ef0d387c31e9bae8f4918016ae83d6459b13477fb79",
    "oriented-ngon-4": "0328cb81eac9e9aec7a7609b7203523183d244051255f3ad59740211a5635a25",
    "oriented-ngon-5": "bf0b4506f599ec49dfc43fa34acfae5cf9308032d32aea055973dc736bb9eec9",
    "pentagon": "dd709892406069c1747d48ed8d35c0ecd5ba54c34c215476bad63106524da508",
    "point": "29a42414f2dedd69aeff3aa97dcc325cc638b0eeace540a35b2d4493d9fee132",
    "prism": "92ac733f082e9b78dbd711df71540c76289d5f1d0bd6282cbd618078339778eb",
    "segment": "02dd8854bfc559202a4965b642a4655233aaeef8e16cc315de557d65e73b4931",
    "square": "15beaed5669b0e48109a0548f46faf92f9aa4995d068b97a1db5b1ed9efc06f3",
    "three-points": "c98fdb28e40e3a73ca8294cf557436bfcdeb2da42f2e71e6266024d21bbfc643",
    "three-segments": "d8b033d69cf348e42aab55144834f952dc2b25425898db7afc136f1e8c39d37f",
    "triangle": "03e56a887df5883660917e56f02ba47e1fd32cb337253695cd5a5cdd0f9e5b9e",
    "two-points": "9d3054c1cd9d49e317d293fc25f012794cc67ebfbd55c77614add388e959d124",
    "two-segments": "ef4c2edf988100a5afbaf215479cf5f0fd1fd8fa40d66846a4a2c9242827182e",
    "two-squares-complement": "bb73bbe8e7d4700eb6d7bae2a5c7ee7d047ba1a36762b10cbb6561cc4bd44af6",
    "two-squares": "cfe865a63242319ba4a79986b71ea9ebeb4779f17dfe3fa5cee04ff8fde83631",
    "two-tetrahedra": "5fbce2e9c30c0ae6cb388632b02ac9caa3e4685e8aecc1ad21bc3f4436b5aa53",
    "two-triangles": "bca5b46e17b369f2a25fab0276fe7261edaeb69cd41751c3856aec6356329319",
    "enumerate-8": "0d111bef979ebab31c7bdda60f9a020397f35495c8a7099d7634cfc9c92466b2",
}


def cases() -> dict[str, list[str]]:
    out = {
        path.stem: ["analyze", str(path), "--json", "--max-level", "3"]
        for path in sorted(GRAPHS.glob("*.graph"))
        if path.stem not in SLOW
    }
    out["enumerate-8"] = ["enumerate", "--max-vertices", "8", "--max-level", "3", "--json"]
    return out


def digest(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode()).hexdigest()


def test_golden_cases_cover_the_graphs():
    assert len(GOLDEN) == 39
    assert set(GOLDEN) == set(cases())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(name):
    assert digest(cases()[name]) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, argv in cases().items():
        print(f'    "{name}": "{digest(argv)}",')
    print("}")
