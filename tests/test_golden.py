"""Golden outputs: the CLI's stdout and exit code, pinned by sha256.

Each case runs `qsymgraph.cli.main` in-process and hashes the exit code
and stdout as "CODE\\nSTDOUT". The cases are `analyze FILE --json
--max-level 3` (named FILE) and `analyze FILE --json` at the default
level (named default/FILE) on every file in graphs/, `enumerate
--max-vertices 8 --max-level 3 --json` and `enumerate --max-vertices 9
--json`. A change that alters any dimension, classification or byte of
the canonical JSON fails here; if it means to, it says why and
regenerates the table with

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
    "eight-wheel-complement": "555cbb2cf8c5ff0ce96cc1e6650597d0b47f73f44f9ee9634c0863f4831f9e09",
    "eight-wheel": "2ecbe9be04ca5226b78707c36cdcf22d1851fe67e02e8d7394e1f7515e008755",
    "four-segments-complement": "775ed34c7f216dfade2a6b8237dd07bff72c2dec487b9a108d418a20a6ef3bb8",
    "four-segments": "2ce16e185d040a50aeac16f754f6966d7c7d82cfd06508ec6e7eaec6d0884658",
    "heptagon-complement": "cfeea042d91fff73a508643d4eba507e7e905ad74f536b31922b37e8e65ab4f6",
    "heptagon": "ac468e2e5fa08244f338747911ab81bcf8f7b844583ac242d84e46c355c02b52",
    "hexagon": "b796e897d0f3115e6767724325088b351cd43643c1549cc2acd3906757cae1f1",
    "k33": "cf93712af4313ef712a6d47ebec93866fa5485c50f7a4ced7dfaeb8293baad31",
    "k44": "313e6b2d3449b1ad48e82636f32e0177b9f557147a7360b781545a7228f01e29",
    "nine-star-1": "98e5ca82c37648ac1208d5418a0a801a944e444c0c8387a7a666fb3376e3ee43",
    "nine-star-2": "ae7bbd0a1e07b73cfd694e405d39d3b3de2c1a1b8118f014ca24aca40562494e",
    "octagon-complement": "1bc1c50ff960107cafa798f3d723e6b0ad0df95caea39d6d0af206f86c0d536a",
    "octagon": "462ef258caeddb0b8d5e7670258d9e28f1f1cfdc167e175d0baf1fb9c1c418b2",
    "octahedron": "152a5fd9610509638b3df9252af3b4782cacdbe98f9e603722c77fef7cb3fd3c",
    "oriented-ngon-3": "f0374e4af2d4608ae0ea1ef0d387c31e9bae8f4918016ae83d6459b13477fb79",
    "oriented-ngon-4": "0328cb81eac9e9aec7a7609b7203523183d244051255f3ad59740211a5635a25",
    "oriented-ngon-5": "bf0b4506f599ec49dfc43fa34acfae5cf9308032d32aea055973dc736bb9eec9",
    "oriented-ngon-6": "b4a451d295f373c05eced089c1dd122ea345ec594a5f86c694b259486e48ca02",
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
    "default/complete-4": "0a8eeb14f0320e79299065355ca00c5ca3b1aa2dd1f9143fec20ec83e1df0113",
    "default/complete-5": "00488a40d7677922e7b57d2cb42e29ec61c294cd43ef36df085ce36bb4fdc609",
    "default/complete-6": "1025520557b27fda23ab1015d70ddae13a9a2bc93cbb681a504a47a0e74dc243",
    "default/complete-7": "76d6cd18b3a76c86d78a5a362f712b95cb3d735cc6230fec91fb57b28a52abc6",
    "default/complete-8": "7f9693216e5413e6c85a68e5afcffd5b185068790da97b68df41de1f8fac0f97",
    "default/cube-complement": "f63e9f3e9d2170d6166a73a944c1024cb14e1c9d6b8787b798e43f8bd558def3",
    "default/cube": "0200551a5c01c42794948c4c6c6143883184394535c83e5303f4e804c9d32fc5",
    "default/discrete-torus": "4fa00bd226f83e94e223e84a65b292f5498e9c5715eed0daaeed07f479458067",
    "default/edgeless-4": "e259f05c3e111b9b4a35ffcb15b8437330472954979811497250c4ab7329c389",
    "default/edgeless-5": "ab6aeaf918f14a986698f4b7cb5756f48342e95655959bef59ad613182fbcde0",
    "default/edgeless-6": "495dedbe7b59f77cfdfe67d10edb9f5ec12f4267265e9f24fa72ed30f03d1255",
    "default/edgeless-7": "f2e23e2ce8bba64bab7b8908af542cfeb1734c7206f232535fa83221dc6d42bc",
    "default/edgeless-8": "416a6ace1b7e5c2dde9c61a859a5dbeb1d5836257eefbeba7f3571edf109e56a",
    "default/eight-wheel-complement": "c24f2afa0e501552f2b72e8deda24c51789bf53177236d3677fb19994ca8cffa",
    "default/eight-wheel": "2f8de439466e51965c5f463507ee0ef70b362d9e009652dbd8d6029c47704ab3",
    "default/four-segments-complement": "e9eae8d97077136d48a32c18167ba5417f1d1fd34610ac7c2f472dd9a274b8c3",
    "default/four-segments": "b0cf4a0f663647c5edf1c9583d20cb3772c9e11fe2d337c01fc559dc2bb33ce7",
    "default/heptagon-complement": "5af7ff7f1df925146d9f9eb303f00fec71848bb2b97483ccdf1777b204ec71b0",
    "default/heptagon": "69b036e8ef2cd1d7a2f359eddc7fa45479dc6a883319323eaad8aadd98a942a5",
    "default/hexagon": "2b7a64533350124d543265bef51a3e5d0300b3dcc3a7850de864ab105df1cd35",
    "default/k33": "24b9fedc78bbfa74444a3d61555b94a475b2c649ee888f2742b2be8eba37453b",
    "default/k44": "1e01cca10baf5246cea09e0953a792b933960323ddd60287f06b5b91b5f0081d",
    "default/nine-star-1": "298d9ad3925bab9e6a9bc8ce51430b3a217ab4cbeed6564549c0d11106a4a8d9",
    "default/nine-star-2": "a9b25234445cfa209c8160b76c518c03a07ad4fbc9bd4cb2c33aa928e99545f0",
    "default/octagon-complement": "7784cb2b280e68cbce5427179ebd30eb99463c4ce09021b65ec3f264771e1b94",
    "default/octagon": "19727bdb564466956a0760abf5f2bba543624a062d558fc6bf40bb53ce4fad63",
    "default/octahedron": "15627cb39e8d9e86cf6e5bca9439f504713aedcd92a219b42924df8d797f2dd7",
    "default/oriented-ngon-3": "48bbdc1e2fc12fb4a649ab8cf7ab43177bbc1c58232d6278f68bb7fe379a7484",
    "default/oriented-ngon-4": "56eedc3179739d05480f463256b46676f6a711f705a85fb3af2f0954df6590a2",
    "default/oriented-ngon-5": "2bee54bd0a5f5704e24b1798b0aef716eadade9a3ecc7be2cff9d582e3aa3d14",
    "default/oriented-ngon-6": "7cbac240703d70372624257cc8a2cfd7691fcd87fe543de08329b772ab505d9b",
    "default/pentagon": "b16452e020b6d02ca1ffb513ee4b9775ccd45f56d6932fed095d8a34d43129ae",
    "default/point": "2c16ec2075d7eaa9e90fb287a13311827338ecd79d061cf30ce75bbff445069c",
    "default/prism": "a991138ca1a6614c4c700b60554bcb679c1d893ba03583f321b83727e31284e6",
    "default/segment": "ae669e1d9e933309b079f14491639230461406e9a2555e8e1ae3dbf2113b0004",
    "default/square": "84d4c8e62e8b5abff20a09de5fbc3ca19dfb44bc55fd03f3bd86ba82dd22d8d3",
    "default/three-points": "1a23a3a29fa60041a15c9106f552ee2a98c384747383288b0514575b60884817",
    "default/three-segments": "156d711df2ba7a26d9a1d1b5cf1a17b229143a344f91fbab63ac991cae2e4470",
    "default/triangle": "cc5237f6856b57371fb771da23c9682ad2ac6737e6af44133247477b594408af",
    "default/two-points": "6ffc945236f3283a651509df91aec0125488654d361fe1faa65ab628567cbf9a",
    "default/two-segments": "79bdba5358a2f85f882f53a80262664cb947621b7ef1d43141072bd15e7c438b",
    "default/two-squares-complement": "37cca320d4d882ef36708ecedf6b2e8081028058e41e08e5d6c6cae5b199c171",
    "default/two-squares": "05548b5f372ca7e769c729ade3b015a924559b1fef062383773121dd646e972c",
    "default/two-tetrahedra": "f452c2715343c1857eb2d3cdd84b687ad922990ba7d89e9dcff6f044cc99795c",
    "default/two-triangles": "140e1eb118c8df1cdbc32dcf3f127356f47ec878272d96597c54be420cf25355",
    "enumerate-9": "5333c0f6acec3dc1185af638e71232ca83dbe7f6cfa4aa9a1fe188ae7467fe97",
}


def cases() -> dict[str, list[str]]:
    out = {
        path.stem: ["analyze", str(path), "--json", "--max-level", "3"]
        for path in sorted(GRAPHS.glob("*.graph"))
    }
    out["enumerate-8"] = ["enumerate", "--max-vertices", "8", "--max-level", "3", "--json"]
    for path in sorted(GRAPHS.glob("*.graph")):
        out[f"default/{path.stem}"] = ["analyze", str(path), "--json"]
    out["enumerate-9"] = ["enumerate", "--max-vertices", "9", "--json"]
    return out


def digest(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode()).hexdigest()


def test_golden_cases_cover_the_graphs():
    assert len(GOLDEN) == 92
    assert set(GOLDEN) == set(cases())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(name):
    assert digest(cases()[name]) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, argv in cases().items():
        print(f'    "{name}": "{digest(argv)}",')
    print("}")
