"""Golden digests of the command reports and of the derived-series stages.

The test pins the sha256 of the bytes that ``orbiton`` writes for:

- ``classify --builtin NAME`` in json and text, for every builtin name;
- ``foliation``, ``atlas --family g442|g424 --format text``, ``kindex``,
  ``fredholm --format text`` and ``all --format text``;
- the json reports of ``foliation``, ``kindex``, ``fredholm``, ``all``,
  ``atlas --family g442`` with random bases and with ``--base 1,1,1,0``,
  and the csv of ``atlas --family g411 --bases 1 --samples 5``;

and the sha256 of the ``basis_matrix`` bytes of every ``derived_series``
stage, per family, over the family fixture and 20 seeded ``random_gl``
conjugations of it (seed 77).

The digests were taken before the derived series was cached on the
algebra object (the json and csv ones before each subcommand got one
registration and the atlas one base loop), and any later change of
evaluation must reproduce them.  The two ``foliation`` digests are the
one exception: they were re-pinned when ``check_tangency`` moved from
central differences to the exact Kirillov-row tangents, which changes
each ``max_tangency_residual`` (from about 1e-11 to below 1e-15).
The reports were byte-stable under one and two BLAS threads.  They hold
for the builds they were taken with (numpy 2.4, scipy 1.17, OpenBLAS on
x86-64); another BLAS or libm may change last bits.

``python tests/test_golden_reports.py`` prints the digests of the tree
on the path, in the form of the two dictionaries below.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from orbiton import cli, families
from orbiton import lie_core as lc

from conftest import family_fixtures, random_gl

REPORT_DIGESTS = {
    "classify --builtin abelian2 --format json":
        "fcb9566ba8f1c5a58ec7e63e1190ed87e9c833c758b9726b449a05583d9d41a5",
    "classify --builtin abelian2 --format text":
        "181151b4ed67f035a4ca7933f44dd4d1808cbb83da55a5c5b7980a70017d5f85",
    "classify --builtin abelian3 --format json":
        "362c12bf8c0758e37c196df7e3fb421743fcc37ff0811036d37fdd5993369d01",
    "classify --builtin abelian3 --format text":
        "83c36d78b457dd7dd37d1c7142714da33e4a50d242f6938c5e42aa3a49cae2d9",
    "classify --builtin abelian4 --format json":
        "c33ea895fecf8320670f3690e387ce0923ab94ee7402f96944b31bc088434c7a",
    "classify --builtin abelian4 --format text":
        "10dc59252272badb2f089750e73102c471f1e9c62829631668e6d1cd656efa8c",
    "classify --builtin aff-c --format json":
        "de73eec6e960a3161b940ea78eaf1e4910db2aff916ed0e0174155029270aae9",
    "classify --builtin aff-c --format text":
        "c78378c8e68c82be6beda736c0fc2b00d7a5c287b6a1884e42d1021309b2c89f",
    "classify --builtin aff-r --format json":
        "cd929c4745003888355375ae22298215f98f44a4a2cab8c72c79de7e4aafe8e7",
    "classify --builtin aff-r --format text":
        "cbfd4d87be89e49b85c9b1bb8225289cee05a0909bb9f11d6c533f04b0d6a345",
    "classify --builtin g411 --format json":
        "6d7e50b28d10ea4474ba4663a9743aef451e7aa73b349b2cad0474c7039e0ce2",
    "classify --builtin g411 --format text":
        "bd308cbe6f7f2915686f30a76bdbb24d7f7fa95b4b49187cab0c09cd4c3ec6e4",
    "classify --builtin g412 --format json":
        "fd1b7c263899b2b0038233d996b32498528f604842e307d762110ad9350c3a1f",
    "classify --builtin g412 --format text":
        "941ac5e1eff16f1c3780e534e2ff3eeb52943f53c5b63049ea7fbb0bbcdd8be2",
    "classify --builtin g421 --format json":
        "d1a049212f1da3f12fff8da499a99749eddca38852e75dd368eca47427e1fc2d",
    "classify --builtin g421 --format text":
        "5952aecd750cbcc50258b129a2db9c818873134e9eac649b8599502dc81f492f",
    "classify --builtin g422 --format json":
        "adec6f00eb4a7df1a6e4d1fa32ddcc6e502ee7fa4e8879f298041ee8e87b15ec",
    "classify --builtin g422 --format text":
        "20795173c0f2c7448fc9d8e65371be314ffd27721a1aa4621f5f53aa008c4def",
    "classify --builtin g423 --format json":
        "c9f9a86164146527fa68c19a4df603f70a9db09415429d714f401a80a0f9cc61",
    "classify --builtin g423 --format text":
        "8009e15e9db44c07f0a6574f314e2b695e12604bf826f2a4f80cae1fb0a8053b",
    "classify --builtin g424 --format json":
        "95dedf6d051490ff9e22fe83ddba88197ddd21f6b6a8f8e17549f9d348bcfc12",
    "classify --builtin g424 --format text":
        "5080585dcc120f8ede7b9b32a1f1abea7ad25096cc40878f630758d0704d228b",
    "classify --builtin g431 --format json":
        "a666c714d2ac403921969568aa9a5b159f485de1099434c3f5aa8d6a809d2f00",
    "classify --builtin g431 --format text":
        "7844b11670eadebe46f35b73f76b49f5723363520e62b74487d724fdf5c4a1b5",
    "classify --builtin g432 --format json":
        "1bff724c08c7e3b288dc0c0045d98244ade1622f53c929a01582cdaf8cfae33c",
    "classify --builtin g432 --format text":
        "1202078a47914b90310a9be6255ebba44a4199999e2a5d09b4ae38d0587d39d2",
    "classify --builtin g433 --format json":
        "93d4a232732458692adf8792292f261e7cb03b7f1ef2bd65c650e53a86390ada",
    "classify --builtin g433 --format text":
        "a1258233c950014f5da4ab2018b573c82b3fbeed7326079bfc39d81e0fe57c7e",
    "classify --builtin g434 --format json":
        "994c8b92e5a9625971768662163ff87fc310fe346e17c7fc5320eae15f8a8665",
    "classify --builtin g434 --format text":
        "6fa5bf8b3e652506f36747701c6c293d2842fec5b5e031c04db19b166a7dffaf",
    "classify --builtin g441 --format json":
        "30f37adac3e676a54c63a392071a8ea9f2ecfe6e5a04c400f329bce4bbe03b52",
    "classify --builtin g441 --format text":
        "dcc0ace83d147d6557a2ac6b64512c38f9f5e536d1eaf7cc6d8afd8c34d29ac2",
    "classify --builtin g442 --format json":
        "12bc254b52acf66ed463687ea5871623e276ddd649d94cc9b49e12a9997dd00d",
    "classify --builtin g442 --format text":
        "ff35cd5875bed6327581fc6303e2fa3271b8745d6871ff872fe391498c200556",
    "classify --builtin h3 --format json":
        "a6b1fc7cee548cae547a26e56232a6cd482b24234c62e4d83c61aefae3fdb314",
    "classify --builtin h3 --format text":
        "d217daa383facd5768c24e53a4ccd253258a4201f8691098b654254af0978293",
    "classify --builtin real-diamond --format json":
        "896dc695191a12cafffe15e411a404ac2c203f9d2fe9f37cbf0d8f8d07e5ae33",
    "classify --builtin real-diamond --format text":
        "64e937ded7e607e20872b0d9dd5c6b71f62d1f98cbceaa5a3778a084f5a3bf43",
    "foliation":
        "b035573f4c31ef02af84f1eaa7bb87f9867ecd957376774d4b30a854afc90ebf",
    "atlas --family g442 --format text":
        "3e91e2aa8ea77bbd956d7e6b7dcadcb99e3d96131cc5538aa5db9244399c25fd",
    "atlas --family g424 --format text":
        "d8a7e97d4fd2b6c55630569b76cf0ed1a03a57626ba5ab6a9e7e242acbffd484",
    "kindex":
        "6493a883940a48260744c7f1e82702afb1d4826a02ce356a0c116951fd9b5e27",
    "fredholm --format text":
        "1cbcc5f94cb4c4c75d642509098167fb04a3fc9042c81be89fc6b1de390fe02a",
    "all --format text":
        "2688217c2560c1d5dd6853fdab347ff2e74eff894aa094396860799a1453eb47",
    "atlas --family g442 --format json":
        "f78f41f851a5fd53533062e3384d282faecc74c8de835a1ed44ea8ad6ccb77cc",
    "atlas --family g442 --base 1,1,1,0 --samples 50 --format json":
        "20f71316b8387e8eff62e48a4538fc19e0e376cb7e0f10e6a1cdc54b38d14001",
    "atlas --family g411 --bases 1 --samples 5 --format csv":
        "9671c7f1a8a9c2ac06f1c1ad941956f1c4ae8e3dd20bde13ba7504e6141bf3d8",
    "foliation --format json":
        "ed329aab114dfc2b4618f5099a0e32b48053d927c8da2c32d4d5da21e3adea40",
    "kindex --format json":
        "78f03a542603b9ab672731e9ebc66b124ed4aa140917d0942a72c122feaf0661",
    "fredholm --format json":
        "1c7b9108acedfd61563179084277f51f56a92453be3bddea2f6bc4bfc26f2dbd",
    "all --format json":
        "0810426f0371c0de0f26d789f4f72431ab2acd9b915faba32050f84bdfc968b1",
}

SERIES_DIGESTS = {
    "g411": "803d28611fc82020d90e3a96d3ef92f05332477b9e5bfe9515650ab84f441dd4",
    "g412": "e12505840f02180f6cd3779f11026705d80a6ae5e775d3821eaa97e308a56dab",
    "g421": "ad5acab4ef25f040e4b83ec0a8d8cf3b0b69697c516099e3181cd9af96721cc6",
    "g422": "b8ebc787e17d7b64db0dbf7408557fa117bd0466860b9c35a9dbef68eea9a265",
    "g423": "4981b2b9a06efc28c18facb47e07c2a262eb0f91db868a35b35cc4fae22cd586",
    "g424": "287fb3e5d831433eef9b678f6076019e2e99ca4ccc1ccd215321fa96d02f1bdf",
    "g431": "33cc358d299ff9a08e7d80aa91c066cd8c8674f8c440cea72ce8ea3da8fc478a",
    "g432": "482cd178de3a7d7d89a3ba3f3beaa76655010cd50edf6a142b75af69387cbcf2",
    "g433": "4bcae0a29106939e29dab7fe2f84869e80b39804a68106ed49216a298f853f8c",
    "g434": "f44d868c9802f6083b0953524709d044973e6334079fbb6ee334404862218a06",
    "g441": "402504e514b64c57f3d44119a034392e8e840a2d0fd794781c1621a09ca2d867",
    "g442": "3a266986259ee64766587d75f424a4fa725ae5a8058a6deb94887b9453a85efc",
}


def _report_argvs() -> list[tuple[str, ...]]:
    argvs = [("classify", "--builtin", name, "--format", fmt)
             for name in families.builtin_names() for fmt in ("json", "text")]
    return argvs + [
        ("foliation",),
        ("atlas", "--family", "g442", "--format", "text"),
        ("atlas", "--family", "g424", "--format", "text"),
        ("kindex",),
        ("fredholm", "--format", "text"),
        ("all", "--format", "text"),
        ("atlas", "--family", "g442", "--format", "json"),
        ("atlas", "--family", "g442", "--base", "1,1,1,0", "--samples", "50",
         "--format", "json"),
        ("atlas", "--family", "g411", "--bases", "1", "--samples", "5",
         "--format", "csv"),
        ("foliation", "--format", "json"),
        ("kindex", "--format", "json"),
        ("fredholm", "--format", "json"),
        ("all", "--format", "json"),
    ]


def _report_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _series_digest(g: lc.LieAlgebra) -> str:
    rng = np.random.default_rng(77)
    h = hashlib.sha256()
    for a in [g] + [lc.change_basis(g, random_gl(rng)) for _ in range(20)]:
        for stage in lc.derived_series(a)[0]:
            h.update(stage.basis_matrix.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv", _report_argvs(), ids=" ".join)
def test_report_bytes(argv):
    assert _report_digest(argv) == REPORT_DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("name, g", [(n, g) for n, _, g in family_fixtures()],
                         ids=[n for n, _, _ in family_fixtures()])
def test_derived_series_stage_bytes(name, g):
    assert _series_digest(g) == SERIES_DIGESTS[name]


if __name__ == "__main__":
    print("REPORT_DIGESTS = {")
    for argv in _report_argvs():
        print(f'    "{" ".join(argv)}":\n        "{_report_digest(argv)}",')
    print("}\n\nSERIES_DIGESTS = {")
    for name, _, g in family_fixtures():
        print(f'    "{name}": "{_series_digest(g)}",')
    print("}")
