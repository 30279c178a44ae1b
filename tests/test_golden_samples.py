"""Golden digests of seeded orbit samples.

The points of ``sample_orbit`` are pinned bit for bit: every family x
stratum with two seeded bases and 200 points each, drawn the way the
benchmark's ``orbit-atlas`` workload draws them, plus the point clouds of
one ``family_atlas``.  The digests were taken from the per-step
``expm`` loop that the batched evaluation replaced.  A new evaluation
must reproduce them; they are not regenerated.  They hold for the builds
they were taken with (numpy 2.4, scipy 1.17, OpenBLAS on x86-64); another
BLAS or libm may change last bits.
"""

import hashlib

import numpy as np

from orbiton import coadjoint as co, families, orbit_atlas as oa

SAMPLE_DIGESTS = {
    ("g411", "fixed-points", 0): "d124cf1c1598162cd3c9cc73b28db50c73f7f1107f1e8bbc4dad97d82f55855c",
    ("g411", "fixed-points", 1): "0e24848b9505c25aa2887c09ec53a27a7d81e1f492ce63f2637b63cd817d73ea",
    ("g411", "generic", 0): "eb49c18f57497834ba5484ebbfe312a897cc5598d911ad776e6f358909d3b07e",
    ("g411", "generic", 1): "a92177826fe0fa1c0345e7d9cae752d5b04e1ebd522b75e9258f52bf98390d8f",
    ("g412", "fixed-points", 0): "c92d24cbe6802967ba625f56b8e689aa480bb395c96b376bc0fade58ddaf07e4",
    ("g412", "fixed-points", 1): "f5f4f06b441f61a3081ea55bd87c4c071fa52915555f90d69a4bce63fc9eaebe",
    ("g412", "generic", 0): "a3454b1af103f09377ca8a7fe3891af9eee88eab3139b79e38ecfe4988e426fe",
    ("g412", "generic", 1): "3e9145043e0e289dbc0fda327e336e649e71baf1ad1e25ee2a3d5c132c696fb7",
    ("g421", "fixed-points", 0): "c02864eb0c045e5902b5c163eb11a1398c2da8a62a872bfdb40b40396fa7717d",
    ("g421", "fixed-points", 1): "8bc3b6834035154cb2a2a689ce4b6015eec4142d13c90b5ba4436154eceadbc8",
    ("g421", "generic", 0): "3753971db665fb118bd031237bac8fed715bf4879ceffaf6a4ea35b2625d8c4d",
    ("g421", "generic", 1): "b15b12c4ccc2d9db906e917e77241870a4d94b67750bacdd85c9c327a0ee0db4",
    ("g422", "fixed-points", 0): "e34a6327ea1cb051ad2ed201e319ee82f82eedfce519e41e6794d7f20b959d5e",
    ("g422", "fixed-points", 1): "a36b6ad2afeb4703c10d48eea09f3f9208ea640cb83eec4f7abd4177d6bc8f13",
    ("g422", "generic", 0): "6bde5153048e6dc1d93e423fda5fc31b58980fe8fbbbbe419d657b6f70b1d88e",
    ("g422", "generic", 1): "7afc730a60eebae876ab18df03eb5ce4d23193883256fbb4f0f207422d79d474",
    ("g423", "fixed-points", 0): "cffe9dda26a43b86156d44e6301e4e97300bde25ab0b7a6b9c4f532b6d12b16f",
    ("g423", "fixed-points", 1): "1497076f65a8540124e955824b900a5bc177f2550ad09d63803d565f982afd7b",
    ("g423", "generic", 0): "b678b74f693bf9924ccaa2194a8db65f96ab1c2d710c8d0cb7d314ecbdf78577",
    ("g423", "generic", 1): "8ed2cbfaca7d704d8cbb157c051361ea4e860c8b3090053ff7f29dcfd8ec437a",
    ("g424", "fixed-points", 0): "b0ac1e6ff687632f69c4d888f30fc0e82ccab03e2b9c9d35da6f8ac933e153c5",
    ("g424", "fixed-points", 1): "a84b90e6688d81e44306d1f550b795a8b67d0c4bfd608b2abc9bc79c50752d1e",
    ("g424", "generic", 0): "e3c82035823e5ff534a58a0b20120bcda9631cd830904fee1d59baf0869902b0",
    ("g424", "generic", 1): "014d041e0147dbf2d9a5541c9f2e0a28a7e09e9026098d6b0e17e345cef81572",
    ("g431", "fixed-points", 0): "56726678519292df2beaf5795f88f6468ca67a6e7be3d5a9fa745d808e515ffc",
    ("g431", "fixed-points", 1): "25e53b3c2bdd7f7c2cd4ecad3653fe7724758986fd840df4c32b12bd64fecbc5",
    ("g431", "generic", 0): "a700c16e96c6a4e348d4b2b7d628ba3135acd900a2d0c5a2e42474e5f3c158e9",
    ("g431", "generic", 1): "9cabe76a9ae8e8f99a42f85f32fc941586e05cc3dbf577ecde1e37a408e8a644",
    ("g432", "fixed-points", 0): "112a66f7ef768f3a6e66b009c0120c26752f1ba935fda8cb0f19ce4e3b1ca089",
    ("g432", "fixed-points", 1): "0b540818970d8f05d6b89ffdd3a7da017705714726fa08b0302542033c9a7a5b",
    ("g432", "generic", 0): "2ba6ab1a5f3c9677c75b9166326fd98232fd41680c73a384f032c7dbb92bfed0",
    ("g432", "generic", 1): "55fb9bc00521a20c3a406764731812e2bff742005f738b269913c32c23e9278c",
    ("g433", "fixed-points", 0): "c4ebfe5120610a5a561172b4fce58ad4393c11c5dcf6f830982731df8972f8ad",
    ("g433", "fixed-points", 1): "2dcee5455296214d538a8e9b66d2cdf5280dd44add38607d0dbeac57e4f258f4",
    ("g433", "generic", 0): "bc5699df920e2e3563c27ee6650350f520c541b8278c46281983fe5b71a096b4",
    ("g433", "generic", 1): "82a60cd568adf59a40a39abaf11ab88692e7ee9c3beee443ac0b00b0f0d4436d",
    ("g434", "fixed-points", 0): "4bd3fe75b5c125d912df3ca920ac812b7eee2bedf0a1c6ba5f860a851a0ad02a",
    ("g434", "fixed-points", 1): "9ee6aa67936bb9f9f8cfd7fdebb58bd8457b41d0a1240645447b6a50d776ecb8",
    ("g434", "generic", 0): "529356600ba5bf2c26d4c086e111e94ab7105ac5abd6e6756e74bd6f377d6bf6",
    ("g434", "generic", 1): "708b74986f8e77c39967ab6aa7f55eaa24c0cbbff9cf644c7dc44e47d73c25e1",
    ("g441", "fixed-points", 0): "39391577160307670bd888a556f6e3d1ef436e2c649fdb1daab48a3ae95f57f4",
    ("g441", "fixed-points", 1): "7721f9b9021db8c261a3493f201755c0e0d3059dfd4db5a7df76847a7e123fc3",
    ("g441", "cylinders", 0): "1a7365ee6e816a51768019f46861f675b1cd91a220f6388dac7c21ffd939bb74",
    ("g441", "cylinders", 1): "08ca6ec363489e2cce1ad313a54984b0e3d55b22dfa08a1b3a17d92967395463",
    ("g441", "paraboloids", 0): "0d097ae22c30657f242c5136b629f399e877c7e2894ba0259224e312302f58a2",
    ("g441", "paraboloids", 1): "6e5599ec8ebaee1fdca858cbf4133a65ba06e24e9e66168382f5309873e4587a",
    ("g442", "fixed-points", 0): "3741df2770970af9793bedf18cc246cd523c5bfc551b84e3cbae32fb417a110e",
    ("g442", "fixed-points", 1): "0c78ebe5fd745bb40ef50b383af61e4ce50b46a911222456dbcfa61e7520d554",
    ("g442", "half-planes-x", 0): "85480350c36ea08e70a241482e3b0427a140284da832e30d439d53de6db88313",
    ("g442", "half-planes-x", 1): "b445bf482c48d219b4c91c21ece391d19f071368576f9a7d655ebd55b09d24a8",
    ("g442", "half-planes-y", 0): "ecd6d61af7c9f58280b7c4be2834b383f13995189c8764626fc7b2dd429780b6",
    ("g442", "half-planes-y", 1): "e8b356d4aa709ff742acb28bfcea276d083ec42e5342ccc956d9d8161edcd347",
    ("g442", "hyperbolic-cylinders", 0): "0f6501e27514bd8d2263623f824cfa5ba74a58af1bef2976ace574d2bd517f5a",
    ("g442", "hyperbolic-cylinders", 1): "e90089c24dc876a750834726257f97f030bd625939b5f1c2fe95c4ed084995ba",
    ("g442", "hyperbolic-paraboloids", 0): "e2fd5bbff4129ec6c44e7a9607d714380284e61d87f4a4a4290e6c0046046e8f",
    ("g442", "hyperbolic-paraboloids", 1): "7b7f4d4d1c9e244803bbfdb944e6ec907b048cc22d404a047cc2efadda9e5d55",
}

ATLAS_G424_CLOUDS = (
    "c70393dfe106d39ed294bdd69ad0187d00923360c7aa4538c695f1e4caf18c48")


def _cases(seed=101):
    rng = np.random.default_rng(seed)
    for name in families.FAMILY_ORDER:
        params = families.default_params(name)
        g = families.build_family(name, *params)
        for stratum in oa.strata_names(name, params):
            for b in range(2):
                base = oa.random_base(name, stratum, rng, params)
                yield (name, stratum, b), g, base, int(rng.integers(2 ** 31))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sample_points_are_bit_identical():
    got = {key: _sha(co.sample_orbit(g, base, 200, seed=s).points.tobytes())
           for key, g, base, s in _cases()}
    assert set(got) == set(SAMPLE_DIGESTS)
    assert [k for k in SAMPLE_DIGESTS if got[k] != SAMPLE_DIGESTS[k]] == []


def test_atlas_clouds_are_bit_identical():
    atlas = oa.family_atlas("g424", cloud_points=10, seed=7)
    csvs = "".join(b["cloud_csv"] for st in atlas["strata"]
                   for b in st["bases"])
    assert _sha(csvs.encode()) == ATLAS_G424_CLOUDS
