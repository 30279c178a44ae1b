"""Golden digests of seeded orbit samples.

The points of ``sample_orbit`` are pinned bit for bit: every family x
stratum with two seeded bases and 200 points each, drawn the way the
benchmark's ``orbit-atlas`` workload draws them, plus the point clouds of
one ``family_atlas``.

The digests were first taken from scipy's per-step ``expm``.  They were
re-pinned once, when the step exponentials moved to the batched Pade
kernel ``lie_core.expm``: its steps agree with scipy's to 1e-13 normwise
(``test_step_exponentials_match_scipy_expm``, which stays as the
reference), and the re-pinned points differ from the old ones by at most
4.9e-14 relative.  Any other change of evaluation must reproduce them.
They hold for the builds they were taken with (numpy 2.4, scipy 1.17,
OpenBLAS on x86-64); another BLAS or libm may change last bits.  The
points must not depend on the BLAS thread count
(``test_sample_points_do_not_depend_on_blas_threads``).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import orbiton
from orbiton import coadjoint as co, families, orbit_atlas as oa

SAMPLE_DIGESTS = {
    ("g411", "fixed-points", 0): "d124cf1c1598162cd3c9cc73b28db50c73f7f1107f1e8bbc4dad97d82f55855c",
    ("g411", "fixed-points", 1): "0e24848b9505c25aa2887c09ec53a27a7d81e1f492ce63f2637b63cd817d73ea",
    ("g411", "generic", 0): "4ff1bbf6f5b52f0d67a3852ca5136928e9013305d46b71ff0e8212669bfe2a8f",
    ("g411", "generic", 1): "8be6b553a9ff8ba6cce433248289555b8fca31bbeb43c98efc71299eaa066e46",
    ("g412", "fixed-points", 0): "c92d24cbe6802967ba625f56b8e689aa480bb395c96b376bc0fade58ddaf07e4",
    ("g412", "fixed-points", 1): "f5f4f06b441f61a3081ea55bd87c4c071fa52915555f90d69a4bce63fc9eaebe",
    ("g412", "generic", 0): "9e14915519f87377e56f050eae9df3fdeaf4ff26d018d834a362828eb5aad4ea",
    ("g412", "generic", 1): "50fac31cf0e6edc325c2f4b856baf1b51d329022d870752279ea236a42f4a660",
    ("g421", "fixed-points", 0): "c02864eb0c045e5902b5c163eb11a1398c2da8a62a872bfdb40b40396fa7717d",
    ("g421", "fixed-points", 1): "8bc3b6834035154cb2a2a689ce4b6015eec4142d13c90b5ba4436154eceadbc8",
    ("g421", "generic", 0): "a958d0f8c01e5f1b4ad3723fda29a3378c6eef50de1794dde9d7db513dc850ab",
    ("g421", "generic", 1): "8ceb998ce22418e7844f5a59294424fffbeeab26adab96af407f2792506378e0",
    ("g422", "fixed-points", 0): "7349f2837f375126403e1bb8a1ab559836ab6d2d505576d800edc42ae9539196",
    ("g422", "fixed-points", 1): "f474cb012b97e53ad9ccaf64ebaa86f51eadab7030fea230954a137de148604f",
    ("g422", "generic", 0): "bd4718a0b3e0555bf8be5d165c7fdd43b20525c577e7b6dbbb3538d9139d9657",
    ("g422", "generic", 1): "c2a93b254978c43663f99f7a0d287660eb4feff062b4a153cad5780c6acd0b51",
    ("g423", "fixed-points", 0): "aa4e7b0a36ed334cd68033ed6e426decfe5f8a052d6f5f33129fd03adcab4a48",
    ("g423", "fixed-points", 1): "6d3f6dc0601b2049b9459f78e3a299ebdc316985554018a7693b927f6fa29e75",
    ("g423", "generic", 0): "d572fb0f6029f4ba2e67c72abe80bdbeb620f66556f1ce7aace8699845750cdc",
    ("g423", "generic", 1): "e3f12131448081f8ef0ec47d564f62ecf64cc23c79ff5a8422c3848f1f4c674b",
    ("g424", "fixed-points", 0): "f6db8da8bbd8642d202f3cd5cebd5d84da7b9da6c49032b5e735c1c4bb292a8f",
    ("g424", "fixed-points", 1): "e3712efd41b0b9a426638e424de3321c21d342cfe77734e871b28dc8644bb583",
    ("g424", "generic", 0): "45cac11700eae218bef5eebb1c341509b380e0710df26f32b760418ee1aa5ead",
    ("g424", "generic", 1): "97c1e73cc3f120377bcd3de6e9a8fa78320b863dac568bcf635f475c4cd8ec52",
    ("g431", "fixed-points", 0): "d9701327f8638a8e889c2c48faf48774a76cdbd00b9bcb578fb359a86467255f",
    ("g431", "fixed-points", 1): "882dc14dc7e8011ad112e525dc770b6edec58d7ee827e25644d5a92d2a1f26ed",
    ("g431", "generic", 0): "ce4c20fcb5fce455fd2cc01474dbfba0be7ec7bffa864cd71900e13162d21edd",
    ("g431", "generic", 1): "26ae7a8cbf8b2e1a488c904b9cb03d7293a6b754ea55c1743e23cf4cb391a806",
    ("g432", "fixed-points", 0): "9b428ae791462e48c76ebdc08be1deaa88bd4d5c4c63994296c9792838c4ddcc",
    ("g432", "fixed-points", 1): "a10b8261693f1d3cda03425f28a5e7b8df6ae0227e293ed89ae21b517ecfc29e",
    ("g432", "generic", 0): "4f2f338a14e40f4e39119b9cc8eb1d130569bd29764de956bebd2c5de120f49c",
    ("g432", "generic", 1): "ef2250866d5976ffff4ede8d0ed9704a2adf3030020b9e810ee9e27576061829",
    ("g433", "fixed-points", 0): "3e95db0ffac31c799140afba4bf6b9fe55c394085878ac370e83b0cc45de9ed2",
    ("g433", "fixed-points", 1): "6027d9c0a8156558c1907b13ec0c07d8c46e39158a339f203c28c7265629b2cc",
    ("g433", "generic", 0): "0b5b87a6ce764fb4fb0c15fd98f903fbadc827690417058d10897c094a137b40",
    ("g433", "generic", 1): "aa15e296bf50ee8681a2ce327ff92631c4a0658566a938abfe08f46d5db0725f",
    ("g434", "fixed-points", 0): "6c731a8598a53ea1413f5949f46857db53a109b6b4d74083e04fb2ff60c3611e",
    ("g434", "fixed-points", 1): "7268bbefa02237047aee138178efa3d3f901bcbca4f2ea37d8ec666699222b2a",
    ("g434", "generic", 0): "5f355acf4266bcf7e66735501d999e2c5f06100c28c1a1ac7550c51f1ea10fe0",
    ("g434", "generic", 1): "53f25632c5f8ef2210120301996718d0eb1c62d27646d6ced4cf463ee9ce809a",
    ("g441", "fixed-points", 0): "dbbbd90c3a8c567cdea94b000d9f6a7e7bc797f3a487227172d934cafb3d48f6",
    ("g441", "fixed-points", 1): "61fde10b6f588691dfea45ceb4614d9e94d73a287d63dc386dfa77ff1b07dc98",
    ("g441", "cylinders", 0): "84fb695c5247b84e049020b002cb0b693255fcc6490ae216d70710d8d0cfb906",
    ("g441", "cylinders", 1): "e2ca1ac72c1b03d2aa141bb30fae58dc082e9358c731ca12dae1dbd1952cc456",
    ("g441", "paraboloids", 0): "9ecd7f50d42e27b666f718631b3f89a206c3d0d68d1ae76911cf510832e78180",
    ("g441", "paraboloids", 1): "dde91e6076377b3cf27f6896857dcbcc36fa67b3ae377afe91806c4f5d2893df",
    ("g442", "fixed-points", 0): "3741df2770970af9793bedf18cc246cd523c5bfc551b84e3cbae32fb417a110e",
    ("g442", "fixed-points", 1): "0c78ebe5fd745bb40ef50b383af61e4ce50b46a911222456dbcfa61e7520d554",
    ("g442", "half-planes-x", 0): "2b3499260819567bed6f649799f8d0888d3f4daefd15f0ae38950425819a6e77",
    ("g442", "half-planes-x", 1): "22f2dce34946bc2296b3a2ee4b8bbeed9534ad96ee4726d27311a7d975a87c9b",
    ("g442", "half-planes-y", 0): "567705e5b3e3540cc7f5f1b18158c52d3f3788602e1cc7c945d8d61424fcfa65",
    ("g442", "half-planes-y", 1): "abd7cad366d0e96fc1830e78daf67b202ce740dad6b75af662c340f81a19346c",
    ("g442", "hyperbolic-cylinders", 0): "038920576428afec63da8415a4a954b86120445c238074f15eb7290a9e0a553d",
    ("g442", "hyperbolic-cylinders", 1): "714273b929d7ee7de9ce0ba4dd0e0f0bc72f3c6d945e7577a8dcc5b68abb51a5",
    ("g442", "hyperbolic-paraboloids", 0): "8db1ee12e4c081b0636e1176504b0b5a8e34bfc3a8b25b63529799793af2785d",
    ("g442", "hyperbolic-paraboloids", 1): "6317e8879a84995b306fd5c6d0e478642398038327719deb398dbc9c304f454f",
}

ATLAS_G424_CLOUDS = (
    "0a0f9ec2a3b6a2d7a875eed108d26fd7007c48691d71f95c713b281852c9d53f")


def _cases(seed=101):
    rng = np.random.default_rng(seed)
    for name in families.FAMILY_ORDER:
        params = families.default_params(name)
        g = families.build_family(name, *params)
        for stratum in oa.strata_names(name, params):
            for b in range(2):
                base = oa.random_base(name, stratum, rng, params)
                yield (name, stratum, b), g, base, int(rng.integers(2 ** 31))


def _words(g, seed, n=200):
    """Generator indices and times of the n words sample_orbit draws."""
    rng = np.random.default_rng(seed)
    drawn = [co._draw_word(rng, g.dim, 2 * g.dim, 1.0) for _ in range(n)]
    return (np.array([i for i, _ in drawn]), np.array([t for _, t in drawn]))


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


def test_step_exponentials_match_scipy_expm():
    # Every step exponential behind the pinned samples, against scipy's
    # expm: normwise (1-norm) relative difference at most 1e-13 per step.
    worst = 0.0
    for key, g, base, s in _cases():
        idx, ts = _words(g, s)
        got = co._step_exponentials(g, idx, ts)
        want = expm(ts[..., None, None] * np.swapaxes(g.c, 1, 2)[idx])
        err = (np.abs(got - want).sum(axis=-2).max(axis=-1)
               / np.abs(want).sum(axis=-2).max(axis=-1))
        worst = max(worst, float(err.max()))
    assert worst <= 1e-13, worst


_CHILD = """
import json, sys
sys.path.insert(0, {tests!r})
from test_golden_samples import _cases, _sha
from orbiton import coadjoint as co
print(json.dumps({{"|".join(map(str, key)):
                   _sha(co.sample_orbit(g, base, 200, seed=s).points.tobytes())
                   for key, g, base, s in _cases()}}))
"""


def test_sample_points_do_not_depend_on_blas_threads():
    src = str(Path(orbiton.__file__).resolve().parents[1])
    script = _CHILD.format(tests=str(Path(__file__).resolve().parent))
    got = {}
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=300, check=True)
        got[threads] = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["1"] == got["2"]
    pinned = {"|".join(map(str, k)): v for k, v in SAMPLE_DIGESTS.items()}
    assert got["1"] == pinned
