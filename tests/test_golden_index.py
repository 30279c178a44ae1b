"""Golden digests of the Fredholm index data.

For both operators on the (6,1024) and (8,2048) rungs the test pins the
sha256 of ``IndexResult.to_json()`` (keys sorted), the sha256 of the raw
bytes of the ker vectors followed by the coker vectors, and the
iteration count.  The digests were taken before the Volterra kernel and
the parity sector were rebuilt without full-size temporaries; a new
assembly must reproduce them and they are not regenerated.

The index runs in a child process with one BLAS thread: a threaded
matrix-vector product may sum in another order, which moves the last bit
of a stability residual.  The digests hold for the builds they were
taken with (numpy 2.4, scipy 1.17, OpenBLAS on x86-64); another BLAS or
libm may change last bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import orbiton

INDEX_DIGESTS = {
    "6.0,1024,1": [
        "828849dace0724d4e7e072c1d72c064e218cd2466e514ec38ac596558f557a71",
        "0ba251668a5a896de3ee252436988e4b498e0cb28b627e3b63b701779b5bf7da",
        27],
    "6.0,1024,2": [
        "828849dace0724d4e7e072c1d72c064e218cd2466e514ec38ac596558f557a71",
        "413e6d7c1de4a1b79419f4bb0a0299c4be84ced7e6a22b94b1e185fe355a5350",
        27],
    "8.0,2048,1": [
        "d076958f83393316e2e5a1277989075e70cb428edfaaaaf4732ea5c6fbed4ff3",
        "9bcd3898b84b1049970f788aa9e01dba1a5cf6d202df832376f9e18167e06a6d",
        27],
    "8.0,2048,2": [
        "d076958f83393316e2e5a1277989075e70cb428edfaaaaf4732ea5c6fbed4ff3",
        "993276a3051fa94e4755010b825885b93c8e7e44c3952ae57756deb0d2d4aa87",
        27],
}

_CHILD = """
import hashlib, json
from orbiton import fredholm as fr
out = {}
for L, N in ((6.0, 1024), (8.0, 2048)):
    grid = fr.build_grid(L, N)
    for which in (1, 2):
        r = fr.numerical_index(fr.assemble_operator(which, grid))
        doc = json.dumps(r.to_json(), sort_keys=True).encode()
        vecs = hashlib.sha256()
        for v in r.ker_vectors + r.coker_vectors:
            vecs.update(v.tobytes())
        out[f"{L},{N},{which}"] = [hashlib.sha256(doc).hexdigest(),
                                   vecs.hexdigest(), r.iterations]
print(json.dumps(out))
"""


def test_index_data_is_bit_identical():
    src = str(Path(orbiton.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=300,
                          check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(got) == set(INDEX_DIGESTS)
    assert {k: v for k, v in got.items() if v != INDEX_DIGESTS[k]} == {}
