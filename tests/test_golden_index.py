"""Golden digests of the Fredholm index data, and their thread independence.

For both operators on the (6,1024) and (8,2048) rungs the test pins the
sha256 of ``IndexResult.to_json()`` (keys sorted), the sha256 of the raw
bytes of the ker vectors followed by the coker vectors, and the
iteration count.  They were re-pinned when the index began to deflate
the block's exact unit rows, stop the sigma_max power iteration once it
settles and apply the padded window from its Toeplitz generators: the
solves then run on another start and another block size, so last bits
moved (every near-zero singular value by at most 1 ulp, the same
(ker, coker) and gap verdicts).  Any other change must reproduce them.

The digests are taken in a child process with one BLAS thread, so that
the golden test pins the arithmetic alone; that the data do not depend
on the thread count is a separate test, which runs the same child with
one and with two threads and compares the reports and vectors byte for
byte.  The digests hold for the builds they were taken with (numpy 2.4,
scipy 1.17, OpenBLAS on x86-64); another BLAS or libm may change last
bits.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbiton

INDEX_DIGESTS = {
    "6.0,1024,1": [
        "435d36306a027676bb69a1b77e8c3130e352b2c833b50fe1cd1f7ff1b1638671",
        "4f7d6fd70e996760649280ae35b15cec42a344173314e5986911a05009a6fa13",
        26],
    "6.0,1024,2": [
        "435d36306a027676bb69a1b77e8c3130e352b2c833b50fe1cd1f7ff1b1638671",
        "346bb27924a369e84bc6855851e82605f5180cfbb6120fa69a804ece49518f42",
        26],
    "8.0,2048,1": [
        "81be4d2caa37bef7df17c0f6ee0858df75efe71e0f2c59d54b6d82b4967720d7",
        "41facac18b11dcdc0be5cbafacd4169fc6835d197bcfbd618d9fa87b960b5a9b",
        27],
    "8.0,2048,2": [
        "81be4d2caa37bef7df17c0f6ee0858df75efe71e0f2c59d54b6d82b4967720d7",
        "c46c33ec1c21211e5955c5da8611f34442e3031aefc404a12bbee714e927b58c",
        27],
}

# Prints, per rung and operator, the sorted to_json() text, the hex of
# the ker-then-coker vector bytes' sha256 and the iteration count.
_CHILD = """
import hashlib, json
from orbiton import fredholm as fr
out = {}
for L, N in ((6.0, 1024), (8.0, 2048)):
    grid = fr.build_grid(L, N)
    for which in (1, 2):
        r = fr.numerical_index(fr.assemble_operator(which, grid))
        vecs = hashlib.sha256()
        for v in r.ker_vectors + r.coker_vectors:
            vecs.update(v.tobytes())
        out[f"{L},{N},{which}"] = [json.dumps(r.to_json(), sort_keys=True),
                                   vecs.hexdigest(), r.iterations]
print(json.dumps(out))
"""


def _child_index(threads: int) -> dict:
    src = str(Path(orbiton.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def one_thread():
    return _child_index(1)


def test_index_data_is_bit_identical(one_thread):
    got = {k: [hashlib.sha256(doc.encode()).hexdigest(), vecs, steps]
           for k, (doc, vecs, steps) in one_thread.items()}
    assert set(got) == set(INDEX_DIGESTS)
    assert {k: v for k, v in got.items() if v != INDEX_DIGESTS[k]} == {}


def test_index_data_independent_of_blas_threads(one_thread):
    # Reports and vectors byte for byte, not within a tolerance: a
    # threaded BLAS product that sums in another order shows up here.
    assert _child_index(2) == one_thread
