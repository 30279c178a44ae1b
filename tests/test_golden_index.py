"""Golden digests of the Fredholm index data, and their thread independence.

For both operators on the (6,1024) and (8,2048) rungs the test pins the
sha256 of ``IndexResult.to_json()`` (keys sorted), the sha256 of the raw
bytes of the ker vectors followed by the coker vectors, and the
iteration count.  They were last re-pinned when the index began to
apply and solve the parity block by blocks from its generators (the
structured _Block) instead of a dense weighted copy: the solves sum in
another order, so last bits moved (every near-zero singular value by at
most 3 ulp, the same (ker, coker), gap verdicts and step counts).  Any
other change must reproduce them.

The digests are taken in a child process with one BLAS thread, so that
the golden test pins the arithmetic alone; that the data do not depend
on the thread count is a separate test, which runs the same child with
one and with two threads and compares the reports and vectors byte for
byte.  The digests hold for the builds they were taken with (numpy 2.4,
scipy 1.17, OpenBLAS on x86-64); another BLAS or libm may change last
bits.
"""

import hashlib
import tracemalloc

import pytest

from orbiton import fredholm as fr

from conftest import child_json

INDEX_DIGESTS = {
    "6.0,1024,1": [
        "f561e84a8031f7a00bcf6d4b3c9f6fe817a3cbdc47582d0915604ca3054f452c",
        "1838f1c657b41235f3ac9bf19b558ebd5d0d049f78ab6d9e3c131c5b21959796",
        26],
    "6.0,1024,2": [
        "f561e84a8031f7a00bcf6d4b3c9f6fe817a3cbdc47582d0915604ca3054f452c",
        "634a36a8dbeb53d61c67a251e1f44be28c79fa3ff2d2096afe85a65ce1e3efe3",
        26],
    "8.0,2048,1": [
        "7706c9d9ffdb9b0aba91c28f0b18b962675d768a6a41dbd2bfda7a4ae24b218f",
        "987ad52d10b78ea2b6a6c089b27c358ee751d73f0a1e7e6f0a3c1051e2e854d9",
        27],
    "8.0,2048,2": [
        "7706c9d9ffdb9b0aba91c28f0b18b962675d768a6a41dbd2bfda7a4ae24b218f",
        "bf5a1b9d2d5c73b53a8bedffb17bcb816a6f6db95875d262c393761ce42bfd55",
        27],
}

# Prints, per rung and operator, the sorted to_json() text, the hex of
# the ker-then-coker vector bytes' sha256 and the iteration count.
_CHILD = """
import hashlib, json
from orbiton import fredholm as fr
out = {}
for L, N in RUNGS:
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


def _child_index(threads: int,
                 rungs: tuple = ((6.0, 1024), (8.0, 2048))) -> dict:
    return child_json(_CHILD.replace("RUNGS", repr(rungs)), threads)


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


def test_window_above_10000_points_independent_of_blas_threads(monkeypatch):
    # At (8, 8192) the padded stability window has 10240 points, above the
    # 10000 where OpenBLAS splits a ddot over threads; no sum of the index
    # path goes through such a call.
    rung = ((8.0, 8192),)
    assert _child_index(1, rung) == _child_index(2, rung)
    # A miss at this rung never forms the dense block (8 N^2 bytes, 512
    # MiB): no N x N _dense_block call, no cached matrix, and a
    # tracemalloc peak under 32 MiB.
    grid = fr.build_grid(8.0, 8192)
    assert fr._Window(grid).grid.N == 10240
    built = []
    dense_block = fr._dense_block

    def counted(gauss, *args):
        if gauss.size == grid.N:
            built.append(gauss.size)
        return dense_block(gauss, *args)

    monkeypatch.setattr(fr, "_dense_block", counted)
    monkeypatch.setattr(fr, "_last_solve", None)
    op = fr.assemble_operator(1, grid)
    tracemalloc.start()
    try:
        r = fr.numerical_index(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.dim_ker, r.dim_coker) == (1, 0)
    assert "matrix" not in vars(op)
    assert built == []
    assert peak < 32 * 2 ** 20, peak / 2 ** 20
