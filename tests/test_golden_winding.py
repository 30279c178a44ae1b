"""Golden values of the winding numbers of the library loops.

``repr(raw)`` and ``integer`` of ``winding_number`` at its default grid of
4001 points are pinned for ``u_plus_loop``, both half-line lifts and all
16 vertex-lift loops, together with the sha256 of the ``orbiton kindex``
JSON report.  Any change in how the loops are sampled or integrated must
reproduce them bit for bit.  They hold for the builds they were taken
with (numpy 2.4, OpenBLAS and glibc libm on x86-64); another libm may
change last bits.
"""

import contextlib
import hashlib
import io

import pytest

from orbiton import cli, kindex as kx

GRID = 4001

WINDINGS = {
    "u_plus": (1, "0.9999992235964364"),
    "half_line_plus": (1, "0.9999992235964364"),
    "half_line_minus": (1, "0.9999992235964364"),
    "vertex_0_0": (-1, "-0.9999995890749589"),
    "vertex_0_1": (0, "0.0"),
    "vertex_0_2": (0, "0.0"),
    "vertex_0_3": (1, "0.999999589074959"),
    "vertex_1_0": (1, "0.9999995890749588"),
    "vertex_1_1": (-1, "-0.999999589074959"),
    "vertex_1_2": (0, "0.0"),
    "vertex_1_3": (0, "0.0"),
    "vertex_2_0": (0, "0.0"),
    "vertex_2_1": (1, "0.999999589074959"),
    "vertex_2_2": (-1, "-0.999999589074959"),
    "vertex_2_3": (0, "0.0"),
    "vertex_3_0": (0, "0.0"),
    "vertex_3_1": (0, "0.0"),
    "vertex_3_2": (1, "0.999999589074959"),
    "vertex_3_3": (-1, "-0.999999589074959"),
}

KINDEX_REPORT_SHA256 = (
    "78f03a542603b9ab672731e9ebc66b124ed4aa140917d0942a72c122feaf0661")


def _loops() -> dict:
    plus, minus = kx.half_line_lift_loops()[0]
    loops = {"u_plus": kx.u_plus_loop(), "half_line_plus": plus,
             "half_line_minus": minus}
    for j, fam in enumerate(kx.vertex_lift_loops()):
        for i, loop in enumerate(fam):
            loops[f"vertex_{j}_{i}"] = loop
    return loops


def test_every_library_loop_is_pinned():
    assert sorted(_loops()) == sorted(WINDINGS)


@pytest.mark.parametrize("name", sorted(WINDINGS))
def test_winding_matches_golden(name):
    w = kx.winding_number(_loops()[name], grid=GRID)
    assert (w.integer, repr(w.raw)) == WINDINGS[name]


def test_kindex_report_matches_golden():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["kindex", "--format", "json"])
    assert code == cli.EXIT_OK
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == KINDEX_REPORT_SHA256
