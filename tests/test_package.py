"""Package metadata, and which calls load scipy."""

from pathlib import Path

import pytest

import orbiton

from conftest import child_json


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert orbiton.__version__ == meta["project"]["version"]


_IMPORTS_CHILD = """
import contextlib, io, json, sys
import numpy as np
import orbiton
from orbiton import classify, cli, families, fredholm, lie_core
loaded = {"import": "scipy.linalg" in sys.modules}
for argv in (["atlas", "--family", "g442"], ["foliation"], ["kindex"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[argv[0]] = (code, "scipy.linalg" in sys.modules)
p = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0],
              [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 3.0]])
h = lie_core.change_basis(families.build_family("g442"), p)
orbiton.sample_orbit(h, [1.0, 0.0, 0.5, 1.0], 20, seed=1)
family = classify.classify_md4(h).family
loaded["orbit"] = "scipy.linalg" in sys.modules
ok, _ = classify.is_exponential(h)
bad, witness = classify.is_exponential(families.build_family("g424"))
r = fredholm.numerical_index(
    fredholm.assemble_operator(1, fredholm.build_grid(6.0, 1024)))
print(json.dumps({"loaded": loaded, "family": family,
                  "exponential": [ok, bad, witness is not None],
                  "index": [r.dim_ker, r.dim_coker, r.index],
                  "after": "scipy.linalg" in sys.modules}))
"""


def test_scipy_loads_only_for_exponentiality_and_fredholm():
    # Importing the package and the orbit side (atlas, foliation, kindex,
    # sampling, classify_md4) never load scipy; is_exponential and the
    # Fredholm solve import it on first use and still answer.
    out = child_json(_IMPORTS_CHILD, 1)
    assert out["loaded"] == {"import": False, "atlas": [0, False],
                             "foliation": [0, False], "kindex": [0, False],
                             "orbit": False}
    assert out["family"] == "g442"
    assert out["exponential"] == [True, False, True]
    assert out["index"] == [1, 0, 1]
    assert out["after"] is True
