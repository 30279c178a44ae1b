"""Shared helpers: seeded random basis changes, family iteration and
child interpreters with a fixed BLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbiton
from orbiton import families


def random_gl(rng, n=4, max_cond=1e3):
    """Random invertible matrix with condition number at most max_cond.

    Orthogonal factors around a log-uniform diagonal; the mean-centered
    exponents keep the determinant scale near 1 so conjugated structure
    constants stay O(1).
    """
    while True:
        exps = rng.uniform(-1.5, 1.5, size=n)
        exps -= exps.mean()
        q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        p = q1 @ np.diag(10.0 ** exps) @ q2
        if np.linalg.cond(p) <= max_cond:
            return p


def gl_at_cond(rng, cond, n=4):
    """Random invertible matrix whose condition number is exactly cond.

    The extreme singular values are pinned at 10^(+-log10(cond)/2), the
    others drawn between them.
    """
    half = 0.5 * np.log10(cond)
    exps = np.concatenate([[-half, half], rng.uniform(-half, half, n - 2)])
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q1 @ np.diag(10.0 ** exps) @ q2


def family_fixtures():
    """(name, params, algebra) for the 12 normal-form families at defaults."""
    out = []
    for name in families.FAMILY_ORDER:
        params = families.default_params(name)
        out.append((name, params, families.build_family(name, *params)))
    return out


@pytest.fixture(scope="session")
def fixtures_by_family():
    return {name: (params, g) for name, params, g in family_fixtures()}


def child_json(code: str, threads: int):
    """Run code in a fresh interpreter with this package on the path and
    the BLAS thread count fixed, and parse its last output line as JSON."""
    src = str(Path(orbiton.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])
