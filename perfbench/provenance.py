"""Where and with what a benchmark result was measured."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import os
import platform
import re
from pathlib import Path

# Environment variables that set the BLAS thread pool size.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loaded_blas() -> list[dict]:
    """Each loaded OpenBLAS library with its thread count and config.

    numpy and scipy may each bundle their own copy; both are reported.
    The symbol names carry a vendor prefix and an integer-width suffix
    that differ between builds, so each candidate is tried in turn.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({m.group(0) for m in
                            (re.search(r"/\S*openblas\S*\.so\S*", line)
                             for line in fh) if m})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None,
                 "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        out.append(entry)
    return out


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the library's and the benchmark's source files."""
    h = hashlib.sha256()
    files = sorted([*(root / "src" / "orbiton").rglob("*.py"),
                    *(root / "src" / "orbiton").rglob("*.json"),
                    *(root / "perfbench").glob("*.py")])
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    import orbiton

    try:
        installed = importlib.metadata.version("orbiton")
    except importlib.metadata.PackageNotFoundError:
        installed = None
    match = re.search(r'^version\s*=\s*"([^"]+)"',
                      (root / "pyproject.toml").read_text(), re.MULTILINE)
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _loaded_blas(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        # __version__ and the declared package version disagree today;
        # all are recorded, none is corrected here.
        "orbiton_version": orbiton.__version__,
        "orbiton_installed_metadata": installed,
        "orbiton_pyproject_version": match.group(1) if match else None,
        "platform": platform.platform(),
    }
