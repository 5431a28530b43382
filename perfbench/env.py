"""Environment recorded with every benchmark result."""

import os
import platform
import sys
from pathlib import Path

import numpy as np

# glibc sysconf codes; Python's os.sysconf_names lacks the cache entries.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _sysconf(code):
    try:
        value = os.sysconf(code)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _blas_threads():
    """Thread count BLAS was told to use, or 'default' when no variable is set."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "default (one per core)"


def _git_commit(root: Path):
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l2_bytes": _sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _sysconf(_SC_LEVEL3_CACHE_SIZE),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
