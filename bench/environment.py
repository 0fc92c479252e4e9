"""Process set-up for the benchmark: BLAS threads, import path, environment record.

`prepare()` must run before numpy is imported: it pins the BLAS thread count
and puts the checkout's `src/` first on the import path, so the benchmark
measures the code of the checkout it sits in and nothing installed elsewhere.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no `src/dcom`, numpy loaded early)."""


def prepare() -> None:
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread count was fixed")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "dcom" / "__init__.py").is_file():
        raise SetupError(f"no dcom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcom

    if Path(dcom.__file__).resolve().parent != SRC / "dcom":
        raise SetupError(f"imported dcom from {dcom.__file__}, not from {SRC}")


def code_digest() -> str:
    """Hash of the code under test and of the benchmark itself."""
    h = hashlib.sha256()
    for base in (SRC / "dcom", BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def describe() -> dict:
    """The environment every result is recorded with."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "commit": _commit(),
        "code_digest": code_digest(),
    }
