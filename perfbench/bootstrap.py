"""Process set-up shared by the benchmark and its set-up probe.

Import this before numpy: OpenBLAS reads its thread count when it loads.
With two OpenBLAS threads on a 2-CPU host, ``eigvalsh`` at n=100 had a p99
of 16 ms against a 0.57 ms median; with one thread the p99 was 0.67 ms.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

for _name in THREAD_ENV:
    os.environ[_name] = BLAS_THREADS


def use_source_tree():
    """Import ``maxdiv`` from the checkout's ``src/`` and nowhere else.

    Exits with status 1 and no result when the checkout holds no package,
    so a run never measures some other installed copy.
    """
    sys.path.insert(0, str(SRC))
    try:
        import maxdiv
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import maxdiv from {SRC}: {exc}")
    origin = Path(maxdiv.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: maxdiv was imported from {origin}, not from {SRC}")
    return maxdiv


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None
