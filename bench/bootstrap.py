"""Process set-up shared by the benchmark entry points.

Pins the BLAS thread pool through the environment before numpy loads,
and makes ``import hypersing`` resolve to the package source of the
checkout that holds this directory, never to an installed copy.
"""

from __future__ import annotations

import os
import sys
import zlib
from pathlib import Path

# one BLAS thread: steadier timings, and within nproc on any machine
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_build" / "hypersing-bench"


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path."""
    package = ROOT / "src" / "hypersing"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {package}; "
                         "run from the root of a checkout of the repository")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(package.parent))
    import hypersing
    if Path(hypersing.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported hypersing from {hypersing.__file__}, not {package}")


def rng_for(seed: int, *stream):
    """Random generator for one (seed, stream) pair, e.g. (seed, workload)."""
    import numpy as np
    keys = [zlib.crc32(str(s).encode()) if isinstance(s, str) else int(s) for s in stream]
    return np.random.default_rng([int(seed)] + keys)
