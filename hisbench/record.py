"""Pieces every workload shares: BLAS pinning, percentiles, the record.

A run prints two lines at the end of its standard output: ``record
{...}``, the self-describing record of one workload (metric units,
sample counts, attempted and failed counts, config fingerprint,
environment), and then the result line the benchmark contract asks for,
with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Fixed BLAS thread count for every process the benchmark starts.  One
#: thread per process keeps the load of a run at most ``nproc`` (= 2)
#: threads, also for the HTTP workloads (client process + server process).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Model seed: the model is built from this seed in every workload, so
#: ``--seed`` changes only the inputs (dataset, request streams).
MODEL_SEED = 0
MODEL = "hisres"
DIM = 200


def pin_blas() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_repro() -> None:
    """Put the checkout's ``src`` on the path, or exit non-zero.

    The benchmark measures the program in the same checkout; without it
    there is nothing to run, so no result line may be printed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"hisbench: no program source at {SRC / 'repro'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``inf``-safe.

    Failed operations enter as ``inf`` so they count as slower than any
    latency limit; interpolating towards an ``inf`` neighbour gives
    ``inf`` rather than numpy's ``nan``.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    frac = pos - lo
    if frac == 0.0 or values[lo] == values[hi]:
        return values[lo]
    if math.isinf(values[hi]):
        return math.inf
    return values[lo] + (values[hi] - values[lo]) * frac


def latency_summary(samples_s: Sequence[float]) -> Dict[str, object]:
    """p50/p90 in ms with the sample count behind them."""
    n = len(samples_s)
    return {
        "p50_ms": percentile(samples_s, 50) * 1e3,
        "p90_ms": percentile(samples_s, 90) * 1e3,
        "samples": n,
        "samples_beyond_p90": n - math.ceil(0.9 * n),
    }


def host_probe_ms() -> float:
    """Median time of a fixed dense matmul at the eval shape (7128x200 @
    200x200).  Recorded before and after a run: it moves with the host's
    speed, not with the program, so a reader can tell a slow host from a
    slow commit."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((7128, 200)), rng.random((200, 200))
    times = []
    for _ in range(7):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2] * 1e3


def source_hash() -> str:
    """sha256 over ``src/repro``'s Python files (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "src_repro_sha256": source_hash(),
    }


def fingerprint(config: Dict[str, object]) -> str:
    """Short stable hash of a workload's pinned config."""
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


class Checks:
    """Named output checks; every failed check counts as a failure."""

    def __init__(self) -> None:
        self.results: List[Dict[str, object]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def finite(value: float) -> float:
    """JSON has no infinity: a latency that only failed operations reach
    reads as the largest float, slower than any limit."""
    value = float(value)
    return value if math.isfinite(value) else sys.float_info.max


def emit(
    workload: str,
    seed: int,
    config: Dict[str, object],
    metrics: Dict[str, tuple],
    attempted: int,
    failed: int,
    checks: Checks,
    details: Optional[Dict[str, object]] = None,
    table: Iterable[str] = (),
) -> None:
    """Print the per-layer table, the record line and the result line.

    ``metrics`` maps a name to ``(value, unit)``.  ``failed`` counts
    failed operations; failed checks are added here.
    """
    failed_total = int(failed) + checks.failed
    for line in table:
        print(line)
    record = {
        "workload": workload,
        "seed": seed,
        "config": config,
        "config_fingerprint": fingerprint(config),
        "environment": environment(),
        "attempted": int(attempted),
        "failed": failed_total,
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()},
        "checks": checks.results,
        "details": details or {},
    }
    print("record " + json.dumps(record, default=lambda o: o.item()))
    result = {
        "correct": failed_total == 0,
        "attempted": int(attempted),
        "failed": failed_total,
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
