"""Shared plumbing for the benchmark: paths, record digests, statistics,
the host/provenance block and the process-tree memory sampler.

Nothing here imports :mod:`repro`; :func:`require_source` puts the
checkout's ``src/`` on ``sys.path`` first and refuses to run without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (results, spans, temp stores) lives here.
OUT_DIR = ROOT / ".perfbench"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: The seed a run uses when none is given.
DEFAULT_SEED = 0
#: Never used while the benchmark was written; reserve it for confirming claims.
HELD_OUT_SEED = 9

#: Record channels that legitimately differ between runs of the same spec.
VARIABLE_KEYS = ("provenance", "timings", "diagnostics")

#: Significant digits kept when floats enter a record digest: far above any
#: real behavioural change, far below last-bit BLAS noise.
DIGEST_DIGITS = 7


def require_source() -> None:
    """Put ``<checkout>/src`` on ``sys.path``, or exit 2 when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro sources under {SRC}; run from a full checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ----------------------------------------------------------------------
# record comparison
# ----------------------------------------------------------------------
def comparable(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record dict without the channels that differ run to run."""
    return {k: v for k, v in record.items() if k not in VARIABLE_KEYS}


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return format(value, f".{DIGEST_DIGITS}g")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def record_digest(record: Dict[str, Any]) -> str:
    """Content digest of a record's comparable part (floats at 7 digits)."""
    text = json.dumps(
        _canonical(comparable(record)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def load_expected() -> Dict[str, Any]:
    with EXPECTED_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def host_ref_s(chunks: int = 10) -> float:
    """Fastest of *chunks* timings of a fixed pure-Python loop, in s.

    Timed between passes and reported beside the metrics, never folded
    into them: the shared host's speed drifts by several percent from
    minute to minute, and this shows how fast it ran during a result.
    """
    best = float("inf")
    for _ in range(chunks):
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# host and provenance
# ----------------------------------------------------------------------
def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_block(seed: int) -> Dict[str, Any]:
    """Where and on what a result was measured; compare only equal hosts."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_KB
    except (OSError, ValueError, IndexError):
        return 0  # the process exited between listing and reading


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                found.extend(int(token) for token in handle.read().split())
        except (OSError, ValueError):
            continue
    return found


def tree_rss_kb(root: int) -> int:
    """Resident memory of *root* plus every live descendant, in KiB."""
    total = 0
    pending = [root]
    while pending:
        pid = pending.pop()
        total += _rss_kb(pid)
        pending.extend(_children(pid))
    return total


class MemorySampler:
    """Peak resident memory of this process tree, sampled on a thread.

    Covers pool workers and the serve daemon, which ``ru_maxrss`` of this
    process alone would miss.  Use as a context manager around the
    measured window only.
    """

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_kb = max(self.peak_kb, tree_rss_kb(pid))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
