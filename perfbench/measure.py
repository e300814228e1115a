"""Measurement helpers: tail percentile, hang guard, peak RSS, environment."""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
from contextlib import contextmanager
from pathlib import Path

#: A tail percentile is reported only where at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

#: Percentiles tried for the tail, highest first, in steps of 0.1.
_TAIL_CANDIDATES = tuple(p / 10.0 for p in range(999, 499, -1))


def nearest_rank(sorted_values: list, pct: float):
    """Nearest-rank percentile of an ascending list, and its 1-based rank."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0 - 1e-9))
    return sorted_values[rank - 1], rank


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile, in
    steps of 0.1, that leaves at least TAIL_MIN_BEYOND samples above its rank.

    With too few samples for any of them, falls back to the median and
    reports how many samples lie beyond it.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    for pct in _TAIL_CANDIDATES:
        value, rank = nearest_rank(values, pct)
        if len(values) - rank >= TAIL_MIN_BEYOND:
            return pct, value, len(values) - rank
    value, rank = nearest_rank(values, 50.0)
    return 50.0, value, len(values) - rank


class OpTimeout(BaseException):
    """An op overran its hang guard.

    Derived from BaseException so that the CLI's ``except Exception``
    boundary (which maps errors to exit code 3) lets it through.
    """


@contextmanager
def hang_guard(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` of wall time pass.

    The signal is only delivered between Python bytecodes, which is where
    every long-running path of the package spends its time.
    """

    def _expire(signum, frame):
        raise OpTimeout(f"op exceeded the {seconds:g} s hang guard")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
    }


#: Thread-count variables read by the BLAS builds numpy may link against.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
