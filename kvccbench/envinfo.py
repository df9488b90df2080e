"""What a result was measured on, and how fast the host was meanwhile."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List

import arith

#: Iterations of the calibration loop; about 20 ms of pure Python.
CALIBRATION_ITERATIONS = 60_000


def source_digest(root: Path) -> str:
    """sha256 over every file under ``src/`` (path and bytes)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str:
    """The checkout's git commit, or ``unknown`` outside a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> Dict[str, object]:
    """Python and numpy versions, the kernel chosen, CPUs, commit, seed."""
    import repro.kernels

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": repro.kernels.active_name(),
        "nproc": nproc(),
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Calibration:
    """A fixed pure-Python loop, timed between units of work.

    A diagnostic, not a metric: when a run is slow, a slow calibration
    beside it says the host was slow, not the change.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc += (i * i) % 7
            table[i & 1023] = acc
        self.samples.append(time.perf_counter() - start)

    def report(self) -> Dict[str, object]:
        if not self.samples:
            return {"samples": 0}
        return {
            "samples": len(self.samples),
            "median_ms": arith.median(self.samples) * 1e3,
            "q1_ms": arith.percentile(self.samples, 25) * 1e3,
            "q3_ms": arith.percentile(self.samples, 75) * 1e3,
        }
