"""Start one child process at a time and measure its wall time and peak RSS."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS/OpenMP thread per process: numpy's OpenBLAS would otherwise
# start a thread per core in every worker.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict[str, str]:
    """Environment for every child: pinned threads, the checkout's sources first."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_kb: int
    log: str


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> Child:
    """Run argv to completion; output goes to ``log``. Killed after ``timeout`` seconds."""
    with open(log, "wb") as out:
        start = now()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss, log.read_text(errors="replace"))
