"""The environment a recorded measurement ran in, for the ``BENCH_*.json`` files."""

from __future__ import annotations

import os
import platform
import subprocess


def cpu_model() -> str:
    """The CPU's model name, as the kernel reports it."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(checkout: str) -> dict:
    """CPU, core count, Python, numpy and scipy versions, and the checkout's
    git head (None outside a git checkout), directory name and the length of
    its absolute path: medians have been seen to move with the directory a
    checkout runs from."""
    import numpy
    import scipy

    head = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip() or None
    return {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_head": head,
            "checkout": os.path.basename(os.path.abspath(checkout)),
            "checkout_path_length": len(os.path.abspath(checkout))}
