"""Print, as one JSON line, what a fresh effport process runs on.

Usage: python perfbench/envinfo.py

Imports effport and its CLI the way every benchmarked command does (so a
warm-up run also leaves every module compiled), then reports where it
was imported from, the Python, numpy and scipy versions, and for each loaded
OpenBLAS library its configuration and the thread count in effect.
"""

import ctypes
import json
import os
import platform
import sys


def openblas_libraries() -> list[dict]:
    """Configuration and thread count of every OpenBLAS mapped into this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                threads.argtypes = []
                config.restype = ctypes.c_char_p
                config.argtypes = []
                info.update(threads=threads(), config=config().decode())
                break
            if "threads" in info:
                break
        found.append(info)
    return found


def collect() -> dict:
    import effport
    import effport.cli  # noqa: F401
    import numpy
    import scipy

    return {
        "effport_file": effport.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.stdout.write(json.dumps(collect()) + "\n")
