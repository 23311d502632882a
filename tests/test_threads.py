"""The BLAS thread limit that ``set_num_threads`` applies."""

import ctypes
import os

import pytest

import cpoe


def openblas_threads():
    """Threads each loaded OpenBLAS reports, read through its own entry point."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def test_every_loaded_openblas_reports_one_thread():
    if not openblas_threads():
        pytest.skip("no OpenBLAS loaded in this process")
    assert cpoe.set_num_threads(1) == 1
    assert set(openblas_threads().values()) == {1}


def test_openblas_fallback_sets_every_loaded_library():
    # set_num_threads takes this path only where threadpoolctl is missing
    if not openblas_threads():
        pytest.skip("no OpenBLAS loaded in this process")
    try:
        assert cpoe._openblas_set_num_threads(1) == 1
        assert set(openblas_threads().values()) == {1}
    finally:
        cpoe.set_num_threads()
