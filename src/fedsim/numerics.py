"""The numeric environment that a run's bits depend on.

A run is a pure function of its config for one numpy build, one set of
CPU targets that numpy's loops dispatch to, and one BLAS kernel: on
another host ``np.exp`` or a stacked ``matmul`` may round differently.
``fingerprint()`` names all three in one line, so that a stored output
hash can say which environment it holds for.
"""
from __future__ import annotations

import ctypes

import numpy as np

UNKNOWN = "unknown"


def simd_targets() -> list[str]:
    """The SIMD targets numpy found on this CPU and may dispatch to;
    ``NPY_DISABLE_CPU_FEATURES`` removes entries."""
    try:
        return list(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (KeyError, TypeError):
        return []


def blas_info() -> dict[str, str]:
    """Name, version and core of the BLAS that numpy loaded; a field the
    probe cannot read is ``unknown``."""
    info = {"name": UNKNOWN, "version": UNKNOWN, "core": UNKNOWN}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = cfg.get("name", UNKNOWN), cfg.get("version", UNKNOWN)
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if core is not None:
                    core.restype = ctypes.c_char_p
                    info["core"] = core().decode()
                    return info
    return info


def fingerprint() -> str:
    """One line naming numpy's version, its SIMD targets and the BLAS,
    for example ``numpy 2.4.6; simd X86_V3 X86_V4; scipy-openblas
    0.3.31.188.0 (SkylakeX)``."""
    blas = blas_info()
    simd = " ".join(simd_targets()) or UNKNOWN
    return f"numpy {np.__version__}; simd {simd}; {blas['name']} {blas['version']} ({blas['core']})"
