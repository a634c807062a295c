from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim import numerics
from fedsim.numerics import blas_info, fingerprint, simd_targets

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_fingerprint_names_numpy_its_simd_targets_and_the_blas():
    printed = fingerprint()
    blas = blas_info()
    assert printed.startswith(f"numpy {np.__version__}; simd ")
    assert all(target in printed for target in simd_targets())
    assert f"{blas['name']} {blas['version']} ({blas['core']})" in printed
    assert set(blas) == {"name", "version", "core"}


def test_fingerprint_reads_unknown_where_the_probe_finds_nothing(monkeypatch):
    monkeypatch.setattr(np, "show_config", lambda mode=None: {})
    def no_maps(*args, **kwargs):
        raise OSError("no /proc here")

    # A module global shadows the builtin inside fedsim.numerics only.
    monkeypatch.setattr(numerics, "open", no_maps, raising=False)
    assert blas_info() == {"name": "unknown", "version": "unknown", "core": "unknown"}
    assert fingerprint() == f"numpy {np.__version__}; simd unknown; unknown unknown (unknown)"


def test_fingerprint_changes_when_numpy_dispatch_drops_avx512():
    """np.exp and np.log round differently without numpy's AVX-512 loops,
    so the fingerprint must tell the two environments apart."""
    disabled = [target for target in AVX512 if target in simd_targets()]
    if not disabled:
        pytest.skip(f"this host has none of {AVX512}: {simd_targets()}")
    src = str(Path(fedsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    proc = subprocess.run(
        [sys.executable, "-c", "from fedsim.numerics import fingerprint; print(fingerprint())"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    other = proc.stdout.strip()
    assert other.startswith(f"numpy {np.__version__}; simd ")
    assert other != fingerprint()
    assert not any(target in other.split(";")[1].split() for target in disabled)
