"""Every command in the golden manifest still prints what it printed when the
manifest was written: the same exit code, stderr and stdout bytes.
regen.py in this directory rewrites the manifest and says why."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphoton
from regen import MANIFEST, record


def test_cli_matches_golden_manifest(monkeypatch):
    monkeypatch.delenv("TRIPHOTON_WORKERS", raising=False)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(manifest) >= 200
    changed = [e["argv"] for e in manifest if record(e["argv"]) != e]
    assert changed == []


def _haswell_skip_reason() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "numpy does not report its BLAS configuration"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", "").split():
        return "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE selects nothing"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return "no /proc/cpuinfo to read the CPU's flags from"
    if "avx2" not in cpuinfo.split():
        return "the CPU lacks avx2, which OpenBLAS's Haswell kernels need"
    return None


_HASWELL_SKIP = _haswell_skip_reason()


@pytest.mark.parametrize("setting", [
    pytest.param("OPENBLAS_CORETYPE=Haswell", marks=pytest.mark.skipif(
        _HASWELL_SKIP is not None, reason=str(_HASWELL_SKIP))),
    "OPENBLAS_NUM_THREADS=1",
])
def test_cli_matches_golden_manifest_under_openblas_settings(setting):
    """The manifest, recorded with one OpenBLAS kernel set and thread pool,
    replays byte for byte under another OpenBLAS setting:

    - the AVX2-only Haswell kernels (those of Haswell and Zen hosts);
    - one thread, which `python -m triphoton` and the installed command
      ask for unless OPENBLAS_NUM_THREADS is already set.

    OpenBLAS reads both variables when numpy loads it, so the replay runs
    in a fresh interpreter. Nehalem-class kernels are left out: the
    `tangle-scan` entries still contract the decay amplitudes through BLAS,
    and two of them print other digits there until the scan takes the
    half-angle closed form.
    """
    variable, _, value = setting.partition("=")
    env = {**os.environ, variable: value}
    env.pop("TRIPHOTON_WORKERS", None)
    package_root = str(Path(triphoton.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    replay = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_cli_matches_golden_manifest"],
        cwd=Path(__file__).resolve().parents[2], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert replay.returncode == 0, replay.stdout[-4000:] + replay.stderr[-2000:]
