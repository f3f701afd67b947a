"""How the package and its entry points start. `import triphoton` loads each
public name's submodule on first use, and so no numpy; `python -m triphoton`
and the installed `triphoton` command run OpenBLAS on one thread unless
OPENBLAS_NUM_THREADS is already set. Each check runs in a fresh interpreter,
because this process has loaded the package and numpy long before."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _fresh(code: str, openblas_threads: str | None = None):
    """The JSON that `code` prints from a fresh interpreter, with the source
    tree first on PYTHONPATH and OPENBLAS_NUM_THREADS set to
    `openblas_threads` (unset for None)."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    proc = subprocess.run(
        [sys.executable, "-c", "import json, os, sys\n" + code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# numpy and the package's submodules that the interpreter has loaded
_LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('triphoton.'))"


def test_import_loads_no_numpy():
    assert _fresh("import triphoton\nprint(json.dumps('numpy' in sys.modules))") is False


def test_every_public_name_resolves_on_first_use():
    before, names, star = _fresh(f"""
import triphoton
before = {_LOADED}
for name in triphoton.__all__:
    getattr(triphoton, name)
star = {{}}
exec("from triphoton import *", star)
print(json.dumps([before, triphoton.__all__, sorted(set(star) - {{"__builtins__"}})]))
""")
    assert before == []
    assert len(names) == 70
    assert star == sorted(names)


def test_dir_lists_every_public_name_without_loading_it():
    missing, loaded = _fresh(f"""
import triphoton
listed = set(dir(triphoton))
print(json.dumps([sorted(set(triphoton.__all__) - listed), {_LOADED}]))
""")
    assert missing == []
    assert loaded == []


def test_unknown_attribute_names_the_module_and_loads_nothing():
    message, loaded = _fresh(f"""
import triphoton
try:
    triphoton.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), {_LOADED}]))
""")
    assert message == "module 'triphoton' has no attribute 'no_such_name'"
    assert loaded == []


def _thread_count_skip_reason() -> str | None:
    if not Path("/proc/self/task").is_dir():
        return "no /proc/self/task to count a process's threads in"
    if (os.cpu_count() or 1) < 2:
        return "one CPU, where OpenBLAS starts no worker thread in any case"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "numpy does not report its BLAS configuration"
    if "openblas" not in blas.lower():
        return f"numpy's BLAS is {blas}, not OpenBLAS"
    return None


@pytest.mark.parametrize("preset, threads", [(None, 1), ("2", 2)])
def test_module_entry_point_runs_openblas_on_one_thread_unless_set(preset, threads):
    reason = _thread_count_skip_reason()
    if reason:
        pytest.skip(reason)
    counted, setting = _fresh(
        "import triphoton.__main__\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS']]))",
        openblas_threads=preset,
    )
    assert (counted, setting) == (threads, preset or "1")


def test_importing_the_cli_sets_no_openblas_thread_count():
    assert _fresh(
        "import triphoton.cli\nprint(json.dumps('OPENBLAS_NUM_THREADS' in os.environ))"
    ) is False


def test_console_script_starts_like_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib", reason="Python 3.10 has no tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    module, _, attr = project["scripts"]["triphoton"].partition(":")
    is_cli_main, setting = _fresh(f"""
import importlib
entry = getattr(importlib.import_module({module!r}), {attr!r})
import triphoton.cli
print(json.dumps([entry is triphoton.cli.main, os.environ.get('OPENBLAS_NUM_THREADS')]))
""")
    assert is_cli_main
    assert setting == "1"
