"""`python -m triphoton` and the installed `triphoton` command.

Every command runs in one thread, but when numpy loads OpenBLAS, OpenBLAS
starts a pool of worker threads sized to the CPUs, and the idle workers spin
on CPU time that no command uses. So both entry points ask OpenBLAS for one
thread before numpy loads, unless OPENBLAS_NUM_THREADS is already set.
Importing `triphoton` or `triphoton.cli` sets nothing.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy loads here, after the setting)

if __name__ == "__main__":
    raise SystemExit(main())
