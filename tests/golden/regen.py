"""Rewrite the golden CLI manifest, cli.json, and print each changed entry.

Run from the repository root with the package on the path:

    PYTHONPATH=src python tests/golden/regen.py

Each command below runs in process through `triphoton.cli.main`, with
TRIPHOTON_WORKERS unset. Its entry holds the exit code, the stderr text and
the stdout: verbatim when shorter than INLINE_LIMIT characters, otherwise
its SHA-256 and line count. An entry whose record differs from the manifest
on disk is printed as a unified diff; the exit status is 1 when any entry
changed, was added or was removed.

The five argvs whose digests `bench/workloads.py` pins stay there, so each
digest has one owner.
"""
from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from triphoton.cli import main

MANIFEST = Path(__file__).resolve().parent / "cli.json"
INLINE_LIMIT = 2048

_THETA12 = ("45", "90", "120", "135", "150", "179.5")
_THETA13 = ("60", "100", "120", "150", "170")
_STATES = ("mercedes", "ghz", "delta:90", "delta:150")

COMMANDS = (
    [
        ["state", "--geometry", f"{t12},{t13}", "--sz", sz, *fmt]
        for t12 in _THETA12
        for t13 in _THETA13
        for sz in ("0", "1", "-1")
        for fmt in ([], ["--format", "json"])
    ]
    + [["tangle-scan", "--step", "5"], ["tangle-scan", "--step", "3"],
       ["tangle-scan", "--step", "2", "--format", "json"]]
    + [
        ["mermin", "extremize", "--state", state, *extra]
        for state in _STATES
        for extra in (["--seed", "0"], ["--starts", "16", "--seed", "1"])
    ]
    + [
        ["mermin", "sweep", "--delta", "0:180:1"],
        ["strength", "sweep", "--delta", "80:180:1", "--format", "json"],
        # the violation threshold band, where one ulp of q1 moves n_trials
        ["mermin", "sweep", "--delta", "85.8:86.5:0.001"],
        ["strength", "sweep", "--delta", "85.8:86.5:0.001"],
        # ranges longer than one chunk of the stacked delta-family pass
        ["mermin", "sweep", "--delta", "0:180:0.05"],
        ["strength", "sweep", "--delta", "0:180:0.1"],
        ["strength", "table", "--format", "json"],
        ["simulate", "--q", "1", "--r", "0.75", "--runs", "3", "--seed", "5"],
        ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "20", "--seed", "7"],
        ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "20", "--seed", "7",
         "--format", "json"],
        ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "5",
         "--seed", "18446744073709551615"],
        ["simulate", "--delta", "120", "--runs", "50", "--seed", "3"],
        ["simulate", "--delta", "90", "--runs", "10", "--seed", "1"],
        ["simulate", "--q", "0.5", "--r", "0.5", "--runs", "2", "--target-exponent", "1"],
        # error paths
        ["state", "--geometry", "120"],
        ["mermin", "extremize", "--state", "nope"],
        ["simulate", "--q", "0.5", "--r", "0.4", "--seed", "-1"],
        ["tangle-scan", "--step", "10", "--workers", "0"],
        ["tangle-scan", "--step", "10", "--output", ""],
        ["mermin", "extremize", "--state", "delta:"],
        ["mermin", "extremize", "--state", "delta:90:1"],
        ["simulate", "--q", "0.5", "--r", "1.5"],
        ["simulate", "--q", "0.5", "--r", "-0.2"],
        ["simulate", "--q", "0.5", "--r", "nan"],
    ]
)


def record(argv: list[str]) -> dict:
    """Run one command through the CLI and describe what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    entry = {"argv": list(argv), "exit": code, "stderr": err.getvalue()}
    text = out.getvalue()
    if len(text) < INLINE_LIMIT:
        entry["stdout"] = text
    else:
        entry["stdout_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        entry["stdout_lines"] = text.count("\n")
    return entry


def _dump(entries) -> str:
    return json.dumps(entries, indent=1, ensure_ascii=False) + "\n"


def regenerate() -> int:
    os.environ.pop("TRIPHOTON_WORKERS", None)
    old = {}
    if MANIFEST.exists():
        old = {tuple(e["argv"]): e for e in json.loads(MANIFEST.read_text(encoding="utf-8"))}
    new = [record(argv) for argv in COMMANDS]
    changed = 0
    for entry in new:
        before = old.pop(tuple(entry["argv"]), None)
        if before != entry:
            changed += 1
            sys.stdout.writelines(difflib.unified_diff(
                _dump(before).splitlines(True) if before else [],
                _dump(entry).splitlines(True),
                "manifest", "regenerated",
            ))
    for argv in old:
        changed += 1
        print(f"removed: {list(argv)}")
    MANIFEST.write_text(_dump(new), encoding="utf-8")
    print(f"{len(new)} entries, {changed} changed", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(regenerate())
