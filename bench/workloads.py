"""The benchmark's workloads: the CLI commands each one runs, and the checks
that decide whether a command's output is correct.

Every seed in a command is derived from the workload seed, so the same
workload seed always yields the same argv. Commands whose output does not
depend on a seed are checked against a pinned SHA-256 digest of their bytes;
seed-dependent commands are checked by value. README.md in this directory
says why each workload exists.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import importlib.util
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

#: Placeholder for the --output path in a command's digest key.
OUT = "<out>"

# SHA-256 of the bytes each seed-independent command writes, keyed by its
# argv with the --output path replaced by OUT. Regenerate only for a change
# that deliberately alters a result, and record that change in CHANGES.md.
DIGESTS = {
    "tangle-scan --step 0.75 --output <out>":
        "3408b28ab4af9942f711c0280ecfb8dd3cfd643cb97af98e465c1d3f4e16f6a0",
    "tangle-scan --step 1 --format json --workers 2":
        "46d0b816b63a2f3d3d9f69dd8e1fc3fcf8cceaed3f45996eec7998f83863fdde",
    "mermin sweep --delta 0:180:0.1":
        "e7f82ac37a9d1e941519fd85227de4a8f775e67c2be8b5aa30e283aa7d7b757e",
    "strength sweep --delta 80:180:0.25":
        "3b1479c5789d35a61a07ae045f689a248c95dc04bde7994561011aeb8745ce03",
    "strength table":
        "ed6fbe06c8614a9e78d59b925b02354967b687b68617c94aceebc14cccff6b04",
}

# Best Mermin value per state (source paper, symmetric settings); the
# printed digits may legitimately change, so these are checked by value.
EXTREMIZE_BEST = {"mercedes": -3.04595600599, "ghz": -4.0, "delta:90": -2.35929891999}
EXTREMIZE_TOL = 1e-8
EXTREMIZE_STARTS = 32
SWEEP_TOL = 1e-9

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation (argv after `python -m triphoton`) and its check.

    `check` returns None for a correct output or a one-line reason. When
    `output` is set, the command writes there and its stdout must be empty.
    """

    argv: tuple[str, ...]
    check: Check
    output: Path | None = None

    @property
    def label(self) -> str:
        return _label(self.argv, self.output)


def _label(argv: tuple[str, ...], output: Path | None) -> str:
    return " ".join(OUT if output and a == str(output) else a for a in argv)


def _digest_check(key: str) -> Check:
    expected = DIGESTS[key]

    def check(data: bytes) -> str | None:
        got = hashlib.sha256(data).hexdigest()
        return None if got == expected else f"digest {got[:12]} != pinned {expected[:12]}"

    return check


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _extremize_check(state: str) -> Check:
    expected = EXTREMIZE_BEST[state]

    def check(data: bytes) -> str | None:
        rows = _csv_rows(data)
        if not rows:
            return "no stationary point printed"
        best = rows[0]
        value = float(best["value"])
        if abs(value - expected) > EXTREMIZE_TOL:
            return f"best value {value!r} != {expected!r}"
        if best["stationary"] != "true":
            return "best point is not stationary"
        return None

    return check


def _simulate_check(runs: int, seed: int) -> Check:
    def check(data: bytes) -> str | None:
        rows = _csv_rows(data)
        if [r["run_index"] for r in rows] != [str(i) for i in range(runs)]:
            return f"run_index is not 0..{runs - 1}"
        if any(r["seed"] != str(seed) for r in rows):
            return "a row carries the wrong seed"
        if any(r["capped"] != "false" or not r["crossing_trial"].isdigit() for r in rows):
            return "a run hit the trial cap"
        return None

    return check


@functools.cache
def _load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mermin_sweep_check(key: str) -> Check:
    by_digest = _digest_check(key)

    def check(data: bytes) -> str | None:
        oracle = _load_oracles().delta_mermin_yx
        for row in _csv_rows(data):
            delta, value = float(row["delta_deg"]), float(row["mermin_value"])
            if abs(value - float(oracle(delta))) > SWEEP_TOL:
                return f"mermin_value at delta {delta} disagrees with the closed form"
        return by_digest(data)

    return check


def _pinned(*argv: str, output: Path | None = None, check_factory=_digest_check) -> Command:
    return Command(argv=argv, check=check_factory(_label(argv, output)), output=output)


def _landscape(seed: int, work: Path) -> list[Command]:
    # seed-independent: the grid is fixed, so only the digest can check it
    out = work / "landscape.csv"
    return [
        _pinned("tangle-scan", "--step", "0.75", "--output", str(out), output=out),
        _pinned("tangle-scan", "--step", "1", "--format", "json", "--workers", "2"),
    ]


def _extremize(seed: int, work: Path) -> list[Command]:
    rng = random.Random(f"extremize:{seed}")
    commands = []
    for state in EXTREMIZE_BEST:
        s = rng.randrange(2**31)
        argv = ("mermin", "extremize", "--state", state,
                "--starts", str(EXTREMIZE_STARTS), "--seed", str(s))
        commands.append(Command(argv=argv, check=_extremize_check(state)))
    return commands


def _refute(seed: int, work: Path) -> list[Command]:
    rng = random.Random(f"refute:{seed}")
    s120, s90 = rng.randrange(2**31), rng.randrange(2**31)
    return [
        _pinned("mermin", "sweep", "--delta", "0:180:0.1", check_factory=_mermin_sweep_check),
        _pinned("strength", "sweep", "--delta", "80:180:0.25"),
        _pinned("strength", "table"),
        Command(("simulate", "--delta", "120", "--runs", "5000", "--seed", str(s120)),
                _simulate_check(5000, s120)),
        Command(("simulate", "--delta", "90", "--runs", "1000", "--workers", "2",
                 "--seed", str(s90)),
                _simulate_check(1000, s90)),
    ]


WORKLOADS = {"landscape": _landscape, "extremize": _extremize, "refute": _refute}


def commands(workload: str, seed: int, work: Path) -> list[Command]:
    """The commands of one pass over `workload`, derived from `seed`."""
    return WORKLOADS[workload](seed, work)
