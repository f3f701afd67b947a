"""Benchmark of the triphoton CLI: one workload per invocation.

    python3 bench/run.py --workload landscape --seed 0 --seconds 20 --trace 0

Run from the repository root (the package is not installed; commands get
PYTHONPATH=src). With --trace 0 the workload runs as a closed loop with one
client: its commands run one after another, each in a fresh
`python -m triphoton` subprocess, for about --seconds, and the end-to-end
metrics are medians over those passes. With --trace 1 the same
commands run in-process through `triphoton.cli.main`, alternating untraced
and traced passes, and the per-layer metrics come from the trace. Either
way one unmeasured subprocess pass runs first, so .pyc compilation and file
cache fill stay out of the samples, and every output is checked.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it repeat every metric by
name with its unit and the machine facts. The full result, and with
--trace 1 the spans, are written under .bench_work/. README.md in this
directory explains the workloads and which layer moves which metric.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = workloads.ROOT
WORK = ROOT / ".bench_work"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("cmd_s.p50", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
# Far above any command's wall time; keeps a hung command from holding the
# run past its time limit.
COMMAND_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One command run: its wall time, child rusage and output."""

    wall: float
    cpu: float
    rss_kib: int
    output: bytes
    failure: str | None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, label: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            print(f"FAIL {label}: {failure}", file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TRIPHOTON_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], env: dict[str, str]):
    """Run argv to completion; (wall, rusage, exit code, stdout, stderr)."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, out_path.read_bytes(), err_path.read_bytes()


def judge(command: workloads.Command, code: int, stdout: bytes, stderr: bytes):
    """(output bytes, failure reason or None) for one finished command."""
    if code != 0:
        return stdout, f"exit code {code}: {stderr.decode(errors='replace').strip()[-200:]}"
    if b"Traceback" in stderr:
        return stdout, "traceback on stderr"
    if command.output is not None:
        if stdout:
            return stdout, "stdout not empty although --output was given"
        if not command.output.exists():
            return b"", "no output file"
        stdout = command.output.read_bytes()
    return stdout, command.check(stdout)


def run_command(command: workloads.Command, env: dict[str, str]) -> Sample:
    if command.output is not None:
        command.output.unlink(missing_ok=True)
    wall, usage, code, stdout, stderr = spawn(
        [sys.executable, "-m", "triphoton", *command.argv], env
    )
    output, failure = judge(command, code, stdout, stderr)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, output, failure)


def subprocess_pass(commands, env, tally: Tally) -> list[Sample]:
    samples = [run_command(c, env) for c in commands]
    for command, sample in zip(commands, samples):
        tally.add(command.label, sample.failure)
    return samples


def setup_time(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter running `import triphoton.cli`."""
    walls = []
    for _ in range(SETUP_SAMPLES):
        wall, _usage, code, _out, err = spawn([sys.executable, "-c", "import triphoton.cli"], env)
        if code != 0:
            raise SystemExit(f"error: cannot import triphoton.cli: {err.decode(errors='replace')}")
        walls.append(wall)
    return statistics.median(walls)


def repeat(one_pass, seconds: float) -> list:
    """Results of `one_pass()` run back to back for about `seconds`: another
    pass starts only if it should end less than half a pass past the
    deadline, so a run lasts round(seconds / pass time) passes, at least one."""
    results = []
    start = perf_counter()
    while True:
        results.append(one_pass())
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            return results


def measure(commands, seconds: float, env, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics over closed-loop passes lasting about `seconds`."""
    setup_s = setup_time(env)
    passes = repeat(lambda: subprocess_pass(commands, env, tally), seconds)
    metrics = {
        "wall_s": statistics.median(sum(s.wall for s in p) for p in passes),
        "cmd_s.p50": statistics.median(s.wall for p in passes for s in p),
        "cpu_s": statistics.median(sum(s.cpu for s in p) for p in passes),
        "peak_rss_mb": statistics.median(max(s.rss_kib for s in p) for p in passes) / 1024.0,
        "setup_s": setup_s,
    }
    samples = {"passes": len(passes), "commands": sum(len(p) for p in passes),
               "setup": SETUP_SAMPLES, "pass_wall_s": [sum(s.wall for s in p) for p in passes]}
    return metrics, samples


def import_metrics(env: dict[str, str]) -> dict[str, float]:
    """import.* metrics, medians over fresh `-X importtime` interpreters."""
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        _wall, _usage, code, _out, err = spawn(
            [sys.executable, "-X", "importtime", "-c", "import triphoton.cli"], env
        )
        if code != 0:
            raise SystemExit("error: cannot import triphoton.cli")
        runs.append(tracer.parse_importtime(err.decode()))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def inprocess_pass(commands, main, reference: list[bytes], tally: Tally, trace=None) -> float:
    """One pass through `main(argv)` in this process; returns the summed
    wall time of its commands. Each output must equal the subprocess
    output in `reference` byte for byte and pass its check."""
    if trace is not None:
        main = trace.wrap(main, "cli.main")
    wall = 0.0
    for index, (command, expected) in enumerate(zip(commands, reference)):
        if command.output is not None:
            command.output.unlink(missing_ok=True)
        buffer, errors = io.StringIO(), io.StringIO()
        if trace is not None:
            trace.command = index
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(errors):
                code = main(list(command.argv))
        except Exception as exc:  # what would be a traceback in a subprocess
            code, errors = 1, io.StringIO(f"Traceback: {exc!r}")
        wall += perf_counter() - start
        stdout = buffer.getvalue().encode("utf-8")
        output, failure = judge(command, code, stdout, errors.getvalue().encode("utf-8"))
        if failure is None and output != expected:
            failure = "in-process output differs from the subprocess output"
        if trace is not None:
            trace.counts["cli.bytes_out"] += len(output)
        tally.add(command.label, failure)
    return wall


def traced(commands, seconds: float, env, reference: list[bytes], tally: Tally, spans_path):
    """Per-layer metrics from alternating untraced and traced in-process passes."""
    layers = import_metrics(env)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("TRIPHOTON_WORKERS", None)
    from triphoton.cli import main

    inprocess_pass(commands, main, reference, tally)  # warm lazy imports and caches

    def pair():
        plain = inprocess_pass(commands, main, reference, tally)
        trace = tracer.Tracer()
        trace.install()
        try:
            timed = inprocess_pass(commands, main, reference, tally, trace)
        finally:
            trace.uninstall()
        return plain, timed, trace

    pairs = repeat(pair, seconds)
    with open(spans_path, "w", encoding="utf-8") as spans_out:
        for index, (_plain, _timed, trace) in enumerate(pairs):
            for span in trace.spans:
                spans_out.write(json.dumps({"pass": index, **asdict(span)}) + "\n")
    per_pass = [trace.layer_metrics() for _plain, _timed, trace in pairs]
    for key in per_pass[0]:
        layers[key] = statistics.median(p[key] for p in per_pass)
    layers["trace.overhead_ratio"] = (
        statistics.median(timed for _plain, timed, _trace in pairs)
        / statistics.median(plain for plain, _timed, _trace in pairs)
    )
    return layers, {"passes": len(pairs), "importtime": IMPORTTIME_SAMPLES}


def machine_facts() -> dict[str, object]:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triphoton" / "cli.py").is_file():
        print(f"error: no triphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    env = child_env()
    commands = workloads.commands(args.workload, args.seed, WORK / "out")
    tally = Tally()
    warm = subprocess_pass(commands, env, tally)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, samples = traced(
            commands, args.seconds, env, [s.output for s in warm], tally,
            WORK / f"spans-{run_name}.jsonl",
        )
        units = tracer.LAYER_METRICS
    else:
        metrics, samples = measure(commands, args.seconds, env, tally)
        units = END_TO_END

    facts = machine_facts()
    error_rate = tally.failed / tally.attempted
    for name, unit in units:
        print(f"{args.workload:10s} {name:34s} {metrics[name]:>16.6f} {unit}")
    print(f"{args.workload:10s} {'error_rate':34s} {error_rate:>16.6f} ratio "
          f"({tally.failed} of {tally.attempted} commands)")
    print(f"samples: {json.dumps(samples)}")
    print(f"machine: {json.dumps(facts)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    detail = {**result, "workload": args.workload, "seed": args.seed, "error_rate": error_rate,
              "samples": samples, "machine": facts,
              "commands": [c.label for c in commands]}
    (WORK / f"result-{run_name}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
