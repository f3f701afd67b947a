"""Tests of the benchmark itself: run with `python3 -m pytest -q bench`."""
from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from triphoton import cli  # noqa: E402

EXACT_COUNTS = (
    "invariants.cells",
    "serialize.rows",
    "serialize.bytes",
    "mermin.minimize.nfev",
    "simulate.trials",
)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.delenv("TRIPHOTON_WORKERS", raising=False)
    return tmp_path


def _command(workload: str, work, *prefix: str) -> workloads.Command:
    """The first command of `workload` whose argv starts with `prefix`."""
    return next(
        c for c in workloads.commands(workload, 7, work) if c.argv[: len(prefix)] == prefix
    )


def _capture(argv) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(list(argv)) == 0
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "workload, prefix",
    [
        ("landscape", ("tangle-scan", "--step", "1")),
        ("extremize", ("mermin",)),
        ("refute", ("simulate",)),
    ],
)
def test_traced_inprocess_stdout_equals_subprocess_stdout(work, workload, prefix):
    command = _command(workload, work, *prefix)
    sample = run.run_command(command, run.child_env())
    assert sample.failure is None
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = _capture(command.argv)
    finally:
        trace.uninstall()
    assert trace.spans, "the traced call recorded no span"
    assert traced == sample.output


def test_corrupted_outputs_fail_their_checks(work):
    table = _command("refute", work, "strength", "table")
    good = _capture(table.argv)
    assert table.check(good) is None
    assert table.check(good.replace(b"200", b"201")) is not None

    sweep = _command("refute", work, "mermin", "sweep")
    good = _capture(sweep.argv)
    assert sweep.check(good) is None
    lines = good.splitlines(keepends=True)
    delta, value, violation = lines[900].decode().strip().split(",")
    lines[900] = f"{delta},{float(value) + 1e-6!r},{violation}\n".encode()
    assert "closed form" in sweep.check(b"".join(lines))

    extremize = _command("extremize", work, "mermin", "extremize", "--state", "mercedes")
    header = b"value,theta_deg,phi_deg,theta_prime_deg,phi_prime_deg,stationary,gradient_norm\n"
    assert extremize.check(header + b"-3.04595600599,90,24,90,126,true,5e-08\n") is None
    assert extremize.check(header + b"-3.04595,90,24,90,126,true,5e-08\n") is not None
    assert extremize.check(header + b"-3.04595600599,90,24,90,126,false,5e-08\n") is not None

    simulate = _command("refute", work, "simulate")
    good = _capture(simulate.argv)
    assert simulate.check(good) is None
    lines = good.splitlines(keepends=True)
    assert simulate.check(b"".join(lines[:-1])) is not None
    assert simulate.check(b"".join(lines[:-1] + [lines[-1].replace(b"false", b"true")])) is not None


def test_failures_are_counted(work):
    table = _command("refute", work, "strength", "table")
    good = _capture(table.argv)
    assert run.judge(table, 0, good, b"")[1] is None
    assert run.judge(table, 2, good, b"error: bad")[1] is not None
    assert run.judge(table, 0, good, b"Traceback (most recent call last):")[1] is not None

    tally = run.Tally()
    run.inprocess_pass([table], cli.main, [good], tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    run.inprocess_pass([table], cli.main, [good.replace(b"200", b"201")], tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def _traced_pass(commands) -> dict[str, float]:
    trace = tracer.Tracer()
    trace.install()
    try:
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(command.argv)) == 0
    finally:
        trace.uninstall()
    return trace.layer_metrics()


def test_exact_counts_repeat_across_traced_runs(work):
    originals = (cli.tangle_scan, cli.run_batch, cli.mermin_extremize)
    seen = set()
    for workload in workloads.WORKLOADS:
        commands = workloads.commands(workload, 7, work)
        first, second = _traced_pass(commands), _traced_pass(commands)
        counted = {k: v for k, v in first.items() if k in EXACT_COUNTS and v}
        seen.update(counted)
        assert counted == {k: second[k] for k in counted}, workload
    assert seen == set(EXACT_COUNTS)
    assert (cli.tangle_scan, cli.run_batch, cli.mermin_extremize) == originals


def test_seeds_derive_from_the_workload_seed(work):
    argv = lambda name, seed: [c.argv for c in workloads.commands(name, seed, work)]
    assert argv("refute", 3) == argv("refute", 3)
    assert argv("refute", 3) != argv("refute", 4)
    assert argv("extremize", 3) != argv("extremize", 4)
    assert argv("landscape", 3) == argv("landscape", 4)


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:        50 |        150 | numpy\n"
        "import time:       400 |        400 |     scipy.optimize\n"
        "import time:        30 |        580 | triphoton.cli\n"
    )
    assert tracer.parse_importtime(stderr) == {
        "import.total_s": 580e-6,
        "import.scipy_s": 400e-6,
        "import.numpy_s": 150e-6,
        "import.triphoton_self_s": 30e-6,
    }


def test_benchmark_json_matches_the_harness():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
