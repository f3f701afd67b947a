"""Command-line interface tests: grammar, formats, exit codes, determinism."""
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from triphoton.cli import main

STATE_90_135_CSV = """\
basis,amplitude_re,amplitude_im
+++,0,0
++-,0.270598050073,0
+-+,0.461939766256,0
+--,0.461939766256,0
-++,0.461939766256,0
-+-,0.461939766256,0
--+,0.270598050073,0
---,0,0
"""

MERMIN_SWEEP_CSV = """\
delta_deg,mermin_value,violation
0,-1,-1
30,-1.10570148733,-0.894298512666
60,-1.45467798551,-0.545322014493
90,-2.10819418755,0.108194187554
120,-3,1
150,-3.75133656441,1.75133656441
180,-4,2
"""

STRENGTH_TABLE_CSV = """\
state,n_trials,source
GHZ,32.0156911186,computed
positronium,161.220717973,computed
singlet,200,reference
"""

STRENGTH_SWEEP_CSV = """\
delta_deg,q1,r1,n_trials,flagged_over_200
80,0.357479679167,0.357479679167,inf,true
100,0.268160816028,0.330328252525,1017.02877767,true
120,0.166666666667,0.314824149117,161.220717973,false
140,0.0754736601977,0.289280439948,64.9775999532,false
160,0.0176027411305,0.263442162658,39.1414470998,false
180,0,0.25,32.0156911186,false
"""

SIMULATE_SURE_CSV = """\
run_index,seed,crossing_trial,capped
0,5,33,false
1,5,33,false
2,5,33,false
"""


@pytest.fixture(autouse=True)
def clean_workers_env(monkeypatch):
    monkeypatch.delenv("TRIPHOTON_WORKERS", raising=False)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_csv_golden(capsys):
    code, out, err = run_cli(capsys, ["state", "--geometry", "90,135", "--sz", "0"])
    assert code == 0
    assert err == ""
    assert out == STATE_90_135_CSV


def test_state_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, ["state", "--geometry", "90,135", "--sz", "1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theta12_deg"] == 90
    assert doc["theta13_deg"] == 135
    assert doc["spin_z"] == 1
    assert len(doc["amplitudes"]) == 8
    assert doc["amplitudes"][0] == {"basis": "+++", "re": 0, "im": 0}
    # the spin-raised branch flips signs on the odd-minus half
    assert doc["amplitudes"][3]["re"] == pytest.approx(-0.461939766256)
    assert doc["amplitudes"][6]["re"] == pytest.approx(-0.270598050073)


def test_state_infeasible_geometry_exits_3(capsys):
    code, out, err = run_cli(capsys, ["state", "--geometry", "30,40"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_state_malformed_geometry_exits_2(capsys):
    for bad in ("90x135", "90", "90,135,180", "ninety,135"):
        code, _, err = run_cli(capsys, ["state", "--geometry", bad])
        assert code == 2
        assert err.startswith("error:")


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, ["bogus"])[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["mermin"],
        ["state", "--sz", "2", "--geometry", "120,120"],
        ["state", "--geometry", "-5,10"],  # a separate negative value, see below
        ["tangle-scan", "--step", "-inf"],
        ["mermin", "extremize", "--starts", "x"],
        ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "2", "--bogus"],
    ],
)
def test_argparse_errors_print_one_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["tangle-scan", "--step", "-inf"], "step must lie in (0, 10] degrees, got -inf"),
        (["tangle-scan", "--step", "-1e-300"], "step must lie in (0, 10] degrees, got -1e-300"),
        (
            ["state", "--geometry", "-5,10"],
            "theta12_deg must lie strictly inside (0, 360) deg, got -5.0",
        ),
        (
            ["mermin", "sweep", "--delta", "-30:180:30"],
            "delta range must stay within [0, 180] degrees",
        ),
    ],
)
def test_a_separate_negative_value_reaches_its_check(capsys, argv, message):
    """argparse reads a token that starts with "-" as an option unless it is a
    plain number; the CLI's parser also takes -inf, -1e-300 and -5,10 as
    values, so the value's own check names it."""
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["state", "--help"], ["mermin", "extremize", "--help"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert out.startswith("usage: triphoton") and err == ""


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out == "triphoton 0.1.0\n"


def test_module_entrypoint_version():
    proc = subprocess.run(
        [sys.executable, "-m", "triphoton", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "triphoton 0.1.0\n"


# every command but simulate, each run in one fresh interpreter by a probe
_PROBE_COMMANDS = """
import contextlib, io, json, sys
import triphoton, triphoton.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0

run("state", "--geometry", "120,120")
run("tangle-scan", "--step", "10")
run("mermin", "sweep", "--delta", "0:180:30")
run("mermin", "extremize", "--starts", "2")
run("strength", "table")
run("strength", "sweep", "--delta", "80:180:20")
"""

SCIPY_PROBE = _PROBE_COMMANDS + """
run("simulate", "--delta", "120", "--runs", "2")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

# simulate draws its runs from numpy.random; no other command may load it
NUMPY_RANDOM_PROBE = _PROBE_COMMANDS + """
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy.random"))))
"""


def _src_env() -> dict:
    """This process's environment with the package source first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_no_command_loads_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_only_simulate_loads_numpy_random():
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_PROBE], capture_output=True, text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_tangle_scan_identical_across_workers_and_reruns(capsys):
    runs = []
    for argv in (
        ["tangle-scan", "--step", "10"],
        ["tangle-scan", "--step", "10"],
        ["tangle-scan", "--step", "10", "--workers", "2"],
        ["tangle-scan", "--step", "10", "--workers", "5"],
    ):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        runs.append(out)
    assert len(set(runs)) == 1
    assert runs[0].startswith("theta12_deg,theta13_deg,tangle\n")


def test_tangle_scan_workers_env(capsys, monkeypatch):
    code, base, _ = run_cli(capsys, ["tangle-scan", "--step", "10"])
    assert code == 0
    monkeypatch.setenv("TRIPHOTON_WORKERS", "3")
    code, enved, _ = run_cli(capsys, ["tangle-scan", "--step", "10"])
    assert code == 0
    assert enved == base


def test_workers_env_junk_exits_2_unless_flag_overrides(capsys, monkeypatch):
    monkeypatch.setenv("TRIPHOTON_WORKERS", "many")
    code, _, err = run_cli(capsys, ["tangle-scan", "--step", "10"])
    assert code == 2
    assert "must be an integer" in err
    # explicit flag wins over the broken variable
    code, out, _ = run_cli(capsys, ["tangle-scan", "--step", "10", "--workers", "2"])
    assert code == 0
    assert out
    # every command validates the variable, not only the ones that take a count
    monkeypatch.setenv("TRIPHOTON_WORKERS", "junk")
    code, out, err = run_cli(capsys, ["strength", "table"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: TRIPHOTON_WORKERS must be an integer") and err.count("\n") == 1


def test_workers_below_one_exits_2(capsys):
    code, _, err = run_cli(capsys, ["tangle-scan", "--step", "10", "--workers", "0"])
    assert code == 2
    assert "worker count" in err
    for argv in (
        ["state", "--geometry", "120,120", "--workers", "0"],
        ["mermin", "sweep", "--delta", "0:180:30", "--workers", "-3"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: worker count must be >= 1") and err.count("\n") == 1


def test_tangle_scan_step_validation(capsys):
    assert run_cli(capsys, ["tangle-scan", "--step", "0"])[0] == 2
    assert run_cli(capsys, ["tangle-scan", "--step", "10.5"])[0] == 2


def test_tangle_scan_axis_ending_at_360_warns_nothing(capsys):
    # the axis ends at 359.9999999999999, whose cells have three zero pair
    # weights; they are infeasible and print 0, with no 0/0 on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["tangle-scan", "--step", "4.999999999999998"])
    assert (code, err) == (0, "")
    digest = "0f90017bd593682af7171fdd071c2e6c9bb1c40df9ab52948144e50945357e8a"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["mermin", "sweep", "--delta", "0:180:1e-7"],  # 13.4 GiB of deltas
        ["strength", "sweep", "--delta", "0:180:1e-9"],  # 1.31 TiB
        ["tangle-scan", "--step", "1e-6"],  # 2.68 GiB for one axis
        ["mermin", "extremize", "--starts", "1000000000"],  # 7.45 GiB of start indices
        ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "1000000000"],  # hours of runs
        ["simulate", "--q", "0.5", "--r", "0.5", "--runs", "100000"],  # 10^11 capped trials
    ],
)
def test_oversized_work_is_refused_before_allocating(argv):
    resource = pytest.importorskip("resource")
    limit = (1 << 30, 1 << 30)  # 1 GiB of address space
    proc = subprocess.run(
        [sys.executable, "-m", "triphoton", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
        timeout=10,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "more than" in proc.stderr


def test_mermin_extremize_default_finds_both_minima(capsys):
    code, out, _ = run_cli(capsys, ["mermin", "extremize", "--state", "mercedes"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "value,theta_deg,phi_deg,theta_prime_deg,phi_prime_deg,"
        "stationary,gradient_norm"
    )
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-3.0459560059918083, abs=1e-9)
    assert float(first[1]) == pytest.approx(90.0, abs=1e-3)
    assert float(first[2]) == pytest.approx(23.894077, abs=1e-2)
    assert first[5] == "true"
    assert float(first[6]) < 1e-6
    values = [float(line.split(",", 1)[0]) for line in lines[1:]]
    assert any(v == pytest.approx(-3.0, abs=1e-9) for v in values)


def test_mermin_extremize_ghz(capsys):
    code, out, _ = run_cli(
        capsys, ["mermin", "extremize", "--state", "ghz", "--starts", "24", "--seed", "1"]
    )
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert float(first[0]) == pytest.approx(-4.0, abs=1e-9)


def test_mermin_extremize_unknown_state_exits_2(capsys):
    for state in ("nope", "delta:", "delta:90:1"):
        code, out, err = run_cli(capsys, ["mermin", "extremize", "--state", state])
        assert code == 2 and out == ""
        assert err.startswith(f"error: unknown state {state!r}") and err.count("\n") == 1
    code, _, err = run_cli(capsys, ["mermin", "extremize", "--starts", "2", "--seed", "-1"])
    assert code == 2
    assert "seed must be >= 0" in err


def test_mermin_sweep_golden(capsys):
    code, out, _ = run_cli(capsys, ["mermin", "sweep", "--delta", "0:180:30"])
    assert code == 0
    assert out == MERMIN_SWEEP_CSV


def test_mermin_sweep_json_parses(capsys):
    code, out, _ = run_cli(
        capsys, ["mermin", "sweep", "--delta", "0:180:30", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[4] == {"delta_deg": 120, "mermin_value": -3, "violation": 1}


def test_mermin_sweep_bad_range_exits_2(capsys):
    assert run_cli(capsys, ["mermin", "sweep", "--delta", "0:180"])[0] == 2
    # generated points must stay inside [0, 180]
    assert run_cli(capsys, ["mermin", "sweep", "--delta", "0:190:95"])[0] == 2
    assert run_cli(capsys, ["mermin", "sweep", "--delta", "-30:180:30"])[0] == 2
    # non-finite bounds or steps are rejected with one line, not a traceback
    for command, delta in (
        ("mermin", "0:inf:1"), ("mermin", "nan:180:1"), ("mermin", "0:180:nan"),
        ("mermin", "0:180:inf"), ("strength", "80:inf:1"),
    ):
        code, out, err = run_cli(capsys, [command, "sweep", "--delta", delta])
        assert code == 2
        assert out == ""
        assert err.startswith("error: delta range must be finite") and err.count("\n") == 1


def test_strength_table_golden(capsys):
    code, out, _ = run_cli(capsys, ["strength", "table"])
    assert code == 0
    assert out == STRENGTH_TABLE_CSV


def test_strength_sweep_golden(capsys):
    code, out, _ = run_cli(capsys, ["strength", "sweep", "--delta", "80:180:20"])
    assert code == 0
    assert out == STRENGTH_SWEEP_CSV


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_refute_outputs_match_the_benchmark_digests(capsys, monkeypatch):
    # the benchmark pins these bytes; read its digests rather than copy them
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for key in ("mermin sweep --delta 0:180:0.1", "strength sweep --delta 80:180:0.25",
                "strength table"):
        code, out, _ = run_cli(capsys, key.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == workloads.DIGESTS[key], key


def test_simulate_sure_crossing_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--q", "1", "--r", "0.75", "--runs", "3", "--seed", "5"],
    )
    assert code == 0
    assert out == SIMULATE_SURE_CSV


def test_simulate_delta_mode(capsys):
    code, out, _ = run_cli(
        capsys, ["simulate", "--delta", "120", "--runs", "2", "--seed", "0"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "run_index,seed,crossing_trial,capped"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[2]) > 0
        assert fields[3] == "false"


def test_simulate_argument_conflicts_exit_2(capsys):
    assert run_cli(capsys, ["simulate", "--q", "0.5"])[0] == 2
    assert run_cli(capsys, ["simulate"])[0] == 2
    assert run_cli(
        capsys, ["simulate", "--q", "0.5", "--r", "0.4", "--delta", "120"]
    )[0] == 2
    code, _, err = run_cli(capsys, ["simulate", "--q", "0.5", "--r", "0.4", "--seed", "-1"])
    assert code == 2
    assert "seed must be >= 0" in err
    # a Philox key word holds 64 bits; one more is refused, not a traceback
    argv = ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "2", "--seed", str(2**64)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: seed must be below 2**64") and err.count("\n") == 1
    for mode in (["--q", "0.2", "--r", "0.3"], ["--delta", "120"]):
        for bad in ("nan", "inf", "0"):
            code, out, err = run_cli(
                capsys, ["simulate", *mode, "--runs", "2", "--target-exponent", bad]
            )
            assert code == 2
            assert out == ""
            assert "target_exponent must be finite and positive" in err
    # r is checked as a probability before the rule on forbidden outcomes
    for bad in ("1.5", "-0.2", "nan"):
        code, out, err = run_cli(capsys, ["simulate", "--q", "0.5", "--r", bad])
        assert code == 2 and out == ""
        assert err == f"error: r must lie in [0, 1], got {float(bad)}\n"


def test_simulate_nonviolating_delta_exits_2(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--delta", "60"])
    assert code == 2
    assert "no model to refute" in err


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "runs.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "simulate", "--q", "1", "--r", "0.75", "--runs", "3", "--seed", "5",
            "--output", str(target),
        ],
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == SIMULATE_SURE_CSV
    # an unwritable --output is a bad value: exit 2 with one line, no traceback
    for argv, path in (
        (["tangle-scan", "--step", "10"], tmp_path / "missing" / "x.csv"),
        (["strength", "table"], tmp_path),
    ):
        code, out, err = run_cli(capsys, [*argv, "--output", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    # an empty --output, as from an unset shell variable, is not stdout
    code, out, err = run_cli(capsys, ["tangle-scan", "--step", "10", "--output", ""])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write : ") and err.count("\n") == 1


def _same_value(csv_cell: str, json_value) -> bool:
    """A csv cell and the json value of the same cell agree: an empty cell,
    inf and nan are json null, true/false are booleans, and numbers equal."""
    if csv_cell in ("", "inf", "-inf", "nan"):
        return json_value is None
    if csv_cell in ("true", "false"):
        return json_value is (csv_cell == "true")
    if isinstance(json_value, str):
        return csv_cell == json_value
    return isinstance(json_value, (int, float)) and float(csv_cell) == json_value


def test_csv_and_json_carry_the_same_values(capsys):
    for argv in (
        ["tangle-scan", "--step", "10"],
        ["mermin", "sweep", "--delta", "0:180:15"],
        ["strength", "sweep", "--delta", "80:180:20"],
        ["strength", "table"],
        ["mermin", "extremize", "--starts", "4"],
        # q = r never crosses: both runs end capped with crossing_trial None
        ["simulate", "--q", "0.5", "--r", "0.5", "--runs", "2", "--target-exponent", "1"],
    ):
        code, text, _ = run_cli(capsys, argv)
        assert code == 0
        code, doc, _ = run_cli(capsys, [*argv, "--format", "json"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        records = json.loads(doc)
        assert len(rows) == len(records) > 0, argv
        for row, record in zip(rows, records):
            assert list(row) == list(record), argv
            for name, cell in row.items():
                assert _same_value(cell, record[name]), (argv, name, cell, record[name])
    # the capped batch really exercised the empty-cell/null case
    assert rows[0]["crossing_trial"] == "" and records[0]["crossing_trial"] is None


def test_rerun_byte_identity_battery(capsys):
    battery = [
        ["state", "--geometry", "100,120", "--sz", "-1"],
        ["state", "--geometry", "100,120", "--format", "json"],
        ["mermin", "sweep", "--delta", "0:180:15"],
        ["strength", "table", "--format", "json"],
        ["strength", "sweep", "--delta", "90:180:30"],
        ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "4", "--seed", "7"],
    ]
    for argv in battery:
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        code, second, _ = run_cli(capsys, argv)
        assert code == 0
        assert second == first, argv
