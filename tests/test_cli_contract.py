"""Property-based CLI contract: whatever the numbers in its arguments, `main`
exits 0, 2 or 3, and a failure prints nothing on stdout and exactly one
`error:` line on stderr, never a traceback.

Valid values come from small ranges so that accepted commands stay fast;
edge values (non-finite, signed zero, negative, denormal, tiny, huge) are
mixed in. Options are mostly passed as `--name=value`; the separate-token
properties pass the value as its own argument (`--step -inf`, `--geometry
-5,10`, `--delta -30:180:30`) and check that it, too, reaches the program's
own checks instead of being read as an option with no value.
"""
import contextlib
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from triphoton.cli import main

_EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300)

_CONTRACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _number(low: float, high: float):
    """A float from [low, high], or one of the edge values."""
    return st.one_of(st.floats(low, high), st.sampled_from(_EDGES))


# (--format, --workers or None, --output key or None) shared by every command.
# Most examples write to stdout and pass no --workers, so that accepted numbers
# reach the full output path; a bad --workers (below 1) or --output (a missing
# directory, a directory) still comes up in about one example in two.
_options = st.tuples(
    st.sampled_from(("csv", "json")),
    st.sampled_from((None,) * 6 + tuple(range(-2, 4))),
    st.sampled_from((None,) * 4 + ("missing", "directory")),
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """--output values: stdout, a path in a missing directory, a directory."""
    root = tmp_path_factory.mktemp("contract")
    return {None: None, "missing": root / "missing" / "out.csv", "directory": root}


def _check(argv, options, outputs) -> str:
    """Run argv with the options; check the exit code and streams, return stderr."""
    fmt, workers, output = options[0], options[1], outputs[options[2]]
    argv = [*argv, f"--format={fmt}"]
    if workers is not None:
        argv.append(f"--workers={workers}")
    if output is not None:
        argv.append(f"--output={output}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    if code:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, (
            argv,
            err.getvalue(),
        )
    elif output is None:
        assert out.getvalue(), argv
    return err.getvalue()


@_CONTRACT
@given(_number(60.0, 200.0), _number(60.0, 200.0), st.sampled_from((0, 1, -1)), _options)
def test_state_contract(outputs, theta12, theta13, sz, options):
    _check(["state", f"--geometry={theta12!r},{theta13!r}", f"--sz={sz}"], options, outputs)


@_CONTRACT
@given(st.one_of(_number(4.0, 10.0), st.sampled_from((1e-7, 10.5))), _options)
def test_tangle_scan_contract(outputs, step, options):
    _check(["tangle-scan", f"--step={step!r}"], options, outputs)


@_CONTRACT
@given(
    st.one_of(_number(4.0, 10.0).map(repr), st.sampled_from(("-inf", "-nan", "-1e-300", "-5.0"))),
    _options,
)
def test_tangle_scan_contract_with_separate_values(outputs, step, options):
    err = _check(["tangle-scan", "--step", step], options, outputs)
    assert "expected one argument" not in err, step


@_CONTRACT
@given(_number(-200.0, 200.0), _number(60.0, 200.0), _options)
def test_state_contract_with_separate_values(outputs, theta12, theta13, options):
    geometry = f"{theta12!r},{theta13!r}"
    err = _check(["state", "--geometry", geometry], options, outputs)
    assert "expected one argument" not in err, geometry


# --delta=start:stop:step. Two independent numbers are mostly refused (stop
# below start, or an edge value), so part of the examples draw an ordered
# pair inside [0, 180] that reaches the array builder; a step of at least 5
# keeps those sweeps to 37 rows.
_delta_range = st.builds(
    lambda pair, step: f"--delta={pair[0]!r}:{pair[1]!r}:{step!r}",
    st.one_of(
        st.tuples(_number(0.0, 180.0), _number(0.0, 180.0)),
        st.lists(st.floats(0.0, 180.0), min_size=2, max_size=2).map(sorted),
    ),
    _number(5.0, 180.0),
)


@_CONTRACT
@given(_delta_range, _options)
def test_mermin_sweep_contract(outputs, delta, options):
    _check(["mermin", "sweep", delta], options, outputs)


@_CONTRACT
@given(_delta_range, _options)
def test_strength_sweep_contract(outputs, delta, options):
    _check(["strength", "sweep", delta], options, outputs)


@_CONTRACT
@given(
    st.sampled_from(("-30:180:30", "-0.0:180:45", "-inf:180:30", "-nan:90:5", "-1e-300:90:30")),
    _options,
)
def test_strength_sweep_contract_with_separate_values(outputs, delta, options):
    err = _check(["strength", "sweep", "--delta", delta], options, outputs)
    assert "expected one argument" not in err, delta


@_CONTRACT
@given(_options)
def test_strength_table_contract(outputs, options):
    _check(["strength", "table"], options, outputs)


@_CONTRACT
@given(
    st.one_of(st.integers(-2, 3), st.sampled_from((10**4 + 1, 10**9))),
    st.integers(-1, 3),
    _options,
)
def test_mermin_extremize_contract(outputs, starts, seed, options):
    _check(
        ["mermin", "extremize", "--state", "ghz", "--starts", str(starts), "--seed", str(seed)],
        options,
        outputs,
    )


@_CONTRACT
@given(
    _number(0.0, 1.0),
    _number(0.0, 1.0),
    st.one_of(st.integers(-2, 3), st.sampled_from((10**5 + 1, 10**9))),
    st.one_of(st.integers(-1, 3), st.sampled_from((2**64 - 1, 2**64))),
    _options,
)
def test_simulate_contract(outputs, q, r, runs, seed, options):
    argv = ["simulate", f"--q={q!r}", f"--r={r!r}", f"--runs={runs}", f"--seed={seed}"]
    _check(argv, options, outputs)


@_CONTRACT
@given(_number(0.0, 180.0), st.integers(-2, 3), st.sampled_from(("csv", "json")))
def test_simulate_delta_contract(outputs, delta, runs, fmt):
    # stdout and no --workers, so that a violating delta with runs >= 1 exits 0
    _check(["simulate", f"--delta={delta!r}", f"--runs={runs}"], (fmt, None, None), outputs)
