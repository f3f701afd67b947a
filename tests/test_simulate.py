import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from triphoton import (
    delta_family_state,
    ghz_state,
    info_distance,
    mercedes_state,
    run_batch,
    sample_joint_outcomes,
    simulate_depression,
    trials_to_depress,
    yx_settings,
)
from triphoton import simulate
from triphoton.simulate import _MAX_RUNS, _MAX_TRIALS


def test_deterministic_hit_stream_crosses_at_33():
    # q = 1 hits every trial; each hit is worth log10(4/3) digits, so the
    # threshold of 4 digits falls on trial ceil(4 / log10(4/3)) = 33
    for seed in (0, 1, 99):
        run = simulate_depression(1.0, 0.75, seed=seed)
        assert run.crossing_trial == 33
        assert not run.capped
        assert run.final_log10 == pytest.approx(33 * math.log10(0.75), abs=1e-12)
        assert run.expected_trials == pytest.approx(4.0 / info_distance(1.0, 0.75))


def test_unit_step_crossing_index_is_exact():
    run = simulate_depression(1.0, 0.1, seed=3)
    assert run.crossing_trial == 4  # one digit per trial


def test_input_validation():
    with pytest.raises(ValueError):
        simulate_depression(1.5, 0.5)
    with pytest.raises(ValueError):
        simulate_depression(0.5, 0.0)
    with pytest.raises(ValueError):
        simulate_depression(0.5, 1.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_exponent"):
            simulate_depression(0.5, 0.4, target_exponent=bad)
    with pytest.raises(ValueError):
        simulate_depression(0.5, 0.4, cap=0)
    with pytest.raises(ValueError):
        run_batch(0.5, 0.4, runs=0)
    with pytest.raises(ValueError, match="more than"):
        run_batch(0.5, 0.4, runs=_MAX_RUNS + 1)
    # the trial budget: q = r never crosses, so each run counts at its cap;
    # runs that cross count at their expected trials (about 46000 here)
    with pytest.raises(ValueError, match="expect about"):
        run_batch(0.5, 0.5, runs=_MAX_TRIALS // 100_000 + 1, cap=100_000)
    runs = int(_MAX_TRIALS / trials_to_depress(0.5, 0.49)) + 1
    assert runs <= _MAX_RUNS
    with pytest.raises(ValueError, match="expect about"):
        run_batch(0.5, 0.49, runs=runs)
    with pytest.raises(ValueError):
        simulate_depression(0.5, 0.4, seed=-1)
    with pytest.raises(ValueError):
        run_batch(0.5, 0.4, runs=3, seed=-1)
    with pytest.raises(ValueError, match=r"below 2\*\*64"):
        simulate_depression(0.5, 0.4, seed=2**64)
    with pytest.raises(ValueError, match=r"below 2\*\*64"):
        run_batch(0.5, 0.4, runs=3, seed=2**64)
    with pytest.raises(ValueError):
        run_batch(0.5, 0.4, runs=3, workers=0)
    # integer arguments are refused, not truncated, when they are not integers
    for func, kwargs, name in (
        (run_batch, dict(runs=3, seed=1.5), "seed"),
        (simulate_depression, dict(seed=1.5), "seed"),
        (simulate_depression, dict(run_index=1.5), "run_index"),
        (simulate_depression, dict(run_index=-1), "run_index"),
        (simulate_depression, dict(run_index=2**64), "run_index"),
        (simulate_depression, dict(cap=100.5), "cap"),
        (run_batch, dict(runs=2.0), "runs"),
        (run_batch, dict(runs=3, workers="2"), "workers"),
        (run_batch, dict(runs=3, workers=1.5), "workers"),
        (run_batch, dict(runs=True), "runs"),
    ):
        with pytest.raises(ValueError, match=f"{name} "):
            func(0.2, 0.3, **kwargs)


def test_equal_probabilities_never_cross():
    run = simulate_depression(0.5, 0.5, cap=2000, seed=1)
    assert run.capped
    assert run.crossing_trial is None
    assert run.expected_trials == math.inf
    assert run.final_log10 == 0.0


def test_same_key_reproduces_same_run():
    a = simulate_depression(1 / 6, 0.3148, seed=9, run_index=4, keep_trajectory=True)
    b = simulate_depression(1 / 6, 0.3148, seed=9, run_index=4, keep_trajectory=True)
    assert a.crossing_trial == b.crossing_trial
    assert np.array_equal(a.trajectory, b.trajectory)
    c = simulate_depression(1 / 6, 0.3148, seed=9, run_index=5)
    assert c.crossing_trial != a.crossing_trial or c.final_log10 != a.final_log10


def test_trajectory_stops_at_the_crossing():
    run = simulate_depression(1 / 6, 0.3148, seed=2, keep_trajectory=True)
    assert run.trajectory.size == run.crossing_trial
    assert run.trajectory[-1] <= -4.0
    assert (run.trajectory[:-1] > -4.0).all()
    assert run.final_log10 == run.trajectory[-1]


def test_cap_is_respected():
    run = simulate_depression(0.5, 0.5, cap=100, seed=0, keep_trajectory=True)
    assert run.trajectory.size == 100
    assert run.capped


def test_cap_independence_of_the_stream():
    # the same prefix of trials must appear whatever the cap is
    long = simulate_depression(0.4, 0.3, cap=9000, seed=6, target_exponent=50.0,
                               keep_trajectory=True)
    short = simulate_depression(0.4, 0.3, cap=700, seed=6, target_exponent=50.0,
                                keep_trajectory=True)
    assert np.array_equal(long.trajectory[:700], short.trajectory)


def test_long_trajectory_is_one_sequential_sum():
    # past 4096 trials the running log10 likelihood ratio is still one cumsum
    # over the run's Philox stream, however the draws are blocked
    q, r, cap = 0.4, 0.3, 9000
    run = simulate_depression(q, r, target_exponent=1e3, cap=cap, seed=6, run_index=2,
                              keep_trajectory=True)
    assert run.capped and run.trajectory.size == cap
    rng = np.random.Generator(np.random.Philox(key=[6, 2]))
    up, dn = math.log10(q / r), math.log10((1 - q) / (1 - r))
    expected = np.cumsum(np.where(rng.random(cap) < q, -up, -dn))
    assert np.array_equal(run.trajectory, expected)
    assert run.final_log10 == expected[-1]


def test_a_long_run_holds_its_draws_to_one_block():
    # doubling without a ceiling held ~37 MiB of draws at this cap
    simulate_depression(0.5, 0.5, cap=10)  # first-call allocations out of the peak
    tracemalloc.start()
    try:
        run = simulate_depression(0.5, 0.5, cap=4_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.capped
    assert peak < 2**20, peak


def test_each_batch_run_starts_its_own_philox_stream():
    # no run crosses, and a cap of 4k + 1 leaves three words of each run's
    # four-word Philox buffer unread; the next run must not read them
    q, r, cap, seed = 0.4, 0.3, 4097, 11
    batch = run_batch(q, r, runs=8, seed=seed, target_exponent=1e3, cap=cap)
    up, dn = math.log10(q / r), math.log10((1 - q) / (1 - r))
    for i, run in enumerate(batch.runs):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        expected = np.cumsum(np.where(rng.random(cap) < q, -up, -dn))
        assert run.capped
        assert run.final_log10 == expected[-1], i


def test_batch_ordering_and_worker_independence():
    base = run_batch(1 / 6, 0.3148, runs=40, seed=3, workers=1)
    assert [r.run_index for r in base.runs] == list(range(40))
    text = base.to_table().to_csv()
    for workers in (2, 5):
        assert run_batch(1 / 6, 0.3148, runs=40, seed=3, workers=workers).to_table().to_csv() == text
    assert text.splitlines()[0] == "run_index,seed,crossing_trial,capped"


@pytest.mark.parametrize(
    "q, r, kwargs",
    [
        (1 / 6, 0.3148, dict(seed=3)),  # every run crosses
        (1.0, 0.75, dict(seed=5)),  # q = 1 hits every trial
        (0.5, 0.5, dict(seed=2, cap=300)),  # q = r never crosses: every run capped
        (0.2, 0.3, dict(seed=2**63 + 1, cap=5000)),  # a seed past 2**63
    ],
)
def test_batch_runs_equal_single_runs(q, r, kwargs):
    batch = run_batch(q, r, runs=12, **kwargs)
    assert all(run.capped for run in batch.runs) == (q == r)
    for i, run in enumerate(batch.runs):
        single = simulate_depression(q, r, run_index=i, **kwargs)
        for field in dataclasses.fields(simulate.SimulationRun):
            assert getattr(run, field.name) == getattr(single, field.name), field.name


def test_a_batch_checks_its_game_once(monkeypatch):
    calls = []
    check = simulate._check_game
    monkeypatch.setattr(simulate, "_check_game", lambda *args: calls.append(args) or check(*args))
    assert len(run_batch(1 / 6, 0.3148, runs=50, seed=1).runs) == 50
    assert len(calls) == 1


def test_seeds_above_2_to_the_63_keep_distinct_streams():
    # numpy would read a list key holding 2**63 or more as float64, which
    # maps 2**63 + 1 onto 2**63 and 2**64 - 1 onto seed 0
    path = lambda seed: tuple(
        simulate_depression(0.2, 0.3, cap=64, seed=seed, keep_trajectory=True).trajectory
    )
    seeds = (0, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    assert len({path(seed) for seed in seeds}) == len(seeds)


def test_batch_median_tracks_expected_trials():
    batch = run_batch(1 / 6, 0.31482415541578446, runs=400, seed=0)
    xs = batch.crossing_trials()
    assert not np.isnan(xs).any()
    median = float(np.median(xs))
    assert abs(median - 161.22) <= 0.2 * 161.22


def test_law_of_large_numbers_slope():
    # pooled over ten substreams of 1e5 trials the per-trial drift is the
    # information distance to within two percent
    q, r = 1 / 6, 0.31482415541578446
    k = info_distance(q, r)
    total = 0.0
    n = 0
    for idx in range(10):
        run = simulate_depression(
            q, r, target_exponent=1e9, cap=100_000, seed=0, run_index=idx,
            keep_trajectory=True,
        )
        assert run.capped
        total += run.trajectory[-1]
        n += run.trajectory.size
    slope = -total / n
    assert abs(slope - k) <= 0.02 * k


def test_sample_joint_outcomes_counts():
    counts = sample_joint_outcomes(ghz_state(), (0, 0, 1), (0, 0, 1), (0, 0, 1), 5000, seed=4)
    assert counts.shape == (2, 2, 2)
    assert counts.sum() == 5000
    # z-basis GHZ outcomes are perfectly correlated
    assert counts[0, 0, 0] + counts[1, 1, 1] == 5000
    assert abs(counts[0, 0, 0] - 2500) < 4 * np.sqrt(5000 * 0.25)


def test_sample_joint_outcomes_validation(monkeypatch):
    with pytest.raises(ValueError):
        sample_joint_outcomes(ghz_state(), (1, 0, 0), (0, 1, 0), (0, 0, 1), -1)
    with pytest.raises(ValueError, match="sample count must be an integer"):
        sample_joint_outcomes(ghz_state(), (0, 0, 1), (0, 0, 1), (0, 0, 1), 2.5)
    for seed in (1.5, 2.0, "3", -1):
        with pytest.raises(ValueError, match="^seed must"):
            sample_joint_outcomes(ghz_state(), (0, 0, 1), (0, 0, 1), (0, 0, 1), 10, seed=seed)
    # probabilities that sum to NaN are refused, not normalized and sampled
    monkeypatch.setattr(simulate, "pauli_tensor", lambda state: np.full((4, 4, 4), np.nan))
    with pytest.raises(ValueError, match="sum to nan"):
        sample_joint_outcomes(ghz_state(), (1, 0, 0), (0, 1, 0), (0, 0, 1), 10)


def test_sampled_expectation_agrees_with_quantum_value():
    # empirical (x, y, y) product average for the planar state, 4-sigma band
    state = delta_family_state(120.0)
    yx = yx_settings()
    n = 100_000
    counts = sample_joint_outcomes(state, yx.primed, yx.unprimed, yx.unprimed, n, seed=11)
    signs = np.array([1, -1])
    products = signs[:, None, None] * signs[None, :, None] * signs[None, None, :]
    empirical = float((counts * products).sum()) / n
    sigma = np.sqrt((1.0 - (2.0 / 3.0) ** 2) / n)
    assert abs(empirical - (-2.0 / 3.0)) < 4.0 * sigma


def test_sample_counts_match_probabilities_within_four_sigma():
    state = mercedes_state()
    n = 50_000
    na, nb, nc = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    counts = sample_joint_outcomes(state, na, nb, nc, n, seed=13)
    # recompute the Born probabilities directly
    from triphoton import PureState, bloch_observable

    t = state.tensor
    eye = np.eye(2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                ops = []
                for direction, pick in ((na, i), (nb, j), (nc, k)):
                    obs = bloch_observable(direction).matrix
                    ops.append((eye + obs) / 2 if pick == 0 else (eye - obs) / 2)
                p = np.einsum(
                    "abc,ax,by,cz,xyz->", t.conj(), ops[0], ops[1], ops[2], t
                ).real
                spread = 4.0 * np.sqrt(max(n * p * (1 - p), 1.0))
                assert abs(counts[i, j, k] - n * p) <= spread
