import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import oracles
from triphoton import (
    ObservableSettings,
    apply_local,
    delta_family_state,
    ghz_state,
    lr_constraint_check,
    mercedes_state,
    mermin_delta_sweep,
    mermin_extremize,
    mermin_gradient,
    mermin_value,
    random_local_unitary,
    tensor3,
    triple_expectation,
    yx_settings,
)
from triphoton import mermin
from triphoton.mermin import _halton, _pcg64_words32, _shuffled, _symmetrized
from triphoton.mermin import _value_gradient_hessian
from triphoton.tensor import pauli_tensor
from triphoton.states import delta_range


def test_settings_require_unit_vectors():
    with pytest.raises(ValueError):
        ObservableSettings(unprimed=(0.0, 2.0, 0.0), primed=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ObservableSettings.from_angles(np.nan, 0.0, 90.0, 0.0)
    s = ObservableSettings(unprimed=(0.0, 1.0, 0.0), primed=(1.0, 0.0, 0.0))
    assert np.array_equal(s.unprimed, [0.0, 1.0, 0.0])


def test_settings_angle_roundtrip():
    s = ObservableSettings.from_angles(72.0, 311.0, 145.0, 12.0)
    assert np.allclose(s.angles_deg, (72.0, 311.0, 145.0, 12.0), atol=1e-12)


def test_yx_settings_vectors():
    s = yx_settings()
    assert np.array_equal(s.unprimed, [0.0, 1.0, 0.0])
    assert np.array_equal(s.primed, [1.0, 0.0, 0.0])


def test_triple_expectation_matches_dense_oracle():
    rng = np.random.default_rng(70)
    from triphoton import PureState

    for _ in range(10):
        s = PureState(oracles.random_state(rng))
        ns = []
        for _ in range(3):
            n = rng.standard_normal(3)
            ns.append(n / np.linalg.norm(n))
        got = triple_expectation(s, *ns)
        expected = oracles.dense_triple_expectation(s.amplitudes, *ns)
        assert got == pytest.approx(expected, abs=1e-12)


def test_triple_expectation_rejects_unnormalized_state():
    from triphoton import PureState

    with pytest.raises(ValueError):
        triple_expectation(
            PureState(2.0 * ghz_state().amplitudes), (1, 0, 0), (0, 1, 0), (0, 0, 1)
        )
    with pytest.raises(ValueError):
        triple_expectation(PureState(np.full(8, np.nan)), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        triple_expectation(ghz_state(), (np.nan, 0, 0), (0, 1, 0), (0, 0, 1))


def test_reference_mermin_values_at_yx():
    yx = yx_settings()
    assert mermin_value(ghz_state(), yx) == pytest.approx(-4.0, abs=1e-12)
    assert mermin_value(delta_family_state(120.0), yx) == pytest.approx(-3.0, abs=1e-12)
    # the helicity-basis symmetric state is a different local frame and does
    # not violate anything at these particular settings
    assert mermin_value(mercedes_state(), yx) == pytest.approx(0.0, abs=1e-12)


def test_all_primed_expectation_is_one_across_family():
    yx = yx_settings()
    x = yx.primed
    for d in np.arange(0.0, 181.0, 20.0):
        e = triple_expectation(delta_family_state(d), x, x, x)
        assert e == pytest.approx(1.0, abs=1e-12)


def test_mermin_matches_product_superposition_oracle():
    rng = np.random.default_rng(71)
    for d in (35.0, 90.0, 120.0, 166.0):
        u, v, alpha = oracles.delta_state_vectors(d)
        state = delta_family_state(d)
        for _ in range(5):
            angles = rng.uniform((0, 0, 0, 0), (180, 360, 180, 360))
            settings = ObservableSettings.from_angles(*angles)
            expected = oracles.product_superposition_mermin(
                u, v, alpha, settings.unprimed, settings.primed
            )
            assert mermin_value(state, settings) == pytest.approx(expected, abs=1e-12)


def test_product_states_respect_the_classical_bound():
    rng = np.random.default_rng(72)
    for _ in range(40):
        s = tensor3(*(oracles.random_qubit(rng) for _ in range(3)))
        angles = rng.uniform((0, 0, 0, 0), (180, 360, 180, 360))
        m = mermin_value(s, ObservableSettings.from_angles(*angles))
        assert abs(m) <= 2.0 + 1e-9


def test_mermin_invariant_under_joint_frame_rotation():
    # rotating the state by U on every party and the Bloch settings by the
    # matching SO(3) rotation leaves every expectation unchanged
    rng = np.random.default_rng(73)
    state = delta_family_state(120.0)
    for _ in range(5):
        u = random_local_unitary(rng).matrix
        rot = oracles.su2_to_so3(u)
        base = yx_settings()
        rotated_settings = ObservableSettings(
            unprimed=rot @ base.unprimed, primed=rot @ base.primed
        )
        rotated_state = apply_local(u, u, u, state)
        # settings transform with the inverse rotation of the state frame
        got = mermin_value(rotated_state, rotated_settings)
        assert got == pytest.approx(mermin_value(state, base), abs=1e-9)


def test_gradient_vanishes_at_the_symmetric_stationary_point():
    for d in (90.0, 120.0, 150.0, 180.0):
        g = mermin_gradient(delta_family_state(d), (90.0, 90.0, 90.0, 0.0))
        assert np.linalg.norm(g) <= 1e-6


def test_gradient_rejects_bad_angles():
    for angles in ((np.nan, 0.0, 90.0, 0.0), (0.0, 0.0, np.inf, 0.0), (0.0, 90.0, 0.0)):
        with pytest.raises(ValueError):
            mermin_gradient(ghz_state(), angles)
    with pytest.raises(ValueError, match="theta_prime_deg must be finite, got inf"):
        mermin_gradient(ghz_state(), (0.0, 0.0, np.inf, 0.0))


def test_setting_angles_must_be_finite():
    # refused at entry with the angle named, before a sine or cosine can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="theta_deg must be finite, got inf"):
            ObservableSettings.from_angles(np.inf, 0.0, 90.0, 0.0)
        with pytest.raises(ValueError, match="phi_prime_deg must be finite, got nan"):
            ObservableSettings.from_angles(90.0, 0.0, 90.0, np.nan)


def test_gradient_is_nonzero_away_from_stationary_points():
    g = mermin_gradient(delta_family_state(120.0), (80.0, 30.0, 95.0, 100.0))
    assert np.linalg.norm(g) > 1e-2
    # and it is the exact derivative: random states and angles against the
    # central differences of an independently evaluated Mermin value
    from triphoton import PureState

    rng = np.random.default_rng(74)
    for _ in range(20):
        amp = oracles.random_state(rng)
        angles = rng.uniform((0, 0, 0, 0), (180, 360, 180, 360))
        expected = oracles.central_difference_mermin_gradient(amp, np.radians(angles))
        got = mermin_gradient(PureState(amp), angles)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-8)


def test_hessian_matches_central_differences_of_the_gradient():
    from triphoton import PureState

    rng = np.random.default_rng(75)
    h = 1e-5
    for _ in range(20):
        state = PureState(oracles.random_state(rng))
        x = np.radians(rng.uniform((0, 0, 0, 0), (180, 360, 180, 360)))
        corr = pauli_tensor(state)
        hess = _value_gradient_hessian(corr, _symmetrized(corr), x)[2]
        expected = np.array(
            [
                (mermin_gradient(state, np.degrees(x + h * e))
                 - mermin_gradient(state, np.degrees(x - h * e))) / (2.0 * h)
                for e in np.eye(4)
            ]
        )
        assert np.allclose(hess, expected, rtol=0.0, atol=1e-6)
        assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-12)


def _bench_tracer(monkeypatch):
    """bench/tracer.py, loaded the way tests/test_bench_hooks.py loads it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_counts_newton_results(monkeypatch):
    hook = _bench_tracer(monkeypatch)._minimize
    corr = pauli_tensor(delta_family_state(120.0))
    fun = lambda x: _value_gradient_hessian(corr, _symmetrized(corr), x)
    x0 = np.array([1.4, 0.5, 1.7, 2.3])
    res = mermin.minimize(fun, x0)
    assert res.success and np.linalg.norm(res.jac) <= mermin._STATIONARY_TOL
    assert res.fun == pytest.approx(-3.0459560059918083, abs=1e-9)
    counts = {"mermin.minimize.calls": 0, "mermin.minimize.nfev": 0,
              "mermin.minimize.converged": 0}
    hook(counts, res, (fun, x0), {})
    assert counts == {"mermin.minimize.calls": 1, "mermin.minimize.nfev": res.nfev,
                      "mermin.minimize.converged": 1}
    assert res.nfev > 1
    # an unbounded slope with a vanishing Hessian never becomes stationary:
    # plain gradient steps until the step cap, counted as not converged
    linear = lambda x: (x[0], np.array([1.0, 0.0, 0.0, 0.0]), np.zeros((4, 4)))
    res = mermin.minimize(linear, np.zeros(4))
    assert not res.success
    assert res.nfev == mermin._NEWTON_STEPS + 1
    assert res.fun == -mermin._NEWTON_STEPS
    hook(counts, res, (linear, np.zeros(4)), {})
    assert counts["mermin.minimize.calls"] == 2
    assert counts["mermin.minimize.converged"] == 1


def test_minimize_stops_on_the_gradient_not_on_the_value():
    # near the minimum of f = 1e11 + sum(cosh x - 1) every gain is below the
    # rounding of f: one step from x0 leaves |g| = 3.1e-9, the next ~1e-26
    fun = lambda x: (1e11 + np.sum(np.cosh(x) - 1.0), np.sinh(x), np.diag(np.cosh(x)))
    res = mermin.minimize(fun, np.array([2.1e-3, 0.0, 0.0, 0.0]))
    assert res.success
    assert math.hypot(*res.jac) <= 1e-13


def test_extremize_prints_gradients_at_or_below_1e_10():
    for state in [ghz_state()] + [delta_family_state(d) for d in range(5, 181, 35)]:
        for seed in range(3):
            for point in mermin_extremize(state, starts=64, seed=seed).points:
                assert point.gradient_norm <= 1e-10


def test_extremize_finds_the_deep_minimum():
    result = mermin_extremize(delta_family_state(120.0), starts=64, seed=0)
    assert result.value == pytest.approx(-3.0459560059918083, abs=1e-9)
    theta, phi, theta_p, phi_p = result.angles_deg
    assert theta == pytest.approx(90.0, abs=1e-4)
    assert theta_p == pytest.approx(90.0, abs=1e-4)
    assert phi == pytest.approx(23.894077, abs=1e-3)
    assert phi_p == pytest.approx(125.968285, abs=1e-3)
    assert result.stationary
    assert result.gradient_norm <= 1e-6
    values = [p.value for p in result.points]
    assert values == sorted(values)
    assert any(abs(v + 3.0) <= 1e-7 for v in values)


def test_extremize_ghz_reaches_minus_four():
    result = mermin_extremize(ghz_state(), starts=32, seed=0)
    assert result.value == pytest.approx(-4.0, abs=1e-9)
    # the -1 point has one direction on a pole, where phi is arbitrary; it is
    # printed as theta exactly 0 or 180 with phi = 0
    result = mermin_extremize(ghz_state(), starts=64, seed=7)
    pole_rows = 0
    for point in result.points:
        assert point.stationary and point.gradient_norm <= 1e-6
        for theta, phi in (point.angles_deg[:2], point.angles_deg[2:]):
            if min(theta, 180.0 - theta) <= 1e-3:
                assert theta in (0.0, 180.0) and phi == 0.0
                pole_rows += 1
    assert pole_rows >= 1


def test_extremize_values_are_read_at_the_printed_angles():
    # the GHZ point at theta' = 180 has value 0 up to sin(pi) = 1.2e-16 dust;
    # the unfolded Newton point beside it gave 9.3e-22 and 4.7e-21
    for starts, seed in ((64, 0), (16, 1)):
        points = mermin_extremize(ghz_state(), starts=starts, seed=seed).points
        (pole,) = [p for p in points if p.angles_deg[2] == 180.0]
        assert abs(pole.value) <= 1e-40
        for state in (delta_family_state(120.0), ghz_state(), delta_family_state(90.0),
                      delta_family_state(150.0)):
            for point in mermin_extremize(state, starts=starts, seed=seed).points:
                assert abs(point.value - mermin_value(state, point.settings)) <= 1e-14


def test_extremize_is_deterministic():
    a = mermin_extremize(delta_family_state(120.0), starts=16, seed=5)
    b = mermin_extremize(delta_family_state(120.0), starts=16, seed=5)
    assert a.value == b.value
    assert a.angles_deg == b.angles_deg
    assert len(a.points) == len(b.points)


@pytest.mark.parametrize(
    "seed", [0, 1, 2, 5, 7, 42, 999, 123456, 2**31 - 1, 2**64 + 1, 2**100 + 7, 2**200 + 3]
)
def test_halton_starts_match_scipy_bit_for_bit(seed):
    # the start points scipy's scrambled Halton gave before the extremizer
    # had its own generator; seed=, not rng=, which draws another stream
    lo = np.zeros(4)
    hi = np.array([np.pi, 2.0 * np.pi, np.pi, 2.0 * np.pi])
    for n in (1, 7, 32, 64, 200):
        expected = qmc.scale(qmc.Halton(d=4, scramble=True, seed=seed).random(n), lo, hi)
        assert np.array_equal(_halton(n, seed) * (hi - lo) + lo, expected)


# seeds of 1, 2, 3, 4, 5 and 7 32-bit words: past four, SeedSequence mixes
# the extra words in after its pool
_PORT_SEEDS = [*range(3000), 2**31 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1, 2**64, 2**100 + 7,
               2**127 - 1, 2**128, 10**40, 2**200 + 3]


def test_permutation_stream_matches_numpy_shuffle():
    # _halton's permutations, in its draw order, against the numpy stream it ports
    sizes = [base for base in (2, 3, 5, 7) for _ in range(math.ceil(54 / math.log2(base)) - 1)]
    for seed in _PORT_SEEDS:
        rng, words = np.random.default_rng(seed), _pcg64_words32(seed)
        for size in sizes:
            expected = np.arange(size)
            rng.shuffle(expected)
            assert _shuffled(size, words) == expected.tolist(), (seed, size)


def test_extremize_validates_starts():
    with pytest.raises(ValueError):
        mermin_extremize(ghz_state(), starts=0)
    with pytest.raises(ValueError, match="more than"):
        mermin_extremize(ghz_state(), starts=mermin._MAX_STARTS + 1)
    with pytest.raises(ValueError):
        mermin_extremize(ghz_state(), starts=4, seed=-1)
    for kwargs, name in ((dict(starts=1.5), "starts"), (dict(starts=4, seed=1.5), "seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            mermin_extremize(ghz_state(), **kwargs)


def test_lr_constraint_check_covers_all_assignments():
    chk = lr_constraint_check()
    assert chk.n_assignments == 64
    assert chk.distinct_values == (-2.0, 2.0)
    assert chk.within_bounds


def test_inclusive_range_endpoints():
    assert np.array_equal(delta_range(0.0, 180.0, 30.0), np.arange(0.0, 181.0, 30.0))
    assert delta_range(85.0, 87.0, 0.01).size == 201
    with pytest.raises(ValueError):
        delta_range(0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        delta_range(10.0, 0.0, 1.0)


def test_delta_sweep_matches_closed_form():
    grid = mermin_delta_sweep(0.0, 180.0, 15.0)
    deltas = grid.axes[0]
    values = grid.column("mermin_value")
    violations = grid.column("violation")
    assert deltas.size == 13
    for d, v, viol in zip(deltas, values, violations):
        assert v == pytest.approx(oracles.delta_mermin_yx(d), abs=1e-12)
        assert viol == pytest.approx(-v - 2.0, abs=1e-12)


def test_delta_sweep_reads_each_states_mermin_value():
    grid = mermin_delta_sweep(0.0, 180.0, 0.05)
    assert grid.axes[0].size > mermin._DELTA_CHUNK
    expected = [mermin_value(delta_family_state(d), yx_settings()) for d in grid.axes[0]]
    assert np.array_equal(grid.column("mermin_value"), expected)


def test_violation_threshold_location():
    # the violation changes sign between 85 and 86 degrees; bisect it
    lo, hi = 80.0, 90.0
    f = lambda d: -mermin_value(delta_family_state(d), yx_settings()) - 2.0
    assert f(lo) < 0 < f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    assert threshold == pytest.approx(85.8814, abs=0.01)
    # exact root: cos(delta/2) solves x^3 + 3x^2 - 2 = 0
    x = np.cos(np.radians(threshold / 2.0))
    assert x**3 + 3 * x**2 - 2 == pytest.approx(0.0, abs=1e-9)
