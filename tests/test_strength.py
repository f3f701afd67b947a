import math
import tracemalloc

import numpy as np
import pytest

import oracles
import triphoton.strength as strength
from triphoton import (
    EventModel,
    SINGLET_REFERENCE_TRIALS,
    best_lr_model,
    delta_family_state,
    depressing_factor,
    event_probabilities,
    ghz_state,
    info_distance,
    mermin_delta_sweep,
    strength_delta_sweep,
    strength_table,
    trials_to_depress,
)
from triphoton.states import delta_range
from triphoton.tensor import pauli_tensor


def test_info_distance_basic_values():
    assert info_distance(0.5, 0.5) == 0.0
    assert info_distance(0.0, 0.25) == pytest.approx(-math.log10(0.75), abs=1e-15)
    assert info_distance(1.0, 0.25) == pytest.approx(-math.log10(0.25), abs=1e-15)
    assert info_distance(1.0 / 6.0, 1.0 / 3.0) == pytest.approx(
        oracles.kl_digits(1.0 / 6.0, 1.0 / 3.0), abs=1e-15
    )


def test_info_distance_positivity_and_zero():
    rng = np.random.default_rng(80)
    for _ in range(50):
        q, r = rng.uniform(0.01, 0.99, size=2)
        k = info_distance(q, r)
        if abs(q - r) > 1e-9:
            assert k > 0.0
        assert info_distance(q, q) == 0.0


def test_info_distance_matches_the_mpmath_oracle():
    # away from q = r the float formula holds to 1e-13 relative; closer in,
    # its two O(q - r) terms cancel (2e-10 at |q - r| ~ 1e-3)
    rng = np.random.default_rng(12)
    axis = np.linspace(0.0, 1.0, 41).tolist()
    pairs = [(q, r) for q in axis for r in axis]
    pairs += [tuple(map(float, p)) for p in rng.uniform(0.0, 1.0, (2000, 2))]
    checked = 0
    for q, r in pairs:
        if abs(q - r) < 0.05 or (q > 0.0 and r <= 0.0) or (q < 1.0 and r >= 1.0):
            continue
        expected = oracles.mp_info_distance(q, r)
        assert info_distance(q, r) == pytest.approx(expected, rel=1e-13, abs=0.0)
        checked += 1
    assert checked > 2000
    # at q on an endpoint one term drops out, and with r (or 1 - r) a power
    # of two the closed form -log10(r) (or -log10(1 - r)) comes out exact
    for k in range(1, 53):
        for q, r in ((1.0, 2.0**-k), (0.0, 1.0 - 2.0**-k)):
            assert info_distance(q, r) == oracles.mp_info_distance(q, r)


def test_info_distance_domain_errors():
    with pytest.raises(ValueError):
        info_distance(0.5, 0.0)
    with pytest.raises(ValueError):
        info_distance(0.5, 1.0)
    with pytest.raises(ValueError):
        info_distance(1.2, 0.5)
    for r in (math.nan, math.inf, -0.5, 1.5):
        with pytest.raises(ValueError):
            info_distance(0.5, r)
    with pytest.raises(ValueError):
        info_distance(0.0, -0.1)
    # matching endpoints are fine
    assert info_distance(0.0, 0.0) == 0.0
    assert info_distance(1.0, 1.0) == 0.0


def test_trials_to_depress():
    k = info_distance(1.0, 0.75)
    assert trials_to_depress(1.0, 0.75) == pytest.approx(4.0 / k, abs=1e-12)
    assert trials_to_depress(1.0, 0.75) == pytest.approx(oracles.GHZ_TRIALS, abs=1e-9)
    assert trials_to_depress(0.3, 0.3) == math.inf
    assert trials_to_depress(1.0, 0.75, target_exponent=8.0) == pytest.approx(
        8.0 / k, abs=1e-12
    )
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_exponent"):
            trials_to_depress(0.5, 0.25, target_exponent=bad)


def test_depressing_factor_identities():
    # n trials with the empirical rate exactly q gives -n K(q, r)
    got = depressing_factor(0.3, 0.2, 10, 3)
    assert got == pytest.approx(-10.0 * info_distance(0.3, 0.2), abs=1e-12)
    assert depressing_factor(1.0, 0.75, 33, 33) == pytest.approx(
        33.0 * math.log10(0.75), abs=1e-12
    )
    assert depressing_factor(1.0, 0.75, 33, 33) < -4.0


def test_depressing_factor_endpoint_conventions():
    assert depressing_factor(0.5, 0.0, 4, 1) == -math.inf
    assert depressing_factor(0.0, 0.5, 4, 1) == math.inf
    assert depressing_factor(0.5, 1.0, 4, 3) == -math.inf
    with pytest.raises(ValueError):
        depressing_factor(0.0, 0.0, 4, 1)
    with pytest.raises(ValueError, match="need 0 <= m <= n"):
        depressing_factor(0.3, 0.2, 3, 5)
    # the counts are integers: 2.5 trials or 1.0 hits are refused, not used
    for n, m, name in (
        (2.5, 1, "n"), ("3", 1, "n"), (-1, 0, "n"), (4, 1.0, "m"), (4, -1, "m"), (True, False, "n")
    ):
        with pytest.raises(ValueError, match=f"^{name} must"):
            depressing_factor(0.5, 0.4, n, m)
    # probabilities outside [0, 1] raise instead of giving nan or +/-inf
    for q, r, name in ((math.nan, 0.5, "q"), (1.5, 0.5, "q"), (0.5, -0.2, "r"), (0.5, math.nan, "r")):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            depressing_factor(q, r, 4, 1)


def test_event_model_mermin_mapping():
    assert EventModel(1.0 / 6.0, 1.0).mermin_value == pytest.approx(-3.0)
    assert EventModel(0.0, 1.0).mermin_value == pytest.approx(-4.0)
    assert EventModel(1.0, 1.0).mermin_value == pytest.approx(2.0)
    assert not EventModel(1.0 / 3.0, 1.0).violates  # exactly on the bound
    assert EventModel(1.0 / 6.0, 1.0).violates
    with pytest.raises(ValueError):
        EventModel(1.2, 0.5)


def test_best_lr_model_reference_points():
    report = best_lr_model(1.0 / 6.0, 1.0)
    assert report.r1 == pytest.approx(0.3148241, abs=1e-6)
    assert report.r2 == pytest.approx(3.0 * report.r1, abs=1e-12)
    assert report.n_trials == pytest.approx(161.2207, abs=1e-3)
    assert report.violated

    report = best_lr_model(0.0, 1.0)
    assert report.r1 == pytest.approx(0.25, abs=1e-9)
    assert report.n_trials == pytest.approx(oracles.GHZ_TRIALS, abs=1e-6)

    report = best_lr_model(0.0868143217444673, 0.7834209682293061)
    assert report.r1 == pytest.approx(0.2096761, abs=1e-6)
    assert report.n_trials == pytest.approx(166.2522, abs=1e-3)


def test_best_lr_model_balances_the_binding_channel():
    report = best_lr_model(1.0 / 6.0, 1.0)
    # at the optimum both channels are equally informative and the trial
    # count times the binding distance equals the target exponent
    assert report.k1 == pytest.approx(report.k2, abs=1e-9)
    binding = max(report.k1, report.k2)
    assert report.n_trials * binding == pytest.approx(4.0, abs=1e-9)
    assert report.binding_event == "single_primed"


def test_best_lr_model_plays_chsh_at_tsirelsons_bound():
    # three CHSH setting pairs agree with probability (2 + sqrt 2)/4 and the
    # fourth with (2 - sqrt 2)/4; the CHSH facet is the +2 face r2 = 3 r1 - 2,
    # and the best local model answers 3/4 on the three and 1/4 on the fourth
    q1 = (2.0 + math.sqrt(2.0)) / 4.0
    report = best_lr_model(q1, (2.0 - math.sqrt(2.0)) / 4.0)
    assert abs(report.r1 - 0.75) <= 1e-15
    assert abs(report.r2 - 0.25) <= 1e-15
    assert report.n_trials == pytest.approx(4.0 / oracles.mp_info_distance(q1, 0.75), rel=1e-12)
    # van Dam, Gill and Grunwald's statistical strength of CHSH, in bits a trial
    assert f"{report.k1 * math.log2(10.0):.10f}" == "0.0462738469"
    # so a singlet needs about 287 trials here, more than the reference row's 200
    assert report.n_trials > SINGLET_REFERENCE_TRIALS


def test_best_lr_model_grid_certificate():
    # no admissible model on either saturating family beats the reported one
    report = best_lr_model(1.0 / 6.0, 1.0)
    best = max(report.k1, report.k2)

    def worst_at(r1, slope, shift):
        r2 = slope * r1 + shift
        vals = []
        for q, r in ((1.0 / 6.0, r1), (1.0, r2)):
            if (q > 0 and r <= 0) or (q < 1 and r >= 1):
                vals.append(math.inf)
            else:
                vals.append(oracles.kl_digits(q, r))
        return max(vals)

    for r1 in np.arange(1e-4, 1.0 / 3.0, 1e-4):
        assert worst_at(r1, 3.0, 0.0) >= best - 1e-9
    for r1 in np.arange(2.0 / 3.0 + 1e-4, 1.0, 1e-4):
        assert worst_at(r1, 3.0, -2.0) >= best - 1e-9


def test_best_lr_model_without_violation():
    report = best_lr_model(0.3, 0.5)
    assert not report.violated
    assert report.n_trials == math.inf
    assert report.r1 == 0.3
    assert report.r2 == 0.5
    assert report.k1 == 0.0
    assert report.binding_event == "none"


def test_best_lr_model_complement_symmetry():
    # flipping every outcome maps the -2 face onto the +2 face
    base = best_lr_model(1.0 / 6.0, 1.0)
    mirrored = best_lr_model(5.0 / 6.0, 0.0)
    assert mirrored.n_trials == pytest.approx(base.n_trials, abs=1e-6)
    assert mirrored.r1 == pytest.approx(1.0 - base.r1, abs=1e-6)


def test_best_lr_model_accepts_event_model():
    model = EventModel(1.0 / 6.0, 1.0)
    a = best_lr_model(model)
    b = best_lr_model(1.0 / 6.0, 1.0)
    assert a.n_trials == pytest.approx(b.n_trials, abs=1e-12)
    with pytest.raises(ValueError):
        best_lr_model(model, 0.5)
    with pytest.raises(ValueError):
        best_lr_model(0.5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_exponent"):
            best_lr_model(0.5, 1.0, target_exponent=bad)


def test_event_probabilities_for_reference_states():
    m = event_probabilities(delta_family_state(120.0))
    assert m.q1 == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert m.q2 == 1.0
    g = event_probabilities(ghz_state())
    assert g.q1 == 0.0
    assert g.q2 == 1.0
    inside = event_probabilities(delta_family_state(60.0))
    assert not inside.violates


def test_yx_events_match_event_probabilities():
    states = [ghz_state()] + [delta_family_state(d) for d in delta_range(0.0, 180.0, 7.5)]
    events = strength._yx_events(np.stack([pauli_tensor(s) for s in states]))
    for (q1, q2), state in zip(events, states):
        model = event_probabilities(state)
        assert (q1, q2) == (model.q1, model.q2)
    assert events[0].tolist() == [0.0, 1.0]  # GHZ: both snapped to an endpoint


def test_delta_sweeps_hold_memory_to_a_chunk():
    # 18001 and 3601 rows: stacking every state at once would peak near
    # 29 MiB and 6 MiB; chunks of the stacked pass keep both near 2 MiB
    for sweep, step in ((mermin_delta_sweep, 0.01), (strength_delta_sweep, 0.05)):
        tracemalloc.start()
        try:
            sweep(0.0, 180.0, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, (sweep.__name__, peak)


def test_strength_table_contents():
    table = strength_table()
    assert table.column_names == ("state", "n_trials", "source")
    rows = {row[0]: row for row in table.rows}
    assert abs(rows["GHZ"][1] - oracles.GHZ_TRIALS) < 1.0
    assert abs(rows["positronium"][1] - 161.2207) < 1.0
    assert rows["singlet"][1] == SINGLET_REFERENCE_TRIALS == 200.0
    assert rows["singlet"][2] == "reference"
    assert rows["GHZ"][2] == rows["positronium"][2] == "computed"


def test_strength_sweep_columns_and_flags():
    grid = strength_delta_sweep(80.0, 180.0, 20.0)
    assert grid.header() == ("delta_deg", "q1", "r1", "n_trials", "flagged_over_200")
    ns = grid.column("n_trials")
    flags = grid.column("flagged_over_200")
    assert ns[0] == math.inf and flags[0]  # 80 degrees: no violation
    assert flags[1]  # 100 degrees needs more trials than the benchmark
    assert not flags[2]  # 120 degrees does not
    q1s = grid.column("q1")
    for d, q1 in zip(grid.axes[0], q1s):
        assert q1 == pytest.approx(event_probabilities(delta_family_state(d)).q1, abs=1e-12)


def test_strength_sweep_is_monotone_in_the_violating_region():
    ns = strength_delta_sweep(100.0, 180.0, 10.0).column("n_trials")
    assert all(b < a for a, b in zip(ns, ns[1:]))


_MINIMAX_DELTAS = np.concatenate((delta_range(80.0, 180.0, 0.25), delta_range(85.8, 86.5, 0.001)))


def _random_violating_models():
    """2000 violating models, uniform in (q1, q2): about half on each side of the bound."""
    rng = np.random.default_rng(13)
    models = [m for m in map(EventModel, *rng.uniform(0.0, 1.0, (2, 6600)).tolist()) if m.violates]
    return models[:2000]


def _recorded(fn, calls):
    """fn, appending each of its results to calls."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(result)
        return result
    return wrapper


def test_minimax_ports_match_scipy_bit_for_bit(monkeypatch):
    # scipy is the oracle for the ports of its bounded minimizer and brentq:
    # every report field and every minimizer's (x, nfev) must come out equal
    from scipy import optimize

    models = [event_probabilities(delta_family_state(float(d))) for d in _MINIMAX_DELTAS]
    models += _random_violating_models() + [EventModel(1.0, 0.0), EventModel(0.0, 1.0)]
    models.append(EventModel(1.0, 1.0))  # on the +2 bound: no violation, no search
    assert len(models) == len(_MINIMAX_DELTAS) + 2003

    def run(minimize, root):
        minima, roots = [], []
        monkeypatch.setattr(strength, "minimize_scalar", _recorded(minimize, minima))
        monkeypatch.setattr(strength, "brentq", _recorded(root, roots))
        reports = [best_lr_model(m) for m in models]
        return reports, [(float(m.x), m.nfev) for m in minima], roots

    port = run(strength.minimize_scalar, strength.brentq)
    scipy_bounded = lambda f, lo, hi, xatol: optimize.minimize_scalar(
        f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
    )
    assert port == run(scipy_bounded, optimize.brentq)
    # one minimizer call per violating model: only the face it crosses is searched
    assert len(port[1]) == sum(m.violates for m in models) and port[2]


def test_the_far_face_is_at_least_three_times_farther():
    # _minimax skips the face the violation does not cross; an independent grid
    # search of that face must find nothing closer than three times the reported
    # worst. The grid can only over-estimate the face's minimum, and the reported
    # worst carries optimizer and rounding error well below the stated 1e-9
    # relative (K's cancellation near q = r costs ~2e-10); the least ratio seen,
    # 4.8, is at the corners |M| = 4
    models = _random_violating_models() + [EventModel(1.0, 0.0), EventModel(0.0, 1.0)]
    family = map(event_probabilities, map(delta_family_state, _MINIMAX_DELTAS))
    models += [m for m in family if m.violates]
    assert {m.mermin_value > 2.0 for m in models} == {False, True}
    for m in models:
        report = best_lr_model(m)
        worst = max(report.k1, report.k2)
        assert oracles.far_face_minimax(m.q1, m.q2) >= 3.0 * worst * (1.0 - 1e-9), m


def test_brentq_edges_match_scipy():
    from scipy import optimize

    line = lambda x: x - 0.25
    for a, b in ((0.25, 1.0), (0.0, 0.25)):  # f(a) == 0, then f(b) == 0
        assert strength.brentq(line, a, b) == optimize.brentq(line, a, b) in (a, b)
    for module in (strength, optimize):
        with pytest.raises(ValueError, match="different signs"):
            module.brentq(line, 0.5, 1.0)
        for maxiter in (0, 1, 3):
            with pytest.raises(RuntimeError, match=f"after {maxiter} iterations"):
                module.brentq(lambda x: math.exp(x) - 2.0, 0.0, 5.0, maxiter=maxiter)
    f = lambda x: math.cos(x) - x
    assert strength.brentq(f, 0.0, 1.0) == optimize.brentq(f, 0.0, 1.0)
