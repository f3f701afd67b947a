import numpy as np
import pytest

import oracles
from triphoton import (
    PureState,
    apply_local,
    basis_state,
    delta_family_state,
    geometry_from_angles,
    geometry_tangle,
    ghz_state,
    invariant_fingerprint,
    mercedes_state,
    ortho_state,
    random_local_unitary,
    tangle,
    tangle_scan,
    tensor3,
)
from triphoton.invariants import _tangle
from triphoton.states import ortho_amplitudes


def test_tangle_matches_expanded_polynomial_oracle():
    rng = np.random.default_rng(60)
    states = [PureState(oracles.random_state(rng)) for _ in range(20)]
    for s in states:
        expected = abs(oracles.cayley_hyperdeterminant(s.amplitudes))
        assert tangle(s) == pytest.approx(expected, abs=1e-12)
    # the batched kernel behind the scan agrees with the per-state tangle
    stack = np.stack([s.tensor for s in states]).reshape(4, 5, 2, 2, 2)
    batched = _tangle(stack).ravel()
    assert batched.shape == (20,)
    for value, s in zip(batched, states):
        assert value == pytest.approx(tangle(s), abs=1e-15)


def test_tangle_reference_states():
    assert tangle(ghz_state()) == pytest.approx(0.25, abs=1e-12)
    assert tangle(mercedes_state()) == pytest.approx(1.0 / 12.0, abs=1e-12)
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    assert tangle(PureState(w)) < 1e-14
    assert tangle(basis_state("+-+")) == 0.0


def test_tangle_requires_normalized_three_qubit_state():
    with pytest.raises(ValueError):
        tangle(PureState(np.ones(8, dtype=complex)))
    with pytest.raises(ValueError, match="expected a three-qubit state, got 2 qubits"):
        tangle(para_state_like())
    nan_state = PureState(np.full(8, np.nan))
    with pytest.raises(ValueError):
        tangle(nan_state)
    with pytest.raises(ValueError):
        invariant_fingerprint(nan_state)


def para_state_like():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    return PureState(amp)


def test_tangle_party_permutation_invariance():
    rng = np.random.default_rng(61)
    for _ in range(10):
        s = PureState(oracles.random_state(rng))
        base = tangle(s)
        t = s.tensor
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            permuted = PureState(np.transpose(t, perm).ravel())
            assert tangle(permuted) == pytest.approx(base, abs=1e-12)


def test_tangle_local_unitary_invariance():
    rng = np.random.default_rng(62)
    for _ in range(10):
        s = PureState(oracles.random_state(rng))
        us = [random_local_unitary(rng) for _ in range(3)]
        rotated = apply_local(us[0], us[1], us[2], s)
        assert tangle(rotated) == pytest.approx(tangle(s), abs=1e-12)


def test_fingerprint_purities_match_loop_oracle():
    rng = np.random.default_rng(63)
    for _ in range(10):
        s = PureState(oracles.random_state(rng))
        fp = invariant_fingerprint(s)
        for party in range(3):
            rho = oracles.loop_reduced_density(s.amplitudes, party)
            assert fp.purities[party] == pytest.approx(
                float(np.trace(rho @ rho).real), abs=1e-12
            )


def test_mercedes_fingerprint_values():
    fp = invariant_fingerprint(mercedes_state())
    assert fp.tangle == pytest.approx(1.0 / 12.0, abs=1e-12)
    for p in fp.purities:
        assert p == pytest.approx(13.0 / 18.0, abs=1e-12)
    assert fp.as_tuple() == (fp.tangle, *fp.purities)


def test_delta_family_closed_form_tangle():
    for d in np.arange(0.0, 181.0, 15.0):
        expected = oracles.delta_tangle(d)
        assert tangle(delta_family_state(d)) == pytest.approx(expected, abs=1e-12)


def test_product_state_tangle_vanishes():
    rng = np.random.default_rng(64)
    for _ in range(10):
        s = tensor3(*(oracles.random_qubit(rng) for _ in range(3)))
        assert tangle(s) < 1e-13


def test_geometry_tangle():
    assert geometry_tangle(geometry_from_angles(120.0, 120.0)) == pytest.approx(
        1.0 / 12.0, abs=1e-12
    )
    assert geometry_tangle(geometry_from_angles(30.0, 40.0)) == 0.0
    rng = np.random.default_rng(65)
    for _ in range(5):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        assert geometry_tangle(g) == pytest.approx(tangle(ortho_state(g, 0)), abs=1e-14)


def test_tangle_scan_step_validation():
    with pytest.raises(ValueError):
        tangle_scan(step_deg=0.0)
    with pytest.raises(ValueError):
        tangle_scan(step_deg=10.5)
    with pytest.raises(ValueError):
        tangle_scan(step_deg=-1.0)


def test_tangle_scan_against_pointwise_evaluation():
    grid = tangle_scan(step_deg=10.0)
    assert grid.shape == (35, 35)
    values = grid.column("tangle")
    for i in (2, 11, 20, 30):
        for j in (3, 11, 22, 33):
            t12 = float(grid.axes[0][i])
            t13 = float(grid.axes[1][j])
            expected = geometry_tangle(geometry_from_angles(t12, t13))
            assert values[i, j] == pytest.approx(expected, abs=1e-12)
    # every feasible cell is the tangle of the ortho_amplitudes state
    # at the scan's weights 1 - cos(opening angle)
    w = lambda deg: 1.0 - np.cos(np.radians(deg))
    for i, t12 in enumerate(grid.axes[0]):
        for j, t13 in enumerate(grid.axes[1]):
            if geometry_from_angles(float(t12), float(t13)).feasible:
                state = PureState(ortho_amplitudes(w(t12), w(t13), w(t12 + t13), 0).ravel())
                assert values[i, j] == tangle(state)


def test_tangle_scan_maximum_and_infeasible_zeros():
    grid = tangle_scan(step_deg=10.0)
    values = grid.column("tangle")
    i, j = np.unravel_index(np.argmax(values), values.shape)
    assert (float(grid.axes[0][i]), float(grid.axes[1][j])) == (120.0, 120.0)
    t12 = grid.axes[0][:, None]
    t13 = grid.axes[1][None, :]
    infeasible = ~((t12 < 180) & (t13 < 180) & (t12 + t13 > 180) & (t12 + t13 < 360))
    assert (values[infeasible] == 0.0).all()


def test_tangle_scan_worker_count_does_not_change_bytes():
    base = tangle_scan(step_deg=5.0, workers=1).to_csv()
    for workers in (2, 3, 8):
        assert tangle_scan(step_deg=5.0, workers=workers).to_csv() == base


def test_tangle_scan_refuses_a_worker_count_that_is_not_a_positive_integer():
    for workers in (0, 1.5, "2"):
        with pytest.raises(ValueError, match="workers must be"):
            tangle_scan(step_deg=10.0, workers=workers)
