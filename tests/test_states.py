import numpy as np
import pytest

import oracles
from triphoton import (
    FeasibilityError,
    amplitude_polarization,
    amplitude_vector,
    apply_local,
    delta_family_minimal,
    delta_family_state,
    geometry_from_angles,
    ghz_state,
    helicity_table,
    invariant_fingerprint,
    mercedes_decompositions,
    mercedes_geometry,
    mercedes_state,
    ortho_state,
    para_state,
    scalar_amplitude,
    spin_amplitude_matrix,
    spin_projection_state,
    tangle,
)
from triphoton.states import ProductDecomposition, _delta_family_tensor, delta_range
from triphoton.tensor import PAULI


def test_scalar_amplitude_selects_equal_helicities():
    assert scalar_amplitude(1, 1) == -1j
    assert scalar_amplitude(-1, -1) == 1j
    assert scalar_amplitude(1, -1) == 0
    assert scalar_amplitude(-1, 1) == 0


def test_para_state_amplitudes():
    s = para_state()
    root2 = np.sqrt(2.0)
    assert np.abs(s.amplitudes - np.array([1 / root2, 0, 0, -1 / root2])).max() < 1e-15


def test_amplitude_polarization_keeps_transversality_and_curl():
    for phi in (0.0, 33.0, 120.0, 250.0):
        for h in (1, -1):
            eps = amplitude_polarization(phi, h)
            k = np.array([np.cos(np.radians(phi)), np.sin(np.radians(phi)), 0.0])
            assert abs(np.dot(k, eps)) < 1e-12
            assert np.abs(np.cross(k, eps) - (-1j * h) * eps).max() < 1e-12
            assert np.vdot(eps, eps).real == pytest.approx(1.0, abs=1e-12)


def test_amplitude_polarization_in_plane_dot_identity():
    # same-plane identity for every helicity pair, 10x10 azimuth grid
    phis = np.linspace(0.0, 324.0, 10)
    for p1 in phis:
        for p2 in phis:
            k1 = np.array([np.cos(np.radians(p1)), np.sin(np.radians(p1)), 0.0])
            k2 = np.array([np.cos(np.radians(p2)), np.sin(np.radians(p2)), 0.0])
            for h1 in (1, -1):
                for h2 in (1, -1):
                    dot = np.dot(amplitude_polarization(p1, h1), amplitude_polarization(p2, h2))
                    expected = -(1.0 - h1 * h2 * np.dot(k1, k2)) / 2.0
                    assert abs(dot - expected) < 1e-12


def test_amplitude_vector_vanishes_on_uniform_helicities():
    rng = np.random.default_rng(50)
    for _ in range(5):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        assert np.abs(amplitude_vector(g, (1, 1, 1))).max() < 1e-14
        assert np.abs(amplitude_vector(g, (-1, -1, -1))).max() < 1e-14


def test_amplitude_vector_minority_photon_form():
    rng = np.random.default_rng(51)
    patterns = [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    minority = [0, 1, 2, 0, 1, 2]
    for _ in range(5):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        k = g.unit_vectors
        for hs, i in zip(patterns, minority):
            j, l = (x for x in range(3) if x != i)
            w = 1.0 - np.dot(k[j], k[l])
            expected = 2.0 * w * np.conj(amplitude_polarization(g.azimuths_deg[i], hs[i]))
            assert np.abs(amplitude_vector(g, hs) - expected).max() < 1e-12


def test_amplitude_vector_rejects_bad_input():
    g = mercedes_geometry()
    with pytest.raises(ValueError):
        amplitude_vector(g, (1, 1))
    with pytest.raises(ValueError):
        amplitude_vector(g, (1, 0, 1))
    # helicities are compared with +/-1 exactly, never truncated to an int
    table = helicity_table(g)
    for call in (
        lambda: amplitude_polarization(30.0, 1.7),
        lambda: scalar_amplitude(1.9, -1.2),
        lambda: amplitude_vector(g, (1.5, -1, 1)),
        lambda: table.entry(1.2, 1, -1.9),
    ):
        with pytest.raises(ValueError, match="helicities must be"):
            call()
    with pytest.raises(FeasibilityError):
        amplitude_vector(geometry_from_angles(30.0, 40.0), (1, -1, 1))


def test_spin_amplitude_matrix_is_pauli_dot_vector():
    rng = np.random.default_rng(52)
    sigma = np.stack(PAULI)
    for _ in range(5):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        for hs in [(1, -1, 1), (-1, -1, 1), (1, 1, -1)]:
            m = spin_amplitude_matrix(g, hs)
            v = amplitude_vector(g, hs)
            assert np.abs(m - np.einsum("a,aij->ij", v, sigma)).max() < 1e-12
            literal = oracles.literal_spin_amplitude_matrix(g.azimuths_deg, hs)
            assert np.abs(m - literal).max() < 1e-12


def test_helicity_table_lookup_matches_direct_evaluation():
    g = geometry_from_angles(97.0, 141.0)
    table = helicity_table(g)
    assert len(table.amplitudes) == 8
    entry = table.entry(1, -1, -1)
    assert entry.helicities == (1, -1, -1)
    assert np.array_equal(entry.vector, amplitude_vector(g, (1, -1, -1)))
    assert np.array_equal(entry.matrix, spin_amplitude_matrix(g, (1, -1, -1)))


def test_ortho_state_closed_form_right_angle_geometry():
    # theta12 = 90, theta13 = 135: weights 1, 1 + sqrt2/2, 1 + sqrt2/2
    w13 = 1.0 + np.sqrt(2.0) / 2.0
    norm = np.sqrt(2.0 * (1.0 + 2.0 * w13**2))
    s = ortho_state(geometry_from_angles(90.0, 135.0), 0)
    expected = np.zeros(8)
    expected[0b001] = expected[0b110] = 1.0 / norm
    expected[0b010] = expected[0b101] = w13 / norm
    expected[0b100] = expected[0b011] = w13 / norm
    assert np.abs(s.amplitudes - expected).max() < 1e-12

    s1 = ortho_state(geometry_from_angles(90.0, 135.0), 1)
    signs = np.array([0, 1, 1, -1, 1, -1, -1, 0])
    assert np.abs(s1.amplitudes - signs * np.abs(expected)).max() < 1e-12


def test_ortho_state_validation():
    with pytest.raises(ValueError):
        ortho_state(mercedes_geometry(), 2)
    with pytest.raises(FeasibilityError):
        ortho_state(geometry_from_angles(20.0, 30.0), 0)


def test_spin_zero_projection_equals_closed_form():
    rng = np.random.default_rng(53)
    for _ in range(8):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        route = spin_projection_state(g, 0)
        closed = ortho_state(g, 0).canonical()
        assert np.abs(route.amplitudes - closed.amplitudes).max() < 1e-12


def test_spin_one_projection_magnitudes_match_closed_form():
    # the +/-1 branches agree in magnitude; their azimuthal phases are
    # physical and are not part of the closed-form sign pattern
    rng = np.random.default_rng(54)
    for _ in range(5):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        for sz in (1, -1):
            route = spin_projection_state(g, sz)
            closed = ortho_state(g, sz)
            assert np.abs(np.abs(route.amplitudes) - np.abs(closed.amplitudes)).max() < 1e-12


def test_spin_flip_connects_the_branches():
    rng = np.random.default_rng(55)
    flip = np.diag([1.0, -1.0])
    for _ in range(5):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        flipped = apply_local(flip, flip, flip, ortho_state(g, 0))
        assert np.abs(flipped.amplitudes + ortho_state(g, 1).amplitudes).max() < 1e-13


def test_collinear_pair_limit_suppresses_its_weight():
    # as photons 1 and 2 become collinear (3 recoiling back-to-back), the
    # |++-> / |--+> coefficient dies out and the state approaches the
    # two-pair form with equal weights
    ratios = []
    for eps in (4.0, 2.0, 1.0, 0.5):
        g = geometry_from_angles(eps, 180.0 - eps / 2.0)
        s = ortho_state(g, 0)
        ratios.append(abs(s.amplitude("++-")) / abs(s.amplitude("+-+")))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-4
    limit_state = ortho_state(geometry_from_angles(0.5, 179.75), 0)
    for label in ("+-+", "-+-", "-++", "+--"):
        assert abs(limit_state.amplitude(label)) == pytest.approx(0.5, abs=1e-3)


def test_mercedes_state_is_uniform_over_mixed_triples():
    s = mercedes_state()
    assert np.abs(s.amplitudes[[1, 2, 3, 4, 5, 6]] - 1 / np.sqrt(6)).max() < 1e-12
    assert abs(s.amplitudes[0]) == 0.0
    assert abs(s.amplitudes[7]) == 0.0


def test_mercedes_equals_coupled_basis_combination():
    # (|3/2,+1/2> + |3/2,-1/2>)/sqrt(2) built from the symmetric three-qubit
    # basis states with one and with two minus helicities
    up = np.zeros(8)
    up[[0b001, 0b010, 0b100]] = 1.0 / np.sqrt(3.0)
    down = np.zeros(8)
    down[[0b011, 0b101, 0b110]] = 1.0 / np.sqrt(3.0)
    combo = (up + down) / np.sqrt(2.0)
    assert np.abs(mercedes_state().amplitudes - combo).max() < 1e-12


def test_delta_family_normalization_and_range():
    for d in np.linspace(0.0, 180.0, 13):
        assert delta_family_state(d).norm() == pytest.approx(1.0, abs=1e-12)
        assert delta_family_minimal(d).norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        delta_family_state(-1.0)
    with pytest.raises(ValueError):
        delta_family_state(180.5)
    with pytest.raises(ValueError):
        delta_family_minimal(181.0)


def _oracle_family_tensor(delta_deg):
    u, v, alpha = oracles.delta_state_vectors(delta_deg)
    cube = lambda w: np.einsum("a,b,c->abc", w, w, w)
    return alpha * (cube(u) + cube(v))


@pytest.mark.parametrize(
    "deltas",
    [
        delta_range(0.0, 180.0, 0.1),
        delta_range(0.0, 180.0, 0.05),
        delta_range(85.8, 86.5, 0.001),  # the violation threshold band
        np.random.default_rng(18).uniform(0.0, 180.0, 20_000),
    ],
    ids=["0:180:0.1", "0:180:0.05", "85.8:86.5:0.001", "uniform"],
)
def test_delta_family_tensor_is_the_oracle_state_bit_for_bit(deltas):
    got = _delta_family_tensor(deltas)
    assert got.shape == deltas.shape + (2, 2, 2) and got.dtype == complex
    assert all(np.array_equal(t, _oracle_family_tensor(d)) for t, d in zip(got, deltas))


def test_delta_family_tensor_of_one_delta_is_the_state():
    for d in (0.0, 85.88, 120.0, np.float64(150.25), 180.0):
        got = _delta_family_tensor(d)
        assert got.shape == (2, 2, 2)
        assert np.array_equal(got, _oracle_family_tensor(d))
        assert np.array_equal(got, delta_family_state(d).tensor)
    for bad in (np.array([0.0, 180.5]), np.array([np.nan, 90.0])):
        with pytest.raises(ValueError, match=r"^delta must lie in \[0, 180\] degrees"):
            _delta_family_tensor(bad)


def test_delta_family_endpoints():
    top = delta_family_state(180.0).canonical()
    assert np.abs(top.amplitudes - ghz_state().amplitudes).max() < 1e-12
    assert tangle(delta_family_state(0.0)) < 1e-14  # single product state


def test_delta_minimal_reduced_density_is_diagonal():
    for d in (40.0, 90.0, 120.0, 170.0):
        s = delta_family_minimal(d)
        p = s.amplitudes[1].real
        rho = oracles.loop_reduced_density(s.amplitudes, 0)
        expected = np.diag([2.0 * p**2, 1.0 - 2.0 * p**2])
        assert np.abs(rho - expected).max() < 1e-12


def test_delta_forms_share_invariants():
    for d in (30.0, 85.0, 120.0, 160.0):
        a = invariant_fingerprint(delta_family_state(d))
        b = invariant_fingerprint(delta_family_minimal(d))
        assert np.abs(np.array(a.as_tuple()) - np.array(b.as_tuple())).max() < 1e-12


def test_mercedes_decompositions_reconstruct_their_targets():
    two_product, rotated, minimal = mercedes_decompositions()
    assert two_product.residual() < 1e-12
    assert rotated.residual() < 1e-12
    fp = invariant_fingerprint(mercedes_state()).as_tuple()
    for state in (two_product.reconstruct(), rotated.reconstruct(), minimal):
        got = invariant_fingerprint(state).as_tuple()
        assert np.abs(np.array(got) - np.array(fp)).max() < 1e-12


def test_product_decomposition_residual_detects_mismatch():
    bad = ProductDecomposition(
        weight=1.0,
        factors=((np.array([1.0, 0.0]),) * 3,),
        target=ghz_state(),
    )
    assert bad.residual() > 0.5
