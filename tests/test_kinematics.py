import warnings

import numpy as np
import pytest

import oracles
from triphoton import (
    FeasibilityError,
    amplitude_polarization,
    geometry_from_angles,
    mercedes_geometry,
    photon_energies,
    polarization_vector,
)
from triphoton.kinematics import _feasible


def test_angle_validation():
    with pytest.raises(ValueError):
        geometry_from_angles(0.0, 90.0)
    with pytest.raises(ValueError):
        geometry_from_angles(90.0, 360.0)
    with pytest.raises(ValueError):
        geometry_from_angles(-5.0, 90.0)


def test_third_angle_closes_the_circle():
    g = geometry_from_angles(97.0, 141.0)
    assert g.theta23_deg == pytest.approx(360.0 - 97.0 - 141.0)


def test_mercedes_geometry():
    g = mercedes_geometry()
    assert g.theta12_deg == g.theta13_deg == g.theta23_deg == 120.0
    assert g.feasible
    e = photon_energies(g)
    assert np.abs(e - 2.0 / 3.0).max() < 1e-14


def test_unit_vectors_reproduce_opening_angles():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        k = g.unit_vectors
        assert np.abs(np.linalg.norm(k, axis=1) - 1.0).max() < 1e-12
        assert np.abs(k[:, 2]).max() == 0.0  # planar decay
        assert k[0] @ k[1] == pytest.approx(np.cos(np.radians(g.theta12_deg)), abs=1e-12)
        assert k[0] @ k[2] == pytest.approx(np.cos(np.radians(g.theta13_deg)), abs=1e-12)
        assert k[1] @ k[2] == pytest.approx(np.cos(np.radians(g.theta23_deg)), abs=1e-12)
    assert np.array_equal(mercedes_geometry().unit_vectors[0], [1.0, 0.0, 0.0])


def test_energy_closed_form_right_angle_case():
    e = photon_energies(geometry_from_angles(90.0, 135.0))
    assert e[2] == pytest.approx(2.0 / (1.0 + np.sqrt(2.0)), abs=1e-12)
    assert e[0] == e[1]
    assert e.sum() == pytest.approx(2.0, abs=1e-12)


def test_energies_sum_and_momentum_closure():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        e = photon_energies(g)
        assert (e > 0).all()
        assert e.sum() == pytest.approx(2.0, abs=1e-12)
        total_momentum = (e[:, None] * g.unit_vectors).sum(axis=0)
        assert np.abs(total_momentum).max() < 1e-12


def test_energy_rejects_infeasible_geometry():
    with pytest.raises(FeasibilityError):
        photon_energies(geometry_from_angles(30.0, 40.0))


def test_feasibility_matches_positivity_oracle_on_full_grid():
    # every integer-degree cell: the flag must agree with positivity of the
    # three energy sines, which is what momentum conservation leaves open.
    # sin evaluated at exactly 180 degrees leaves ~1e-16 of noise, so the
    # positivity cut sits far above that and far below sin(1 degree).
    t12 = np.arange(1.0, 360.0)
    t13 = np.arange(1.0, 360.0)
    g12, g13 = np.meshgrid(t12, t13, indexing="ij")
    g23 = 360.0 - g12 - g13
    oracle = (
        (np.sin(np.radians(g12)) > 1e-12)
        & (np.sin(np.radians(g13)) > 1e-12)
        & (np.sin(np.radians(g23)) > 1e-12)
    )
    flags = np.array(
        [[geometry_from_angles(a, b).feasible for b in t13] for a in t12]
    )
    assert np.array_equal(flags, oracle)
    # the elementwise predicate the tangle scan masks with is the same one
    assert np.array_equal(_feasible(g12, g13), oracle)


def test_polarization_transversality_and_curl():
    hs = (1, -1)
    for theta, phi in ((90.0, 0.0), (45.0, 120.0), (137.0, 301.0), (10.0, 77.0)):
        for h in hs:
            p = polarization_vector(theta, phi, h)
            k = p.direction
            assert abs(np.dot(k, p.components)) < 1e-12
            curl = np.cross(k, p.components)
            assert np.abs(curl - (-1j * h) * p.components).max() < 1e-12
            assert abs(np.dot(p.components, p.components)) < 1e-12  # null vector
            assert np.vdot(p.components, p.components).real == pytest.approx(1.0)


def test_polarization_helicity_validation():
    for bad in (0, 1.5, -0.5, np.nan, "+"):
        with pytest.raises(ValueError, match="helicities must be"):
            polarization_vector(90.0, 0.0, bad)
    # a helicity equal to +/-1 is kept as the int
    assert polarization_vector(90.0, 0.0, -1.0).helicity == -1


def test_polarization_angles_must_be_finite():
    # refused at entry, before a sine or cosine can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="theta_deg must be finite, got nan"):
            polarization_vector(np.nan, 0.0, 1)
        with pytest.raises(ValueError, match="phi_deg must be finite, got -inf"):
            polarization_vector(90.0, -np.inf, -1)
        with pytest.raises(ValueError, match="phi_deg must be finite, got inf"):
            amplitude_polarization(np.inf, 1)


def test_polarization_pair_identity_on_meridian_grid():
    # directions in the phi = 0 plane: eps1 . eps2 = -(1 - h1 h2 k1.k2)/2
    thetas = np.linspace(5.0, 175.0, 10)
    for t1 in thetas:
        for t2 in thetas:
            for h1 in (1, -1):
                for h2 in (1, -1):
                    p1 = polarization_vector(t1, 0.0, h1)
                    p2 = polarization_vector(t2, 0.0, h2)
                    dot = np.dot(p1.components, p2.components)
                    kk = np.dot(p1.direction, p2.direction)
                    expected = -(1.0 - h1 * h2 * kk) / 2.0
                    assert abs(dot - expected) < 1e-12


def test_same_direction_polarization_products():
    p_plus = polarization_vector(63.0, 214.0, 1)
    p_minus = polarization_vector(63.0, 214.0, -1)
    assert np.dot(p_plus.components, p_minus.components) == pytest.approx(-1.0, abs=1e-12)
    assert np.vdot(p_plus.components, p_minus.components) == pytest.approx(0.0, abs=1e-12)
