"""Arrays that the value objects hold or return are read-only copies: writing
to one raises, and an array a caller passed in stays writable."""
import numpy as np
import pytest

from triphoton import (
    HelicityAmplitude,
    LocalOperator,
    PolarizationVector,
    ProductDecomposition,
    PureState,
    ObservableSettings,
    bloch_observable,
    geometry_from_angles,
    ghz_state,
    helicity_table,
    mercedes_decompositions,
    mermin_delta_sweep,
    photon_energies,
    polarization_vector,
    reduced_density,
    simulate_depression,
)


def _held_arrays():
    g = geometry_from_angles(97.0, 141.0)
    pol = polarization_vector(63.0, 214.0, -1)
    entry = helicity_table(g).entry(1, -1, -1)
    two_product, rotated, minimal = mercedes_decompositions()
    settings = ObservableSettings.from_angles(72.0, 311.0, 145.0, 12.0)
    run = simulate_depression(0.9, 0.6, seed=1, keep_trajectory=True)
    sweep = mermin_delta_sweep(90.0, 120.0, 10.0)
    yield "DecayGeometry.unit_vectors", g.unit_vectors
    yield "photon_energies", photon_energies(g)
    yield "PolarizationVector.components", pol.components
    yield "PolarizationVector.direction", pol.direction
    yield "HelicityAmplitude.vector", entry.vector
    yield "HelicityAmplitude.matrix", entry.matrix
    for decomposition in (two_product, rotated):
        for triple in decomposition.factors:
            for factor in triple:
                yield "ProductDecomposition.factors", factor
    yield "PureState.amplitudes", minimal.amplitudes
    yield "PureState.tensor", ghz_state().tensor
    yield "ObservableSettings.unprimed", settings.unprimed
    yield "ObservableSettings.primed", settings.primed
    yield "LocalOperator.matrix", bloch_observable((0.0, 0.6, 0.8)).matrix
    yield "DensityMatrix.matrix", reduced_density(ghz_state(), 1).matrix
    yield "SimulationRun.trajectory", run.trajectory
    yield "ScanGrid.axes", sweep.axes[0]
    yield "ScanGrid.columns", sweep.column("mermin_value")


def test_held_and_returned_arrays_are_read_only():
    held = list(_held_arrays())
    assert not [name for name, arr in held if arr.flags.writeable]
    for name, arr in held:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


def test_value_objects_copy_the_arrays_they_are_given():
    comp = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    direction = np.array([0.0, 0.0, 1.0])
    vec = np.array([0.5, 0.5j, 0.0])
    mat = np.eye(2, dtype=complex)
    qubit = np.array([1.0, 0.0], dtype=complex)
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    held = (
        PolarizationVector(comp, direction, 1).components,
        HelicityAmplitude((1, 1, -1), vec, mat).vector,
        ProductDecomposition(1.0, ((qubit, qubit, qubit),), PureState(amp)).factors[0][0],
        PureState(amp).amplitudes,
        LocalOperator(mat).matrix,
    )
    for given in (comp, direction, vec, mat, qubit, amp):
        assert given.flags.writeable
    assert not any(arr.flags.writeable for arr in held)
    comp[0] = 0.0
    assert held[0][0] != 0.0
