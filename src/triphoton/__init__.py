"""Three-photon decay states from ortho-positronium annihilation.

The package builds the entangled polarization state selected by a planar
decay geometry, measures its entanglement (tangle and local purities),
extremizes the Mermin combination over symmetric measurement settings, and
quantifies how many decay events refute the best local-realistic model,
both analytically and by Monte Carlo.

Each public name is loaded from its submodule on first use, so `import
triphoton` itself loads no submodule and no numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "invariants": (
        "InvariantFingerprint", "geometry_tangle", "invariant_fingerprint", "tangle", "tangle_scan",
    ),
    "kinematics": (
        "DecayGeometry", "FeasibilityError", "PolarizationVector", "geometry_from_angles",
        "mercedes_geometry", "photon_energies", "polarization_vector",
    ),
    "mermin": (
        "LRBoundCheck", "MerminResult", "ObservableSettings", "lr_constraint_check",
        "mermin_delta_sweep", "mermin_extremize", "mermin_gradient", "mermin_value",
        "triple_expectation", "yx_settings",
    ),
    "serialize": ("ScanGrid", "Table", "format_number", "rows_to_csv", "rows_to_json"),
    "simulate": (
        "SimulationBatch", "SimulationRun", "run_batch", "sample_joint_outcomes",
        "simulate_depression",
    ),
    "states": (
        "HelicityAmplitude", "HelicityAmplitudeTable", "ProductDecomposition",
        "amplitude_polarization", "amplitude_vector", "delta_family_minimal",
        "delta_family_state", "helicity_table", "mercedes_decompositions", "mercedes_state",
        "ortho_state", "para_state", "scalar_amplitude", "spin_amplitude_matrix",
        "spin_projection_state",
    ),
    "strength": (
        "EventModel", "SINGLET_REFERENCE_TRIALS", "StrengthReport", "best_lr_model",
        "depressing_factor", "event_probabilities", "info_distance", "strength_delta_sweep",
        "strength_table", "trials_to_depress",
    ),
    "tensor": (
        "DensityMatrix", "LocalOperator", "PureState", "apply_local", "basis_state",
        "bloch_observable", "ghz_state", "inner", "purity", "random_local_unitary",
        "reduced_density", "tensor3",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_ORIGIN)]


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule nothing has imported yet
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
