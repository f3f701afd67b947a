"""Physical decay states and amplitudes in the photon helicity basis.

Two-photon annihilation gives a spin-0 scalar amplitude; three-photon
annihilation gives a 2x2 spin-space amplitude built from polarization
vectors. Amplitudes here use `amplitude_polarization`, a rephased version of
`kinematics.polarization_vector` (multiplied by i times the helicity). With
that phase convention the in-plane dot identity

    eps_i . eps_j = -(1 - l_i l_j khat_i . khat_j) / 2

holds for every helicity pair, and the closed-form state coefficients below
follow from the amplitude algebra with no leftover phases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import DecayGeometry, _require_feasible, mercedes_geometry, polarization_vector
from .tensor import (PureState, _basis_index, _basis_label, _check_helicities, _frozen_array,
                     _sigma_dot, apply_local, tensor3)

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def amplitude_polarization(phi_deg: float, helicity: int) -> np.ndarray:
    """In-plane polarization vector in the amplitude phase convention.

    Components equal i * helicity times polarization_vector(90, phi_deg,
    helicity); transversality and the helicity curl identity are unchanged,
    and the in-plane dot identity stated in the module docstring holds for
    every helicity pair, which the raw vector only satisfies for opposite
    helicities.
    """
    (h,) = _check_helicities((helicity,))
    return 1j * h * polarization_vector(90.0, phi_deg, h).components


def scalar_amplitude(helicity_1: int, helicity_2: int) -> complex:
    """Two-photon (spin-0) decay amplitude, -(i/2)(l1 + l2)."""
    l1, l2 = _check_helicities((helicity_1, helicity_2))
    return -0.5j * (l1 + l2)


def para_state() -> PureState:
    """Two-photon state from the spin-0 decay: (|++> - |-->)/sqrt(2)."""
    amp = np.zeros(4, dtype=complex)
    amp[0b00] = 1.0 / np.sqrt(2.0)
    amp[0b11] = -1.0 / np.sqrt(2.0)
    return PureState(amp)


def amplitude_vector(geometry: DecayGeometry, helicities) -> np.ndarray:
    """Vector part of the three-photon decay amplitude for one helicity triple.

    Cyclic three-term sum with helicity coefficients (l_i - l_j)(l_j + l_k)
    multiplying eps_i* (eps_j* . eps_k*). The coefficients vanish identically
    for the all-plus and all-minus triples; for a triple whose photon i has
    the minority helicity the sum collapses to
    2 * (1 - khat_j . khat_k) * eps*(khat_i, l_i).
    """
    hs = _check_helicities(helicities)
    if len(hs) != 3:
        raise ValueError("exactly three helicities required")
    _require_feasible(geometry)
    phi = geometry.azimuths_deg
    eps_c = [amplitude_polarization(phi[i], hs[i]).conj() for i in range(3)]
    v = np.zeros(3, dtype=complex)
    for i, j, k in _CYCLIC:
        v += (hs[i] - hs[j]) * (hs[j] + hs[k]) * eps_c[i] * np.dot(eps_c[j], eps_c[k])
    return v


def spin_amplitude_matrix(geometry: DecayGeometry, helicities) -> np.ndarray:
    """2x2 spin-space three-photon amplitude, sigma . amplitude_vector.

    It equals minus the textbook cyclic sum of
    [(e_j . e_k - d_j . d_k) e_i + (e_j . d_k + e_k . d_j) d_i] dotted into
    the Pauli vector, with e_i the conjugated polarization and
    d_i = khat_i x e_i (an identity, via d_i = i l_i e_i); the tests check
    it against that literal sum.
    """
    return _sigma_dot(amplitude_vector(geometry, helicities))


@dataclass(frozen=True)
class HelicityAmplitude:
    """Amplitudes of one helicity triple: the 3-vector V and 2x2 matrix sigma.V."""

    helicities: tuple[int, int, int]
    vector: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "helicities", tuple(self.helicities))
        object.__setattr__(self, "vector", _frozen_array(self.vector))
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))


@dataclass(frozen=True)
class HelicityAmplitudeTable:
    """All eight helicity triples of one geometry, in basis-index order."""

    geometry: DecayGeometry
    amplitudes: tuple[HelicityAmplitude, ...]

    def entry(self, helicity_1: int, helicity_2: int, helicity_3: int) -> HelicityAmplitude:
        hs = _check_helicities((helicity_1, helicity_2, helicity_3))
        return self.amplitudes[_basis_index(hs)]


def helicity_table(geometry: DecayGeometry) -> HelicityAmplitudeTable:
    """Vector and matrix amplitudes for all eight helicity assignments."""
    _require_feasible(geometry)
    entries = []
    for index in range(8):
        hs = tuple(+1 if c == "+" else -1 for c in _basis_label(index, 3))
        vec = amplitude_vector(geometry, hs)
        entries.append(HelicityAmplitude(helicities=hs, vector=vec, matrix=_sigma_dot(vec)))
    return HelicityAmplitudeTable(geometry=geometry, amplitudes=tuple(entries))


def _pair_weights(geometry: DecayGeometry) -> np.ndarray:
    """(w12, w13, w23) as 2 sin^2(theta_ij / 2), free of the cancellation in 1 - cos."""
    return 2.0 * np.sin(np.radians(geometry.pair_openings_deg[::-1]) / 2.0) ** 2


def ortho_amplitudes(w12, w13, w23, spin_z: int = 0) -> np.ndarray:
    """Normalized real amplitudes of the spin-1 decay state, shape (..., 2, 2, 2).

    w_ij is the pair weight 1 - khat_i . khat_j = 2 sin^2(theta_ij / 2); the
    weights broadcast against each other, so arrays of them give a stack of
    states, and an all-zero triple gives the zero tensor. For spin_z = 0 the
    weights sit with plus signs on |++-> and |--+> (w12), |+-+> and |-+->
    (w13), and |-++> and |+--> (w23). For spin_z = +1 or -1 the second member
    of each pair picks up a minus sign.
    """
    if spin_z not in (0, +1, -1):
        raise ValueError(f"spin_z must be 0, +1 or -1, got {spin_z}")
    sign = 1.0 if spin_z == 0 else -1.0
    t = np.zeros(np.broadcast_shapes(np.shape(w12), np.shape(w13), np.shape(w23)) + (2, 2, 2))
    t[..., 0, 0, 1] = w12
    t[..., 1, 1, 0] = sign * w12
    t[..., 0, 1, 0] = w13
    t[..., 1, 0, 1] = sign * w13
    t[..., 1, 0, 0] = w23
    t[..., 0, 1, 1] = sign * w23
    norm = np.sqrt(np.einsum("...abc,...abc->...", t, t))
    t /= np.where(norm == 0.0, 1.0, norm)[..., None, None, None]
    return t


def ortho_state(geometry: DecayGeometry, spin_z: int = 0) -> PureState:
    """Three-photon state of the spin-1 decay for one spin projection (see ortho_amplitudes)."""
    _require_feasible(geometry)
    return PureState(ortho_amplitudes(*_pair_weights(geometry), spin_z).ravel())


def spin_projection_state(geometry: DecayGeometry, spin_z: int = 0) -> PureState:
    """Three-photon state assembled from the vector amplitudes by projection.

    Per helicity triple the amplitude is -sqrt(2) V_3 for spin_z = 0,
    V_1 + i V_2 for spin_z = +1 and -V_1 + i V_2 for spin_z = -1. The result
    is normalized and put in canonical phase. For spin_z = 0 it equals
    ortho_state(geometry, 0) exactly. For spin_z = +/-1 it carries an extra
    azimuth-dependent phase on each basis amplitude relative to the
    ortho_state sign pattern; those phases are physical (they change the
    entanglement invariants) and only the amplitude magnitudes agree.
    """
    if spin_z not in (0, +1, -1):
        raise ValueError(f"spin_z must be 0, +1 or -1, got {spin_z}")
    table = helicity_table(geometry)
    amp = np.zeros(8, dtype=complex)
    for index, entry in enumerate(table.amplitudes):
        v = entry.vector
        if spin_z == 0:
            amp[index] = -np.sqrt(2.0) * v[2]
        elif spin_z == +1:
            amp[index] = v[0] + 1j * v[1]
        else:
            amp[index] = -v[0] + 1j * v[1]
    return PureState(amp).canonical()


def mercedes_state() -> PureState:
    """The spin_z = 0 state of the symmetric 120-120-120 geometry."""
    return ortho_state(mercedes_geometry(), 0)


def _delta_alpha(delta_deg) -> tuple[np.ndarray, np.ndarray]:
    """delta (one or an array) as floats checked to lie in [0, 180] degrees, and
    the family's normalization alpha = 1/sqrt(2 (1 + cos^3(delta/2)))."""
    d = np.asarray(delta_deg, dtype=float)
    if not ((0.0 <= d) & (d <= 180.0)).all():
        raise ValueError(f"delta must lie in [0, 180] degrees, got {delta_deg}")
    # float_power rounds the cube as the scalar power does; an array's ** 3 does not
    return d, 1.0 / np.sqrt(2.0 * (1.0 + np.float_power(np.cos(np.radians(d) / 2.0), 3)))


def _delta_family_tensor(deltas) -> np.ndarray:
    """Complex amplitude tensors, shape (..., 2, 2, 2), of delta_family_state at
    each delta of an array (a single delta gives shape (2, 2, 2))."""
    d, alpha = _delta_alpha(deltas)
    quarter = np.radians(180.0 - d) / 4.0
    c, s = np.cos(quarter), np.sin(quarter)
    cube = lambda w: w[..., :, None, None] * w[..., None, :, None] * w[..., None, None, :]
    uuu, vvv = cube(np.stack((c, s), axis=-1)), cube(np.stack((s, c), axis=-1))
    return (alpha[..., None, None, None] * (uuu + vvv)).astype(complex)


def delta_family_state(delta_deg: float) -> PureState:
    """Two-term product superposition parametrized by the Bloch opening delta.

    alpha * (|uuu> + |vvv>) with u = (c, s), v = (s, c),
    c = cos((180 - delta)/4), s = sin((180 - delta)/4) (degrees), and
    alpha = 1/sqrt(2 (1 + cos^3(delta/2))). delta = 180 gives the GHZ state,
    delta = 0 a single product state, and delta = 120 a local-unitary
    equivalent of the symmetric three-photon decay state.
    """
    return PureState(_delta_family_tensor(delta_deg))


# Most rows a delta range may have. A row costs about 0.01 ms in the Mermin sweep
# and up to 0.09 ms, a violating row, in the strength sweep (2 CPUs), so this bounds
# a sweep to minutes and its deltas to 8 MB; a finer range is refused before allocating.
_MAX_DELTA_ROWS = 1_000_000


def delta_range(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Deltas start, start + step, ... up to and including stop (within 1e-9
    slack), every one inside the family's [0, 180] degree domain, and at
    most _MAX_DELTA_ROWS of them."""
    start, stop, step = float(start_deg), float(stop_deg), float(step_deg)
    if not np.isfinite((start, stop, step)).all():
        raise ValueError(f"delta range must be finite, got {start}:{stop}:{step}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"range end {stop} is below start {start}")
    steps = (stop - start) / step + 1e-9  # may overflow to inf for a tiny step
    if not steps < _MAX_DELTA_ROWS:
        raise ValueError(f"delta range {start}:{stop}:{step} has more than {_MAX_DELTA_ROWS} rows")
    n = int(steps) + 1
    deltas = start + step * np.arange(n)
    if not (0.0 <= deltas[0] and deltas[-1] <= 180.0 + 1e-9):
        raise ValueError("delta range must stay within [0, 180] degrees")
    return np.clip(deltas, 0.0, 180.0)  # accumulated step dust must not trip validation


def delta_family_minimal(delta_deg: float) -> PureState:
    """Four-coefficient representative of the same one-parameter family.

    p (|++-> + |+-+> + |-++>) + q |---> with p = 2 alpha sin^2(d/4) cos(d/4)
    and q = 2 alpha cos^3(d/4); normalized for every delta. Local-unitary
    equivalent of delta_family_state(delta) (same invariant fingerprint),
    not the same amplitude vector.
    """
    d, alpha = _delta_alpha(delta_deg)
    quarter = np.radians(d) / 4.0
    p = 2.0 * alpha * np.sin(quarter) ** 2 * np.cos(quarter)
    q = 2.0 * alpha * np.cos(quarter) ** 3
    amp = np.zeros(8, dtype=complex)
    amp[0b001] = amp[0b010] = amp[0b100] = p
    amp[0b111] = q
    return PureState(amp)


@dataclass(frozen=True)
class ProductDecomposition:
    """Weighted sum of product terms: weight * sum_t |u_t>|v_t>|w_t>."""

    weight: float
    factors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    target: PureState

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("weight must be positive")
        frozen = tuple(tuple(_frozen_array(f) for f in triple) for triple in self.factors)
        object.__setattr__(self, "factors", frozen)

    def reconstruct(self) -> PureState:
        total = np.zeros(8, dtype=complex)
        for u, v, w in self.factors:
            total = total + tensor3(u, v, w).amplitudes
        return PureState(self.weight * total)

    def residual(self) -> float:
        """Largest amplitude mismatch between the reconstruction and target."""
        return float(np.max(np.abs(self.reconstruct().amplitudes - self.target.amplitudes)))


def _rotation(angle_deg: float) -> np.ndarray:
    a = np.radians(angle_deg)
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def mercedes_decompositions() -> tuple[ProductDecomposition, ProductDecomposition, PureState]:
    """The three explicit representations of the symmetric-geometry state.

    Returns (two_product, rotated, minimal):
    - two_product: (2/3)(|000> + |aaa>) with a = (1/2, sqrt(3)/2); its target
      is built independently by rotating delta_family_state(120) with the
      connecting single-qubit rotation by -15 degrees on every party.
    - rotated: (2/3)(|uuu> + |vvv>) with u = (cos 15, sin 15),
      v = (sin 15, cos 15); target delta_family_state(120).
    - minimal: the four-term state (1/(2 sqrt 3))(|++-> + |+-+> + |-++>) +
      (sqrt 3 / 2)|--->, the representative with the fewest product terms.
    All three share the invariant fingerprint of the helicity-basis state.
    """
    e0 = np.array([1.0, 0.0])
    a = np.array([0.5, np.sqrt(3.0) / 2.0])
    u = _rotation(15.0) @ e0
    v = _rotation(15.0) @ a
    rotated_target = delta_family_state(120.0)
    back = _rotation(-15.0)
    two_product_target = apply_local(back, back, back, rotated_target)
    two_product = ProductDecomposition(
        weight=2.0 / 3.0, factors=((e0, e0, e0), (a, a, a)), target=two_product_target
    )
    rotated = ProductDecomposition(
        weight=2.0 / 3.0, factors=((u, u, u), (v, v, v)), target=rotated_target
    )
    minimal = delta_family_minimal(120.0)
    return two_product, rotated, minimal
