"""Planar three-photon decay geometry, energies, and polarization vectors.

Geometry convention: the decay happens in the xy plane, photon 1 moves along
+x, photon 2 is rotated counterclockwise by theta12 and photon 3 clockwise by
theta13, so the remaining opening is theta23 = 360 - theta12 - theta13.
All public angle arguments and fields are in degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _check_helicities, _frozen_array


class FeasibilityError(ValueError):
    """Raised when a geometry cannot come from a physical three-photon decay."""


def _require_finite_angles(names, values) -> None:
    """Refuse a NaN or infinite angle, naming the first such one."""
    for name, value in zip(names, values):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _feasible(theta12, theta13):
    """Elementwise: the openings theta12, theta13 and 360 - theta12 - theta13
    all lie strictly inside (0, 180) deg. Takes floats or broadcasting arrays."""
    ok = True
    for t in (theta12, theta13, 360.0 - theta12 - theta13):
        ok = ok & (0.0 < t) & (t < 180.0)
    return ok


@dataclass(frozen=True)
class DecayGeometry:
    """Planar three-photon configuration fixed by two opening angles.

    theta12_deg and theta13_deg are the openings from photon 1 to photons 2
    and 3 (measured on opposite sides of photon 1). The geometry object can
    represent infeasible configurations; builders that need physical energies
    check `feasible` and raise FeasibilityError.
    """

    theta12_deg: float
    theta13_deg: float

    def __post_init__(self):
        for name, value in (("theta12_deg", self.theta12_deg), ("theta13_deg", self.theta13_deg)):
            v = float(value)
            if not np.isfinite(v) or not 0.0 < v < 360.0:
                raise ValueError(f"{name} must lie strictly inside (0, 360) deg, got {value}")
            object.__setattr__(self, name, v)

    @property
    def theta23_deg(self) -> float:
        return 360.0 - self.theta12_deg - self.theta13_deg

    @property
    def pair_openings_deg(self) -> tuple[float, float, float]:
        """Openings (theta23, theta13, theta12), indexed by the opposite photon."""
        return (self.theta23_deg, self.theta13_deg, self.theta12_deg)

    @property
    def feasible(self) -> bool:
        """True iff all three pairwise openings lie strictly inside (0, 180) deg."""
        return bool(_feasible(self.theta12_deg, self.theta13_deg))

    @property
    def azimuths_deg(self) -> tuple[float, float, float]:
        """In-plane azimuth of each photon direction, in [0, 360)."""
        return (0.0, self.theta12_deg, 360.0 - self.theta13_deg)

    @property
    def unit_vectors(self) -> np.ndarray:
        """3x3 array of photon unit momenta, one row per photon, z = 0."""
        phi = np.radians(self.azimuths_deg)
        return _frozen_array(np.stack([np.cos(phi), np.sin(phi), np.zeros(3)], axis=1), float)


def geometry_from_angles(theta12_deg: float, theta13_deg: float) -> DecayGeometry:
    """Build a DecayGeometry; range-checks the two angles but not feasibility."""
    return DecayGeometry(float(theta12_deg), float(theta13_deg))


def mercedes_geometry() -> DecayGeometry:
    """The symmetric configuration with all three openings at 120 deg."""
    return DecayGeometry(120.0, 120.0)


def _require_feasible(geometry: DecayGeometry) -> None:
    if not geometry.feasible:
        raise FeasibilityError(
            f"geometry (theta12={geometry.theta12_deg}, theta13={geometry.theta13_deg}) "
            "is not reachable by a physical three-photon decay: its openings "
            f"{geometry.pair_openings_deg} are not all inside (0, 180) deg"
        )


def photon_energies(geometry: DecayGeometry, total: float = 2.0) -> np.ndarray:
    """Photon energies in units of the electron mass, summing to `total`.

    Each energy is proportional to the sine of the opening between the other
    two photons; the normalization enforces energy conservation and the
    result automatically satisfies momentum balance sum(E_i khat_i) = 0.

    Raises FeasibilityError for geometries with any opening at or beyond
    180 deg, where some energy would be nonpositive.
    """
    _require_feasible(geometry)
    sines = np.sin(np.radians(geometry.pair_openings_deg))
    return _frozen_array(total * sines / sines.sum(), float)


@dataclass(frozen=True)
class PolarizationVector:
    """Complex transverse polarization 3-vector with its direction and helicity."""

    components: np.ndarray
    direction: np.ndarray
    helicity: int

    def __post_init__(self):
        comp = _frozen_array(self.components).ravel()
        direc = _frozen_array(self.direction, float).ravel()
        if comp.shape != (3,) or direc.shape != (3,):
            raise ValueError("components and direction must be 3-vectors")
        (helicity,) = _check_helicities((self.helicity,))
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "direction", direc)
        object.__setattr__(self, "helicity", helicity)


def polarization_vector(theta_deg: float, phi_deg: float, helicity: int) -> PolarizationVector:
    """Helicity polarization vector for propagation along (theta, phi).

    For khat = (sin t cos p, sin t sin p, cos t) and helicity l = +/-1:

        eps = -(l/sqrt 2) * (cos t cos p - i l sin p,
                             cos t sin p + i l cos p,
                             -sin t)

    Satisfies khat . eps = 0 and khat x eps = -i l eps.
    """
    (helicity,) = _check_helicities((helicity,))
    theta, phi = float(theta_deg), float(phi_deg)
    _require_finite_angles(("theta_deg", "phi_deg"), (theta, phi))
    t, p = np.radians(theta), np.radians(phi)
    l = float(helicity)
    comp = -(l / np.sqrt(2.0)) * np.array(
        [
            np.cos(t) * np.cos(p) - 1j * l * np.sin(p),
            np.cos(t) * np.sin(p) + 1j * l * np.cos(p),
            -np.sin(t),
        ]
    )
    khat = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
    return PolarizationVector(comp, khat, helicity)
