"""Local-unitary invariants of three-qubit states and the geometry scan.

The tangle is computed from the degree-4 epsilon contraction of the
amplitude tensor (the 2x2x2 hyperdeterminant). The contraction with the
index pairing used here evaluates to exactly twice the conventional
hyperdeterminant polynomial, so the reported tangle is |contraction| / 2;
that normalization gives 1/4 for the GHZ state and 1/12 for the symmetric
decay state, and matches the expanded-polynomial oracle term by term.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kinematics import DecayGeometry
from .serialize import ScanGrid
from .states import ortho_state
from .tensor import PureState, _require_normalized, reduced_density

_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Cells per parallel chunk of the scan. Fixed regardless of worker count so
# the floating-point work per cell is identical however the grid is split.
_SCAN_CHUNK_ROWS = 32


def _epsilon_contraction(t: np.ndarray) -> complex:
    # party A epsilons pair copies (1,2) and (3,4), party B the same,
    # party C pairs (1,3) and (2,4); the asymmetric third pairing is load-bearing
    return complex(
        np.einsum(
            "aep,bfq,cgr,dhs,ab,cd,ef,gh,pr,qs->",
            t, t, t, t, _EPS, _EPS, _EPS, _EPS, _EPS, _EPS,
        )
    )


def tangle(state: PureState) -> float:
    """Entanglement tangle of a normalized three-qubit state, in [0, 1/4]."""
    if state.n_qubits != 3:
        raise ValueError("tangle is defined here for three-qubit states")
    _require_normalized(state)
    return abs(_epsilon_contraction(state.tensor)) / 2.0


@dataclass(frozen=True)
class InvariantFingerprint:
    """Tangle plus the three single-party purities; equal for LU-equivalent states."""

    tangle: float
    purities: tuple[float, float, float]

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tangle, *self.purities)


def invariant_fingerprint(state: PureState) -> InvariantFingerprint:
    """Tangle and the purity of each party's reduced density matrix."""
    t = tangle(state)
    purities = tuple(reduced_density(state, party).purity() for party in range(3))
    return InvariantFingerprint(tangle=t, purities=purities)


def _scan_axis(step_deg: float) -> np.ndarray:
    if not 0.0 < step_deg <= 10.0:
        raise ValueError(f"step must lie in (0, 10] degrees, got {step_deg}")
    return np.arange(step_deg, 360.0, step_deg)


def _scan_chunk(theta12: np.ndarray, theta13: np.ndarray) -> np.ndarray:
    """Tangle values for a block of geometries, infeasible cells exactly 0."""
    t12 = theta12[:, None]
    t13 = theta13[None, :]
    t23 = 360.0 - t12 - t13
    feasible = (t12 < 180.0) & (t13 < 180.0) & (t23 > 0.0) & (t23 < 180.0)

    shape = (theta12.size, theta13.size)
    w12 = np.broadcast_to(1.0 - np.cos(np.radians(t12)), shape)
    w13 = np.broadcast_to(1.0 - np.cos(np.radians(t13)), shape)
    w23 = 1.0 - np.cos(np.radians(t12 + t13))
    t = np.zeros(shape + (2, 2, 2))
    t[..., 0, 0, 1] = w12
    t[..., 1, 1, 0] = w12
    t[..., 0, 1, 0] = w13
    t[..., 1, 0, 1] = w13
    t[..., 1, 0, 0] = w23
    t[..., 0, 1, 1] = w23
    norm = np.sqrt(np.einsum("xyabc,xyabc->xy", t, t))
    t /= np.where(norm == 0.0, 1.0, norm)[..., None, None, None]
    contraction = np.einsum(
        "xyaep,xybfq,xycgr,xydhs,ab,cd,ef,gh,pr,qs->xy",
        t, t, t, t, _EPS, _EPS, _EPS, _EPS, _EPS, _EPS,
        optimize=True,
    )
    return np.where(feasible, np.abs(contraction) / 2.0, 0.0)


def tangle_scan(step_deg: float = 1.0, workers: int | None = None) -> ScanGrid:
    """Tangle of the spin_z = 0 decay state over the (theta12, theta13) grid.

    The grid runs from step_deg to 360 - step_deg on both axes. Feasible
    cells hold tangle(ortho_state(geometry, 0)); infeasible cells are exactly
    0. The grid is evaluated in fixed-size row chunks, optionally spread over
    `workers` threads; the chunking is independent of the worker count, so
    the result is identical for any value of `workers`.
    """
    axis = _scan_axis(float(step_deg))
    chunks = [axis[i : i + _SCAN_CHUNK_ROWS] for i in range(0, axis.size, _SCAN_CHUNK_ROWS)]
    if workers is not None and int(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_workers = 1 if workers is None else int(workers)
    if n_workers == 1:
        parts = [_scan_chunk(chunk, axis) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(lambda c: _scan_chunk(c, axis), chunks))
    values = np.vstack(parts)
    return ScanGrid(
        axis_names=("theta12_deg", "theta13_deg"),
        axes=(axis, axis.copy()),
        column_names=("tangle",),
        columns=(values,),
    )


def geometry_tangle(geometry: DecayGeometry) -> float:
    """Tangle of the spin_z = 0 state at one geometry (0 if infeasible)."""
    if not geometry.feasible:
        return 0.0
    return tangle(ortho_state(geometry, 0))
