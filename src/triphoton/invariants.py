"""Local-unitary invariants of three-qubit states and the geometry scan.

The tangle is computed from the degree-4 epsilon contraction of the
amplitude tensor (the 2x2x2 hyperdeterminant). The contraction with the
index pairing used here evaluates to exactly twice the conventional
hyperdeterminant polynomial, so the reported tangle is |contraction| / 2;
that normalization gives 1/4 for the GHZ state and 1/12 for the symmetric
decay state, and matches the expanded-polynomial oracle term by term.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import DecayGeometry, _feasible
from .serialize import ScanGrid
from .states import ortho_amplitudes, ortho_state
from .tensor import PureState, _require_int, _require_normalized, _require_three_qubits
from .tensor import reduced_density

_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])

# party A epsilons pair copies (1,2) and (3,4), party B the same,
# party C pairs (1,3) and (2,4); the asymmetric third pairing is load-bearing
_CONTRACTION = "...aep,...bfq,...cgr,...dhs,ab,cd,ef,gh,pr,qs->..."
# the pairwise order einsum_path(optimize=True) picks for a batch of states;
# fixed so a state's value does not depend on the size of its batch
_CONTRACTION_PATH = ["einsum_path", (0, 4), (0, 4), (6, 7), (4, 6),
                     (0, 5), (0, 1), (0, 2), (1, 2), (0, 1)]

# Rows per scan chunk: bounds the memory of one batched contraction.
_SCAN_CHUNK_ROWS = 32

# Most points per scan axis: 4096**2 = 16.8M cells (steps down to about
# 0.088 deg), i.e. 134 MB of values and about 0.7 GB of csv. A finer step is
# refused before the axis is allocated.
_MAX_SCAN_AXIS = 4096


def _tangle(t: np.ndarray) -> np.ndarray:
    """Tangle of every normalized amplitude tensor in a (..., 2, 2, 2) stack."""
    e = _EPS
    contraction = np.einsum(_CONTRACTION, t, t, t, t, e, e, e, e, e, e, optimize=_CONTRACTION_PATH)
    return np.abs(contraction) / 2.0


def tangle(state: PureState) -> float:
    """Entanglement tangle of a normalized three-qubit state, in [0, 1/4]."""
    _require_three_qubits(state)
    return float(_tangle(_require_normalized(state.tensor)))


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
    # np.arange's length is the ceiling of this; inf for a tiny step
    if not (360.0 - step_deg) / step_deg <= _MAX_SCAN_AXIS:
        raise ValueError(f"step {step_deg} deg gives more than {_MAX_SCAN_AXIS} points per axis")
    return np.arange(step_deg, 360.0, step_deg)


def _scan_chunk(theta12: np.ndarray, theta13: np.ndarray) -> np.ndarray:
    """Tangle values for a block of geometries, infeasible cells exactly 0."""
    t12 = theta12[:, None]
    t13 = theta13[None, :]
    # pair weights 1 - khat_i . khat_j = 1 - cos(theta_ij), theta23 = 360 - t12 - t13
    # (not 2 sin^2(theta/2): bench/workloads.py pins the scan's digests; ROADMAP item 11 moves them)
    t = ortho_amplitudes(
        1.0 - np.cos(np.radians(t12)),
        1.0 - np.cos(np.radians(t13)),
        1.0 - np.cos(np.radians(t12 + t13)),
        0,
    )
    return np.where(_feasible(t12, t13), _tangle(t), 0.0)


def tangle_scan(step_deg: float = 1.0, workers: int | None = None) -> ScanGrid:
    """Tangle of the spin_z = 0 decay state over the (theta12, theta13) grid.

    The grid runs from step_deg to 360 - step_deg on both axes. Feasible
    cells hold the tangle of the spin_z = 0 decay state; infeasible cells
    are exactly 0. `workers`, when given, must be an integer >= 1 and is
    otherwise ignored: the grid is computed serially, in row chunks that
    bound memory, and the CLI passes no worker count.
    """
    axis = _scan_axis(float(step_deg))
    if workers is not None:
        _require_int("workers", workers, 1)
    rows = range(0, axis.size, _SCAN_CHUNK_ROWS)
    values = np.vstack([_scan_chunk(axis[i : i + _SCAN_CHUNK_ROWS], axis) for i in rows])
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
