"""Three-qubit tensor toolkit: states, operators, reductions, Pauli correlations.

Basis convention used throughout the package: each photon (qubit) is labelled
by helicity, with helicity + mapped to bit 0 and helicity - mapped to bit 1.
Party A is the most significant bit, so the amplitude of |+ + ->
sits at index 0b001 of the flat vector.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

# identity first, so index 0 of each correlation-tensor axis is "not measured"
_SIGMA4 = np.stack((np.eye(2, dtype=complex),) + PAULI)
# every s_i x s_j x s_k as one operand; entries 0, +-1 and +-i, so none is rounded
_SIGMA9 = np.einsum("iax,jby,kcz->ijkabcxyz", _SIGMA4, _SIGMA4, _SIGMA4)


def _require_int(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int in [low, high] via operator.index; 1.5, 2.0, '2' and True are refused."""
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if v < low:
        raise ValueError(f"{name} must be >= {low}, got {v}")
    if high is not None and v > high:
        raise ValueError(f"{v} {name} are more than the {high} allowed")
    return v


def _check_helicities(helicities) -> tuple[int, ...]:
    """The helicities as ints, each exactly +1 or -1: a value such as 1.7 is
    refused, not truncated."""
    hs = tuple(helicities)
    if any(h not in (+1, -1) for h in hs):
        raise ValueError(f"helicities must be +1 or -1, got {hs}")
    return tuple(int(h) for h in hs)


def _basis_index(helicities) -> int:
    """Flat basis index of a helicity ket given as '+-+' or (+1, -1, +1)."""
    if isinstance(helicities, str):
        helicities = ({"+": 1, "-": -1}.get(c, c) for c in helicities)
    index = 0
    for h in _check_helicities(helicities):
        index = (index << 1) | (h < 0)
    return index


def _basis_label(index: int, n_qubits: int) -> str:
    """Helicity string of a flat basis index; the inverse of _basis_index."""
    return "".join("-" if (index >> shift) & 1 else "+" for shift in reversed(range(n_qubits)))


def _frozen_array(values, dtype=complex) -> np.ndarray:
    """A read-only copy of values; the caller's array stays writable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Pure n-qubit state as a flat complex amplitude vector of length 2**n."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        n = amp.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"amplitude vector length {n} is not a power of two")
        object.__setattr__(self, "amplitudes", _frozen_array(amp))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def tensor(self) -> np.ndarray:
        """The amplitudes reshaped to one axis per party, party A first."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.amplitudes / n)

    def canonical(self) -> "PureState":
        """Normalize and fix the global phase.

        The amplitude of largest magnitude (ties broken by lowest basis
        index) is rotated to be real and positive, so coefficient-level
        comparisons between equal states are reproducible.
        """
        amp = self.normalized().amplitudes
        k = int(np.argmax(np.abs(amp).round(12)))
        phase = amp[k] / abs(amp[k])
        return PureState(amp / phase)

    def amplitude(self, label: str) -> complex:
        """Amplitude of a helicity basis ket given as a string such as '++-'."""
        if len(label) != self.n_qubits:
            raise ValueError(f"bad basis label {label!r} for {self.n_qubits} qubits")
        return complex(self.amplitudes[_basis_index(label)])


@dataclass(frozen=True)
class LocalOperator:
    """A 2x2 complex matrix acting on a single party."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"local operator must be 2x2, got shape {mat.shape}")
        object.__setattr__(self, "matrix", _frozen_array(mat))

    def is_unitary(self, tol: float = 1e-10) -> bool:
        return bool(np.allclose(self.matrix @ self.matrix.conj().T, np.eye(2), atol=tol))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive unit-trace matrix for one or more parties."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        object.__setattr__(self, "matrix", _frozen_array(mat))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, LocalOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _as_qubit(v) -> np.ndarray:
    if isinstance(v, PureState):
        v = v.amplitudes
    arr = np.asarray(v, dtype=complex).ravel()
    if arr.size != 2:
        raise ValueError("single-qubit vector must have two components")
    return arr


def tensor3(u, v, w) -> PureState:
    """Product state |u> x |v> x |w> from three single-qubit vectors."""
    u, v, w = _as_qubit(u), _as_qubit(v), _as_qubit(w)
    return PureState(np.einsum("a,b,c->abc", u, v, w).ravel())


def inner(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states act on different numbers of qubits")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_local(op_a, op_b, op_c, state: PureState) -> PureState:
    """Apply one local operator per party of a three-qubit state."""
    _require_three_qubits(state)
    out = np.einsum(
        "ax,by,cz,xyz->abc",
        _as_matrix(op_a),
        _as_matrix(op_b),
        _as_matrix(op_c),
        state.tensor,
    )
    return PureState(out.ravel())


def reduced_density(state: PureState, party: int) -> DensityMatrix:
    """Single-party reduced density matrix, tracing out every other party.

    Parameters
    ----------
    state : PureState
    party : int
        Index of the party to keep; 0 is party A (most significant bit).
    """
    n = state.n_qubits
    if not _require_int("party", party, 0) < n:
        raise ValueError(f"party index {party} out of range for {n} qubits")
    t = np.moveaxis(state.tensor, party, 0).reshape(2, -1)
    return DensityMatrix(t @ t.conj().T)


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure, 1/2 for a maximally mixed single qubit."""
    if isinstance(rho, DensityMatrix):
        return rho.purity()
    return DensityMatrix(np.asarray(rho, dtype=complex)).purity()


def _unit_vector(direction) -> np.ndarray:
    """Read-only copy of a Bloch direction, rescaled to exactly unit length
    after checking it has three components and unit length within 1e-9."""
    n = np.asarray(direction, dtype=float).ravel()
    if n.shape != (3,):
        raise ValueError("Bloch direction must have three components")
    length = float(np.linalg.norm(n))
    if not abs(length - 1.0) <= 1e-9:  # NaN fails every comparison
        raise ValueError(f"Bloch direction must be unit length, got |n| = {length}")
    return _frozen_array(n / length, float)


def bloch_observable(direction) -> LocalOperator:
    """Spin observable n . sigma for a unit Bloch vector n; eigenvalues +/-1."""
    return LocalOperator(_sigma_dot(_unit_vector(direction)))


def _sigma_dot(vec) -> np.ndarray:
    return vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z


def _require_three_qubits(state: PureState) -> None:
    if state.n_qubits != 3:
        raise ValueError(f"expected a three-qubit state, got {state.n_qubits} qubits")


def _require_normalized(t: np.ndarray) -> np.ndarray:
    """t, if every amplitude tensor of the (..., 2, 2, 2) stack t is normalized."""
    squared = (t.conj() * t).real.sum(axis=(-3, -2, -1))
    if not (abs(squared - 1.0) <= 1e-12).all():  # NaN fails every comparison
        raise ValueError("state must be normalized (squared norm within 1e-12 of 1)")
    return t


def pauli_tensor(state: PureState) -> np.ndarray:
    """Real 4x4x4 correlation tensor T[mu, nu, lam] = <s_mu x s_nu x s_lam>.

    s_0 is the identity and s_1..s_3 the Pauli matrices. The expectation of
    (a.sigma) x (b.sigma) x (c.sigma) is T[1:, 1:, 1:] contracted with a, b, c;
    the probability of outcomes (s, t, u) in {+1, -1}^3 along those
    directions is T contracted with (1, s a), (1, t b), (1, u c), over 8.
    """
    _require_three_qubits(state)
    return _pauli_tensor(_require_normalized(state.tensor))


def _pauli_tensor(t: np.ndarray) -> np.ndarray:
    """pauli_tensor of each amplitude tensor of a (..., 2, 2, 2) stack, norms unchecked."""
    corr = np.einsum("...abc,ijkabcxyz,...xyz->...ijk", t.conj(), _SIGMA9, t)
    residue = float(np.abs(corr.imag).max())
    if not residue <= 1e-10:
        raise ValueError(f"expectation has nonreal residue {residue}")
    return corr.real


def random_local_unitary(rng) -> LocalOperator:
    """Haar-distributed 2x2 unitary.

    Parameters
    ----------
    rng : numpy.random.Generator or int
        Generator to draw from, or a non-negative integer seed used to create one.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(_require_int("seed", rng, 0))
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    # QR alone is not Haar; the diagonal phases of R must be pushed into Q
    return LocalOperator(q * (d / np.abs(d)))


def basis_state(label: str) -> PureState:
    """Computational basis ket from a helicity string such as '+-+'."""
    amp = np.zeros(2 ** len(label), dtype=complex)
    amp[_basis_index(label)] = 1.0
    return PureState(amp)


def ghz_state() -> PureState:
    """(|+++> + |--->)/sqrt(2)."""
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = amp[0b111] = 1.0 / np.sqrt(2.0)
    return PureState(amp)
