import itertools

import numpy as np
import pytest

import oracles
from triphoton import (
    DensityMatrix,
    LocalOperator,
    PureState,
    apply_local,
    basis_state,
    bloch_observable,
    delta_family_state,
    ghz_state,
    inner,
    purity,
    random_local_unitary,
    reduced_density,
    tensor3,
)
from triphoton.states import _delta_family_tensor, delta_range
from triphoton.tensor import _basis_index, _basis_label, _pauli_tensor, _require_normalized
from triphoton.tensor import pauli_tensor


def test_pure_state_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        PureState(np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        PureState(np.ones(1, dtype=complex))


def test_pure_state_is_immutable():
    s = ghz_state()
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_basis_state_amplitude_roundtrip():
    s = basis_state("+-+")
    assert s.amplitude("+-+") == 1.0
    assert s.amplitude("+++") == 0.0
    assert s.n_qubits == 3
    # '+' is bit 0 and the first party is the most significant bit
    assert s.amplitudes[0b010] == 1.0
    # one mapping both ways, from a string or from +1/-1 helicities
    for n in (1, 2, 3, 4):
        for index in range(2**n):
            label = _basis_label(index, n)
            assert _basis_index(label) == index
            assert _basis_index(tuple(+1 if c == "+" else -1 for c in label)) == index
    assert _basis_label(0b001, 3) == "++-"
    for bad in ("+x+", (1, 0, -1), (1, 1.5, -1)):
        with pytest.raises(ValueError):
            _basis_index(bad)


def test_ghz_state_amplitudes():
    s = ghz_state()
    assert s.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert s.amplitudes[7] == pytest.approx(1 / np.sqrt(2))
    assert np.abs(s.amplitudes[1:7]).max() == 0.0
    assert s.norm() == pytest.approx(1.0, abs=1e-15)


def test_canonical_removes_global_phase():
    rng = np.random.default_rng(11)
    s = PureState(oracles.random_state(rng))
    rotated = PureState(np.exp(0.739j) * s.amplitudes)
    assert np.abs(s.canonical().amplitudes - rotated.canonical().amplitudes).max() < 1e-12


def test_canonical_leading_amplitude_is_positive_real():
    rng = np.random.default_rng(12)
    s = PureState(oracles.random_state(rng)).canonical()
    k = int(np.argmax(np.abs(s.amplitudes).round(12)))
    assert abs(s.amplitudes[k].imag) < 1e-15
    assert s.amplitudes[k].real > 0


def test_tensor3_accepts_arrays_and_states():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    s = tensor3(u, v, u)
    assert s.amplitude("+-+") == 1.0
    s2 = tensor3(PureState(u.astype(complex)), v, u)
    assert np.array_equal(s.amplitudes, s2.amplitudes)


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(5)
    a = PureState(oracles.random_state(rng))
    b = PureState(oracles.random_state(rng))
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))
    assert inner(a, a).real == pytest.approx(1.0)


def test_apply_local_matches_kron_matrix():
    rng = np.random.default_rng(21)
    s = PureState(oracles.random_state(rng))
    ops = [random_local_unitary(rng).matrix for _ in range(3)]
    out = apply_local(ops[0], ops[1], ops[2], s)
    dense = np.kron(np.kron(ops[0], ops[1]), ops[2]) @ s.amplitudes
    assert np.abs(out.amplitudes - dense).max() < 1e-13


def test_apply_local_preserves_norm():
    rng = np.random.default_rng(22)
    s = PureState(oracles.random_state(rng))
    u = [random_local_unitary(rng) for _ in range(3)]
    assert apply_local(u[0], u[1], u[2], s).norm() == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_matches_loop_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        s = PureState(oracles.random_state(rng))
        for party in range(3):
            rho = reduced_density(s, party)
            expected = oracles.loop_reduced_density(s.amplitudes, party)
            assert np.abs(rho.matrix - expected).max() < 1e-13
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_party_validation():
    for party in (1.5, "1", -1, True):
        with pytest.raises(ValueError, match="^party must"):
            reduced_density(ghz_state(), party)
    with pytest.raises(ValueError, match="party index 3 out of range for 3 qubits"):
        reduced_density(ghz_state(), 3)


def test_single_party_purity_bounds():
    rng = np.random.default_rng(32)
    for _ in range(25):
        s = PureState(oracles.random_state(rng))
        for party in range(3):
            p = purity(reduced_density(s, party))
            assert 0.5 - 1e-12 <= p <= 1.0 + 1e-12


def test_purity_of_maximally_mixed_qubit():
    assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5)


def test_product_state_reduced_purity_is_one():
    rng = np.random.default_rng(33)
    s = tensor3(*(oracles.random_qubit(rng) for _ in range(3)))
    for party in range(3):
        assert purity(reduced_density(s, party)) == pytest.approx(1.0, abs=1e-12)


def test_bloch_observable_properties():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        obs = bloch_observable(n).matrix
        assert np.abs(obs - obs.conj().T).max() < 1e-14
        eig = np.sort(np.linalg.eigvalsh(obs))
        assert np.abs(eig - [-1.0, 1.0]).max() < 1e-12
    # NaN fails every comparison, so a length check must not let it through
    for bad in ((1.0, 1.0, 0.0), (np.nan, 0.0, 0.0)):
        with pytest.raises(ValueError):
            bloch_observable(bad)


def test_pauli_tensor_matches_dense_kronecker_products():
    rng = np.random.default_rng(43)
    for _ in range(3):
        amp = oracles.random_state(rng)
        corr = pauli_tensor(PureState(amp))
        assert corr.shape == (4, 4, 4)
        for i, j, k in itertools.product(range(4), repeat=3):
            expected = oracles.dense_pauli_expectation(amp, i, j, k)
            assert corr[i, j, k] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        pauli_tensor(PureState(2.0 * amp))
    with pytest.raises(ValueError, match="expected a three-qubit state, got 2 qubits"):
        pauli_tensor(PureState(np.array([1.0, 0.0, 0.0, 0.0])))


@pytest.mark.parametrize("size", [1, 1024, 1025])
def test_a_stacked_pauli_tensor_is_each_states_tensor(size):
    rng = np.random.default_rng(size)
    family = [delta_family_state(d) for d in delta_range(0.0, 180.0, 180.0 / (size - 1 or 1))]
    randoms = [PureState(oracles.random_state(rng)) for _ in range(size)]
    for states in (family[:size], randoms):
        stack = _pauli_tensor(np.stack([s.tensor for s in states]))
        assert stack.shape == (size, 4, 4, 4)
        assert all(np.array_equal(t, pauli_tensor(s)) for t, s in zip(stack, states))


def test_pauli_tensor_is_the_five_operand_contraction_bit_for_bit():
    rng = np.random.default_rng(18)
    family = _delta_family_tensor(delta_range(0.0, 180.0, 0.05))
    randoms = np.stack([oracles.random_state(rng).reshape(2, 2, 2) for _ in range(4096)])
    for stack in (family, randoms):
        for start in range(0, len(stack), 1024):
            chunk = stack[start : start + 1024]
            assert np.array_equal(_pauli_tensor(chunk), oracles.five_operand_pauli_tensor(chunk))
        for t in stack[::211]:
            assert np.array_equal(_pauli_tensor(t), oracles.five_operand_pauli_tensor(t))


def test_a_stack_is_refused_for_any_one_unnormalized_member():
    stack = np.stack([ghz_state().tensor] * 5)
    assert _require_normalized(stack) is stack
    for bad in (1.0 + 1e-11, np.nan):
        broken = stack.copy()
        broken[3] *= bad
        with pytest.raises(ValueError, match=r"^state must be normalized \(squared norm within"):
            _require_normalized(broken)


def test_local_operator_unitarity_flag():
    assert LocalOperator(np.eye(2)).is_unitary()
    assert not LocalOperator(np.array([[1.0, 1.0], [0.0, 1.0]])).is_unitary()


def test_random_local_unitary_is_unitary():
    rng = np.random.default_rng(42)
    for _ in range(20):
        u = random_local_unitary(rng).matrix
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_random_local_unitary_seed_determinism():
    a = random_local_unitary(123).matrix
    b = random_local_unitary(123).matrix
    assert np.array_equal(a, b)


def test_random_local_unitary_seed_validation():
    for seed in (1.5, "3", -1, True):
        with pytest.raises(ValueError, match="^seed must"):
            random_local_unitary(seed)
    # an int seed and a Generator seeded alike draw the same unitary
    expected = random_local_unitary(np.random.default_rng(2**63)).matrix
    assert np.array_equal(random_local_unitary(2**63).matrix, expected)


def test_random_local_unitary_first_entry_statistics():
    # |U_00|^2 of a uniformly random 2x2 unitary averages 1/2
    rng = np.random.default_rng(7)
    vals = [abs(random_local_unitary(rng).matrix[0, 0]) ** 2 for _ in range(2000)]
    assert abs(np.mean(vals) - 0.5) < 0.02
