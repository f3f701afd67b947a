"""Independent verification routes used by the tests.

Everything here deliberately avoids the package's own tensor machinery:
expanded polynomials, explicit index loops, closed forms, and 2x2 algebra
on product states, so that agreement with the library is evidence and not
tautology.
"""
import numpy as np


def cayley_hyperdeterminant(amplitudes):
    """Degree-4 polynomial in the eight amplitudes, written out termwise."""
    t = np.asarray(amplitudes).ravel()
    t000, t001, t010, t011, t100, t101, t110, t111 = t
    return (
        t000**2 * t111**2
        + t001**2 * t110**2
        + t010**2 * t101**2
        + t100**2 * t011**2
        - 2.0
        * (
            t000 * t001 * t110 * t111
            + t000 * t010 * t101 * t111
            + t000 * t011 * t100 * t111
            + t001 * t010 * t101 * t110
            + t001 * t011 * t110 * t100
            + t010 * t011 * t101 * t100
        )
        + 4.0 * (t000 * t011 * t101 * t110 + t001 * t010 * t100 * t111)
    )


def loop_reduced_density(amplitudes, party):
    """Partial trace by explicit index loops over the other two parties."""
    t = np.moveaxis(np.asarray(amplitudes).reshape(2, 2, 2), party, 0)
    rho = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for ap in range(2):
            s = 0.0 + 0.0j
            for b in range(2):
                for c in range(2):
                    s += t[a, b, c] * np.conj(t[ap, b, c])
            rho[a, ap] = s
    return rho


def delta_tangle(delta_deg):
    """Closed-form tangle of the one-parameter family."""
    half = np.radians(delta_deg) / 2.0
    return np.sin(half) ** 6 / (4.0 * (1.0 + np.cos(half) ** 3) ** 2)


def delta_mermin_yx(delta_deg):
    """Closed-form Mermin value of the family at unprimed-y / primed-x."""
    half = np.radians(delta_deg) / 2.0
    return -3.0 * np.sin(half) ** 2 / (1.0 + np.cos(half) ** 3) - 1.0


def delta_state_vectors(delta_deg):
    """(u, v, alpha) building the family as alpha (|uuu> + |vvv>)."""
    quarter = np.radians(180.0 - delta_deg) / 4.0
    u = np.array([np.cos(quarter), np.sin(quarter)])
    v = np.array([np.sin(quarter), np.cos(quarter)])
    alpha = 1.0 / np.sqrt(2.0 * (1.0 + np.cos(np.radians(delta_deg) / 2.0) ** 3))
    return u, v, alpha


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def literal_spin_amplitude_matrix(azimuths_deg, helicities):
    """2x2 three-photon amplitude from the textbook cyclic sum.

    Each cyclic term is [(e_j . e_k - d_j . d_k) e_i + (e_j . d_k + e_k . d_j) d_i]
    dotted into the Pauli vector, with d_i = khat_i x e_i and
    e_i = (-l_i sin phi_i, l_i cos phi_i, -i)/sqrt(2), the conjugated in-plane
    polarization written out; the sum is negated, which is the sign of
    sigma . V for the amplitude vector V.
    """
    phi = np.radians(np.asarray(azimuths_deg, dtype=float))
    khat = [np.array([np.cos(p), np.sin(p), 0.0]) for p in phi]
    e = [
        np.array([-l * np.sin(p), l * np.cos(p), -1j]) / np.sqrt(2.0)
        for p, l in zip(phi, helicities)
    ]
    d = [np.cross(k, v) for k, v in zip(khat, e)]
    total = np.zeros(3, dtype=complex)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        total += (np.dot(e[j], e[k]) - np.dot(d[j], d[k])) * e[i]
        total += (np.dot(e[j], d[k]) + np.dot(e[k], d[j])) * d[i]
    return sum(-c * s for c, s in zip(total, _PAULI))


def _bloch(direction):
    n = np.asarray(direction, dtype=float)
    return n[0] * _PAULI[0] + n[1] * _PAULI[1] + n[2] * _PAULI[2]


def product_superposition_expectation(u, v, alpha, n_a, n_b, n_c):
    """<psi| obs x obs x obs |psi> for psi = alpha(|uuu> + |vvv>), real u, v.

    Uses only 2x2 products: the cross terms are <uuu|...|vvv> =
    (u.A v)(u.B v)(u.C v) and its conjugate.
    """
    mats = [_bloch(n) for n in (n_a, n_b, n_c)]
    uu = np.prod([u @ m @ u for m in mats])
    vv = np.prod([v @ m @ v for m in mats])
    uv = np.prod([u @ m @ v for m in mats])
    vu = np.prod([v @ m @ u for m in mats])
    return float(np.real(alpha**2 * (uu + vv + uv + vu)))


def product_superposition_mermin(u, v, alpha, unprimed, primed):
    e = lambda a, b, c: product_superposition_expectation(u, v, alpha, a, b, c)
    n, p = unprimed, primed
    return e(p, n, n) + e(n, p, n) + e(n, n, p) - e(p, p, p)


def _dense_expectation(amplitudes, op_a, op_b, op_c):
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    big = np.kron(np.kron(op_a, op_b), op_c)
    return float(np.real(np.conj(psi) @ big @ psi))


def dense_triple_expectation(amplitudes, n_a, n_b, n_c):
    """Expectation via an explicit 8x8 Kronecker matrix."""
    return _dense_expectation(amplitudes, _bloch(n_a), _bloch(n_b), _bloch(n_c))


def dense_pauli_expectation(amplitudes, i, j, k):
    """<s_i x s_j x s_k> via an explicit 8x8 Kronecker matrix; index 0 is the
    identity and 1..3 are x, y, z."""
    basis = (np.eye(2),) + _PAULI
    return _dense_expectation(amplitudes, basis[i], basis[j], basis[k])


def five_operand_pauli_tensor(t):
    """Real part of <s_i x s_j x s_k> for each (..., 2, 2, 2) amplitude tensor,
    contracted with one single-party operator stack per party."""
    sigma = np.stack((np.eye(2, dtype=complex),) + _PAULI)
    corr = np.einsum("...abc,iax,jby,kcz,...xyz->...ijk", np.conj(t), sigma, sigma, sigma, t)
    return corr.real


def _angle_direction(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def dense_mermin(amplitudes, angles_rad):
    """Four-term Mermin value at angles (theta, phi, theta', phi') in radians."""
    n = _angle_direction(*angles_rad[:2])
    p = _angle_direction(*angles_rad[2:])
    e = lambda a, b, c: dense_triple_expectation(amplitudes, a, b, c)
    return e(p, n, n) + e(n, p, n) + e(n, n, p) - e(p, p, p)


def central_difference_mermin_gradient(amplitudes, angles_rad, h=1e-5):
    """Central differences of dense_mermin in each angle, step h radians."""
    x = np.asarray(angles_rad, dtype=float)
    grad = np.zeros(4)
    for i in range(4):
        step = np.zeros(4)
        step[i] = h
        forward = dense_mermin(amplitudes, x + step)
        grad[i] = (forward - dense_mermin(amplitudes, x - step)) / (2.0 * h)
    return grad


def su2_to_so3(unitary):
    """Rotation matrix acting on Bloch vectors: R_ij = Tr(s_i U s_j U+)/2."""
    r = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            r[i, j] = np.real(
                np.trace(_PAULI[i] @ unitary @ _PAULI[j] @ unitary.conj().T)
            ) / 2.0
    return r


def kl_digits(q, r):
    """Base-10 relative entropy of a coin, one-sided terms dropped at 0/1."""
    total = 0.0
    if q > 0.0:
        total += q * np.log10(q / r)
    if q < 1.0:
        total += (1.0 - q) * np.log10((1.0 - q) / (1.0 - r))
    return total


def far_face_minimax(q1, q2, n=10_000):
    """Smallest max(K(q1, r1), K(q2, r2)) over n evenly spaced r1 inside the
    open segment of the Mermin face that the violation of (q1, q2) does not
    cross: r2 = 3 r1 - 2 on (2/3, 1) when 6 q1 - 2 q2 - 2 < -2, else r2 = 3 r1
    on (0, 1/3). Inside it both r lie in (0, 1), so every distance is finite;
    a grid minimum can only over-estimate the face's true minimum."""
    lo, shift = (2.0 / 3.0, -2.0) if 6.0 * q1 - 2.0 * q2 - 2.0 < -2.0 else (0.0, 0.0)
    r1 = lo + np.arange(1, n + 1) / (3.0 * (n + 1))
    return float(np.maximum(kl_digits(q1, r1), kl_digits(q2, 3.0 * r1 + shift)).min())


def mp_info_distance(q, r, dps=50):
    """K(q, r) in base-10 digits from mpmath at dps digits: the natural-log
    relative entropy of the float inputs, taken exactly, over ln 10."""
    import mpmath

    with mpmath.workdps(dps):
        q, r = mpmath.mpf(q), mpmath.mpf(r)
        nats = mpmath.mpf(0)
        if q > 0:
            nats += q * mpmath.log(q / r)
        if q < 1:
            nats += (1 - q) * mpmath.log((1 - q) / (1 - r))
        return float(nats / mpmath.log(10))


def mp_decay_state(theta12_deg, theta13_deg, spin_z=0, dps=40):
    """Pair weights (w12, w13, w23) and the eight amplitudes, in basis-index
    order, of the spin-1 decay state at the same float degrees, from mpmath
    at dps digits.

    theta23 = 360 - theta12 - theta13 is formed in floats, as DecayGeometry
    forms it. From there on every step is exact to dps digits: w_ij =
    1 - cos(theta_ij), whose cancellation costs fewer than four of them at
    openings of a degree or more, and each amplitude is a weight over
    sqrt(2 (w12^2 + w13^2 + w23^2)) with the sign layout that
    ortho_amplitudes documents. Returns mpmath numbers; float() rounds each
    one correctly.
    """
    import mpmath

    openings = (theta12_deg, theta13_deg, 360.0 - theta12_deg - theta13_deg)
    sign = 1 if spin_z == 0 else -1
    with mpmath.workdps(dps):
        w12, w13, w23 = (1 - mpmath.cos(mpmath.radians(mpmath.mpf(t))) for t in openings)
        norm = mpmath.sqrt(2 * (w12**2 + w13**2 + w23**2))
        amp = [mpmath.mpf(0)] * 8
        amp[0b001], amp[0b110] = w12 / norm, sign * w12 / norm
        amp[0b010], amp[0b101] = w13 / norm, sign * w13 / norm
        amp[0b100], amp[0b011] = w23 / norm, sign * w23 / norm
    return (w12, w13, w23), amp


GHZ_TRIALS = 4.0 / np.log10(4.0 / 3.0)  # 32.015691...


def random_feasible_geometry(rng):
    """Opening angles staying safely inside the physical wedge.

    All three pair openings land in [10.5, 169.5] degrees, so every sampled
    geometry is feasible with a comfortable margin.
    """
    t12 = rng.uniform(25.0, 168.0)
    lo = max(10.0, 190.0 - t12) + 0.5
    t13 = rng.uniform(lo, 169.5)
    return t12, t13


def random_state(rng, n=8):
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return amp / np.linalg.norm(amp)


def random_qubit(rng):
    q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return q / np.linalg.norm(q)
