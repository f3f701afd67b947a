"""Triple-observable expectations, the Mermin functional, and its extremization.

Measurement settings are restricted to the symmetric form the decay states
call for: one unprimed Bloch direction shared by all three parties and one
primed direction shared by all three. The Mermin combination is evaluated as
the full four-term sum E(n',n,n) + E(n,n',n) + E(n,n,n') - E(n',n',n'),
which reduces to 3E - E' on permutation-symmetric states and respects the
|M| <= 2 product-state bound for asymmetric ones as well.

The extremizer needs neither scipy nor numpy.random: `minimize` is a damped
Newton iteration on the exact Hessian of the trilinear form, run from the
start points of `_halton`, whose permutations `_pcg64_words32` and
`_shuffled` draw as numpy's default_rng would. Its products are unoptimised
einsums, not BLAS calls, whose rounding varies with the host's kernel.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kinematics import _require_finite_angles
from .serialize import ScanGrid
# delta_family_state is unused here; bench/tracer.py counts calls under this name
from .states import _delta_family_tensor, delta_family_state, delta_range
from .tensor import PureState, _pauli_tensor, _require_int, _require_normalized
from .tensor import _unit_vector, pauli_tensor

_ANGLE_NAMES = ("theta_deg", "phi_deg", "theta_prime_deg", "phi_prime_deg")


@dataclass(frozen=True)
class ObservableSettings:
    """Symmetric Stern-Gerlach settings: one unprimed and one primed direction."""

    unprimed: np.ndarray
    primed: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unprimed", _unit_vector(self.unprimed))
        object.__setattr__(self, "primed", _unit_vector(self.primed))

    @classmethod
    def from_angles(
        cls,
        theta_deg: float,
        phi_deg: float,
        theta_prime_deg: float,
        phi_prime_deg: float,
    ) -> "ObservableSettings":
        _require_finite_angles(_ANGLE_NAMES, (theta_deg, phi_deg, theta_prime_deg, phi_prime_deg))
        return cls(
            unprimed=_direction(np.radians(theta_deg), np.radians(phi_deg)),
            primed=_direction(np.radians(theta_prime_deg), np.radians(phi_prime_deg)),
        )

    @property
    def angles_deg(self) -> tuple[float, float, float, float]:
        """(theta, phi, theta', phi') in degrees, phi folded into [0, 360)."""
        return _angles_of(self.unprimed) + _angles_of(self.primed)


def _direction(theta_rad: float, phi_rad: float) -> np.ndarray:
    return _direction_derivatives(theta_rad, phi_rad)[0]


def _direction_derivatives(theta_rad: float, phi_rad: float) -> tuple[np.ndarray, ...]:
    """The unit direction n(theta, phi) and its first and second derivatives,
    from one evaluation of the four sines and cosines: n, the 3x2 Jacobian
    (columns d n / d theta and d n / d phi) and the 2x2x3 curvature, whose
    entry [i, j] is d2 n / dx_i dx_j with x = (theta, phi)."""
    st, ct = np.sin(theta_rad), np.cos(theta_rad)
    sp, cp = np.sin(phi_rad), np.cos(phi_rad)
    n = np.array([st * cp, st * sp, ct])
    jacobian = np.array([[ct * cp, -st * sp], [ct * sp, st * cp], [-st, 0.0]])
    d_tp = [-ct * sp, ct * cp, 0.0]
    curvature = np.array([[[-st * cp, -st * sp, -ct], d_tp], [d_tp, [-st * cp, -st * sp, 0.0]]])
    return n, jacobian, curvature


def _angles_of(n: np.ndarray) -> tuple[float, float]:
    theta = float(np.degrees(np.arccos(np.clip(n[2], -1.0, 1.0))))
    phi = float(np.degrees(np.arctan2(n[1], n[0])) % 360.0)
    return theta, phi


def yx_settings() -> ObservableSettings:
    """Unprimed along y, primed along x; the fixed settings of the delta sweep."""
    return ObservableSettings(unprimed=(0.0, 1.0, 0.0), primed=(1.0, 0.0, 0.0))


def _expectation(corr: np.ndarray, a, b, c) -> np.ndarray:
    """(a.sigma) x (b.sigma) x (c.sigma) off a Pauli tensor or each of a (..., 4, 4, 4) stack."""
    return np.einsum("...ijk,i,j,k->...", corr[..., 1:, 1:, 1:], a, b, c)


def _mermin(corr: np.ndarray, n, p) -> np.ndarray:
    e = lambda a, b, c: _expectation(corr, a, b, c)
    return e(p, n, n) + e(n, p, n) + e(n, n, p) - e(p, p, p)


def triple_expectation(state: PureState, n_a, n_b, n_c) -> float:
    """<state| (n_a.sigma) x (n_b.sigma) x (n_c.sigma) |state> for unit vectors."""
    return float(_expectation(pauli_tensor(state), *map(_unit_vector, (n_a, n_b, n_c))))


def mermin_value(state: PureState, settings: ObservableSettings) -> float:
    """Four-term Mermin combination at the given symmetric settings."""
    return float(_mermin(pauli_tensor(state), settings.unprimed, settings.primed))


def _symmetrized(corr: np.ndarray) -> np.ndarray:
    """Sum of the six index permutations of the three-party correlations.

    With s this tensor, M = s(p, n, n)/2 - s(p, p, p)/6, so
    dM/dn = s(p, n, .) and dM/dp = (s(n, n, .) - s(p, p, .))/2.
    """
    c = corr[1:, 1:, 1:]
    return sum(np.transpose(c, axes) for axes in itertools.permutations(range(3)))


def _value_gradient_hessian(
    corr: np.ndarray, sym: np.ndarray, angles_rad
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mermin value, exact gradient and exact Hessian in (theta, phi, theta',
    phi') radians.

    The second derivatives in the directions are d2M/dn2 = s(p, ., .),
    d2M/dp2 = -s(p, ., .) and d2M/dn dp = s(n, ., .); each block is chained
    through the Jacobians J of the directions, plus the curvature of the
    direction weighted by its gradient: H_nn = Jn' s(p) Jn + dM/dn . d2n.
    """
    th, ph, thp, php = angles_rad
    n, jn, curv_n = _direction_derivatives(th, ph)
    p, jp, curv_p = _direction_derivatives(thp, php)
    # s is symmetric, so contracting its last index is contracting any
    s_n, s_p = np.einsum("ijk,xk->xij", sym, (n, p))
    (s_nn, _), (s_pn, s_pp) = np.einsum("xij,yj->xyi", (s_n, s_p), (n, p))
    grad_dir = (s_pn, (s_nn - s_pp) / 2.0)  # dM/dn, dM/dp
    curv_n, curv_p = np.einsum("xabi,xi->xab", (curv_n, curv_p), grad_dir)
    jac = (jn, jp)
    hess = np.einsum("xia,xyij,yjb->xayb", jac, ((s_p, s_n), (s_n, -s_p)), jac).reshape(4, 4)
    hess[:2, :2] += curv_n
    hess[2:, 2:] += curv_p
    return float(_mermin(corr, n, p)), np.einsum("xi,xia->xa", grad_dir, jac).ravel(), hess


def mermin_gradient(state: PureState, angles_deg) -> np.ndarray:
    """Exact gradient of the Mermin functional in the setting angles.

    angles_deg is (theta, phi, theta', phi') in degrees; the returned
    derivatives are with respect to the angles in radians.
    """
    angles = np.asarray(angles_deg, dtype=float)
    if angles.shape != (4,):
        raise ValueError("angles must be (theta, phi, theta_prime, phi_prime)")
    _require_finite_angles(_ANGLE_NAMES, angles)
    corr = pauli_tensor(state)
    return _value_gradient_hessian(corr, _symmetrized(corr), np.radians(angles))[1]


@dataclass(frozen=True)
class LRBoundCheck:
    """Exhaustive check of the Mermin combination over deterministic outcomes."""

    n_assignments: int
    distinct_values: tuple[float, ...]
    within_bounds: bool


def lr_constraint_check() -> LRBoundCheck:
    """Enumerate all 64 deterministic outcome assignments.

    For every (a, a', b, b', c, c') in {-1, +1}^6 the combination
    a'bc + ab'c + abc' - a'b'c' equals -2 or +2, which is the local-realism
    bound the quantum states violate.
    """
    values = set()
    count = 0
    for a, ap, b, bp, c, cp in itertools.product((-1.0, 1.0), repeat=6):
        values.add(ap * b * c + a * bp * c + a * b * cp - ap * bp * cp)
        count += 1
    distinct = tuple(sorted(values))
    return LRBoundCheck(
        n_assignments=count,
        distinct_values=distinct,
        within_bounds=all(v in (-2.0, 2.0) for v in distinct),
    )


@dataclass(frozen=True)
class MerminResult:
    """One stationary point of the Mermin functional (and, on the result of
    mermin_extremize, the full list of distinct points found)."""

    value: float
    settings: ObservableSettings
    angles_deg: tuple[float, float, float, float]
    stationary: bool
    gradient_norm: float
    points: tuple["MerminResult", ...] = field(default=())


_MASK32 = 0xFFFF_FFFF
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _pcg64_words32(seed: int):
    """The 32-bit words that numpy's default_rng(seed) draws with next32, in order.

    SeedSequence(seed) hashes the seed's 32-bit little-endian words into a
    four-word pool (words past the fourth are mixed in after it), and its
    generate_state(4, uint64) seeds PCG64 as pcg_setseq_128_srandom_r does.
    Each XSL-RR 64-bit output yields its low half, then its buffered high half.
    """
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # uint64 words are little-endian pairs; each 128-bit constant is (high, low)
    words = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (words[2] << 64 | words[3]) << 1 | 1
    # srandom_r: from state 0, step, add the seed, step; each draw steps, then outputs
    lcg = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _MASK128
    while True:
        lcg = (lcg * _PCG_MULT + inc) & _MASK128
        xored, rot = (lcg >> 64 ^ lcg) & _MASK64, lcg >> 122
        out = (xored >> rot | xored << (64 - rot)) & _MASK64
        yield out & _MASK32
        yield out >> 32


def _shuffled(size: int, words) -> list[int]:
    """range(size) as numpy's Generator.shuffle permutes a 1-d array: for i
    from size - 1 down to 1, swap with j drawn by random_interval(i), the
    smallest all-ones mask covering i applied to next32, redrawn while > i."""
    perm = list(range(size))
    for i in range(size - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while (j := next(words) & mask) > i:
            pass
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _halton(n: int, seed: int) -> np.ndarray:
    """First n points of the scrambled Halton sequence in [0, 1)^4.

    Owen's randomized Halton (arXiv:1706.02808): bases 2, 3, 5, 7, each
    radical-inverse digit mapped through its own random permutation. The
    permutations are the shuffles scipy.stats.qmc.Halton(d=4, scramble=True,
    seed=seed) draws from np.random.default_rng(seed), reproduced by
    `_pcg64_words32` and `_shuffled` without loading numpy.random, so the
    points equal scipy's bit for bit.
    """
    words = _pcg64_words32(seed)
    index = np.arange(n)
    columns = []
    for base in (2, 3, 5, 7):
        # one permutation per digit that still moves a double: base**-k > 2**-54
        digits = math.ceil(54 / math.log2(base)) - 1
        perms = np.array([_shuffled(base, words) for _ in range(digits)])
        q, v, b2r = index.copy(), np.zeros(n), 1.0 / base
        for perm in perms:
            v += perm[q % base] * b2r
            q //= base
            b2r /= base
        columns.append(v)
    return np.column_stack(columns)


_STATIONARY_TOL = 1e-6  # gradient norm at or below which a point is stationary
_POLE_TOL = 1e-6  # radians from a pole within which phi is arbitrary
# radians from phi = 0 within which phi is set to 0: at a stationary point
# that moves the value by ~1e-24, far below its rounding
_ZERO_PHI_TOL = 1e-12
_NEWTON_STEPS = 100  # steps after which `minimize` gives up on a start

# Most starts an extremization may take. A start costs up to 2.5 ms (delta:0, whose
# minimum is degenerate: 10^4 starts in 23-25 s end to end, 2 CPUs), so this bounds
# a call to about 25 s and its start points to 320 kB; more is refused before drawing.
_MAX_STARTS = 10_000


@dataclass(frozen=True)
class NewtonResult:
    """Where `minimize` stopped: the point, its value and exact gradient,
    the evaluations spent, and whether the gradient norm passes the
    stationarity test (<= _STATIONARY_TOL)."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nfev: int
    success: bool


def minimize(fun, x0) -> NewtonResult:
    """Damped Newton descent from x0 on fun(x) -> (value, gradient, Hessian).

    Each step solves with the Hessian's eigenvalues replaced by their
    magnitudes, floored at 1e-6 of the largest, so it always points
    downhill; it is halved until it gains the Armijo share of its slope.
    Near a minimum that gain falls below the value's rounding while the
    gradient can still shrink, so the test forgives rounding (4e-16 |f|).
    It stops at a gradient norm <= 1e-13, at <= 1e-10 once an accepted step
    no longer halves it (a degenerate or rounding-limited minimum), when 40
    halvings find no acceptable step, or after _NEWTON_STEPS steps.
    """
    x = np.asarray(x0, dtype=float)
    f, g, h = fun(x)
    g_norm, nfev = math.hypot(*g), 1
    for _ in range(_NEWTON_STEPS):
        if g_norm <= 1e-13:
            break
        lam, vec = np.linalg.eigh(h)
        lam = np.abs(lam)
        # a vanishing Hessian leaves a plain gradient step
        lam = np.maximum(lam, 1e-6 * lam.max() or 1.0)
        step = np.einsum("ij,kj,k->i", vec / -lam, vec, g)
        slope = np.einsum("i,i", g, step)
        for halvings in range(41):
            t = 0.5**halvings
            f_new, g_new, h_new = fun(x + t * step)
            nfev += 1
            if f_new <= f + 1e-4 * t * slope + 4e-16 * abs(f):
                break
        else:
            break
        x, f, g, h = x + t * step, f_new, g_new, h_new
        g_last, g_norm = g_norm, math.hypot(*g)
        if g_last / 2 < g_norm <= 1e-10:
            break
    return NewtonResult(x, f, g, nfev, g_norm <= _STATIONARY_TOL)


def _fold_angles(corr: np.ndarray, x: np.ndarray, value: float) -> np.ndarray:
    """Map converged angles onto a canonical representative.

    Directions are normalized to theta in [0, 180] and phi in [0, 360). A
    direction on a pole, where phi is arbitrary, becomes theta = 0 or 180
    exactly with phi = 0, and the complex-conjugation copy (phi, phi') ->
    (360 - phi, 360 - phi') is folded when it moves phi below 180 degrees;
    each fold applies only if it reproduces the value within 1e-9 (for the
    conjugation fold, true of real-amplitude states). Last, a phi within
    _ZERO_PHI_TOL of 0 or 360 degrees becomes 0, so that rounding left by the
    iteration does not print as a tiny angle or as 360.
    """
    value_at = lambda y: _mermin(corr, _direction(*y[:2]), _direction(*y[2:]))
    same_value = lambda y: abs(value_at(y) - value) <= 1e-9
    out = x.copy()
    for base in (0, 2):
        th = out[base] % (2.0 * np.pi)
        ph = out[base + 1]
        if th > np.pi:
            th = 2.0 * np.pi - th
            ph = ph + np.pi
        out[base] = th
        out[base + 1] = ph % (2.0 * np.pi)
        if min(th, np.pi - th) <= _POLE_TOL:
            candidate = out.copy()
            candidate[base : base + 2] = (0.0 if th < np.pi / 2.0 else np.pi, 0.0)
            if same_value(candidate):
                out = candidate
    if out[1] > np.pi:
        candidate = out.copy()
        candidate[1] = (2.0 * np.pi - out[1]) % (2.0 * np.pi)
        candidate[3] = (2.0 * np.pi - out[3]) % (2.0 * np.pi)
        if same_value(candidate):
            out = candidate
    for i in (1, 3):
        if min(out[i], 2.0 * np.pi - out[i]) <= _ZERO_PHI_TOL:
            out[i] = 0.0
    return out


def mermin_extremize(state: PureState, starts: int = 64, seed: int = 0) -> MerminResult:
    """Multi-start minimization of the Mermin functional over symmetric settings.

    Runs a damped Newton search on the exact gradient and Hessian (see
    `minimize`) from `starts` scrambled Halton points in (theta, phi,
    theta', phi') space, keeps the starts that end at a stationary point
    (exact gradient norm <= 1e-6), clusters them by value, and returns the
    best minimum found. The `points` field carries one representative per
    distinct stationary value, best first; each carries its exact gradient
    norm and a stationarity flag (norm <= 1e-6). `starts` is an integer in
    [1, _MAX_STARTS]. Deterministic for fixed (starts, seed).
    """
    starts = _require_int("starts", starts, 1, _MAX_STARTS)
    seed = _require_int("seed", seed, 0)
    corr = pauli_tensor(state)
    sym = _symmetrized(corr)
    fun = lambda x: _value_gradient_hessian(corr, sym, x)

    lo = np.array([0.0, 0.0, 0.0, 0.0])
    hi = np.array([np.pi, 2.0 * np.pi, np.pi, 2.0 * np.pi])
    x0s = _halton(starts, seed) * (hi - lo) + lo

    found = []
    for x0 in x0s:
        res = minimize(fun, x0)
        if res.success:
            found.append((res.fun, res.x))
    if not found:
        raise RuntimeError("no start converged; increase starts")

    rank = lambda angles: tuple(np.round(angles, 6))
    clusters: dict[float, tuple[float, np.ndarray]] = {}
    for value, x in found:
        folded = _fold_angles(corr, x, value)
        key = round(value, 6)
        # the representative is the smallest angles; ranking by value first
        # would let rounding noise pick a symmetric copy
        if key not in clusters or rank(folded) < rank(clusters[key][1]):
            clusters[key] = (value, folded)

    points = []
    for _, x in sorted(clusters.values(), key=lambda e: e[0]):
        value, grad, _ = fun(x)  # at the printed, folded angles, not the Newton point
        grad_norm = math.hypot(*grad)
        angles = tuple(float(a) for a in np.degrees(x))
        points.append(
            MerminResult(
                value=value,
                settings=ObservableSettings.from_angles(*angles),
                angles_deg=angles,
                stationary=grad_norm <= _STATIONARY_TOL,
                gradient_norm=grad_norm,
            )
        )
    return replace(points[0], points=tuple(points))


_DELTA_CHUNK = 1024  # states per stacked Pauli pass: 1 MiB of Pauli tensors, 1.6 MiB peak


def _over_delta_family(deltas: np.ndarray, read) -> np.ndarray:
    """read(T), concatenated, over the Pauli tensors T of the delta-family states: per
    chunk of deltas, one array build, one norm check and one stacked Pauli pass."""
    parts = []
    for start in range(0, len(deltas), _DELTA_CHUNK):
        stack = _delta_family_tensor(deltas[start : start + _DELTA_CHUNK])
        parts.append(read(_pauli_tensor(_require_normalized(stack))))
    return np.concatenate(parts)


def mermin_delta_sweep(start_deg: float, stop_deg: float, step_deg: float) -> ScanGrid:
    """Mermin value of the delta family at the fixed y/x settings.

    Emits one row per delta with the four-term value and the violation
    -value - 2 (positive once the local-realism bound -2 is beaten; the
    curve crosses zero near delta = 85.88 degrees).
    """
    deltas = delta_range(start_deg, stop_deg, step_deg)
    yx = yx_settings()
    values = _over_delta_family(deltas, lambda corr: _mermin(corr, yx.unprimed, yx.primed))
    return ScanGrid(
        axis_names=("delta_deg",),
        axes=(deltas,),
        column_names=("mermin_value", "violation"),
        columns=(values, -values - 2.0),
    )
