"""How many decay events it takes to refute local realism at a given odds level.

The experiment watched here records, per event, whether the all-primed
outcome product came out +1 (probability q2 quantum, r2 classical) and
whether a single-primed product came out +1 (q1 vs r1). With product
expectations E = 2q - 1 the Mermin combination reads 6 q1 - 2 q2 - 2, so a
local-realistic model saturating the bound at -2 must satisfy r2 = 3 r1
(and r2 = 3 r1 - 2 at +2). The most stubborn admissible model minimizes
the larger of the two Kullback-Leibler distances; the trial count divides
the target log-odds exponent by that minimax distance. Only the face the
violation crosses is searched: the larger distance is convex in the model
and 0 at q, so the far face lies at least three times farther (`_minimax`).

All information distances are in base-10 digits per trial. The bounded
minimizer and the root polish are pure-Python ports of scipy's routines
(`minimize_scalar` and `brentq` below), so the module needs no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# triple_expectation is unused here; bench/tracer.py counts calls under this name
from .mermin import _expectation, _over_delta_family, triple_expectation, yx_settings
from .states import delta_family_state, delta_range
from .serialize import ScanGrid, Table
from .tensor import PureState, _require_int, ghz_state, pauli_tensor

#: Published benchmark for the two-photon singlet experiment, kept as a fixed
#: reference row; it is not recomputed here.
SINGLET_REFERENCE_TRIALS = 200.0


_Minimum = NamedTuple("_Minimum", [("x", float), ("nfev", int)])


def _sign(v: float) -> float:
    """numpy.sign(v) + (v == 0): +1 or -1, with +1 for either zero (NaN stays NaN)."""
    return 1.0 if v >= 0.0 else -1.0 if v < 0.0 else v


def minimize_scalar(func, lo: float, hi: float, xatol: float = 1e-5) -> _Minimum:
    """Minimum of `func` on [lo, hi] by Brent's golden-section and parabolic
    steps, with at most 500 evaluations; returns the point x and nfev.

    A port of scipy.optimize.minimize_scalar(method="bounded") (its
    `_minimize_scalar_bounded`): the same floating-point operations in the
    same order, so it visits the same points and returns the same x and nfev.
    tests/test_strength.py holds it bit-identical to scipy.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = func(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a) or num >= 500:
            return _Minimum(xf, num)
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * 2.0**-52,
           maxiter: int = 100) -> float:
    """Root of `f` in [a, b] by Brent's bracketing interpolation and bisection.

    A port of scipy.optimize.brentq (scipy/optimize/Zeros/brentq.c): the same
    floating-point operations in the same order, so it returns the same root.
    Returns a or b at once when f vanishes there; raises ValueError when f(a)
    and f(b) have the same sign and RuntimeError after maxiter steps without
    convergence. tests/test_strength.py holds it bit-identical to scipy.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):  # brentq.c's signbit test, on nonzero values
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bisect = not 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (sbis, sbis) if bisect else (scur, stry)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _require_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):  # NaN fails every comparison
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _forbids(q: float, r: float) -> bool:
    """r puts zero probability on an outcome q allows."""
    return (q > 0.0 and r <= 0.0) or (q < 1.0 and r >= 1.0)


def _log_ratios(q: float, r: float) -> tuple[float, float]:
    """log10(q/r) for a hit and log10((1-q)/(1-r)) for a miss, 0 for an outcome
    q rules out: K averages this pair, and the refutation game steps by it."""
    hit = math.log10(q / r) if q > 0.0 else 0.0
    miss = math.log10((1.0 - q) / (1.0 - r)) if q < 1.0 else 0.0
    return hit, miss


def info_distance(q: float, r: float) -> float:
    """Kullback-Leibler distance K(q, r) in base-10 digits.

    One-sided terms drop out at the endpoints: K(0, r) = -log10(1 - r) and
    K(1, r) = -log10(r). Raises ValueError when q or r is not a probability
    in [0, 1] (NaN included), and when the distance is undefined because r
    puts zero probability on an outcome q allows.
    """
    _require_probability("q", q)
    _require_probability("r", r)
    if _forbids(q, r):
        raise ValueError(f"r = {r} forbids an outcome that q = {q} allows")
    return _info_distance_extended(q, r)


def _info_distance_extended(q: float, r: float) -> float:
    """K(q, r) for q, r in [0, 1], but mismatched endpoints give +inf, not a raise.

    Used during optimization where candidate models may place zero weight on
    an observed outcome; such a model is infinitely distinguishable.
    """
    if _forbids(q, r):
        return math.inf
    hit, miss = _log_ratios(q, r)
    return q * hit + (1.0 - q) * miss


def _require_target(target_exponent: float) -> None:
    if not (0.0 < target_exponent < math.inf):  # NaN fails every comparison
        raise ValueError(f"target_exponent must be finite and positive, got {target_exponent}")


def trials_to_depress(q: float, r: float, target_exponent: float = 4.0) -> float:
    """Expected trials for the likelihood ratio to fall below 10^-target.

    Events occur with probability q; the model under test says r. Returns
    inf when the distributions coincide (K = 0).
    """
    _require_target(target_exponent)
    k = info_distance(q, r)
    if k == 0.0:
        return math.inf
    return target_exponent / k


def depressing_factor(q: float, r: float, n: int, m: int) -> float:
    """log10 of the likelihood ratio P_r / P_q after m hits in n trials.

    Negative once the data favor q over r. Endpoint conventions: an outcome
    the model r forbids but the data contain gives -inf (model refuted
    outright); an outcome q forbids but the data contain gives +inf.
    Both forbidding it is undefined and raises, as does a q or r that is not
    a probability in [0, 1].
    """
    _require_probability("q", q)
    _require_probability("r", r)
    n, m = _require_int("n", n, 0), _require_int("m", m, 0)
    if m > n:
        raise ValueError(f"need 0 <= m <= n, got m = {m}, n = {n}")
    total = 0.0
    if m > 0:
        if r <= 0.0 and q <= 0.0:
            raise ValueError("hit recorded but both models forbid it")
        if r <= 0.0:
            return -math.inf
        if q <= 0.0:
            return math.inf
        total += m * math.log10(r / q)
    if n - m > 0:
        if r >= 1.0 and q >= 1.0:
            raise ValueError("miss recorded but both models forbid it")
        if r >= 1.0:
            return -math.inf
        if q >= 1.0:
            return math.inf
        total += (n - m) * math.log10((1.0 - r) / (1.0 - q))
    return total


@dataclass(frozen=True)
class EventModel:
    """Quantum event probabilities for the two monitored outcome classes."""

    q1: float  # single-primed outcome product equal to +1
    q2: float  # all-primed outcome product equal to +1

    def __post_init__(self):
        _require_probability("q1", self.q1)
        _require_probability("q2", self.q2)

    @property
    def mermin_value(self) -> float:
        # E(single-primed) = 2 q1 - 1 each, E(all-primed) = 2 q2 - 1;
        # the four-term combination is then 3(2 q1 - 1) - (2 q2 - 1).
        return 6.0 * self.q1 - 2.0 * self.q2 - 2.0

    @property
    def violates(self) -> bool:
        return not (-2.0 <= self.mermin_value <= 2.0)


@dataclass(frozen=True)
class StrengthReport:
    """Best local-realistic defense and the trials needed to defeat it."""

    q1: float
    q2: float
    r1: float
    r2: float
    k1: float  # digits per trial from the single-primed channel
    k2: float  # digits per trial from the all-primed channel
    n_trials: float
    binding_event: str  # "single_primed", "all_primed", or "none"
    violated: bool
    target_exponent: float


# faces M = -2, then +2 (index M > 2): r2 = slope * r1 + shift for r1 in [lo, hi]
_SIDES = ((3.0, 0.0, 0.0, 1.0 / 3.0), (3.0, -2.0, 2.0 / 3.0, 1.0))


def _minimax(q1: float, q2: float, side: tuple) -> tuple[float, float, float, float, float]:
    """(worst, r1, r2, k1, k2) of the model on `side`, one of _SIDES, that
    minimizes worst = max(k1, k2), where k1 = K(q1, r1) and k2 = K(q2, r2).

    Only the face the violation crosses can hold the minimax. As a function F
    of r = (r1, r2), worst is convex (K is convex in r) with F(q) = 0, and M is
    linear, so the segment from q to a far-face model r meets the near face at
    r' = q + t (r - q), t = (|M| - 2) / (|M| + 2) <= 1/3 as |M| <= 4. Hence
    F(r') <= t F(r): every far-face model is at least three times farther than
    some near-face one, far beyond optimizer error. On the face, worst is thus
    convex in r1, and the bounded minimizer finds its unique interior minimum.
    It stalls near sqrt(eps)*|x|, so an interior crossing of k1 and k2 is
    polished as a root of their difference, which bisection resolves to machine
    precision. The segment ends are candidates too: a distance can vanish there
    when its q sits on an endpoint. The first smallest finite worst wins;
    RuntimeError when no candidate is finite.
    """
    slope, shift, lo, hi = side
    worst = lambda r1: max(
        _info_distance_extended(q1, r1), _info_distance_extended(q2, slope * r1 + shift)
    )
    x = minimize_scalar(worst, lo + 1e-15, hi - 1e-15, xatol=1e-13).x
    diff = lambda r1: (
        _info_distance_extended(q1, r1) - _info_distance_extended(q2, slope * r1 + shift)
    )
    a, b = max(lo + 1e-12, x - 1e-6), min(hi - 1e-12, x + 1e-6)
    if a < b:
        fa, fb = diff(a), diff(b)
        if math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0.0:
            x = brentq(diff, a, b, xtol=1e-15, rtol=8.9e-16)
    best = None
    for r1 in (x, lo, hi):
        r2 = slope * r1 + shift
        k1, k2 = _info_distance_extended(q1, r1), _info_distance_extended(q2, r2)
        value = max(k1, k2)
        if math.isfinite(value) and (best is None or value < best[0]):
            best = (value, r1, r2, k1, k2)
    if best is None:
        raise RuntimeError("no admissible local model found; probabilities degenerate")
    return best


def best_lr_model(q1_or_model, q2: float | None = None, target_exponent: float = 4.0) -> StrengthReport:
    """Most defensible local-realistic model against the observed (q1, q2).

    Searches the Mermin-saturating face the violation crosses (r2 = 3 r1 at
    M < -2, r2 = 3 r1 - 2 at M > 2) for the model minimizing max(K(q1, r1),
    K(q2, r2)); the trial count is target_exponent over that minimax distance.
    When (q1, q2) itself sits inside the local bound no refutation is
    possible: the report carries r = q, zero distances and infinite trials.
    """
    if isinstance(q1_or_model, EventModel):
        model = q1_or_model
        if q2 is not None:
            raise ValueError("pass either an EventModel or two probabilities")
    else:
        if q2 is None:
            raise ValueError("q2 is required when q1 is a bare probability")
        model = EventModel(float(q1_or_model), float(q2))
    q1, q2v = model.q1, model.q2
    _require_target(target_exponent)

    if not model.violates:
        return StrengthReport(
            q1=q1, q2=q2v, r1=q1, r2=q2v, k1=0.0, k2=0.0,
            n_trials=math.inf, binding_event="none", violated=False,
            target_exponent=target_exponent,
        )

    worst, r1, r2, k1, k2 = _minimax(q1, q2v, _SIDES[model.mermin_value > 2.0])
    return StrengthReport(
        q1=q1, q2=q2v, r1=r1, r2=r2, k1=k1, k2=k2,
        n_trials=target_exponent / worst,
        # a balanced interior optimum leaves the two distances equal to
        # rounding; ties go to the single-primed channel deterministically
        binding_event="single_primed" if k1 + 1e-12 >= k2 else "all_primed",
        violated=True,
        target_exponent=target_exponent,
    )


def _yx_events(corr: np.ndarray) -> np.ndarray:
    """event_probabilities' (q1, q2) on the last axis, for a Pauli tensor or a
    (..., 4, 4, 4) stack; float dust within 1e-12 of 0 or 1 is snapped to it."""
    settings = yx_settings()
    n, p = settings.unprimed, settings.primed
    q = (1.0 + np.stack((_expectation(corr, p, n, n), _expectation(corr, p, p, p)), -1)) / 2.0
    return np.where(np.abs(q) <= 1e-12, 0.0, np.where(np.abs(q - 1.0) <= 1e-12, 1.0, q))


def event_probabilities(state: PureState) -> EventModel:
    """(q1, q2) for a state: the chances (1 + E)/2 that the single-primed (x, y, y)
    and the all-primed (x, x, x) outcome products are +1 at the fixed y/x settings."""
    return EventModel(*map(float, _yx_events(pauli_tensor(state))))


def strength_table(target_exponent: float = 4.0) -> Table:
    """Trials-to-refute comparison across experiments.

    GHZ and the positronium decay state are computed live from their event
    probabilities; the two-photon singlet row is a fixed literature
    benchmark included for scale.
    """
    rows = []
    for name, state in (("GHZ", ghz_state()), ("positronium", delta_family_state(120.0))):
        report = best_lr_model(event_probabilities(state), target_exponent=target_exponent)
        rows.append((name, report.n_trials, "computed"))
    rows.append(("singlet", SINGLET_REFERENCE_TRIALS, "reference"))
    return Table(column_names=("state", "n_trials", "source"), rows=tuple(rows))


def strength_delta_sweep(
    start_deg: float, stop_deg: float, step_deg: float, target_exponent: float = 4.0
) -> ScanGrid:
    """Refutation cost across the delta family at the fixed y/x settings.

    flagged_over_200 marks deltas needing at least as many trials as the
    singlet benchmark (or where no violation exists at all).
    """
    deltas = delta_range(start_deg, stop_deg, step_deg)
    events = _over_delta_family(deltas, _yx_events)
    reports = [best_lr_model(q1, q2, target_exponent) for q1, q2 in events]
    flags = [not (r.n_trials < SINGLET_REFERENCE_TRIALS) for r in reports]
    return ScanGrid(
        axis_names=("delta_deg",),
        axes=(deltas,),
        column_names=("q1", "r1", "n_trials", "flagged_over_200"),
        columns=(
            np.array([r.q1 for r in reports]),
            np.array([r.r1 for r in reports]),
            np.array([r.n_trials for r in reports]),
            np.array(flags, dtype=object),
        ),
    )
