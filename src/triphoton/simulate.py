"""Monte Carlo of the likelihood-ratio game against a local-realistic model.

Each trial flags an event with probability q (the quantum prediction); the
model under attack assigns it probability r. The running log10 likelihood
ratio drifts downward at K(q, r) digits per trial on average, and a run ends
when it has fallen past the target exponent or hits the trial cap.

Randomness uses counter-based Philox streams keyed by (seed, run_index), so
every run is reproducible in isolation and a batch is the same whatever
order its runs are computed in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .serialize import Table
from .strength import _forbids, _log_ratios, _require_probability, trials_to_depress
from .tensor import PureState, _frozen_array, _require_int, _unit_vector, pauli_tensor

# Trials are drawn in blocks that start small and double up to a ceiling, so
# a short run draws little and a long one holds at most 4096 draws (32 KiB) at
# a time: the tracemalloc peak of a 4*10^6-trial run is about 0.1 MiB. A
# Philox stream yields the same values however its draws are split, so the
# trials of a (seed, run_index) never depend on the blocking.
_FIRST_BLOCK = 256
_BLOCK_CEILING = 4096

# Most runs a batch may have. A run that crosses early costs about 25 us and
# its table row about 15 B, so 10^5 such runs take about 2.5 s; a run that
# reaches the 10^6-trial cap costs about 20 ms. More runs are refused before
# any is started.
_MAX_RUNS = 100_000

# Most trials a batch may expect to draw (see run_batch). A trial costs 18-21
# ns (20 runs that reach the 10^6-trial cap take 0.35-0.43 s on 2 CPUs), so
# this bounds a batch to about 20 s; a larger batch is refused before any run
# starts.
_MAX_TRIALS = 1_000_000_000


@dataclass(frozen=True)
class SimulationRun:
    """Outcome of one likelihood-ratio run."""

    seed: int
    run_index: int
    event_probability: float
    lr_probability: float
    target_exponent: float
    cap: int
    crossing_trial: int | None  # first trial where log10 LR <= -target
    capped: bool
    final_log10: float  # log10 LR at the crossing (or at the cap)
    expected_trials: float
    trajectory: np.ndarray | None = None


def _check_game(q: float, r: float, target_exponent: float, cap: int, seed: int) -> float:
    """Refuse arguments no run of the game can take; return the expected trials."""
    _require_probability("q", q)
    _require_probability("r", r)
    if _forbids(q, r):
        raise ValueError(f"model probability r = {r} forbids possible outcomes")
    expected = trials_to_depress(q, r, target_exponent)
    _require_int("cap", cap, 1)
    if not _require_int("seed", seed, 0) < 2**64:  # a Philox key word holds 64 bits
        raise ValueError(f"seed must be below 2**64, got {seed}")
    return expected


def simulate_depression(
    q: float,
    r: float,
    target_exponent: float = 4.0,
    cap: int = 1_000_000,
    seed: int = 0,
    run_index: int = 0,
    keep_trajectory: bool = False,
) -> SimulationRun:
    """Run the likelihood-ratio game once.

    q = 1 hits deterministically every trial; q = r never crosses (the
    expected_trials field is then inf and the run ends capped). Per-trial
    increments are -log10(q/r) on a hit and -log10((1-q)/(1-r)) on a miss,
    the two log ratios K(q, r) averages.
    """
    expected = _check_game(q, r, target_exponent, cap, seed)
    _require_int("run_index", run_index, 0, 2**64 - 1)
    return _play(
        _generator(), _log_ratios(q, r), q, r, target_exponent, cap, seed, run_index, expected,
        keep_trajectory,
    )


def _generator() -> np.random.Generator:
    """A Generator on one Philox, for _play to re-key at the start of each run."""
    return np.random.Generator(np.random.Philox(key=0))


def _play(
    rng: np.random.Generator, ratios: tuple[float, float], q: float, r: float,
    target_exponent: float, cap: int, seed: int, run_index: int, expected: float,
    keep_trajectory: bool = False,
) -> SimulationRun:
    """One run of the game on arguments _check_game has already accepted.

    rng's Philox is re-keyed to the run's own stream: key (seed, run_index),
    counter 0 and an empty buffer, so nothing is left over from the run it
    played before. ratios is _log_ratios(q, r).
    """
    hit, miss = ratios
    # the setter casts each word to uint64, so a seed >= 2**63 keeps all its bits
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, run_index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    target = -float(target_exponent)

    acc = 0.0
    done = 0
    block = _FIRST_BLOCK
    crossing: int | None = None
    pieces: list[np.ndarray] = []
    while done < cap:
        take = min(block, cap - done)
        steps = np.where(rng.random(take) < q, -hit, -miss)
        steps[0] += acc  # one sequential sum, however the draws are blocked
        partial = np.cumsum(steps)
        if keep_trajectory:
            pieces.append(partial)
        hits = np.nonzero(partial <= target)[0]
        if hits.size:
            crossing = done + int(hits[0]) + 1
            acc = float(partial[hits[0]])
            if keep_trajectory:
                pieces[-1] = partial[: hits[0] + 1]
            break
        acc = float(partial[-1])
        done += take
        block = min(2 * block, _BLOCK_CEILING)

    trajectory = None
    if keep_trajectory:
        trajectory = _frozen_array(np.concatenate(pieces) if pieces else np.zeros(0), float)
    return SimulationRun(
        seed=int(seed),
        run_index=int(run_index),
        event_probability=q,
        lr_probability=r,
        target_exponent=float(target_exponent),
        cap=int(cap),
        crossing_trial=crossing,
        capped=crossing is None,
        final_log10=acc,
        expected_trials=expected,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class SimulationBatch:
    """A set of runs sharing (q, r, target) but with distinct substreams."""

    runs: tuple[SimulationRun, ...]

    def crossing_trials(self) -> np.ndarray:
        """Crossing trial per run, nan where the run hit the cap."""
        return np.array(
            [math.nan if r.crossing_trial is None else float(r.crossing_trial) for r in self.runs]
        )

    def to_table(self) -> Table:
        rows = tuple(
            (r.run_index, r.seed, r.crossing_trial, r.capped) for r in self.runs
        )
        return Table(
            column_names=("run_index", "seed", "crossing_trial", "capped"),
            rows=rows,
        )


def run_batch(
    q: float,
    r: float,
    runs: int,
    seed: int = 0,
    target_exponent: float = 4.0,
    cap: int = 1_000_000,
    workers: int | None = None,
) -> SimulationBatch:
    """Independent runs indexed 0..runs-1 (1 <= runs <= _MAX_RUNS), each on
    its own Philox substream.

    runs, seed, cap and workers are integers; 2.0 is refused, not truncated.
    Before any run starts, a batch is refused when its expected work,
    runs x min(cap, trials_to_depress(q, r, target_exponent)) trials, is
    more than _MAX_TRIALS; a run that cannot cross (K = 0) counts at the
    cap. The batch is checked once, and run i equals simulate_depression with
    run_index=i. The result is ordered by run index. `workers` (>= 1) is
    validated and otherwise ignored, and the CLI passes none: the runs are
    computed serially, each depending on its key (seed, run_index) alone.
    """
    runs = _require_int("runs", runs, 1, _MAX_RUNS)
    if workers is not None:
        _require_int("workers", workers, 1)
    expected = _check_game(q, r, target_exponent, cap, seed)
    trials = runs * min(cap, expected)
    if trials > _MAX_TRIALS:
        raise ValueError(
            f"{runs} runs expect about {trials:.3g} trials, more than the {_MAX_TRIALS} allowed"
        )
    rng, ratios = _generator(), _log_ratios(q, r)
    results = [
        _play(rng, ratios, q, r, target_exponent, cap, seed, i, expected) for i in range(runs)
    ]
    return SimulationBatch(runs=tuple(results))


def sample_joint_outcomes(
    state: PureState, n_a, n_b, n_c, n: int, seed: int = 0
) -> np.ndarray:
    """Multinomial sample of the eight joint outcomes of three spin measurements.

    Returns a 2x2x2 integer array of counts; index 0 along an axis means
    outcome +1 for that party, index 1 means -1. The Born probabilities are
    read off the Pauli correlation tensor T as
    p_ijk = T . (1, s_i n_a) x (1, s_j n_b) x (1, s_k n_c) / 8 with s = (+1, -1).
    """
    n = _require_int("sample count", n, 0)
    seed = _require_int("seed", seed, 0)
    corr = pauli_tensor(state)
    # row 0 of a leg is outcome +1, row 1 outcome -1
    legs = [np.array([np.r_[1.0, d], np.r_[1.0, -d]]) for d in map(_unit_vector, (n_a, n_b, n_c))]
    probs = np.einsum("ijk,ai,bj,ck->abc", corr, *legs) / 8.0
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    flat = np.clip(probs.ravel(), 0.0, None)
    flat = flat / flat.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, flat).reshape(2, 2, 2)
