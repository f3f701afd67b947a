"""Audit the spin-1 decay state against an exact reference on the whole grid.

Run from the repository root with the package on the path:

    PYTHONPATH=src python tests/golden/audit_state.py

For each of the 15,931 feasible integer-degree geometries (theta12 and
theta13 in 1..179 deg, theta12 + theta13 > 180 deg) it compares the pair
weights of `states._pair_weights` with `oracles.mp_decay_state`, a 40-digit
mpmath reference at the same float degrees, and prints the worst relative
weight error. It also prints every weight whose normalized amplitude, as
`state` prints it, differs from the reference's digits. The exit status is 1
when a weight misprints or its error exceeds WEIGHT_BOUND. It takes about
5 s, so it is a report outside the tier-1 tests.
"""
from __future__ import annotations

import sys
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import oracles  # noqa: E402
from triphoton.kinematics import geometry_from_angles  # noqa: E402
from triphoton.serialize import format_number  # noqa: E402
from triphoton.states import _pair_weights, ortho_state  # noqa: E402

WEIGHT_BOUND = 1e-15
# basis index of each weight's plus-signed amplitude: |++->, |+-+>, |-++>
_AMPLITUDE_INDEX = {"w12": 0b001, "w13": 0b010, "w23": 0b100}


def audit() -> int:
    worst, worst_at, misprints, count = 0.0, None, [], 0
    for t12 in range(2, 180):
        for t13 in range(181 - t12, 180):
            count += 1
            geometry = geometry_from_angles(t12, t13)
            exact_weights, exact_amplitudes = oracles.mp_decay_state(float(t12), float(t13))
            amplitudes = ortho_state(geometry, 0).amplitudes.real
            for (name, index), w, exact in zip(
                _AMPLITUDE_INDEX.items(), _pair_weights(geometry), exact_weights
            ):
                error = float(abs((mpmath.mpf(w) - exact) / exact))
                if error > worst:
                    worst, worst_at = error, (t12, t13, name)
                printed = format_number(amplitudes[index])
                expected = format_number(float(exact_amplitudes[index]))
                if printed != expected:
                    misprints.append(f"  ({t12}, {t13}) {name}: prints {printed}, exact {expected}")
    print(f"{count} feasible integer-degree geometries")
    print(f"worst relative weight error: {worst:.2g} at {worst_at} (bound {WEIGHT_BOUND:g})")
    print(f"misprinted weights: {len(misprints)} ({2 * len(misprints)} amplitudes)")
    print("\n".join(misprints), end="\n" if misprints else "")
    return 1 if misprints or worst > WEIGHT_BOUND else 0


if __name__ == "__main__":
    raise SystemExit(audit())
