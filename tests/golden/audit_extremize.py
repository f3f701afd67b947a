"""Audit the Mermin extremizer's stop rule over a fixed set of 15,600 starts.

Run from the repository root with the package on the path:

    PYTHONPATH=src python tests/golden/audit_extremize.py [--save FILE] [--compare FILE]

It runs `mermin_extremize` for mercedes, ghz, delta:0 and delta:5..180 in
steps of 5, with seeds 0-4 and 16 and 64 starts, and prints:
- how many starts end on each exit of `minimize`, told apart by where they
  stop: a start that takes the stall exit at a gradient norm <= 1e-13
  counts under 1e-13;
- the evaluations spent in total, and their mean and maximum per start;
- the largest printed `gradient_norm`, and how many exceed GRADIENT_BOUND;
- with --compare, every printed value or angle that differs from a run
  saved with --save (for example, one taken on another commit).
The exit status is 1 when a printed `gradient_norm` exceeds GRADIENT_BOUND
or a printed value or angle differs. It takes about 30 s, so it is a report
outside the tier-1 tests.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from triphoton import mermin
from triphoton.cli import _parse_state
from triphoton.serialize import format_number

GRADIENT_BOUND = 1e-10
STATES = ["mercedes", "ghz", "delta:0"] + [f"delta:{d}" for d in range(5, 181, 5)]
SEEDS = range(5)
STARTS = (16, 64)


def _exit_of(res, steps: int, last_x: np.ndarray) -> str:
    """Which exit of `minimize` produced res, from its final gradient, the
    Newton steps it took and the last point it evaluated."""
    if math.hypot(*res.jac) <= 1e-13:
        return "gradient <= 1e-13"
    if not np.array_equal(last_x, res.x):
        return "40 halvings without an acceptable step"
    if steps == mermin._NEWTON_STEPS:
        return f"{mermin._NEWTON_STEPS}-step cap"
    return "stall above 1e-13"


def audit(save: str | None, compare: str | None) -> int:
    exits, nfevs = Counter(), []
    minimize, eigh = mermin.minimize, np.linalg.eigh

    def traced(fun, x0):
        steps, last = 0, [None]

        def counted_eigh(h):  # one eigendecomposition per Newton step
            nonlocal steps
            steps += 1
            return eigh(h)

        def recorded(x):
            last[0] = np.array(x)
            return fun(x)

        np.linalg.eigh = counted_eigh
        try:
            res = minimize(recorded, x0)
        finally:
            np.linalg.eigh = eigh
        exits[_exit_of(res, steps, last[0])] += 1
        nfevs.append(res.nfev)
        return res

    mermin.minimize = traced
    rows = {}
    try:
        for label in STATES:
            state = _parse_state(label)
            for seed in SEEDS:
                for starts in STARTS:
                    result = mermin.mermin_extremize(state, starts=starts, seed=seed)
                    for i, p in enumerate(result.points):
                        rows[f"{label} seed {seed} starts {starts} point {i}"] = (
                            [format_number(v) for v in (p.value,) + p.angles_deg],
                            p.gradient_norm,
                        )
    finally:
        mermin.minimize = minimize

    print(f"{len(nfevs)} starts, {len(rows)} printed points")
    for name, count in exits.most_common():
        print(f"  {count:6d} end on: {name}")
    print(f"evaluations: {sum(nfevs)} total, {sum(nfevs) / len(nfevs):.2f} mean, "
          f"{max(nfevs)} max per start")
    worst_key = max(rows, key=lambda k: rows[k][1])
    above = sum(g > GRADIENT_BOUND for _, g in rows.values())
    print(f"largest printed gradient_norm: {format_number(rows[worst_key][1])} "
          f"({worst_key}); {above} above {GRADIENT_BOUND:g}")
    status = 1 if above else 0
    printed = {key: cells for key, (cells, _) in rows.items()}
    if save:
        with open(save, "w", encoding="utf-8") as f:
            json.dump(printed, f, indent=0)
    if compare:
        with open(compare, encoding="utf-8") as f:
            saved = json.load(f)
        differ = [key for key in saved.keys() | printed.keys()
                  if saved.get(key) != printed.get(key)]
        print(f"printed values and angles that differ from {compare}: {len(differ)}")
        for key in sorted(differ):
            print(f"  {key}: {saved.get(key)} -> {printed.get(key)}")
        status = status or int(bool(differ))
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", help="write the printed values and angles to this json file")
    parser.add_argument("--compare", help="report differences from a file written by --save")
    args = parser.parse_args()
    sys.exit(audit(args.save, args.compare))
