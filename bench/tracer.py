"""Spans and counts at triphoton's module boundaries, recorded from outside.

`Tracer.install()` replaces public functions with timing wrappers under the
names their callers look up (a function imported into several modules is
wrapped once per importing module), and `uninstall()` puts the originals
back. Nothing under src/ knows about it. Spans stay in memory; the caller
writes them out when the run ends.

Microsecond helpers such as `info_distance` and `geometry_from_angles` are
not wrapped: the wrapper would cost more than the call. `triple_expectation`
is counted but not timed for the same reason.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    command: int  # position of the command in its pass


#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("import.numpy_s", "s"),
    ("import.triphoton_self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("invariants.tangle_scan_s", "s"),
    ("invariants.cells", "count"),
    ("invariants.cells_per_s", "1/s"),
    ("serialize.s", "s"),
    ("serialize.rows", "count"),
    ("serialize.bytes", "B"),
    ("serialize.mb_per_s", "MB/s"),
    ("mermin.extremize_s", "s"),
    ("mermin.starts", "count"),
    ("mermin.points", "count"),
    ("mermin.minimize.calls", "count"),
    ("mermin.minimize.nfev", "count"),
    ("mermin.minimize.converged_ratio", "ratio"),
    ("mermin.delta_sweep_s", "s"),
    ("mermin.triple_expectation.calls", "count"),
    ("states.s", "s"),
    ("states.calls", "count"),
    ("strength.best_lr_model_s", "s"),
    ("strength.best_lr_model.calls", "count"),
    ("strength.minimize_scalar.nfev", "count"),
    ("strength.brentq.calls", "count"),
    ("strength.delta_sweep_s", "s"),
    ("strength.table_s", "s"),
    ("simulate.run_batch_s", "s"),
    ("simulate.runs", "count"),
    ("simulate.trials", "count"),
    ("simulate.trials_per_s", "1/s"),
    ("simulate.capped_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def _calls(key):
    def hook(counts, result, args, kwargs):
        counts[key] += 1
    return hook


def _cells(counts, grid, args, kwargs):
    rows, cols = grid.shape
    counts["invariants.cells"] += rows * cols


def _extremize(counts, result, args, kwargs):
    from triphoton.mermin import mermin_extremize

    bound = inspect.signature(mermin_extremize).bind(*args, **kwargs)
    bound.apply_defaults()
    counts["mermin.starts"] += bound.arguments["starts"]
    counts["mermin.points"] += len(result.points)


def _minimize(counts, res, args, kwargs):
    counts["mermin.minimize.calls"] += 1
    counts["mermin.minimize.nfev"] += res.nfev
    counts["mermin.minimize.converged"] += bool(res.success)


def _minimize_scalar(counts, res, args, kwargs):
    counts["strength.minimize_scalar.nfev"] += res.nfev


def _batch(counts, batch, args, kwargs):
    counts["simulate.runs"] += len(batch.runs)
    counts["simulate.trials"] += sum(r.crossing_trial or 0 for r in batch.runs)
    counts["simulate.capped"] += sum(r.capped for r in batch.runs)


def _serialized(rows_of):
    def hook(counts, text, args, kwargs):
        counts["serialize.rows"] += rows_of(args, text)
        counts["serialize.bytes"] += len(text.encode("utf-8"))
    return hook


def _grid_rows(args, text):
    rows = 1
    for size in args[0].shape:
        rows *= size
    return rows


_table_rows = lambda args, text: len(args[0].rows)
_csv_rows = lambda args, text: text.count("\n") - 1  # minus the header line


def _targets():
    """(owner, attribute, span name or None for count-only, count hook)."""
    import triphoton.cli as cli
    import triphoton.invariants as invariants
    import triphoton.mermin as mermin
    import triphoton.strength as strength
    from triphoton.serialize import ScanGrid, Table

    return [
        (cli, "tangle_scan", "invariants.tangle_scan", _cells),
        (cli, "mermin_extremize", "mermin.extremize", _extremize),
        (cli, "mermin_delta_sweep", "mermin.delta_sweep", None),
        (mermin, "minimize", "mermin.minimize", _minimize),
        (mermin, "triple_expectation", None, _calls("mermin.triple_expectation.calls")),
        (strength, "triple_expectation", None, _calls("mermin.triple_expectation.calls")),
        (cli, "delta_family_state", "states", _calls("states.calls")),
        (mermin, "delta_family_state", "states", _calls("states.calls")),
        (strength, "delta_family_state", "states", _calls("states.calls")),
        (cli, "ortho_state", "states", _calls("states.calls")),
        (invariants, "ortho_state", "states", _calls("states.calls")),
        (cli, "best_lr_model", "strength.best_lr_model", _calls("strength.best_lr_model.calls")),
        (strength, "best_lr_model", "strength.best_lr_model",
         _calls("strength.best_lr_model.calls")),
        (strength, "minimize_scalar", "strength.minimize_scalar", _minimize_scalar),
        (strength, "brentq", "strength.brentq", _calls("strength.brentq.calls")),
        (cli, "strength_delta_sweep", "strength.delta_sweep", None),
        (cli, "strength_table", "strength.table", None),
        (cli, "run_batch", "simulate.run_batch", _batch),
        (Table, "to_csv", "serialize", _serialized(_table_rows)),
        (Table, "to_json", "serialize", _serialized(_table_rows)),
        (ScanGrid, "to_csv", "serialize", _serialized(_grid_rows)),
        (ScanGrid, "to_json", "serialize", _serialized(_grid_rows)),
        (cli, "rows_to_csv", "serialize", _serialized(_csv_rows)),
    ]


class Tracer:
    """Records spans and counts for one traced pass.

    Spans are assumed to open and close on one thread: none of the wrapped
    functions is called from the worker threads of the scan or batch pools.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str | None, hook=None):
        """`fn` recording a span called `name` (if given) and calling
        `hook(counts, result, args, kwargs)` after each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans[index] = Span(name, start, end, parent, self.command)
            if hook:
                hook(self.counts, result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded pass (without import.* and
        trace.*, which come from elsewhere)."""
        total = defaultdict(float)
        child_time = defaultdict(float)
        for span in self.spans:
            total[span.name] += span.end - span.start
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        cli_self = sum(
            s.end - s.start - child_time[i] for i, s in enumerate(self.spans) if s.name == "cli.main"
        )
        c = self.counts
        rate = lambda num, den: num / den if den > 0 else 0.0
        return {
            "cli.self_s": cli_self,
            "cli.bytes_out": c["cli.bytes_out"],
            "invariants.tangle_scan_s": total["invariants.tangle_scan"],
            "invariants.cells": c["invariants.cells"],
            "invariants.cells_per_s": rate(c["invariants.cells"], total["invariants.tangle_scan"]),
            "serialize.s": total["serialize"],
            "serialize.rows": c["serialize.rows"],
            "serialize.bytes": c["serialize.bytes"],
            "serialize.mb_per_s": rate(c["serialize.bytes"] / 1e6, total["serialize"]),
            "mermin.extremize_s": total["mermin.extremize"],
            "mermin.starts": c["mermin.starts"],
            "mermin.points": c["mermin.points"],
            "mermin.minimize.calls": c["mermin.minimize.calls"],
            "mermin.minimize.nfev": c["mermin.minimize.nfev"],
            "mermin.minimize.converged_ratio": rate(
                c["mermin.minimize.converged"], c["mermin.minimize.calls"]
            ),
            "mermin.delta_sweep_s": total["mermin.delta_sweep"],
            "mermin.triple_expectation.calls": c["mermin.triple_expectation.calls"],
            "states.s": total["states"],
            "states.calls": c["states.calls"],
            "strength.best_lr_model_s": total["strength.best_lr_model"],
            "strength.best_lr_model.calls": c["strength.best_lr_model.calls"],
            "strength.minimize_scalar.nfev": c["strength.minimize_scalar.nfev"],
            "strength.brentq.calls": c["strength.brentq.calls"],
            "strength.delta_sweep_s": total["strength.delta_sweep"],
            "strength.table_s": total["strength.table"],
            "simulate.run_batch_s": total["simulate.run_batch"],
            "simulate.runs": c["simulate.runs"],
            "simulate.trials": c["simulate.trials"],
            "simulate.trials_per_s": rate(c["simulate.trials"], total["simulate.run_batch"]),
            "simulate.capped_ratio": rate(c["simulate.capped"], c["simulate.runs"]),
        }


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.* metrics from `python -X importtime` output: self times
    summed per top-level package, in seconds."""
    self_us = Counter()
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, _cumulative, module = line.split("|")
        self_us[module.strip().split(".")[0]] += int(head.split(":")[1])
    return {
        "import.total_s": sum(self_us.values()) / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
        "import.triphoton_self_s": self_us["triphoton"] / 1e6,
    }
