"""Command-line interface.

Subcommands mirror the library surface: `state` prints decay-state
amplitudes for a geometry, `tangle-scan` maps the entanglement landscape,
`mermin extremize`/`mermin sweep` drive the Bell-type analysis, `strength
table`/`strength sweep` report trials-to-refute, and `simulate` plays the
likelihood-ratio game. Every command writes csv (default) or json, to
stdout or to --output, and is deterministic for fixed arguments. --workers
(or TRIPHOTON_WORKERS) is validated but has no effect: every command runs
serially. The two entry points, `python -m triphoton` and the installed
`triphoton` command (both `__main__.py`), set OPENBLAS_NUM_THREADS=1 before
numpy loads, unless already set, so no idle OpenBLAS pool spins beside a
command. Importing this module sets nothing, and running it as a script
(`python -m triphoton.cli`) runs no command.

Exit codes: 0 success, 2 invalid arguments or values (an unwritable
--output included), 3 infeasible geometry.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
import textwrap
from dataclasses import dataclass

from . import __version__
from .invariants import tangle_scan
from .kinematics import DecayGeometry, FeasibilityError, geometry_from_angles
from .mermin import mermin_delta_sweep, mermin_extremize
from .serialize import ScanGrid, Table, _cell, format_number, rows_to_csv, rows_to_json
from .simulate import run_batch
from .states import delta_family_state, ortho_state
from .strength import best_lr_model, event_probabilities, strength_delta_sweep, strength_table
from .tensor import PureState, _basis_label, _require_int, ghz_state

_WORKERS_ENV = "TRIPHOTON_WORKERS"


def _resolve_workers(args) -> None:
    """Validate the worker count, which is used nowhere: --workers wins, then
    the TRIPHOTON_WORKERS variable; default is one worker."""
    count = args.workers
    if count is None:
        raw = os.environ.get(_WORKERS_ENV, "1")
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(f"{_WORKERS_ENV} must be an integer, got {raw!r}")
    _require_int("worker count", count, 1)


def _parse_state(label: str) -> PureState:
    name = label.strip().lower()
    if name == "mercedes":
        return delta_family_state(120.0)
    if name == "ghz":
        return ghz_state()
    kind, _, text = name.partition(":")
    try:
        delta = float(text) if kind == "delta" else None
    except ValueError:
        delta = None
    if delta is None:
        raise ValueError(f"unknown state {label!r}: expected mercedes, ghz, or delta:D")
    return delta_family_state(delta)


def _parse_geometry(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--geometry expects 'THETA12,THETA13', got {text!r}")
    return geometry_from_angles(float(parts[0]), float(parts[1]))


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected 'START:STOP:STEP', got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _emit(args, result) -> int:
    """Write a command's result in its --format to --output or stdout; an
    unwritable --output is a bad value (exit 2)."""
    text = result.to_json() if args.format == "json" else result.to_csv()
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    return 0


@dataclass(frozen=True)
class _StateReport:
    """What `state` prints: the geometry, the spin branch and one
    (basis, re, im) row per helicity basis ket."""

    geometry: DecayGeometry
    spin_z: int
    rows: tuple

    def to_csv(self) -> str:
        return rows_to_csv(("basis", "amplitude_re", "amplitude_im"), self.rows)

    def to_json(self) -> str:
        amplitudes = textwrap.indent(rows_to_json(("basis", "re", "im"), self.rows), "  ")
        return (
            f'{{\n  "theta12_deg": {_cell(self.geometry.theta12_deg, True)},\n'
            f'  "theta13_deg": {_cell(self.geometry.theta13_deg, True)},\n'
            f'  "spin_z": {self.spin_z},\n  "amplitudes": {amplitudes.lstrip()}}}\n'
        )


def _cmd_state(args) -> _StateReport:
    geometry = _parse_geometry(args.geometry)
    state = ortho_state(geometry, spin_z=args.sz)
    rows = tuple(
        (_basis_label(i, state.n_qubits), a.real, a.imag) for i, a in enumerate(state.amplitudes)
    )
    return _StateReport(geometry, args.sz, rows)


def _cmd_tangle_scan(args) -> ScanGrid:
    return tangle_scan(step_deg=args.step)


def _cmd_mermin_extremize(args) -> Table:
    state = _parse_state(args.state)
    result = mermin_extremize(state, starts=args.starts, seed=args.seed)
    rows = tuple(
        (p.value,) + p.angles_deg + (p.stationary, p.gradient_norm)
        for p in result.points
    )
    return Table(
        column_names=("value", "theta_deg", "phi_deg", "theta_prime_deg", "phi_prime_deg",
                      "stationary", "gradient_norm"),
        rows=rows,
    )


def _cmd_mermin_sweep(args) -> ScanGrid:
    return mermin_delta_sweep(*_parse_range(args.delta))


def _cmd_strength_table(args) -> Table:
    return strength_table()


def _cmd_strength_sweep(args) -> ScanGrid:
    return strength_delta_sweep(*_parse_range(args.delta))


def _cmd_simulate(args) -> Table:
    explicit = args.q is not None or args.r is not None
    if explicit and args.delta is not None:
        raise ValueError("pass either --q/--r or --delta, not both")
    if explicit:
        if args.q is None or args.r is None:
            raise ValueError("--q and --r must be given together")
        q, r = args.q, args.r
    elif args.delta is not None:
        model = event_probabilities(delta_family_state(args.delta))
        report = best_lr_model(model, target_exponent=args.target_exponent)
        if not report.violated:
            raise ValueError(
                f"delta = {format_number(args.delta)} deg stays within the "
                "local-realism bound; there is no model to refute"
            )
        q, r = report.q1, report.r1
    else:
        raise ValueError("either --q/--r or --delta is required")
    batch = run_batch(
        q,
        r,
        runs=args.runs,
        seed=args.seed,
        target_exponent=args.target_exponent,
    )
    return batch.to_table()


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors keep the one-line stderr contract:
    `error: <message>` and exit 2, without the usage block. Subparsers are
    created with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a separate token that starts with "-" as an option
        # unless it is a plain number; -inf, -1e-300 and -5,10 are values too
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    common.add_argument("--output", metavar="PATH", help="write to file instead of stdout")
    common.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help=f"no effect, kept for compatibility; must be >= 1 (default: ${_WORKERS_ENV} or 1)",
    )

    parser = _Parser(
        prog="triphoton",
        description="Three-photon decay states, entanglement, and local-realism tests.",
    )
    parser.add_argument(
        "--version", action="version", version=f"triphoton {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser(
        "state", parents=[common], help="decay-state amplitudes for a geometry"
    )
    p_state.add_argument(
        "--geometry",
        required=True,
        metavar="T12,T13",
        help="opening angles photon1-photon2,photon1-photon3 in degrees",
    )
    p_state.add_argument(
        "--sz",
        type=int,
        choices=(0, 1, -1),
        default=0,
        help="spin projection branch (default 0)",
    )
    p_state.set_defaults(handler=_cmd_state)

    p_scan = sub.add_parser(
        "tangle-scan", parents=[common], help="tangle over the geometry grid"
    )
    p_scan.add_argument(
        "--step", type=float, default=1.0, metavar="DEG", help="grid step in degrees"
    )
    p_scan.set_defaults(handler=_cmd_tangle_scan)

    p_mermin = sub.add_parser("mermin", help="Mermin functional analysis")
    mermin_sub = p_mermin.add_subparsers(dest="subcommand", required=True)

    p_ext = mermin_sub.add_parser(
        "extremize", parents=[common], help="stationary points over symmetric settings"
    )
    p_ext.add_argument(
        "--state",
        default="mercedes",
        metavar="NAME",
        help="mercedes, ghz, or delta:D (default mercedes)",
    )
    p_ext.add_argument("--starts", type=int, default=64, help="multistart count")
    p_ext.add_argument("--seed", type=int, default=0, help="start-point seed")
    p_ext.set_defaults(handler=_cmd_mermin_extremize)

    p_msweep = mermin_sub.add_parser(
        "sweep", parents=[common], help="Mermin value across the delta family"
    )
    p_msweep.add_argument(
        "--delta", required=True, metavar="A:B:S", help="delta range start:stop:step"
    )
    p_msweep.set_defaults(handler=_cmd_mermin_sweep)

    p_strength = sub.add_parser("strength", help="statistical strength reports")
    strength_sub = p_strength.add_subparsers(dest="subcommand", required=True)

    p_table = strength_sub.add_parser(
        "table", parents=[common], help="trials-to-refute comparison table"
    )
    p_table.set_defaults(handler=_cmd_strength_table)

    p_ssweep = strength_sub.add_parser(
        "sweep", parents=[common], help="trials-to-refute across the delta family"
    )
    p_ssweep.add_argument(
        "--delta", required=True, metavar="A:B:S", help="delta range start:stop:step"
    )
    p_ssweep.set_defaults(handler=_cmd_strength_sweep)

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="likelihood-ratio refutation runs"
    )
    p_sim.add_argument("--q", type=float, help="event probability (with --r)")
    p_sim.add_argument("--r", type=float, help="model probability (with --q)")
    p_sim.add_argument(
        "--delta",
        type=float,
        help="derive q and r from the delta-family state instead of --q/--r",
    )
    p_sim.add_argument("--runs", type=int, default=10, help="number of runs")
    p_sim.add_argument("--seed", type=int, default=0, help="stream seed")
    p_sim.add_argument(
        "--target-exponent",
        type=float,
        default=4.0,
        metavar="E",
        help="stop once the likelihood ratio falls below 10^-E",
    )
    p_sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        _resolve_workers(args)
        return _emit(args, args.handler(args))
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
