"""Stable CSV and JSON emission for tables and scan grids.

All numbers are written with 12 significant digits and a '.' decimal
separator, lines end with a single newline, and row order is fixed, so
identical inputs always produce byte-identical output. Infinite values are
spelled "inf" in CSV and become null in JSON (JSON has no infinity literal).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from json import dumps
from typing import Iterable

import numpy as np


def format_number(value: float) -> str:
    """12 significant digits; inf/nan spelled out; -0.0 normalized to 0."""
    return f"{float(value) + 0.0:.12g}"


def _cell(value, json: bool) -> str:
    """One csv or json cell. Booleans are true/false in both; None is an
    empty csv cell and json null; inf and nan are spelled out in csv and
    null in json; strings are json-quoted."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null" if json else ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if json and not math.isfinite(value):
            return "null"
        return format_number(value)
    return dumps(str(value)) if json else str(value)


def rows_to_csv(column_names: Iterable[str], rows: Iterable[tuple]) -> str:
    lines = [",".join(column_names)]
    for row in rows:
        lines.append(",".join(_cell(v, False) for v in row))
    return "\n".join(lines) + "\n"


def rows_to_json(column_names: Iterable[str], rows: Iterable[tuple]) -> str:
    names = [dumps(str(n)) for n in column_names]
    body = []
    for row in rows:
        fields = ", ".join(f"{n}: {_cell(v, True)}" for n, v in zip(names, row))
        body.append("  {" + fields + "}")
    if not body:
        return "[]\n"
    return "[\n" + ",\n".join(body) + "\n]\n"


@dataclass(frozen=True)
class Table:
    """Small heterogeneous result table with fixed column order."""

    column_names: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != len(self.column_names):
                raise ValueError("row width does not match column count")

    def column(self, name: str) -> list:
        i = self.column_names.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self) -> str:
        return rows_to_csv(self.column_names, self.rows)

    def to_json(self) -> str:
        return rows_to_json(self.column_names, self.rows)


@dataclass(frozen=True)
class ScanGrid:
    """Scan over one or two axes with one or more per-cell value columns.

    Rows iterate in row-major axis order (first axis slowest), which fixes
    the serialized layout.
    """

    axis_names: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    column_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if len(axes) not in (1, 2) or len(axes) != len(tuple(self.axis_names)):
            raise ValueError("ScanGrid needs one or two named axes")
        shape = tuple(a.size for a in axes)
        cols = tuple(np.asarray(c) for c in self.columns)
        if len(cols) != len(tuple(self.column_names)) or not cols:
            raise ValueError("each value column needs a name")
        for c in cols:
            if c.shape != shape:
                raise ValueError(f"column shape {c.shape} does not match axes {shape}")
        # frozen in place, not copied by tensor._frozen_array: a value column
        # is ~100 MB at step 0.1 deg, and a copy would raise the peak memory
        for a in (*axes, *cols):
            a.setflags(write=False)
        object.__setattr__(self, "axis_names", tuple(self.axis_names))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "columns", cols)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.column_names.index(name)]

    def header(self) -> tuple[str, ...]:
        return (*self.axis_names, *self.column_names)

    def iter_rows(self):
        if len(self.axes) == 1:
            (ax,) = self.axes
            for i in range(ax.size):
                yield (float(ax[i]), *(c[i] for c in self.columns))
        else:
            a0, a1 = self.axes
            for i in range(a0.size):
                for j in range(a1.size):
                    yield (float(a0[i]), float(a1[j]), *(c[i, j] for c in self.columns))

    def to_csv(self) -> str:
        return rows_to_csv(self.header(), self.iter_rows())

    def to_json(self) -> str:
        return rows_to_json(self.header(), self.iter_rows())
