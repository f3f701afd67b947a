import json
import math

import numpy as np
import pytest

from triphoton import ScanGrid, Table, format_number, rows_to_csv, rows_to_json


def test_format_number_twelve_significant_digits():
    assert format_number(1.0 / 3.0) == "0.333333333333"
    assert format_number(2.0) == "2"
    assert format_number(0.1 + 0.2) == "0.3"
    assert format_number(161.2207179725501) == "161.220717973"
    assert format_number(1e-300) == "1e-300"
    assert format_number(-1.5e300) == "-1.5e+300"


def test_format_number_specials():
    assert format_number(float("nan")) == "nan"
    assert format_number(float("inf")) == "inf"
    assert format_number(float("-inf")) == "-inf"
    assert format_number(-0.0) == "0"
    assert format_number(math.copysign(math.nan, -1.0)) == "nan"
    assert format_number(np.float64(-0.0)) == "0"
    assert format_number(5e-324) == "4.94065645841e-324"


def test_csv_cells_and_layout():
    text = rows_to_csv(
        ("name", "value", "flag", "note"),
        [("a", 1.5, True, None), ("b", math.inf, False, "x")],
    )
    assert text == "name,value,flag,note\na,1.5,true,\nb,inf,false,x\n"


def test_json_rows():
    text = rows_to_json(("name", "value"), [("a", 0.5), ("b", math.inf)])
    parsed = json.loads(text)
    assert parsed == [{"name": "a", "value": 0.5}, {"name": "b", "value": None}]
    assert text.endswith("\n")


def test_json_empty():
    assert rows_to_json(("a",), []) == "[]\n"


def test_table_validation_and_lookup():
    t = Table(column_names=("x", "y"), rows=((1, 2), (3, 4)))
    assert t.column("y") == [2, 4]
    with pytest.raises(ValueError):
        Table(column_names=("x", "y"), rows=((1,),))
    with pytest.raises(ValueError):
        t.column("z")


def test_scan_grid_row_major_order():
    grid = ScanGrid(
        axis_names=("a", "b"),
        axes=(np.array([1.0, 2.0]), np.array([10.0, 20.0])),
        column_names=("v",),
        columns=(np.array([[0.1, 0.2], [0.3, 0.4]]),),
    )
    assert grid.header() == ("a", "b", "v")
    rows = list(grid.iter_rows())
    assert rows[0][:2] == (1.0, 10.0)
    assert rows[1][:2] == (1.0, 20.0)
    assert rows[2][:2] == (2.0, 10.0)
    assert grid.to_csv() == "a,b,v\n1,10,0.1\n1,20,0.2\n2,10,0.3\n2,20,0.4\n"


def test_scan_grid_one_dimensional():
    grid = ScanGrid(
        axis_names=("d",),
        axes=(np.array([0.0, 30.0]),),
        column_names=("m", "ok"),
        columns=(np.array([-1.0, -1.1]), np.array([True, False], dtype=object)),
    )
    assert grid.to_csv() == "d,m,ok\n0,-1,true\n30,-1.1,false\n"
    parsed = json.loads(grid.to_json())
    assert parsed[1] == {"d": 30.0, "m": -1.1, "ok": False}


def test_scan_grid_shape_validation():
    with pytest.raises(ValueError):
        ScanGrid(
            axis_names=("a",),
            axes=(np.array([1.0, 2.0]),),
            column_names=("v",),
            columns=(np.array([1.0]),),
        )


def test_serialization_is_repeatable():
    t = Table(column_names=("x",), rows=((0.1,), (0.2,)))
    assert t.to_csv() == t.to_csv()
    assert t.to_json() == t.to_json()
