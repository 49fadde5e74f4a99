"""Deterministic artifact emission: CSV, JSON, SVG, manifests."""

import hashlib
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdlab import NumericalFailure, emit
from rdlab.emit import sha256_file, svg_line_chart, write_csv, write_json, write_manifest
from rdlab.model import condition_report, support_solutions


def _fmt_reference(value) -> str:
    """The per-value formatter that write_csv replaced; the byte reference."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".15g")


def _csv_reference(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_reference(v) for v in row))
    return "\n".join(lines) + "\n"


def _svg_points_reference(series, width=640, height=400):
    """Each polyline's points by the per-point f-string loop svg_line_chart replaced."""
    series = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in series]
    ml, mr, mt, mb = 62, 16, 34, 46
    x_lo = min(float(x.min()) for x, _ in series)
    x_hi = max(float(x.max()) for x, _ in series)
    y_lo = min(float(y.min()) for _, y in series)
    y_hi = max(float(y.max()) for _, y in series)
    if x_hi - x_lo <= 0.0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 0.0:
        pad = max(1e-12, abs(y_lo)) * 0.5 + 0.5
    else:
        pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw, ph = width - ml - mr, height - mt - mb

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    return [" ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y)) for x, y in series]


# every scalar kind a row may carry, with signed zero, the smallest
# subnormal, a value past 2^53 and a repeating binary fraction
_MIXED_ROW = (0.1, np.float64(-2.5e-7), np.float32(0.1), 7, np.int64(-3), True, np.bool_(False),
              "P_1", -0.0, 5e-324, 1e16, 1.0 / 3.0)


# finite doubles across the whole range, with the edge values drawn often
_FINITE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e308, -1e308,
                 1.7976931348623157e308, 1e16, 1.0 / 3.0]


def _float_tables(min_rows):
    return arrays(np.float64, st.tuples(st.integers(min_rows, 40), st.integers(1, 12)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from(_FINITE_EDGES))


# a float table is formatted block by block; small blocks put block edges
# inside these small tables
_BLOCK_CELLS = st.integers(1, 40) | st.just(emit._CSV_BLOCK_CELLS)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rows=_float_tables(0), block_cells=_BLOCK_CELLS)
def test_float_table_bytes_match_the_per_value_formatter(tmp_path_factory, rows, block_cells):
    header = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with patch.object(emit, "_CSV_BLOCK_CELLS", block_cells):
        write_csv(path, header, rows)
    assert path.read_text() == _csv_reference(header, rows)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(rows=_float_tables(1), block_cells=_BLOCK_CELLS, data=st.data())
def test_non_finite_cell_names_its_row_and_writes_nothing(tmp_path_factory, rows, block_cells,
                                                          data):
    i = data.draw(st.integers(0, rows.shape[0] - 1))
    j = data.draw(st.integers(0, rows.shape[1] - 1))
    rows[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    with patch.object(emit, "_CSV_BLOCK_CELLS", block_cells), \
            pytest.raises(NumericalFailure, match=rf"bad\.csv: row {i + 1} "):
        write_csv(path, [f"c{k}" for k in range(rows.shape[1])], rows)
    assert not path.exists()


class TestCsv:
    def test_full_precision_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[np.pi, 1.0 / 3.0]])
        line = path.read_text().splitlines()[1]
        a, b = line.split(",")
        assert float(a) == pytest.approx(np.pi, rel=1e-15)
        assert len(a.replace(".", "").replace("-", "").lstrip("0")) >= 12

    def test_value_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "flag", "name", "k"], [[0.0095238, True, "P_1", 3]])
        assert path.read_text() == "x,flag,name,k\n0.0095238,true,P_1,3\n"

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[1.0], [2.0]])
        assert path.read_text().endswith("2\n")

    @pytest.mark.parametrize("form", ["tuples", "object-array", "float-array", "int-array",
                                      "bool-array", "float32-array", "empty"])
    def test_bytes_match_the_per_value_formatter(self, tmp_path, form):
        rng = np.random.default_rng(7)
        numbers = rng.standard_normal((6, len(_MIXED_ROW))) * 10.0 ** rng.integers(-9, 17, (6, 1))
        rows = {
            "tuples": [_MIXED_ROW, _MIXED_ROW[::-1]] + [tuple(r) for r in numbers],
            "object-array": np.array([_MIXED_ROW, _MIXED_ROW[::-1]], dtype=object),
            "float-array": np.vstack([[-0.0, 5e-324, 1e16, 1.0 / 3.0] * 3, numbers]),
            "int-array": rng.integers(-10**12, 10**12, (5, 4)),
            "bool-array": rng.random((5, 4)) < 0.5,
            "float32-array": numbers.astype(np.float32),
            "empty": np.empty((0, 3)),
        }[form]
        header = [f"c{i}" for i in range(len(rows[0]) if len(rows) else 3)]
        path = tmp_path / "t.csv"
        write_csv(path, header, rows)
        assert path.read_text() == _csv_reference(header, rows)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float32("nan"), np.float64("-inf")])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_non_finite_value_raises_naming_the_file(self, tmp_path, bad, as_array):
        rows = [(0.5, 1.0), (2.0, bad), (3.0, 4.0)]
        path = tmp_path / "bad.csv"
        with pytest.raises(NumericalFailure, match=r"bad\.csv: row 2 "):
            write_csv(path, ["x", "y"], np.array(rows) if as_array else rows)
        assert not path.exists()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_arrays_never_reach_the_per_value_formatter(self, tmp_path, monkeypatch,
                                                              dtype):
        def refuse(value):
            raise AssertionError("a float ndarray took the per-value path")

        monkeypatch.setattr(emit, "_fmt", refuse)
        rows = np.array([[0.1, -0.0, 5e-324], [1e16, 1.0 / 3.0, -2.5e-7]], dtype=dtype)
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text() == _csv_reference(["a", "b", "c"], rows)

    def test_text_cells_that_merely_contain_nan_or_inf_are_kept(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["info", "nanny"], [("infected", "banana")])
        assert path.read_text() == "info,nanny\ninfected,banana\n"


class TestJson:
    def test_sorted_keys_and_numpy_scalars(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": np.float64(0.5), "a": np.int64(3)})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 3, "b": 0.5}

    def test_complex_and_arrays(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"z": complex(1.0, -2.0), "v": np.array([1.0, 2.0])})
        obj = json.loads(path.read_text())
        assert obj["z"] == {"im": -2.0, "re": 1.0}
        assert obj["v"] == [1.0, 2.0]

    @pytest.mark.parametrize("payload", [
        {"x": float("nan")},
        {"x": [1.0, float("inf")]},
        {"x": np.float64("-inf")},
        {"x": np.array([0.0, np.nan])},
        {"z": complex(1.0, float("nan"))},
    ])
    def test_non_finite_value_raises_naming_the_file(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        with pytest.raises(NumericalFailure, match=r"bad\.json"):
            write_json(path, payload)
        assert not path.exists()

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"x": [1, 2, 3], "y": {"k": 0.25}}
        write_json(p1, payload)
        write_json(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()


@dataclass(frozen=True)
class _Counters:
    steps: int
    nfev: np.int64
    min_state: np.float64
    ok: np.bool_


@dataclass(frozen=True)
class _Profile:
    label: str | None
    x: np.ndarray
    point: np.ndarray | None
    z: complex
    counters: _Counters


_COUNTERS = _Counters(12, np.int64(80), np.float64(-1.5e-17), np.bool_(True))
_COUNTERS_BY_HAND = {"steps": 12, "nfev": 80, "min_state": -1.5e-17, "ok": True}


class TestJsonDataclasses:
    """A result dataclass is written as the object of its fields, byte for byte."""

    @pytest.mark.parametrize("payload, by_hand", [
        (_COUNTERS, _COUNTERS_BY_HAND),
        ({"transient": _COUNTERS, "section": _Counters(3, np.int64(20), 0.25, False)},
         {"transient": _COUNTERS_BY_HAND,
          "section": {"steps": 3, "nfev": 20, "min_state": 0.25, "ok": False}}),
        (_Profile(None, np.linspace(0.0, 1.0, 4), None, complex(1.0, -0.5), _COUNTERS),
         {"label": None, "x": [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], "point": None,
          "z": {"re": 1.0, "im": -0.5}, "counters": _COUNTERS_BY_HAND}),
        ([_Profile("P_u", np.array([0.1]), np.array([0.5, 0.0]), 2j, _COUNTERS)],
         [{"label": "P_u", "x": [0.1], "point": [0.5, 0.0], "z": {"re": 0.0, "im": 2.0},
           "counters": _COUNTERS_BY_HAND}]),
    ], ids=["dataclass", "dict-of-dataclasses", "array-and-none-fields", "list-of-nested"])
    def test_bytes_match_the_hand_made_dict(self, tmp_path, payload, by_hand):
        write_json(tmp_path / "a.json", payload)
        write_json(tmp_path / "b.json", by_hand)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_library_results_match_the_former_cli_dicts(self, tmp_path, reference_model):
        # the dicts the CLI built field by field before it wrote the results as they are
        rep = condition_report(reference_model)
        solutions = support_solutions(reference_model)
        by_hand = {
            "condition": {
                "W": rep.W, "W_u": rep.W_u, "W_v": rep.W_v, "W_w": rep.W_w, "p": rep.p,
                "ineq9_holds": rep.ineq9_holds, "case": rep.case,
                "interior_point": None if rep.interior_point is None else list(rep.interior_point),
            },
            "supports": [{"support": list(sol.support), "status": sol.status,
                          "point": None if sol.point is None else list(sol.point)}
                         for sol in solutions],
        }
        write_json(tmp_path / "a.json", {"condition": rep, "supports": solutions})
        write_json(tmp_path / "b.json", by_hand)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_non_finite_field_raises_naming_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(NumericalFailure, match=r"bad\.json"):
            write_json(path, _Counters(1, np.int64(1), np.float64("nan"), np.bool_(True)))
        assert not path.exists()

    def test_a_dataclass_class_is_not_a_payload(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize"):
            write_json(tmp_path / "c.json", {"cls": _Counters})


class TestSvg:
    def test_valid_xml_with_series(self, tmp_path):
        path = tmp_path / "c.svg"
        x = np.linspace(0.0, 1.0, 50)
        svg_line_chart(
            path,
            [("one", x, np.sin(x)), ("two", x, np.cos(x))],
            title="demo",
            x_label="t",
            y_label="u",
        )
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        body = path.read_text()
        assert body.count("<polyline") == 2
        assert "demo" in body and "one" in body and "two" in body

    def test_rejects_empty_or_ragged_series(self, tmp_path):
        with pytest.raises(ValueError):
            svg_line_chart(tmp_path / "c.svg", [])
        with pytest.raises(ValueError):
            svg_line_chart(
                tmp_path / "c.svg", [("bad", np.arange(5.0), np.arange(4.0))]
            )


    @pytest.mark.parametrize("shape", ["random", "constant"])
    def test_points_match_the_per_point_formatter(self, tmp_path, shape):
        rng = np.random.default_rng(3)
        if shape == "random":
            # unsorted x, several series of unequal length, values across scales
            series = [(rng.uniform(-5.0, 5.0, k), rng.standard_normal(k) * 10.0 ** e)
                      for k, e in ((2, 0), (57, -3), (400, 2))]
        else:
            # one constant series: the y range is empty and gets padded
            series = [(np.linspace(0.0, 1.0, 30), np.full(30, -0.3))]
        path = tmp_path / "c.svg"
        svg_line_chart(path, [(f"s{j}", x, y) for j, (x, y) in enumerate(series)])
        points = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert points == _svg_points_reference(series)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0, 2.0], [0.5, float("nan"), 0.2]),
        ([0.0, float("inf"), 2.0], [0.5, 0.1, 0.2]),
        ([0.0, 1.0, 2.0], [-float("inf"), 0.1, 0.2]),
        ([-1e308, 0.0, 1e308], [0.5, 0.1, 0.2]),  # finite data, overflowing range
    ])
    def test_non_finite_data_raises_naming_the_file(self, tmp_path, x, y):
        path = tmp_path / "bad.svg"
        good = ("ok", np.arange(3.0), np.ones(3))
        with pytest.raises(NumericalFailure, match=r"bad\.svg"):
            svg_line_chart(path, [good, ("bad", np.array(x), np.array(y))])
        assert not path.exists()


class TestManifest:
    def test_lists_files_with_checksums(self, tmp_path):
        f1 = tmp_path / "b.csv"
        f1.write_text("x\n1\n")
        f2 = tmp_path / "a.json"
        f2.write_text("{}")
        write_manifest(tmp_path, "demo", {"k": 1}, [f1, f2], extra={"note": "hi"})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        names = [e["name"] for e in manifest["files"]]
        assert names == ["a.json", "b.csv"]  # sorted, manifest itself absent
        for entry in manifest["files"]:
            digest = hashlib.sha256((tmp_path / entry["name"]).read_bytes()).hexdigest()
            assert entry["sha256"] == digest
            assert entry["bytes"] == (tmp_path / entry["name"]).stat().st_size
        assert manifest["note"] == "hi"
        assert manifest["command"] == "demo"

    def test_sha256_file_matches_hashlib(self, tmp_path):
        f = tmp_path / "blob.bin"
        f.write_bytes(b"\x00\x01\x02" * 1000)
        assert sha256_file(f) == hashlib.sha256(f.read_bytes()).hexdigest()
