"""Deterministic table serialization: CSV/JSON emit and CSV round-trip."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgsquare.tables import SweepTable, format_number, parse_csv


class TestFormatNumber:
    def test_negative_zero_normalized(self):
        assert format_number(-0.0) == "0"

    def test_integers_stay_compact(self):
        assert format_number(1.0) == "1"
        assert format_number(-3.0) == "-3"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip(self, value):
        assert float(format_number(value)) == value


def _table() -> SweepTable:
    return SweepTable(
        params={"command": "demo", "energy": 1.1, "flag": True, "name": "x"},
        columns=["v0", "T", "regime"],
        records=[
            {"v0": 0.1, "T": 0.25, "regime": "evanescent"},
            {"v0": -2.0, "T": 1.0, "regime": "propagating-particle"},
        ],
        event_columns=["event", "v0", "branch_a"],
        events=[{"event": "ssw-coalescence", "v0": -2.25, "branch_a": 1}],
    )


class TestCsv:
    def test_shape(self):
        text = _table().to_csv()
        lines = text.splitlines()
        assert lines[0] == "v0,T,regime"
        assert lines[1] == "0.10000000000000001,0.25,evanescent"
        assert "## events" in lines
        assert lines[-1] == "ssw-coalescence,-2.25,1"

    def test_round_trip_bytes(self):
        text = _table().to_csv()
        assert parse_csv(text).to_csv() == text

    def test_round_trip_infers_types(self):
        parsed = parse_csv(_table().to_csv())
        assert parsed.records[0]["v0"] == 0.1
        assert parsed.records[0]["regime"] == "evanescent"
        assert parsed.events[0]["branch_a"] == 1

    def test_no_events_section_when_empty(self):
        table = SweepTable({}, ["a"], [{"a": 1}])
        assert "## events" not in table.to_csv()

    def test_rejects_malformed_row(self):
        with pytest.raises(ValueError):
            parse_csv("a,b\n1\n")

    def test_cells_of_every_emitted_type(self):
        record = {"b": True, "f": -0.0, "i": 7, "x": False, "s": "lower"}
        table = SweepTable({}, list(record), [record])
        assert table.to_csv() == "b,f,i,x,s\ntrue,0,7,false,lower\n"

    def test_rejects_cells_that_would_corrupt_csv(self):
        table = SweepTable({}, ["a"], [{"a": "x,y"}])
        with pytest.raises(ValueError):
            table.to_csv()


class TestJson:
    def test_structure_parses(self):
        doc = json.loads(_table().to_json())
        assert sorted(doc) == ["events", "params", "records"]
        assert doc["params"]["energy"] == 1.1
        assert doc["params"]["flag"] is True
        assert doc["records"][1]["T"] == 1.0
        assert doc["events"][0]["event"] == "ssw-coalescence"

    def test_full_float_precision(self):
        table = SweepTable({}, ["x"], [{"x": math.pi}])
        assert json.loads(table.to_json())["records"][0]["x"] == math.pi

    def test_render_dispatch(self):
        table = _table()
        assert table.render("csv") == table.to_csv()
        assert table.render("json") == table.to_json()
