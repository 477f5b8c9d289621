"""Deterministic tabular output: sweep results as CSV or JSON.

Numbers are serialized with 17 significant digits so every double round-trips
exactly; CSV uses comma separators, a header row, LF line endings and UTF-8.
A table may carry a trailing event section (CSV: blank line, '## events'
marker, its own header; JSON: a top-level "events" array).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

EVENTS_MARKER = "## events"


def format_number(value: float) -> str:
    """17-significant-digit decimal form of a double (round-trip exact)."""
    if value == 0.0:
        value = 0.0  # normalize -0.0 so parse/serialize round-trips
    return format(value, ".17g")


def _cell(value: Any) -> str:
    if not isinstance(value, str):
        return _json_scalar(value)
    if any(ch in value for ch in (",", "\n", '"')):
        raise ValueError(f"cell value not representable in plain CSV: {value!r}")
    return value


def _parse_cell(text: str) -> Any:
    if text == "":
        return ""
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"unsupported JSON scalar: {value!r}")


def _json_any(value: Any, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}{_json_scalar(str(k))}: {_json_any(v, indent + 2)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_json_any(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(value)


@dataclass
class SweepTable:
    """An ordered table of flat records plus optional trailing events."""

    params: dict[str, Any]
    columns: list[str]
    records: list[dict[str, Any]]
    event_columns: list[str] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for rec in self.records:
            lines.append(",".join(_cell(rec[c]) for c in self.columns))
        if self.events:
            lines.append("")
            lines.append(EVENTS_MARKER)
            lines.append(",".join(self.event_columns))
            for ev in self.events:
                lines.append(",".join(_cell(ev.get(c, "")) for c in self.event_columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "params": self.params,
            "records": [{c: rec[c] for c in self.columns} for rec in self.records],
            "events": [dict(ev) for ev in self.events],
        }
        return _json_any(payload, 0) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def parse_csv(text: str) -> SweepTable:
    """Inverse of SweepTable.to_csv (params are not carried by CSV)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        split = lines.index("")
    except ValueError:
        main, tail = lines, []
    else:
        if len(lines) <= split + 1 or lines[split + 1] != EVENTS_MARKER:
            raise ValueError("blank line not followed by event section")
        main, tail = lines[:split], lines[split + 2 :]
    if not main:
        raise ValueError("empty CSV input")
    columns = main[0].split(",")
    records = [
        {c: _parse_cell(v) for c, v in zip(columns, line.split(","), strict=True)}
        for line in main[1:]
    ]
    event_columns: list[str] = []
    events: list[dict[str, Any]] = []
    if tail:
        event_columns = tail[0].split(",")
        events = [
            {c: _parse_cell(v) for c, v in zip(event_columns, line.split(","), strict=True)}
            for line in tail[1:]
        ]
    return SweepTable({}, columns, records, event_columns, events)
