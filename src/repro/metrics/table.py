"""Plain-text result tables (the benches print these, one per figure)."""

from __future__ import annotations

import io
from typing import Any, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class Table:
    """A fixed-column table with text and CSV rendering."""

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        if not headers:
            raise ValueError("table needs at least one column")
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[Any]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [self.headers] + [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[c]) for row in cells) for c in range(len(self.headers))
        ]
        out = io.StringIO()
        if self.title:
            out.write(self.title + "\n")
        sep = "-+-".join("-" * w for w in widths)
        out.write(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)) + "\n")
        out.write(sep + "\n")
        for row in cells[1:]:
            out.write(" | ".join(v.ljust(w) for v, w in zip(row, widths)) + "\n")
        return out.getvalue()

    def to_markdown(self) -> str:
        """GitHub-flavored markdown rendering (used by the trace CLI)."""
        out = io.StringIO()
        if self.title:
            out.write(f"**{self.title}**\n\n")
        out.write("| " + " | ".join(self.headers) + " |\n")
        out.write("|" + "|".join(" --- " for _ in self.headers) + "|\n")
        for row in self.rows:
            out.write("| " + " | ".join(_fmt(v) for v in row) + " |\n")
        return out.getvalue()

    def to_csv(self) -> str:
        lines = [",".join(self.headers)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"<Table {self.title!r} {len(self.rows)}x{len(self.headers)}>"
