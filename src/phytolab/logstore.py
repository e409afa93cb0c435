"""Segmented CSV record store, HTML reporting and replay.

Records append to a CSV segment until it reaches the segment size, then a new
segment starts; when the store's total size passes its capacity the oldest
whole segments are deleted first.  Floats are written with repr, the shortest
string that round-trips exactly, so a store written twice from the same data
is byte-identical and reading it back loses nothing.

Reports are single-file HTML with inline SVG, written to a temp file and
moved into place so a half-written report is never visible.
"""

from __future__ import annotations

import math
import os
import re
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .channels import Record, check_unique_names

SEGMENT_BYTES = 2**20  # 1 MiB per segment
CAPACITY_BYTES = 2**29  # 512 MiB per store

_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.csv$")
_BAD_NAME_RE = re.compile(r"[,\n\r]")


def check_store_sizes(segment_bytes: int, capacity_bytes: int) -> None:
    """Reject a segment under 256 bytes or a capacity below two segments."""
    if segment_bytes < 256:
        raise ValueError(f"segment size {segment_bytes} too small")
    if capacity_bytes < 2 * segment_bytes:
        raise ValueError("capacity must hold at least two segments")


def check_column_name(name: str) -> None:
    """Reject a name a CSV header cannot hold: empty, or with ',', '\\n', '\\r'."""
    if not name or _BAD_NAME_RE.search(name):
        raise ValueError(f"bad column name {name!r}")


def csv_header(columns: Iterable[str]) -> str:
    return "timestamp_ms," + ",".join(columns) + "\n"


def csv_cells(values: Iterable[float]) -> str:
    """The values as comma-joined repr(float(v)) cells."""
    # float() first: numpy scalars repr as np.float64(...) otherwise
    return ",".join(map(repr, map(float, values)))


def csv_row(timestamp_ms: int, values: Iterable[float]) -> str:
    """One CSV line: the timestamp, then the values' csv_cells."""
    return f"{timestamp_ms},{csv_cells(values)}\n"


def _segment_name(index: int) -> str:
    return f"segment-{index:08d}.csv"


def _scan_segments(root: Path) -> list[tuple[int, Path]]:
    found = []
    for entry in root.iterdir():
        m = _SEGMENT_RE.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    found.sort()
    return found


class LogStore:
    """Bounded append-only store of timestamped float rows.

    columns name the value fields; every row is one integer millisecond
    timestamp plus one float per column.  Reopening an existing store resumes
    appending to its last segment after checking the schema matches.
    """

    def __init__(
        self,
        root: str | Path,
        columns: Sequence[str],
        segment_bytes: int = SEGMENT_BYTES,
        capacity_bytes: int = CAPACITY_BYTES,
    ) -> None:
        if not columns:
            raise ValueError("need at least one column")
        for name in columns:
            check_column_name(name)
        check_unique_names("column names", columns)
        check_store_sizes(segment_bytes, capacity_bytes)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.columns = tuple(columns)
        self.segment_bytes = segment_bytes
        self.capacity_bytes = capacity_bytes
        self._header = csv_header(self.columns)
        self._closed_bytes: dict[int, int] = {}
        self._closed_total = 0
        self._fh = None
        self._active_index = 0
        self._active_bytes = 0
        self._resume()

    # -- segment management

    def _resume(self) -> None:
        existing = _scan_segments(self.root)
        for index, path in existing[:-1]:
            self._closed_bytes[index] = path.stat().st_size
            self._closed_total += self._closed_bytes[index]
        if existing:
            index, path = existing[-1]
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline()
            if header != self._header:
                raise ValueError(
                    f"store at {self.root} has columns {header.strip()!r}, "
                    f"expected {self._header.strip()!r}"
                )
            self._active_index = index
            self._fh = open(path, "a", encoding="utf-8")
            self._active_bytes = path.stat().st_size
        else:
            self._open_segment(1)

    def _open_segment(self, index: int) -> None:
        self._active_index = index
        path = self.root / _segment_name(index)
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(self._header)
        self._active_bytes = len(self._header.encode("utf-8"))

    def _roll(self) -> None:
        self._fh.close()
        self._closed_bytes[self._active_index] = self._active_bytes
        self._closed_total += self._active_bytes
        self._open_segment(self._active_index + 1)

    def _evict(self) -> None:
        # drop whole segments oldest-first; never the one being written
        while self._closed_bytes and self.total_bytes() > self.capacity_bytes:
            oldest = min(self._closed_bytes)
            (self.root / _segment_name(oldest)).unlink()
            self._closed_total -= self._closed_bytes[oldest]
            del self._closed_bytes[oldest]

    # -- public API

    def append(self, record: Record) -> None:
        self.append_row(record.timestamp_ms, record.values)

    def append_row(self, timestamp_ms: int, values: Mapping[str, float]) -> None:
        if self._fh is None:
            raise ValueError("store is closed")
        if len(values) != len(self.columns):
            raise ValueError(
                f"record has {len(values)} values, store expects {len(self.columns)}"
            )
        try:
            cells = csv_cells(map(values.__getitem__, self.columns))
        except KeyError as exc:
            raise ValueError(f"record missing column {exc.args[0]!r}") from None
        line = f"{int(timestamp_ms)},{cells}\n"
        self._fh.write(line)
        self._active_bytes += len(line.encode("utf-8"))
        if self._active_bytes >= self.segment_bytes:
            self._roll()
        self._evict()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "LogStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def segments(self) -> list[Path]:
        return [path for _, path in _scan_segments(self.root)]

    def total_bytes(self) -> int:
        return self._closed_total + self._active_bytes


def iter_store(root: str | Path) -> Iterator[Record]:
    """Read a store back, oldest segment first, exact float round-trip."""
    root = Path(root)
    for _, path in _scan_segments(root):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header[0] != "timestamp_ms":
                raise ValueError(f"{path} is not a record segment")
            names = header[1:]
            for line in fh:
                cells = line.rstrip("\n").split(",")
                if len(cells) != len(names) + 1:
                    raise ValueError(f"malformed row in {path}: {line!r}")
                yield Record(
                    timestamp_ms=int(cells[0]),
                    values={n: float(v) for n, v in zip(names, cells[1:])},
                )


def count_rows(root: str | Path) -> int:
    """Rows iter_store would yield, counted by line without parsing a value.

    It checks nothing: only iter_store validates a row.
    """
    rows = 0
    for _, path in _scan_segments(Path(root)):
        with open(path, "rb") as fh:
            fh.readline()
            rows += sum(1 for _ in fh)
    return rows


def replay(
    root: str | Path,
    on_record: Callable[[Record], None],
    speed: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Re-deliver stored records in order; returns the count delivered.

    speed > 0 paces delivery at that multiple of recorded time (1.0 is real
    time); speed 0 delivers as fast as possible; NaN or inf raises ValueError.
    """
    if not 0 <= speed < math.inf:
        raise ValueError(f"speed must be finite and >= 0, got {speed}")
    prev_ms: int | None = None
    count = 0
    for rec in iter_store(root):
        if speed > 0 and prev_ms is not None:
            gap = (rec.timestamp_ms - prev_ms) / 1000.0 / speed
            if gap > 0:
                sleep(gap)
        prev_ms = rec.timestamp_ms
        on_record(rec)
        count += 1
    return count


# -- HTML reporting -------------------------------------------------------------


def _svg_series(
    name: str,
    timestamps_ms: Sequence[int],
    values: Sequence[float],
    width: int = 800,
    height: int = 160,
) -> str:
    if len(timestamps_ms) != len(values):
        raise ValueError(f"series {name!r}: length mismatch")
    margin = 10.0
    n = len(values)
    if n == 0:
        body = ""
        lo = hi = 0.0
    else:
        t0, t1 = timestamps_ms[0], timestamps_ms[-1]
        span_t = float(t1 - t0) or 1.0
        lo, hi = min(values), max(values)
        span_v = (hi - lo) or 1.0
        pts = []
        for t, v in zip(timestamps_ms, values):
            x = margin + (t - t0) / span_t * (width - 2 * margin)
            y = height - margin - (v - lo) / span_v * (height - 2 * margin)
            pts.append(f"{x:.2f},{y:.2f}")
        body = (
            f'<polyline fill="none" stroke="#2a6f4e" stroke-width="1.5" '
            f'points="{" ".join(pts)}" />'
        )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img">'
        f'<title>{name}</title>'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#fbfbf8" />'
        f"{body}"
        f'<text x="{margin}" y="14" font-size="11">{name}  '
        f"min={repr(lo)} max={repr(hi)} n={n}</text>"
        f"</svg>"
    )


def render_report(
    title: str,
    series: Sequence[tuple[str, Sequence[int], Sequence[float]]],
) -> str:
    """Self-contained HTML page with one inline SVG chart per series."""
    charts = "\n".join(
        f"<h2>{name}</h2>\n{_svg_series(name, ts, vs)}" for name, ts, vs in series
    )
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"/>'
        f"<title>{title}</title></head>\n"
        f"<body>\n<h1>{title}</h1>\n{charts}\n</body></html>\n"
    )


def emit_report(
    path: str | Path,
    title: str,
    series: Sequence[tuple[str, Sequence[int], Sequence[float]]],
) -> None:
    """Atomically write the report: readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(render_report(title, series), encoding="utf-8")
    os.replace(tmp, path)
