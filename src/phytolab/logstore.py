"""Segmented CSV record store, HTML reporting and replay.

Records append to a CSV segment until it reaches the segment size, then a new
segment starts; when the store's total size passes its capacity the oldest
whole segments are deleted first.  Floats are written with repr, the shortest
string that round-trips exactly, so a store written twice from the same data
is byte-identical and reading it back (as Row, the floats by column name:
a store knows no channel kinds) loses nothing.

Reports are single-file HTML with inline SVG, their names and titles escaped,
written to a temp file and moved into place so a half-written report is
never visible.
"""

from __future__ import annotations

import html
import math
import os
import re
import time
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .channels import ChannelId, Record, check_unique_names, named_index, not_after, row_values

SEGMENT_BYTES = 2**20  # 1 MiB per segment
CAPACITY_BYTES = 2**29  # 512 MiB per store
_TAIL_BLOCK = 4096  # a reopen reads a segment's end back in blocks this size
_MEMO_ENTRIES = 4096  # per column of a store's record rows; see LogStore

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
    return f"{named_index('timestamp_ms', timestamp_ms)},{csv_cells(values)}\n"


def _segment_name(index: int) -> str:
    return f"segment-{index:08d}.csv"


def _tail(fh) -> tuple[bytes, bytes]:
    """The last whole line of the binary file fh, without its newline, and
    the torn bytes after it, read back from the end only as far as that
    line's start."""
    pos = fh.seek(0, os.SEEK_END)
    tail = b""
    while pos and tail.count(b"\n") < 2:
        step = min(pos, _TAIL_BLOCK)
        pos -= step
        fh.seek(pos)
        tail = fh.read(step) + tail
    head, _, torn = tail.rpartition(b"\n")
    return head.rpartition(b"\n")[2], torn


def _last_ms(line: bytes, path: Path, older: Sequence[Path]) -> int | None:
    """The newest row's timestamp: that of line, the last whole line of the
    segment at path, or else of the last row in the older segments; None
    when no segment holds a row."""
    while not line or line.startswith(b"timestamp_ms,"):
        if not older:
            return None
        *older, path = older
        with open(path, "rb") as fh:
            line, _ = _tail(fh)
    try:
        return int(line.split(b",", 1)[0])
    except ValueError:
        raise ValueError(f"malformed row in {path}: {line!r}") from None


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
    timestamp plus one float per column.  A row is taken by column name, in
    any order, and only when its timestamp comes after the newest row's.

    Reopening an existing store resumes appending to its last segment after
    checking the schema matches.  It first cuts that segment to its last
    newline, so a line a crash left torn is dropped (torn_bytes counts the
    bytes cut), and takes the newest row's timestamp from the end of the
    files, so a reopened store refuses what it would have refused before.

    append(record) writes the cells append_row(record.timestamp_ms,
    record.values) would, through one memo per column from code to text,
    repr(code * resolution): a device's codes repeat (a bench_loop episode
    writes about 1,150 distinct codes on each biopotential column, at most 62
    on any other), so most cells skip repr.  The record's channels must carry
    the column names in order; the memos hold the texts of the channels they
    were filled for.  A memo is cleared when it holds 4,096 codes, so the
    memos of 16 columns stay within about 8 MiB.  append_row, which the
    vector store and other rows of fresh values take, writes csv_cells
    directly: every cell would miss there.
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
        self._torn_bytes = 0
        self._last_ms: int | None = None
        self._channels: tuple[ChannelId, ...] = ()  # those the memos hold texts for
        self._memos: tuple[dict[int, str], ...] = ()
        self._resume()

    # -- segment management

    def _resume(self) -> None:
        existing = _scan_segments(self.root)
        if not existing:
            self._open_segment(1)
            return
        for index, path in existing[:-1]:
            self._closed_bytes[index] = path.stat().st_size
            self._closed_total += self._closed_bytes[index]
        index, path = existing[-1]
        with open(path, "r+b") as fh:
            header = fh.readline()
            line, torn = _tail(fh)
            size = fh.seek(0, os.SEEK_END) - len(torn)
            if size and header != self._header.encode("utf-8"):
                got = header.decode(errors="replace").strip()
                raise ValueError(
                    f"store at {self.root} has columns {got!r}, "
                    f"expected {self._header.strip()!r}"
                )
            if torn:  # cut only once the header shows the store is this one
                fh.truncate(size)
        self._torn_bytes = len(torn)
        self._last_ms = _last_ms(line, path, [p for _, p in existing[:-1]])
        if not size:  # the crash tore the header itself
            self._open_segment(index)
            return
        self._active_index = index
        self._fh = open(path, "a", encoding="utf-8")
        self._active_bytes = size

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
        """append_row of the record, each cell's text read from its column's
        memo by code (see the class docstring), its int timestamp as is."""
        channels = record.channels
        if channels is not self._channels and channels != self._channels:
            if (names := [ch.name for ch in channels]) != list(self.columns):
                raise ValueError(f"record channels {names} differ from {list(self.columns)}")
            self._channels, self._memos = channels, tuple({} for _ in channels)
        cells = []
        for k, memo, ch in zip(record.codes, self._memos, channels):
            text = memo.get(k)
            if text is None:
                if len(memo) >= _MEMO_ENTRIES:
                    memo.clear()
                text = memo[k] = repr(k * ch.spec.resolution)
            cells.append(text)
        self._write(record.timestamp_ms, ",".join(cells))

    def append_row(self, timestamp_ms: int, values: Mapping[str, float]) -> None:
        stamp = named_index("timestamp_ms", timestamp_ms)  # refused, not cut
        self._write(stamp, csv_cells(row_values(values, self.columns)))

    def _write(self, timestamp_ms: int, cells: str) -> None:
        if self._fh is None:
            raise ValueError("store is closed")
        if self._last_ms is not None and timestamp_ms <= self._last_ms:
            raise not_after(f"store at {self.root}", timestamp_ms, self._last_ms)
        line = f"{timestamp_ms},{cells}\n"
        self._fh.write(line)
        self._last_ms = timestamp_ms
        # an int and repr(float) cells: ASCII, one byte per character
        self._active_bytes += len(line)
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

    @property
    def last_ms(self) -> int | None:
        """The newest row's timestamp, None while the store holds no row."""
        return self._last_ms

    @property
    def torn_bytes(self) -> int:
        """Bytes of a torn final line that opening the store cut."""
        return self._torn_bytes


class Row(NamedTuple):
    """A stored row: its timestamp and its readings by column name, read-only."""

    timestamp_ms: int
    values: Mapping[str, float]


def _segment_lines(path: Path, newest: bool) -> Iterator[str]:
    """The whole lines of a store segment, header first, each with its
    newline: what a reopen keeps.  Only the newest segment is written to, so
    only its last line can be torn by a crash; its bytes after the last
    newline are skipped, as a reopen cuts them.  An older segment was closed
    whole, so an unterminated line in it is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line[-1] != "\n":
                if newest:
                    return
                raise ValueError(f"unterminated row in {path}: {line!r}")
            yield line


def _store_segments(root: str | Path) -> Iterator[tuple[Path, list[str], Iterator[str]]]:
    """Each segment of the store at root, oldest first: its path, its column
    names and its _segment_lines after the header, which must be a record's."""
    segments = [path for _, path in _scan_segments(Path(root))]
    for path in segments:
        lines = _segment_lines(path, path is segments[-1])
        if (header := next(lines, None)) is None and path is segments[-1]:
            return  # a crash tore the newest segment's header: it holds no row
        names = (header or "").rstrip("\n").split(",")
        if names.pop(0) != "timestamp_ms":
            raise ValueError(f"{path} is not a record segment")
        yield path, names, lines


def iter_store(root: str | Path) -> Iterator[Row]:
    """Read a store back, oldest segment first, exact float round-trip,
    without a torn final line."""
    for path, names, lines in _store_segments(root):
        for line in lines:
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(names) + 1:
                raise ValueError(f"malformed row in {path}: {line!r}")
            values = dict(zip(names, map(float, cells[1:])))
            yield Row(int(cells[0]), MappingProxyType(values))


def count_rows(root: str | Path) -> int:
    """Rows iter_store would yield, counted by line without parsing a value."""
    return sum(sum(1 for _ in lines) for _, _, lines in _store_segments(root))


def replay(
    root: str | Path,
    on_record: Callable[[Row], None],
    speed: float = 0.0,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Re-deliver stored rows in order; returns the count delivered.

    speed > 0 paces delivery at that multiple of recorded time (1.0 is real
    time); speed 0 delivers as fast as possible; NaN or inf raises ValueError,
    as does a speed so small that sleep cannot take the gap it makes.
    """
    if not 0 <= speed < math.inf:
        raise ValueError(f"speed must be finite and >= 0, got {speed}")
    prev_ms: int | None = None
    count = 0
    for rec in iter_store(root):
        if speed > 0 and prev_ms is not None:
            gap_ms = rec.timestamp_ms - prev_ms
            gap = gap_ms / 1000.0 / speed
            if gap > 0:
                try:
                    sleep(gap)
                except OverflowError:
                    raise ValueError(
                        f"speed {speed} stretches a {gap_ms} ms gap to {gap} s, "
                        "too long to sleep"
                    ) from None
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
    """The series' heading and chart, its name escaped once for both.

    The chart is scaled by the finite values only; a NaN or infinite value
    is left out and breaks the line there, one polyline per run of finite
    points, and the label counts the points that were not finite.
    """
    if len(timestamps_ms) != len(values):
        raise ValueError(f"series {name!r}: length mismatch")
    label = html.escape(name)
    margin = 10.0
    n = len(values)
    finite = [v for v in values if math.isfinite(v)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    runs: list[list[str]] = []
    if finite:
        t0, t1 = timestamps_ms[0], timestamps_ms[-1]
        span_t = float(t1 - t0) or 1.0
        span_v = (hi - lo) or 1.0
        pts: list[str] = []
        for t, v in zip(timestamps_ms, values):
            if not math.isfinite(v):
                if pts:
                    runs.append(pts)
                    pts = []
                continue
            x = margin + (t - t0) / span_t * (width - 2 * margin)
            y = height - margin - (v - lo) / span_v * (height - 2 * margin)
            pts.append(f"{x:.2f},{y:.2f}")
        if pts:
            runs.append(pts)
    body = "".join(
        f'<polyline fill="none" stroke="#2a6f4e" stroke-width="1.5" '
        f'points="{" ".join(pts)}" />'
        for pts in runs
    )
    skipped = f" not finite={n - len(finite)}" if len(finite) < n else ""
    return (
        f"<h2>{label}</h2>\n"
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img">'
        f'<title>{label}</title>'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#fbfbf8" />'
        f"{body}"
        f'<text x="{margin}" y="14" font-size="11">{label}  '
        f"min={repr(lo)} max={repr(hi)} n={n}{skipped}</text>"
        f"</svg>"
    )


def render_report(
    title: str,
    series: Sequence[tuple[str, Sequence[int], Sequence[float]]],
) -> str:
    """Self-contained HTML page with one inline SVG chart per series."""
    charts = "\n".join(_svg_series(name, ts, vs) for name, ts, vs in series)
    title = html.escape(title)
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
