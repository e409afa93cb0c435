"""Store round-trip, segmentation, eviction, replay and report tests."""

import math
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phytolab.channels import ChannelId, ChannelKind, Record
from phytolab import logstore
from phytolab.logstore import (
    LogStore,
    count_rows,
    emit_report,
    iter_store,
    render_report,
    replay,
)

AWKWARD = [0.1, 2.0 / 3.0, 1e300, -1e-12, 64e-9 * 12345, -0.0, 5e-324]


def test_round_trip_is_exact(tmp_path):
    with LogStore(tmp_path / "s", columns=["a", "b"]) as store:
        for i, v in enumerate(AWKWARD):
            store.append_row(i * 1000, {"a": v, "b": -v})
        store.flush()
        got = list(iter_store(store.root))
    assert len(got) == len(AWKWARD)
    for i, (rec, v) in enumerate(zip(got, AWKWARD)):
        assert rec.timestamp_ms == i * 1000
        assert rec.values["a"] == v and str(rec.values["a"]) == str(v)
        assert rec.values["b"] == -v


def test_segments_roll_at_size(tmp_path):
    store = LogStore(tmp_path / "s", columns=["x"], segment_bytes=512,
                     capacity_bytes=1 << 20)
    for i in range(200):
        store.append_row(i, {"x": float(i) + 0.5})
    store.close()
    segs = store.segments()
    assert len(segs) > 1
    # every closed segment stopped within one row of the limit
    for path in segs[:-1]:
        assert 512 <= path.stat().st_size <= 512 + 40
    assert [r.values["x"] for r in iter_store(tmp_path / "s")] == [
        float(i) + 0.5 for i in range(200)
    ]
    assert count_rows(tmp_path / "s") == 200


def test_eviction_drops_oldest_whole_segments(tmp_path):
    store = LogStore(tmp_path / "s", columns=["x"], segment_bytes=512,
                     capacity_bytes=2048)
    for i in range(2000):
        store.append_row(i, {"x": float(i)})
        assert store.total_bytes() <= 2048  # hard bound after every append
    store.close()
    segs = store.segments()
    assert segs[0].name != "segment-00000001.csv"  # oldest gone
    left = [r.timestamp_ms for r in iter_store(tmp_path / "s")]
    # survivors are a contiguous, ordered tail of the input
    assert left == list(range(left[0], 2000))
    assert count_rows(tmp_path / "s") == len(left)
    assert sum(p.stat().st_size for p in segs) <= 2048


def test_store_is_byte_deterministic(tmp_path):
    def build(root):
        with LogStore(root, columns=["a", "b"], segment_bytes=1024,
                      capacity_bytes=1 << 20) as store:
            for i in range(500):
                store.append_row(i * 250, {"a": i * 0.1, "b": 1.0 / (i + 1)})
        return b"".join(p.read_bytes() for p in store.segments())

    assert build(tmp_path / "one") == build(tmp_path / "two")


def test_reopen_resumes_last_segment(tmp_path):
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]) as store:
        store.append_row(0, {"x": 1.0})
    with LogStore(root, columns=["x"]) as store:
        store.append_row(1000, {"x": 2.0})
    assert len(store.segments()) == 1
    assert [r.values["x"] for r in iter_store(root)] == [1.0, 2.0]


def test_reopen_rejects_different_columns(tmp_path):
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]):
        pass
    with pytest.raises(ValueError, match="columns"):
        LogStore(root, columns=["y"])
    # a torn tail is cut only once the header shows the store is this one,
    # so refusing a store of other columns writes nothing
    segment = root / "segment-00000001.csv"
    segment.write_bytes(segment.read_bytes() + b"0,1.")
    torn = segment.read_bytes()
    with pytest.raises(ValueError, match="columns"):
        LogStore(root, columns=["y"])
    assert segment.read_bytes() == torn


def test_a_store_takes_a_row_only_after_its_newest_also_across_a_reopen(tmp_path):
    # a second run into one directory used to append a second timeline
    root = tmp_path / "s"
    with LogStore(root, columns=["x", "y"]) as store:
        store.append_row(0, {"x": 1.0, "y": 2.0})
        store.append_row(1000, {"y": 4.0, "x": 3.0})  # by name, in any order
        for stale in (1000, 0):
            with pytest.raises(ValueError, match="timestamp .* not after 1000"):
                store.append_row(stale, {"x": 0.0, "y": 0.0})
    with LogStore(root, columns=["x", "y"]) as store:
        assert store.last_ms == 1000 and store.torn_bytes == 0
        for stale in (1000, 0):
            with pytest.raises(ValueError, match="timestamp .* not after 1000"):
                store.append_row(stale, {"x": 0.0, "y": 0.0})
        store.append_row(2000, {"x": 5.0, "y": 6.0})
    got = list(iter_store(root))
    assert [r.timestamp_ms for r in got] == [0, 1000, 2000]
    assert [r.values["x"] for r in got] == [1.0, 3.0, 5.0]


def test_reopen_reads_the_newest_row_behind_a_header_only_segment(tmp_path):
    root = tmp_path / "s"
    sizes = dict(segment_bytes=256, capacity_bytes=1024)
    with LogStore(root, columns=["x"], **sizes) as store:
        t = 0
        while len(store.segments()) < 2:  # stop right after the roll
            t += 1000
            store.append_row(t, {"x": 0.5})
    assert count_rows(root) > 0 and store.segments()[-1].read_text() == "timestamp_ms,x\n"
    with LogStore(root, columns=["x"], **sizes) as store:
        assert store.last_ms == t
        with pytest.raises(ValueError, match="not after"):
            store.append_row(t, {"x": 0.5})


@pytest.mark.parametrize(
    "drop,add,torn,want",
    [
        (1, b"", b"1000,2.5", [0, 2000]),  # the newest row lost its newline
        (0, b"10", b"10", [0, 1000, 2000]),  # a torn "10" is not a timestamp
    ],
)
def test_reopen_cuts_a_torn_final_line(tmp_path, drop, add, torn, want):
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]) as store:
        store.append_row(0, {"x": 1.5})
        store.append_row(1000, {"x": 2.5})
    (seg,) = store.segments()
    data = seg.read_bytes()
    seg.write_bytes(data[: len(data) - drop] + add)
    with LogStore(root, columns=["x"]) as store:
        store.append_row(2000, {"x": 3.5})
    assert [r.timestamp_ms for r in iter_store(root)] == want
    assert store.torn_bytes == len(torn)


def test_reopen_rewrites_a_torn_header(tmp_path):
    root = tmp_path / "s"
    root.mkdir()
    # a crash before the first flush leaves the new segment empty or torn
    (root / "segment-00000001.csv").write_text("timestamp_ms,")
    with LogStore(root, columns=["x"]) as store:
        assert store.torn_bytes == len("timestamp_ms,") and store.last_ms is None
        store.append_row(0, {"x": 1.0})
    assert [r.values for r in iter_store(root)] == [{"x": 1.0}]


TORN_TAILS = dict(
    width=st.integers(min_value=1, max_value=300),  # 300 columns pass a tail block
    stamps=st.lists(st.integers(-(10**6), 10**12), unique=True, max_size=4).map(sorted),
    torn=st.text(alphabet="0123456789,.e-", max_size=40),
)


def torn_store(tmp, width, stamps, torn):
    """A one-segment store of width columns holding a row at each of stamps,
    then the torn bytes; its root and columns."""
    columns = [f"c{i}" for i in range(width)]
    root = Path(tmp) / "s"
    with LogStore(root, columns) as store:
        for t in stamps:
            store.append_row(t, {c: t / 3 for c in columns})
    (seg,) = store.segments()
    with open(seg, "a", encoding="utf-8") as fh:
        fh.write(torn)
    return root, columns


@given(**TORN_TAILS)
@settings(max_examples=60, deadline=None)
def test_reopen_takes_the_newest_row_and_cuts_only_a_torn_tail(width, stamps, torn):
    with tempfile.TemporaryDirectory() as tmp:
        root, columns = torn_store(tmp, width, stamps, torn)
        with LogStore(root, columns) as store:
            assert store.torn_bytes == len(torn)
            assert store.last_ms == (stamps[-1] if stamps else None)
        assert [r.timestamp_ms for r in iter_store(root)] == stamps


@given(**TORN_TAILS)
# the last cell torn short of its digits: "…,21.75" read as 21.0
@example(width=2, stamps=[0], torn="1000,0.5,21")
@example(width=1, stamps=[], torn="")
@settings(max_examples=60, deadline=None)
def test_a_torn_tail_is_read_as_a_reopen_keeps_it(width, stamps, torn):
    """Before any reopen, iter_store, replay and count_rows skip the bytes
    after the newest segment's last newline, as the reopen cuts them."""
    with tempfile.TemporaryDirectory() as tmp:
        root, columns = torn_store(tmp, width, stamps, torn)
        before = list(iter_store(root))
        replayed = []
        assert replay(root, replayed.append) == count_rows(root) == len(before)
        assert replayed == before
        with LogStore(root, columns):
            pass
        assert list(iter_store(root)) == before
        assert [r.timestamp_ms for r in before] == stamps


def test_a_torn_header_reads_as_an_empty_segment(tmp_path):
    # a crash before the first flush of a new segment: the reopen rewrites it
    root = tmp_path / "s"
    root.mkdir()
    for text in ("", "timestamp_ms,"):
        (root / "segment-00000001.csv").write_text(text)
        assert (list(iter_store(root)), count_rows(root)) == ([], 0)


def test_an_older_segment_with_an_unterminated_line_is_refused(tmp_path):
    # only the newest segment is written to, so only its last line can tear
    root = tmp_path / "s"
    with LogStore(root, columns=["x"], segment_bytes=256, capacity_bytes=1024) as store:
        t = 0
        while len(store.segments()) < 2:
            t += 1000
            store.append_row(t, {"x": 0.5})
    older = store.segments()[0]
    older.write_bytes(older.read_bytes()[:-1])
    for read in (lambda: list(iter_store(root)), lambda: count_rows(root)):
        with pytest.raises(ValueError, match="unterminated row in .*segment-00000001"):
            read()


# one channel of every kind, so every grid; a store holds what encode gives
KINDS = tuple(ChannelId(kind.value, kind) for kind in ChannelKind)


@st.composite
def code_rows(draw):
    """Rows of one code per kind, each column's codes drawn from a small
    pool, so they repeat in a column: the range ends, 0 where the range
    holds it, codes near both ends and any code in the range."""
    pools = []
    for ch in KINDS:
        lo, hi = ch.spec.code_lo, ch.spec.code_hi
        code = st.one_of(
            st.sampled_from([k for k in (lo, hi, 0) if lo <= k <= hi]),
            st.integers(lo, lo + 3),
            st.integers(hi - 3, hi),
            st.integers(lo, hi),
        )
        pools.append(draw(st.lists(code, min_size=1, max_size=4)))
    picks = draw(st.lists(st.lists(st.integers(0, 3), min_size=16, max_size=16), max_size=30))
    return [tuple(pool[i % len(pool)] for pool, i in zip(pools, row)) for row in picks]


ENDS = [tuple(ch.spec.code_lo for ch in KINDS), tuple(ch.spec.code_hi for ch in KINDS)]


@given(rows=code_rows(), bound=st.sampled_from([1, 2, 3, logstore._MEMO_ENTRIES]))
@example(rows=ENDS + ENDS[::-1] + [tuple(max(0, ch.spec.code_lo) for ch in KINDS)], bound=1)
@settings(max_examples=100, deadline=None)
def test_append_writes_the_bytes_append_row_writes(rows, bound):
    """Code records of every channel kind, codes repeating in a column:
    append(record) and append_row(ts, record.values) write the same bytes,
    also with the memo bound lowered so that memos fill and clear, and no
    column's memo ever holds more codes than its bound.  Every cell that
    iter_store reads back encodes to the code appended."""
    columns = [ch.name for ch in KINDS]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(logstore, "_MEMO_ENTRIES", bound):
        memo = LogStore(Path(tmp) / "memo", columns)
        plain = LogStore(Path(tmp) / "plain", columns)
        with memo, plain:
            for t, codes in enumerate(rows):
                record = Record(t, codes, KINDS)
                memo.append(record)
                plain.append_row(t, record.values)
                assert max(len(m) for m in memo._memos) <= bound
        (got,), (want,) = memo.segments(), plain.segments()
        assert got.read_bytes() == want.read_bytes()
        stored = list(iter_store(memo.root))
    assert [row.timestamp_ms for row in stored] == list(range(len(rows)))
    for row, codes in zip(stored, rows):
        assert tuple(ch.spec.encode(row.values[ch.name]) for ch in KINDS) == codes


def test_append_validates_schema_and_state(tmp_path):
    store = LogStore(tmp_path / "s", columns=["x", "y"])
    x, y, z = (ChannelId(name, ChannelKind.LIGHT) for name in "xyz")
    with pytest.raises(ValueError, match=re.escape("record channels ['x'] differ from ['x', 'y']")):
        store.append(Record(0, [10], [x]))
    # codes are in their channels' order, so a reordered record is refused
    for chans in ((x, z), (y, x), (x, y, z)):
        with pytest.raises(ValueError, match="differ from"):
            store.append(Record(0, [10] * len(chans), chans))
    with pytest.raises(ValueError, match="values"):
        store.append_row(0, {"x": 1.0})
    with pytest.raises(ValueError, match="missing column"):
        store.append_row(0, {"x": 1.0, "z": 2.0})
    store.append(Record(0, [10, 20], (x, y)))
    # the same names on another grid: the memos start over
    store.append(Record(1, [10, 20], (ChannelId("x", ChannelKind.SOIL_MOISTURE), y)))
    store.append(Record(2, [10, 20], [x, y]))
    store.close()
    rows = "0,1.0,2.0\n1,0.1,2.0\n2,1.0,2.0\n"
    assert store.segments()[0].read_text() == "timestamp_ms,x,y\n" + rows
    with pytest.raises(ValueError, match="closed"):
        store.append_row(3, {"x": 1.0, "y": 2.0})
    with pytest.raises(ValueError, match="closed"):
        store.append(Record(3, [10, 20], (x, y)))


@pytest.mark.parametrize("stamp", [100.9, 1000.0, math.inf, math.nan])
def test_append_row_refuses_a_timestamp_that_is_not_an_integer(tmp_path, stamp):
    with LogStore(tmp_path / "s", columns=["x"]) as store:
        store.append_row(np.int64(50), {"x": 1.0})
        store.flush()
        before = (store.segments()[0].read_text(), store.last_ms, store.total_bytes())
        with pytest.raises(TypeError):
            store.append_row(stamp, {"x": 2.0})
        store.flush()
        after = (store.segments()[0].read_text(), store.last_ms, store.total_bytes())
    assert after == before == ("timestamp_ms,x\n50,1.0\n", 50, 22)


def test_csv_row_refuses_a_timestamp_that_is_not_an_integer():
    # a float was once cut: csv_row(1500.7, [1.0]) wrote "1500,1.0"
    for bad in (1500.7, 1500.0, math.nan):
        with pytest.raises(TypeError, match=f"^timestamp_ms must be an integer, got {bad}$"):
            logstore.csv_row(bad, [1.0])
    assert logstore.csv_row(np.int64(1500), [1.0]) == "1500,1.0\n"


def test_append_takes_the_record_timestamp_unchecked_and_refuses_a_stale_one(tmp_path):
    # a Record took its timestamp through named_index already
    x = ChannelId("x", ChannelKind.LIGHT)
    with LogStore(tmp_path / "s", columns=["x"]) as store:
        with mock.patch.object(logstore, "named_index", side_effect=AssertionError):
            store.append(Record(1000, [10], (x,)))
            for stale in (1000, 0):
                with pytest.raises(ValueError, match="timestamp .* not after 1000"):
                    store.append(Record(stale, [20], (x,)))
        assert store.last_ms == 1000
    assert [r.timestamp_ms for r in iter_store(store.root)] == [1000]


def test_store_construction_validation(tmp_path):
    with pytest.raises(ValueError):
        LogStore(tmp_path / "a", columns=[])
    with pytest.raises(ValueError):
        LogStore(tmp_path / "b", columns=["a,b"])
    with pytest.raises(ValueError):
        LogStore(tmp_path / "c", columns=["a", "a"])
    with pytest.raises(ValueError):
        LogStore(tmp_path / "d", columns=["a"], segment_bytes=64)
    with pytest.raises(ValueError):
        LogStore(tmp_path / "e", columns=["a"], segment_bytes=1024,
                 capacity_bytes=1024)


def test_iter_store_rejects_malformed_rows(tmp_path):
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]) as store:
        store.append_row(0, {"x": 1.0})
    seg = store.segments()[0]
    seg.write_text(seg.read_text() + "1,2,3,4\n")
    with pytest.raises(ValueError, match="malformed"):
        list(iter_store(root))


def test_iter_store_rejects_a_segment_without_the_record_header(tmp_path):
    root = tmp_path / "s"
    root.mkdir()
    (root / "segment-00000001.csv").write_text("time,x\n0,1.0\n")
    with pytest.raises(ValueError, match="is not a record segment"):
        list(iter_store(root))
    # count_rows takes the header as iter_store does, also an older
    # segment's empty one
    for text in ("time,x\n0,1.0\n", ""):
        (root / "segment-00000001.csv").write_text(text)
        (root / "segment-00000002.csv").write_text("timestamp_ms,x\n1,1.0\n")
        for read in (lambda: list(iter_store(root)), lambda: count_rows(root)):
            with pytest.raises(ValueError, match="is not a record segment"):
                read()


def test_reopen_refuses_a_newest_row_whose_timestamp_is_not_an_integer(tmp_path):
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]) as store:
        store.append_row(0, {"x": 1.0})
    seg = store.segments()[0]
    seg.write_text(seg.read_text() + "1.5,2.0\n")
    with pytest.raises(ValueError, match=r"malformed row in .*: b'1\.5,2\.0'"):
        LogStore(root, columns=["x"])


def test_replay_order_and_pacing(tmp_path):
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]) as store:
        for i, t in enumerate([0, 500, 1500, 1600]):
            store.append_row(t, {"x": float(i)})

    sleeps, seen = [], []
    n = replay(root, seen.append, speed=2.0, sleep=sleeps.append)
    assert n == 4
    assert [r.timestamp_ms for r in seen] == [0, 500, 1500, 1600]
    assert sleeps == pytest.approx([0.25, 0.5, 0.05])

    sleeps.clear()
    replay(root, lambda r: None, speed=0.0, sleep=sleeps.append)
    assert sleeps == []
    with pytest.raises(ValueError):
        replay(root, lambda r: None, speed=-1.0)


@pytest.mark.parametrize("speed", [-1.0, math.nan, math.inf])
def test_replay_refuses_a_speed_that_is_negative_or_not_finite(tmp_path, speed):
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]) as store:
        store.append_row(0, {"x": 1.0})
    seen = []
    with pytest.raises(ValueError, match="speed must be finite and >= 0"):
        replay(root, seen.append, speed=speed)
    assert seen == []


def test_replay_refuses_a_speed_whose_gap_sleep_cannot_take(tmp_path):
    # at speed 1e-300 a 1 s gap is about 1e+300 s, which time.sleep refuses
    # with an OverflowError about time_t: replay names the speed and the gap
    root = tmp_path / "s"
    with LogStore(root, columns=["x"]) as store:
        store.append_row(0, {"x": 1.0})
        store.append_row(1000, {"x": 2.0})
    seen = []
    with pytest.raises(ValueError, match="^speed 1e-300 stretches a 1000 ms gap to .+ s, too long"):
        replay(root, seen.append, speed=1e-300)
    assert [r.timestamp_ms for r in seen] == [0]

@settings(max_examples=80, deadline=None)
@given(rows=st.integers(0, 40), data=st.data())
def test_iter_store_and_a_reopen_agree_on_whether_a_store_holds_a_row(rows, data):
    # a run directory is judged by iter_store's first row, read-only, where a
    # reopen would take last_ms; the newest segment is cut at any byte, as a
    # crash can leave it, torn header and torn tail included
    sizes = dict(segment_bytes=256, capacity_bytes=512)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        with LogStore(root, ["x"], **sizes) as store:
            for i in range(rows):
                store.append_row(1000 * i, {"x": i / 7})
        newest = store.segments()[-1]
        cut = data.draw(st.integers(0, newest.stat().st_size), label="cut")
        newest.write_bytes(newest.read_bytes()[:cut])
        empty = next(iter_store(root), None) is None
        with LogStore(root, ["x"], **sizes) as reopened:
            assert (reopened.last_ms is None) == empty

def test_reopen_over_several_segments_counts_bytes_and_evicts(tmp_path):
    root = tmp_path / "s"
    sizes = dict(segment_bytes=256, capacity_bytes=1024)
    with LogStore(root, columns=["x"], **sizes) as store:
        for i in range(100):
            store.append_row(i, {"x": float(i)})
    assert len(store.segments()) > 2
    with LogStore(root, columns=["x"], **sizes) as store:
        assert store.total_bytes() == sum(p.stat().st_size for p in store.segments())
        for i in range(100, 150):
            store.append_row(i, {"x": float(i)})
            assert store.total_bytes() <= 1024
        store.flush()
        assert store.total_bytes() == sum(p.stat().st_size for p in store.segments())
    left = [r.timestamp_ms for r in iter_store(root)]
    # the oldest rows were evicted; the rest read back across the reopen
    assert 0 < left[0] < 100
    assert left == list(range(left[0], 150))


def test_a_non_ascii_header_keeps_the_byte_count_on_disk(tmp_path):
    """The header is counted in UTF-8 bytes, each row in characters (it is
    ASCII); across rolls, evictions and a reopen the count is the files'."""
    root = tmp_path / "s"
    columns = ["température_°C", "x"]
    sizes = dict(segment_bytes=256, capacity_bytes=1024)

    def on_disk(store):
        store.flush()
        return sum(p.stat().st_size for p in store.segments())

    with LogStore(root, columns=columns, **sizes) as store:
        assert store.total_bytes() == on_disk(store)
        for i in range(120):
            store.append_row(i, {"x": -i / 7.0, "température_°C": 1e-300 * i})
            assert store.total_bytes() == on_disk(store) <= 1024
        assert store.segments()[0].name != "segment-00000001.csv"  # evicted
    with LogStore(root, columns=columns, **sizes) as store:
        assert store.total_bytes() == on_disk(store)
        for i in range(120, 160):
            store.append_row(i, {"x": float(i), "température_°C": math.inf})
            assert store.total_bytes() == on_disk(store) <= 1024


def test_report_is_valid_markup_with_one_chart_per_series(tmp_path):
    out = tmp_path / "report.html"
    series = [
        ("bio1", [0, 1000, 2000], [0.1, 0.3, 0.2]),
        ("impedance", [0, 1000, 2000], [1058.0, 1058.5, 1057.9]),
        ("empty", [], []),
        ("a&b<i>", [0, 1000], [1.0, 2.0]),
    ]
    emit_report(out, "bench report: R&D <run>", series)
    assert out.exists()
    assert not list(tmp_path.glob("*.tmp"))
    text = out.read_text()
    root = ET.fromstring(text)
    svgs = root.findall(".//{http://www.w3.org/2000/svg}svg")
    assert len(svgs) == 4
    polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polys) == 3  # the empty series draws no line
    assert len(polys[0].get("points").split()) == 3
    assert "min=0.1 max=0.3" in text
    # every name and title is read back as written
    assert [h.text for h in root.iter("h2")] == [name for name, _, _ in series]
    assert root.find("head/title").text == root.find("body/h1").text == (
        "bench report: R&D <run>"
    )
    svg_titles = [s.find("{http://www.w3.org/2000/svg}title").text for s in svgs]
    assert svg_titles == [name for name, _, _ in series]
    assert svgs[3].find("{http://www.w3.org/2000/svg}text").text.startswith("a&b<i>  ")


@pytest.mark.parametrize(
    "values, runs",
    [
        ([math.nan, 1.0, 2.0], [["400.00,150.00", "790.00,10.00"]]),
        ([1.0, math.inf, 2.0], [["10.00,150.00"], ["790.00,10.00"]]),
        ([-math.inf, math.nan, math.inf], []),
    ],
)
def test_a_chart_leaves_out_non_finite_values(values, runs):
    # scaled by the finite values only, the line broken at each point that
    # is not finite, and the label counts those points
    text = render_report("t", [("x", [0, 1, 2], values)])
    root = ET.fromstring(text)
    polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert [p.get("points").split() for p in polys] == runs
    assert not any(bad in p.get("points") for p in polys for bad in ("nan", "inf"))
    skipped = sum(not math.isfinite(v) for v in values)
    label = root.find(".//{http://www.w3.org/2000/svg}text").text
    assert label.endswith(f"n=3 not finite={skipped}")
    assert ("min=1.0 max=2.0" if runs else "min=0.0 max=0.0") in label


def test_a_series_with_more_timestamps_than_values_is_refused(tmp_path):
    with pytest.raises(ValueError, match="series 'bio1': length mismatch"):
        emit_report(tmp_path / "r.html", "t", [("bio1", [0, 1000], [0.1])])
    assert not list(tmp_path.iterdir())


def test_report_overwrites_atomically(tmp_path):
    out = tmp_path / "report.html"
    emit_report(out, "first", [])
    emit_report(out, "second", [])
    assert "second" in out.read_text()
    assert render_report("t", []) == render_report("t", [])
