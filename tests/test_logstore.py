"""Store round-trip, segmentation, eviction, replay and report tests."""

import math
import xml.etree.ElementTree as ET

import pytest

from phytolab.channels import Record
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


def test_append_validates_schema_and_state(tmp_path):
    store = LogStore(tmp_path / "s", columns=["x", "y"])
    with pytest.raises(ValueError, match="values"):
        store.append(Record(0, {"x": 1.0}))
    with pytest.raises(ValueError, match="missing column"):
        store.append(Record(0, {"x": 1.0, "z": 2.0}))
    store.close()
    with pytest.raises(ValueError, match="closed"):
        store.append_row(0, {"x": 1.0, "y": 2.0})


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


def test_report_is_valid_markup_with_one_chart_per_series(tmp_path):
    out = tmp_path / "report.html"
    series = [
        ("bio1", [0, 1000, 2000], [0.1, 0.3, 0.2]),
        ("impedance", [0, 1000, 2000], [1058.0, 1058.5, 1057.9]),
        ("empty", [], []),
    ]
    emit_report(out, "bench report", series)
    assert out.exists()
    assert not list(tmp_path.glob("*.tmp"))
    text = out.read_text()
    root = ET.fromstring(text)
    svgs = root.findall(".//{http://www.w3.org/2000/svg}svg")
    assert len(svgs) == 3
    polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polys) == 2  # the empty series draws no line
    assert len(polys[0].get("points").split()) == 3
    assert "min=0.1 max=0.3" in text


def test_report_overwrites_atomically(tmp_path):
    out = tmp_path / "report.html"
    emit_report(out, "first", [])
    emit_report(out, "second", [])
    assert "second" in out.read_text()
    assert render_report("t", []) == render_report("t", [])
