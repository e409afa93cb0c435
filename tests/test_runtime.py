"""End-to-end loop: acquisition through detection to actuation, on disk."""

import gc
import math
import shutil
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from phytolab.actuation import firing_line
from phytolab.channels import Record
from phytolab.config import parse_config
from phytolab.logstore import LogStore, csv_header, csv_row, emit_report, iter_store
from phytolab.pipes import SHORT, Pipe
from phytolab.runtime import REPORT_MAX_POINTS, Runtime

CAUSALITY_INI = """
[system]
seed = 11
period_s = 1.0
duration_s = 120

[channels]
bio1 = biopotential1

[detector.spike]
kind = peak
channel = bio1
sigma = 5.0

[actuator.out]
kind = message_to_file
path = alerts.txt

[binding.alert]
expression = spike == 1
actuator = out
cooldown_s = 300

[events]
touch = 79.6
"""


def test_run_accounts_cycles_and_stores_records(tmp_path):
    config = parse_config("[system]\nduration_s = 30\n[channels]\nbio1 = biopotential1\n")
    summary = Runtime(config, out_dir=tmp_path / "run").run()
    assert summary.cycles == 30
    assert summary.firings == 0
    assert summary.errors == 0
    assert summary.mean_cycle_ms > 0.0
    records = list(iter_store(tmp_path / "run" / "records"))
    assert len(records) == 30
    assert [r.timestamp_ms for r in records] == list(range(0, 30_000, 1000))
    assert set(records[0].values) == {"bio1"}


def test_touch_reaches_the_actuator(tmp_path):
    config = parse_config(CAUSALITY_INI)
    out = tmp_path / "run"
    runtime = Runtime(config, out_dir=out)
    summary = runtime.run()

    assert summary.cycles == 120
    assert summary.firings == 1

    # detector vector flipped to fired exactly when the touch spike landed
    vectors = {r.timestamp_ms: r.values["spike"] for r in iter_store(out / "vectors")}
    assert vectors[80_000] == 1.0
    assert all(v != 1.0 for t, v in vectors.items() if t < 80_000)

    log_lines = (out / "firings.log").read_text(encoding="utf-8").splitlines()
    assert log_lines == ["1970-01-01T00:01:20.000+00:00\talert\tfired"]
    alert_lines = (out / "alerts.txt").read_text(encoding="utf-8").splitlines()
    assert alert_lines == ["1970-01-01T00:01:20.000+00:00\tfired"]


def test_firings_log_holds_a_firing_before_close(tmp_path):
    config = parse_config(
        "[channels]\nbio1 = biopotential1\n"
        "[detector.gate]\nkind = time_interval\nstart_ms = 0\nend_ms = 86400000\n"
        "[actuator.sink]\nkind = generic_sink\n"
        "[binding.open]\nexpression = gate == 1\nactuator = sink\n"
    )
    with Runtime(config, out_dir=tmp_path / "run") as runtime:
        assert runtime.step()
        # read while the log is still open, as after a crash
        text = (tmp_path / "run" / "firings.log").read_text(encoding="utf-8")
    assert text == "1970-01-01T00:00:00.000+00:00\topen\tfired\n"


def test_quiet_run_never_fires(tmp_path):
    text = CAUSALITY_INI.replace("[events]\ntouch = 79.6\n", "")
    config = parse_config(text)
    summary = Runtime(config, out_dir=tmp_path / "run").run()
    assert summary.firings == 0
    assert (tmp_path / "run" / "firings.log").read_text(encoding="utf-8") == ""
    assert not (tmp_path / "run" / "alerts.txt").exists()


def test_identical_configs_make_identical_bytes(tmp_path):
    ini = CAUSALITY_INI + "\n[impedance]\nnoise_rms_v = 1e-6\n"
    ini = ini.replace("bio1 = biopotential1", "bio1 = biopotential1\nimp = impedance1")
    outputs = []
    for run_dir in ("a", "b"):
        config = parse_config(ini)
        Runtime(config, out_dir=tmp_path / run_dir).run(cycles=50)
        root = tmp_path / run_dir
        blobs = [p.read_bytes() for p in sorted((root / "records").glob("*.csv"))]
        blobs += [p.read_bytes() for p in sorted((root / "vectors").glob("*.csv"))]
        blobs.append((root / "firings.log").read_bytes())
        outputs.append(blobs)
    assert outputs[0] == outputs[1]


def test_stimulation_binding_feeds_back_into_the_tissue(tmp_path):
    ini = CAUSALITY_INI.replace(
        "kind = message_to_file\npath = alerts.txt",
        "kind = electrical_stimulation\nintensity = 1.0",
    ).replace("bio1 = biopotential1", "bio1 = biopotential1\nimp = impedance1")
    config = parse_config(ini)
    runtime = Runtime(config, out_dir=tmp_path / "run")
    summary = runtime.run()
    assert summary.firings == 1
    assert summary.errors == 0

    zaps = [e for e in runtime.simulator.events if e.kind.value == "electrical"]
    assert [e.at_ms for e in zaps] == [80_000]

    def cell(rp):
        return abs(1000.0 + rp / (1.0 + 2j * math.pi * 500.0 * rp * 1e-6))

    readings = {
        r.timestamp_ms: r.values["imp"]
        for r in iter_store(tmp_path / "run" / "records")
    }
    # the 80 s slot was sampled before the firing; the 90 s slot sees the
    # scaled cell; by the 100 s slot the 20 s window has closed again
    assert readings[85_000] == pytest.approx(cell(10_000.0), abs=2e-3)
    assert readings[95_000] == pytest.approx(cell(9_000.0), abs=2e-3)
    assert readings[105_000] == pytest.approx(cell(10_000.0), abs=2e-3)


def test_actuator_failure_is_counted_not_fatal(tmp_path):
    # a directory stands where the file should be, so the write always fails
    (tmp_path / "run" / "alerts.txt").mkdir(parents=True)
    config = parse_config(CAUSALITY_INI)
    summary = Runtime(config, out_dir=tmp_path / "run").run()
    assert summary.cycles == 120
    assert summary.errors == 1
    assert summary.firings == 0
    assert (tmp_path / "run" / "firings.log").read_text(encoding="utf-8") == ""


def test_wall_clock_mode_paces_the_loop(tmp_path):
    ini = "[system]\nperiod_s = 0.1\n[channels]\nbio1 = biopotential1\n"
    config = parse_config(ini)
    started = time.monotonic()
    summary = Runtime(config, out_dir=tmp_path / "run").run(
        cycles=3, wall_clock=True
    )
    elapsed = time.monotonic() - started
    assert elapsed >= 2 * 0.1
    # sleeping happens outside the measured cycle work
    assert summary.mean_cycle_ms < 100.0


def test_report_is_emitted_when_configured(tmp_path):
    ini = "[system]\nduration_s = 20\nreport = run.html\n[channels]\nbio1 = biopotential1\n"
    config = parse_config(ini)
    Runtime(config, out_dir=tmp_path / "run").run()
    html = (tmp_path / "run" / "run.html").read_text(encoding="utf-8")
    assert "<svg" in html and "bio1" in html
    assert "20 cycles" in html


def test_report_holds_only_the_records_it_charts(tmp_path):
    # a day at 0.1 s is 864,000 rows, too many to hold just to chart 1,200
    config = parse_config("")
    runtime = Runtime(config, out_dir=tmp_path / "run")
    names = [c.name for c in config.channels]
    for i in range(6000):
        row = {n: i + k / 7 for k, n in enumerate(names)}
        runtime.record_store.append_row(i * 100, row)
    runtime.close()
    tracemalloc.start()
    try:
        out = runtime.emit_report("run.html")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the same bytes as slicing every stride-th record out of the whole store
    records = list(iter_store(tmp_path / "run" / "records"))
    picked = records[:: max(1, len(records) // REPORT_MAX_POINTS)]
    ts = [r.timestamp_ms for r in picked]
    series = [(n, ts, [r.values[n] for r in picked]) for n in names]
    emit_report(tmp_path / "want.html", "bench run: 0 cycles, 0 actuations", series)
    assert out.read_bytes() == (tmp_path / "want.html").read_bytes()
    # holding all 6,000 16-channel records peaks near 6.8 MB, the 1,200
    # charted ones near 1.9 MB
    assert peak < 4_000_000


def test_emit_report_names_a_file_in_the_run_directory(tmp_path):
    config = parse_config("[system]\nduration_s = 3\n[channels]\nbio1 = biopotential1\n")
    runtime = Runtime(config, out_dir=tmp_path / "run")
    runtime.run()
    with pytest.raises(ValueError, match="must name a file in the run directory"):
        runtime.emit_report("../outside.html")
    assert not (tmp_path / "outside.html").exists()


def test_stored_and_live_records_share_a_tier(tmp_path):
    # stored rows and live records are both in [channels] order; a stored
    # row's readings, each re-encoded, are the live record's codes, and the
    # two fill a tier identically
    ini = "[system]\nduration_s = 5\n[channels]\nlight = light\nbio1 = biopotential1\n"
    runtime = Runtime(parse_config(ini), out_dir=tmp_path / "run")
    runtime.run()
    chans = runtime.config.channels
    rows = list(iter_store(tmp_path / "run" / "records"))
    live = [runtime.simulator.record_at(r.timestamp_ms) for r in rows]
    assert [list(r.values) for r in rows] == [["light", "bio1"]] * 5
    assert [lr.channels for lr in live] == [chans] * 5
    stored = [
        Record(r.timestamp_ms, [ch.spec.encode(r.values[ch.name]) for ch in chans], chans)
        for r in rows
    ]
    assert stored == live
    pipes = Pipe(SHORT, 60, chans), Pipe(SHORT, 60, chans)
    for pipe, records in zip(pipes, (stored, live)):
        for record in records:
            pipe.push(record)
    for name in ("light", "bio1"):
        assert pipes[0].values(name).tobytes() == pipes[1].values(name).tobytes()
        assert pipes[0].values(name).tolist() == [r.values[name] for r in rows]
    assert pipes[0].timestamps_ms().tolist() == pipes[1].timestamps_ms().tolist()


def test_context_manager_closes_stores(tmp_path):
    config = parse_config("[channels]\nbio1 = biopotential1\n")
    with Runtime(config, out_dir=tmp_path / "run") as runtime:
        runtime.step()
        runtime.step()
    with pytest.raises(ValueError, match="closed"):
        runtime.record_store.append_row(99_000, {"bio1": 0.0})


def test_a_closed_runtime_refuses_a_step_before_any_layer_moves(tmp_path):
    # a gate opening at 300 ms: a run or step after close must not fire the
    # sink, which would act with no line in firings.log to record it
    config = parse_config(
        "[system]\nperiod_s = 0.1\n[channels]\nbio1 = biopotential1\n"
        "[detector.gate]\nkind = time_interval\nstart_ms = 300\nend_ms = 86400000\n"
        "[actuator.sink]\nkind = generic_sink\n"
        "[binding.b]\nexpression = gate == 1\nactuator = sink\n"
    )
    out = tmp_path / "run"
    runtime = Runtime(config, out_dir=out)
    assert runtime.run(cycles=3).cycles == 3
    for again in (lambda: runtime.run(cycles=1), runtime.step, runtime.step):
        with pytest.raises(ValueError, match="runtime is closed"):
            again()
        assert runtime.now_ms == 300 and runtime.tiers.short.total_pushed == 3
        assert runtime.actuators["sink"].commands == []
        assert (runtime.fired_total, runtime.summary().cycles) == (0, 3)
    assert (out / "firings.log").read_text(encoding="utf-8") == ""
    assert len(list(iter_store(out / "records"))) == 3


def test_a_step_that_raises_still_closes_the_run_files(tmp_path):
    # the cycles before the one that raised are on disk, and the stores and
    # firings.log are closed, not left to garbage collection
    config = parse_config(
        "[channels]\nbio1 = biopotential1\n"
        "[detector.m]\nkind = mean\nchannel = bio1\n"
    )
    out = tmp_path / "run"
    runtime = Runtime(config, out_dir=out)
    evaluate, calls = runtime.bank.evaluate, []

    def failing(now_ms):
        calls.append(now_ms)
        if len(calls) == 30:
            raise RuntimeError("detector fault")
        return evaluate(now_ms)

    runtime.bank.evaluate = failing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="detector fault"):
            runtime.run(cycles=60)
        assert len(list(iter_store(out / "records"))) == 29
        assert len(list(iter_store(out / "vectors"))) == 29
        del runtime
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


GATE_INI = """
[channels]
bio1 = biopotential1

[detector.open]
kind = time_interval
start_ms = 0
end_ms = 86400000

[actuator.out]
kind = message_to_file
path = alerts.txt

[binding.now]
expression = open == 1
actuator = out
"""


def test_a_run_directory_whose_vector_store_holds_a_row_is_refused(tmp_path):
    # a run killed after its vector rows reached disk but before its record
    # rows or any firing did: a second run would fire the open gate at 0 ms
    # and then fail to append its vector row at 0 ms
    config = parse_config(GATE_INI)
    out = tmp_path / "run"
    out.mkdir()
    (out / "firings.log").write_text("", encoding="utf-8")
    with LogStore(out / "records", ["bio1"]):
        pass  # on disk with its header, no row: opened first, then closed again
    with LogStore(out / "vectors", ["open"]) as store:
        store.append_row(0, {"open": 1.0})
    listed = sorted(out.rglob("*"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"run directory {out} already holds vectors"):
            Runtime(config, out_dir=out).run(cycles=3)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert sorted(out.rglob("*")) == listed  # nothing fired: no alerts.txt
    assert (out / "firings.log").read_text(encoding="utf-8") == ""
    # the same directory without the vector row runs, and the gate fires at 0 ms
    shutil.rmtree(out / "vectors")
    Runtime(config, out_dir=out).run(cycles=3)
    fired = (out / "firings.log").read_text(encoding="utf-8")
    assert fired.startswith("1970-01-01T00:00:00.000+00:00\tnow\t")


def _segment_text(column: str, state: str) -> str | None:
    """The one segment of a store in state, None for a directory without one."""
    header = csv_header([column])
    rows = header + csv_row(0, [1.0]) + csv_row(1000, [0.5])
    return {
        "empty": None,
        "header only": header,
        "rows": rows,
        "rows and a torn tail": rows + csv_row(2000, [0.25])[:-3],
        "a torn header": header[:-4],
    }[state]


def _files(out: Path) -> dict[Path, bytes | None]:
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(out.rglob("*"))}


STORE_STATES = ["absent", "empty", "header only", "rows", "rows and a torn tail", "a torn header"]


@settings(max_examples=150, deadline=None)
@given(
    log=st.sampled_from(["absent", "empty", "a firing"]),
    records=st.sampled_from(STORE_STATES),
    vectors=st.sampled_from(STORE_STATES),
)
def test_a_run_directory_is_refused_exactly_when_used_and_then_left_as_it_was(
    log, records, vectors
):
    # used: firings.log holds a byte or a store yields a row; a torn tail is
    # the next row a crash cut short, which a resume will need as it is
    config = parse_config(GATE_INI)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        out.mkdir()
        if log != "absent":
            text = firing_line(0, "now", "1") if log == "a firing" else ""
            (out / "firings.log").write_text(text, encoding="utf-8")
        for name, column, state in [("records", "bio1", records), ("vectors", "open", vectors)]:
            if state != "absent":
                (out / name).mkdir()
                if (text := _segment_text(column, state)) is not None:
                    (out / name / "segment-00000001.csv").write_text(text, encoding="utf-8")
        before = _files(out)
        used = log == "a firing" or {records, vectors} & {"rows", "rows and a torn tail"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                Runtime(config, out_dir=out).close()
                refused = False
            except ValueError as exc:
                assert str(exc).startswith(f"run directory {out} already holds ")
                refused = True
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert refused == bool(used)
        if refused:
            assert _files(out) == before


def test_a_firing_log_that_cannot_be_opened_leaves_no_store_open(tmp_path):
    # firings.log a dangling symlink into a missing directory: the stores
    # are open when its open fails, and are closed again
    out = tmp_path / "run"
    out.mkdir()
    (out / "firings.log").symlink_to(tmp_path / "missing" / "firings.log")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FileNotFoundError):
            Runtime(parse_config(GATE_INI), out_dir=out)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
