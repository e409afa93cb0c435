"""End-to-end loop: acquisition through detection to actuation, on disk."""

import math
import time
import tracemalloc

import pytest

from phytolab.config import parse_config
from phytolab.logstore import emit_report, iter_store
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
    # the file's directory does not exist, so the write always fails
    ini = CAUSALITY_INI.replace("path = alerts.txt", "path = missing/alerts.txt")
    config = parse_config(ini)
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


def test_context_manager_closes_stores(tmp_path):
    config = parse_config("[channels]\nbio1 = biopotential1\n")
    with Runtime(config, out_dir=tmp_path / "run") as runtime:
        runtime.step()
        runtime.step()
    with pytest.raises(ValueError, match="closed"):
        runtime.record_store.append_row(99_000, {"bio1": 0.0})
