"""Command line entry points, exercised through main() with real files."""

from pathlib import Path

import pytest

from phytolab.actuation import firing_line
from phytolab.cli import main
from phytolab.config import load_config
from phytolab.fra import SWEEP_CSV_FIELDS
from phytolab.runtime import Runtime
from phytolab.simulator import PlantSimulator

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def bench_ini(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text(
        "[system]\nduration_s = 15\n[channels]\nbio1 = biopotential1\n",
        encoding="utf-8",
    )
    return path


def test_run_command(tmp_path, bench_ini, capsys):
    out = tmp_path / "run"
    code = main(["run", "--config", str(bench_ini), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "cycles        15" in stdout
    assert "errors        0" in stdout
    assert list((out / "records").glob("segment-*.csv"))


def test_run_cycle_override(tmp_path, bench_ini, capsys):
    code = main(
        ["run", "--config", str(bench_ini), "--out", str(tmp_path / "r"), "--cycles", "3"]
    )
    assert code == 0
    assert "cycles        3" in capsys.readouterr().out


def test_run_seed_override_changes_the_noise(tmp_path, bench_ini):
    def first_segment(name, *extra):
        out = tmp_path / name
        assert main(["run", "--config", str(bench_ini), "--out", str(out), *extra]) == 0
        return (out / "records" / "segment-00000001.csv").read_bytes()

    base = first_segment("a")
    same = first_segment("b", "--seed", "42")  # the config default
    other = first_segment("c", "--seed", "43")
    assert base == same
    assert base != other


def test_run_refuses_a_negative_seed(tmp_path, bench_ini, capsys):
    # a usage error, as a bad --cycles is and [system] seed = -1 is at load
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bench_ini), "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_a_second_run_into_one_directory_is_refused(tmp_path, capsys):
    # touch_demo writes records, vectors and firings; a second run into the
    # same --out would append a second timeline starting at 0 ms
    out = tmp_path / "run"
    args = ["run", "--config", str(CONFIGS / "touch_demo.ini"), "--cycles", "200",
            "--out", str(out)]
    assert main(args) == 0
    first = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert any(p.name == "firings.log" and data for p, data in first.items())
    capsys.readouterr()
    # the firing log is checked first, before the record store is opened
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"run directory {out} already holds firings" in err
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == first
    # with an empty firing log, as a run that never fired leaves it, the
    # record store's rows refuse the run
    (out / "firings.log").write_text("", encoding="utf-8")
    first[out / "firings.log"] = b""
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"run directory {out} already holds records" in err
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == first


def test_a_run_directory_holding_firings_without_records_is_refused(tmp_path, capsys):
    # a run killed after its first firing leaves firings.log, flushed at each
    # firing, beside a record store whose buffered rows never reached disk
    out = tmp_path / "run"
    out.mkdir()
    line = firing_line(121_000, "alert", "1")
    (out / "firings.log").write_text(line, encoding="utf-8")
    config = load_config(CONFIGS / "touch_demo.ini")
    with pytest.raises(ValueError, match=f"already holds firings \\({len(line)} bytes"):
        Runtime(config, out_dir=out)
    args = ["run", "--config", str(CONFIGS / "touch_demo.ini"), "--cycles", "200",
            "--out", str(out)]
    assert main(args) == 1
    assert f"run directory {out} already holds firings" in capsys.readouterr().err
    # refused before anything is built or opened: no store appears beside it
    assert list(out.rglob("*")) == [out / "firings.log"]
    assert (out / "firings.log").read_text(encoding="utf-8") == line
    # an empty firings.log, as a run that never fired leaves it, holds no timeline
    (out / "firings.log").write_text("", encoding="utf-8")
    assert main(args) == 0


def test_a_firings_log_that_is_not_a_file_is_named_as_such(tmp_path, capsys):
    # a directory in its place is refused read-only, by what it is, not by
    # the bytes a directory entry reports
    out = tmp_path / "run"
    (out / "firings.log").mkdir(parents=True)
    refusal = f"run directory {out}: firings.log is not a file"
    with pytest.raises(ValueError, match=refusal) as exc:
        Runtime(load_config(CONFIGS / "touch_demo.ini"), out_dir=out)
    assert "firings (" not in str(exc.value) and "bytes" not in str(exc.value)
    args = ["run", "--config", str(CONFIGS / "touch_demo.ini"), "--cycles", "20",
            "--out", str(out)]
    assert main(args) == 1
    assert refusal in capsys.readouterr().err
    assert list(out.rglob("*")) == [out / "firings.log"]


def test_sweep_command_writes_csv_and_report(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[sweep]\npoints = 5\n", encoding="utf-8")
    csv_path = tmp_path / "sweep.csv"
    html_path = tmp_path / "sweep.html"
    code = main(
        [
            "sweep",
            "--config",
            str(ini),
            "--out",
            str(csv_path),
            "--report",
            str(html_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_FIELDS)
    assert len(lines) == 6
    assert "<svg" in html_path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "start, stop, points",
    [("8", "8", 3), ("650000", "650000", 4), ("8", "8.000000000000002", 5)],
)
def test_a_sweep_band_an_ulp_wide_runs(tmp_path, start, stop, points):
    # geomspace puts inner points of these bands outside them; a sweep that
    # loads must run, at frequencies inside its band
    ini = tmp_path / "sweep.ini"
    ini.write_text(
        f"[sweep]\nstart_hz = {start}\nstop_hz = {stop}\npoints = {points}\n",
        encoding="utf-8",
    )
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(csv_path)]) == 0
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == points
    for row in rows:
        assert float(start) <= float(row.split(",")[0]) <= float(stop)


def test_sweep_to_stdout(capsys):
    assert main(["sweep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_FIELDS)
    assert len(lines) == 26


def test_simulate_command(tmp_path, bench_ini):
    out = tmp_path / "dump.csv"
    code = main(
        ["simulate", "--config", str(bench_ini), "--seconds", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "timestamp_ms,bio1"
    assert len(lines) == 6
    assert lines[1].startswith("0,")


def test_simulate_reports_no_records_after_a_failed_write(
    tmp_path, bench_ini, capsys, monkeypatch
):
    # a dump that stops at cycle 20 of 60 must not report its records written
    record_at = PlantSimulator.record_at

    def failing(self, now_ms):
        if now_ms >= 20_000:
            raise OSError("disk full")
        return record_at(self, now_ms)

    monkeypatch.setattr(PlantSimulator, "record_at", failing)
    out = tmp_path / "dump.csv"
    args = ["simulate", "--config", str(bench_ini), "--seconds", "60", "--out", str(out)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "error: disk full" in captured.err
    assert "records ->" not in captured.out
    assert len(out.read_text(encoding="utf-8").splitlines()) == 21


def test_replay_command(tmp_path, bench_ini, capsys):
    out = tmp_path / "run"
    main(["run", "--config", str(bench_ini), "--out", str(out)])
    capsys.readouterr()
    code = main(["replay", str(out / "records")])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "timestamp_ms,bio1"
    assert len(lines) == 16
    assert "replayed 15 records" in captured.err


def test_bad_config_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[mystery]\nx = 1\n", encoding="utf-8")
    code = main(["run", "--config", str(ini)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_an_unplannable_sweep_is_a_config_error(tmp_path, capsys):
    # 3e5 Hz cannot be sampled at 1 kHz with a bin below Nyquist
    ini = tmp_path / "sweep.ini"
    ini.write_text("[sweep]\nmax_rate = 1000\n", encoding="utf-8")
    assert main(["sweep", "--config", str(ini)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: [sweep]:")
    assert err.endswith("(max_rate = 1000)")


def test_a_sweep_that_runs_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("phytolab.cli.run_sweep", exhausted)
    assert main(["sweep", "--out", str(tmp_path / "sweep.csv")]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"


@pytest.mark.parametrize("cycles", ["-3", "0"])
def test_run_refuses_a_non_positive_cycle_count(tmp_path, bench_ini, capsys, cycles):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bench_ini), "--out", str(out), "--cycles", cycles])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --cycles: must be finite and > 0, got {cycles}" in err
    assert not out.exists()


@pytest.mark.parametrize("seconds", ["-5", "0", "nan", "inf"])
def test_simulate_refuses_a_non_positive_span(tmp_path, capsys, seconds):
    out = tmp_path / "sim.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seconds", seconds, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seconds: must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("speed", ["nan", "inf"])
def test_replay_refuses_a_speed_that_is_not_finite(tmp_path, bench_ini, capsys, speed):
    out = tmp_path / "run"
    main(["run", "--config", str(bench_ini), "--out", str(out), "--cycles", "3"])
    capsys.readouterr()
    code = main(["replay", str(out / "records"), "--speed", speed])
    assert code == 1
    captured = capsys.readouterr()
    assert f"error: speed must be finite and >= 0, got {speed}" in captured.err
    assert captured.out == ""


def test_replay_reports_a_gap_too_long_to_sleep(tmp_path, bench_ini, capsys):
    # a 1 s gap at speed 1e-300 is too long for time.sleep, which raises
    # OverflowError before it sleeps; it once ended in a traceback
    out = tmp_path / "run"
    main(["run", "--config", str(bench_ini), "--out", str(out), "--cycles", "3"])
    capsys.readouterr()
    code = main(["replay", str(out / "records"), "--speed", "1e-300"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: speed 1e-300 stretches a 1000 ms gap")
    assert captured.err.count("\n") == 1
    assert len(captured.out.splitlines()) == 2  # the header and the first row


def test_missing_store_exits_1(tmp_path, capsys):
    code = main(["replay", str(tmp_path / "nowhere")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_simulate_store_and_replay_write_the_same_bytes(tmp_path, capsys):
    # config order differs from acquisition order, and a touch lands in range
    ini = tmp_path / "bench.ini"
    ini.write_text(
        "[system]\nperiod_s = 0.5\n"
        "[channels]\nlight = light\nimp1 = impedance1\nbio1 = biopotential1\n"
        "[events]\ntouch = 3.2\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert main(["run", "--config", str(ini), "--out", str(out), "--cycles", "40"]) == 0
    (segment,) = (out / "records").glob("segment-*.csv")
    stored = segment.read_bytes()

    dump = tmp_path / "dump.csv"
    args = ["simulate", "--config", str(ini), "--seconds", "20", "--out", str(dump)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["replay", str(out / "records")]) == 0
    replayed = capsys.readouterr().out.encode("utf-8")

    assert stored.startswith(b"timestamp_ms,light,imp1,bio1\n")
    assert stored.count(b"\n") == 41
    assert dump.read_bytes() == stored
    assert replayed == stored
