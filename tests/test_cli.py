"""Command line entry points, exercised through main() with real files."""

import pytest

from phytolab.cli import main
from phytolab.fra import SWEEP_CSV_FIELDS


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
