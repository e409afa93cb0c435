"""Command line front end: run a bench, sweep a cell, dump or replay logs."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .config import BenchConfig, ConfigError, load_config
from .fra import run_sweep, write_sweep_csv
from .logstore import csv_header, csv_row, emit_report, replay
from .runtime import Runtime
from .simulator import sweep_responder


def _load(path: Path | None) -> BenchConfig:
    if path is None:
        return BenchConfig()
    return load_config(path)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    runtime = Runtime(config, out_dir=args.out)
    summary = runtime.run(cycles=args.cycles, wall_clock=args.wall_clock)
    print(f"cycles        {summary.cycles}")
    print(f"actuations    {summary.firings}")
    print(f"errors        {summary.errors}")
    print(f"mean cycle    {summary.mean_cycle_ms:.3f} ms")
    print(f"output        {summary.out_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args.config)
    params = config.sim_params
    respond = sweep_responder(
        config.tissue,
        gain=params.transimpedance_gain,
        noise_rms=params.impedance_noise_rms_v,
        seed=config.seed,
    )
    results = run_sweep(config.sweep, respond, gain=params.transimpedance_gain)
    if args.out is None:
        write_sweep_csv(sys.stdout, results)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(fh, results)
        print(f"{len(results)} points -> {args.out}")
    if args.report is not None:
        freqs = [r.frequency_hz for r in results]
        emit_report(
            args.report,
            f"impedance sweep: {len(results)} points",
            [
                ("magnitude_ohm", freqs, [r.magnitude for r in results]),
                ("phase_deg", freqs, [r.phase_deg for r in results]),
            ],
        )
        print(f"report -> {args.report}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args.config)
    sim = config.build_simulator()
    period_ms, cycles = config.period_ms, config.cycles_in(args.seconds)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        out.write(csv_header(c.name for c in config.channels))
        for i in range(cycles):
            record = sim.record_at(i * period_ms)
            out.write(csv_row(record.timestamp_ms, record.values.values()))
    finally:
        if out is not sys.stdout:
            out.close()
    if out is not sys.stdout:
        print(f"{cycles} records -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    header_done = False

    def on_record(record) -> None:
        nonlocal header_done
        if not header_done:
            sys.stdout.write(csv_header(record.values))
            header_done = True
        sys.stdout.write(csv_row(record.timestamp_ms, record.values.values()))

    count = replay(args.store, on_record, speed=args.speed)
    print(f"replayed {count} records", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phytolab",
        description="plant electrophysiology bench: estimators, detectors, actuation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the acquisition loop from a config")
    p.add_argument("--config", type=Path, default=None, help="INI file (defaults apply if omitted)")
    p.add_argument("--cycles", type=int, default=None, help="override cycle count")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--wall-clock",
        action="store_true",
        help="pace cycles against real time instead of running flat out",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="frequency sweep of the simulated tissue cell")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None, help="CSV path (stdout if omitted)")
    p.add_argument("--report", type=Path, default=None, help="also write an HTML chart")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="dump raw simulator records as CSV")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seconds", type=float, default=60.0, help="simulated span")
    p.add_argument("--out", type=Path, default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("replay", help="replay a record store to stdout")
    p.add_argument("store", type=Path, help="store directory (e.g. run/records)")
    p.add_argument("--speed", type=float, default=0.0, help="realtime multiple, 0 = flat out")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("cycles", "seconds"):
        value = getattr(args, flag, None)
        if value is not None and not 0 < value < math.inf:
            parser.error(f"argument --{flag}: must be finite and > 0, got {value}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {seed}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, OverflowError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
