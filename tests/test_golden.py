"""Golden digests: the exact bytes two shipped configs produce.

The byte-identical rerun (criterion 07) compares a run only with itself, so
a change that moves every output the same way on both runs passes it.  These
pins compare against the bytes the code produced when they were taken:

* the sweep CSV of `configs/noisy_sweep.ini`, built the way `phytolab sweep`
  builds it (`run_sweep` + `sweep_responder` + `write_sweep_csv`), for the
  config's seed and for seeds 0-19 in order (one seed can miss a last-bit
  change that shows on another);
* the records, vectors and `firings.log` of a 200-cycle run of
  `configs/touch_demo.ini` (impedance slots, touches and firings included);
* the same files of a 300-cycle run of `STIMULATION_INI`, whose impedance
  channels carry response noise and whose `electrical_stimulation` binding
  feeds back into the cell that later impedance slots measure.

A change meant to alter these outputs must update the pins in a commit of
its own and name the old and new digests in CHANGES.md; a pure performance
or refactoring change must leave them as they are.
"""

import hashlib
import io
import re
from pathlib import Path

from phytolab.config import load_config, parse_config
from phytolab.fra import run_sweep, write_sweep_csv
from phytolab.runtime import Runtime
from phytolab.simulator import sweep_responder

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

NOISY_SWEEP_CSV_SHA256 = "6a4c6ada2766eaa0"
NOISY_SWEEP_20_SEEDS_SHA256 = "550f0e04061169e3"
TOUCH_DEMO_RUN_SHA256 = "c7416ea2439a244f"
STIMULATION_RUN_SHA256 = "9e33616e243bcd4f"

# 30 stimulation slots of noisy impedance on two channels; the stimulation
# fires on about a fifth of cycles and lowers rp for vp_duration_s after each
STIMULATION_INI = """
[system]
seed = 3
period_s = 0.1
stimulation_interval_s = 1.0

[channels]
bio1 = biopotential1
imp1 = impedance1
imp2 = impedance2

[impedance]
noise_rms_v = 1e-4

[detector.gate]
kind = time_interval
start_ms = 0
end_ms = 86400000

[detector.zimp]
kind = zscore
channel = imp1

[actuator.stim]
kind = electrical_stimulation
intensity = 0.5

[actuator.notes]
kind = message_to_file
path = notes.txt

[binding.pulse]
expression = BERNOULLI(0.2) and gate == 1
actuator = stim

[binding.note]
expression = zimp > 1.5
actuator = notes
payload = impedance rise z={zimp}
"""


def _prefix(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def _noisy_sweep_csv(seed: int | None = None) -> str:
    config = load_config(CONFIGS / "noisy_sweep.ini")
    params = config.sim_params
    respond = sweep_responder(
        config.tissue,
        gain=params.transimpedance_gain,
        noise_rms=params.impedance_noise_rms_v,
        seed=config.seed if seed is None else seed,
    )
    out = io.StringIO()
    write_sweep_csv(
        out, run_sweep(config.sweep, respond, gain=params.transimpedance_gain)
    )
    return out.getvalue()


def test_noisy_sweep_csv_digest():
    assert _prefix(_noisy_sweep_csv().encode("utf-8")) == NOISY_SWEEP_CSV_SHA256


def test_noisy_sweep_csv_digest_over_20_seeds():
    blob = "".join(_noisy_sweep_csv(seed) for seed in range(20))
    assert _prefix(blob.encode("utf-8")) == NOISY_SWEEP_20_SEEDS_SHA256


def _run_digest(config, out_dir: Path, cycles: int) -> str:
    """Digest of a run's records, vectors and firings.log, paths included."""
    Runtime(config, out_dir=out_dir).run(cycles=cycles)
    digest = hashlib.sha256()
    files = sorted((out_dir / "records").glob("*.csv"))
    files += sorted((out_dir / "vectors").glob("*.csv"))
    files.append(out_dir / "firings.log")
    for path in files:
        digest.update(path.relative_to(out_dir).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def test_touch_demo_run_digest(tmp_path):
    config = load_config(CONFIGS / "touch_demo.ini")
    assert _run_digest(config, tmp_path, 200) == TOUCH_DEMO_RUN_SHA256
    # a reading that rounds to 0 is 0.0: the two cells these records once
    # wrote as -0.0 moved the pin, and no such cell is left
    records = b"".join(p.read_bytes() for p in (tmp_path / "records").glob("*.csv"))
    assert b",0.0" in records
    assert not re.search(rb"(^|,)-0\.0(,|$)", records, re.M)


def test_stimulated_noisy_impedance_run_digest(tmp_path):
    config = parse_config(STIMULATION_INI)
    assert _run_digest(config, tmp_path, 300) == STIMULATION_RUN_SHA256
