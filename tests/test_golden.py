"""Golden digests: the exact bytes two shipped configs produce.

The byte-identical rerun (criterion 07) compares a run only with itself, so
a change that moves every output the same way on both runs passes it.  These
pins compare against the bytes the code produced when they were taken:

* the sweep CSV of `configs/noisy_sweep.ini`, built the way `phytolab sweep`
  builds it (`run_sweep` + `sweep_responder` + `write_sweep_csv`), for the
  config's seed and for seeds 0-19 in order (one seed can miss a last-bit
  change that shows on another);
* the records, vectors and `firings.log` of a 200-cycle run of
  `configs/touch_demo.ini` (impedance slots, touches and firings included).

A change meant to alter these outputs must update the pins in a commit of
its own and name the old and new digests in CHANGES.md; a pure performance
or refactoring change must leave them as they are.
"""

import hashlib
import io
from pathlib import Path

from phytolab.config import load_config
from phytolab.fra import run_sweep, write_sweep_csv
from phytolab.runtime import Runtime
from phytolab.simulator import sweep_responder

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

NOISY_SWEEP_CSV_SHA256 = "6a4c6ada2766eaa0"
NOISY_SWEEP_20_SEEDS_SHA256 = "550f0e04061169e3"
TOUCH_DEMO_RUN_SHA256 = "ec36bdddb902bbe6"


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


def test_touch_demo_run_digest(tmp_path):
    config = load_config(CONFIGS / "touch_demo.ini")
    Runtime(config, out_dir=tmp_path).run(cycles=200)
    digest = hashlib.sha256()
    files = sorted((tmp_path / "records").glob("*.csv"))
    files += sorted((tmp_path / "vectors").glob("*.csv"))
    files.append(tmp_path / "firings.log")
    for path in files:
        digest.update(path.relative_to(tmp_path).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest()[:16] == TOUCH_DEMO_RUN_SHA256
