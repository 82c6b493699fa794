"""Golden digests: the bytes of every artifact of the backtests that
perfbench does not pin, against the digests in golden_digests.json.

Each ablation variant, the intrabar stop fill under a trailing and under a
fixed stop, and one run with a funding table go through cli.main on a
fixed-seed synthetic universe. A change that moves an artifact's bytes on
purpose records the digests again with ``record()``,

    PYTHONPATH=src python tests/test_golden.py

and says which files moved and why.
"""

import hashlib
import json
import pathlib
import tempfile
from typing import Dict

import numpy as np
import pytest

from adaptivetrend.backtester import ABLATION_VARIANTS
from adaptivetrend.cli import main
from adaptivetrend.market_data import (SyntheticSpec,
                                       generate_synthetic_universe,
                                       save_market_caps, save_price_series)

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")

# 12 six-hour symbols over 150 days: a rally, a slide, a drift.
SPEC = SyntheticSpec(seed=13, n_symbols=12, interval=21_600,
                     regimes=((240, 1.5, 0.9), (240, -1.2, 1.1),
                              (120, 0.3, 0.6)))
# Funding rates that are binary fractions written out in full, so the
# table's floats do not depend on how a decimal is rounded.
RATES = ["0.0000152587890625", "0.00006103515625", "-0.0001220703125",
         "0.000244140625", "0", "-0.00048828125"]
FUNDING_STEP = 28_800

CONFIG = """\
data.dir = {data}
run.start = 2022-02-01
run.end = 2022-05-31
rebalance.k_long = 4
rebalance.k_short = 4
rebalance.gamma_long = 0.5
rebalance.gamma_short = 0.5
regimes.window_days = 30
"""

# Run name -> the config lines it adds; {funding} is the funding table.
RUNS = {
    **{variant: f"run.variant = {variant}\n" for variant in ABLATION_VARIANTS},
    "intrabar_full": "engine.intrabar_stop_fill = true\n",
    "intrabar_no_trailing_stop": ("engine.intrabar_stop_fill = true\n"
                                  "run.variant = no_trailing_stop\n"),
    "funded": ("costs.funding_rates_file = {funding}\n"
               "benchmarks.kinds = tsmom_1m,tsmom_3m,vol_scaled_tsmom,"
               "btc_bh,ew_bh\n"),
}


def write_inputs(root: pathlib.Path) -> pathlib.Path:
    """The universe's data directory and funding table under ``root``."""
    data = root / "data"
    data.mkdir()
    series_list, caps = generate_synthetic_universe(SPEC)
    for series in series_list:
        save_price_series(series, str(data / f"{series.symbol}.csv"))
    save_market_caps(caps, str(data / "market_caps.csv"))
    rows = ["timestamp,symbol,rate_8h"]
    for k in range(SPEC.n_bars * SPEC.interval // FUNDING_STEP + 1):
        for j, series in enumerate(series_list):
            rows.append(f"{SPEC.start + k * FUNDING_STEP},{series.symbol},"
                        f"{RATES[(7 * k + 3 * j) % len(RATES)]}")
    (root / "funding_rates.csv").write_text("\n".join(rows) + "\n")
    return root


def run_digests(root: pathlib.Path, name: str) -> Dict[str, str]:
    """Run ``name`` on the inputs under ``root``: the sha256 of each file it
    writes but manifest.json, by path within its run directory."""
    config = root / f"{name}.cfg"
    config.write_text(CONFIG.format(data=root / "data") + RUNS[name].format(
        funding=root / "funding_rates.csv"))
    out = root / name
    assert main(["backtest", "--config", str(config), "--out", str(out)]) == 0
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def record() -> None:
    """Run every run again and write its digests to golden_digests.json."""
    with tempfile.TemporaryDirectory() as tmp:
        root = write_inputs(pathlib.Path(tmp))
        runs = {name: run_digests(root, name) for name in RUNS}
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "runs": runs},
                                  indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", list(RUNS))
def test_artifacts_match_the_recorded_digests(inputs, name):
    recorded = json.loads(DIGESTS.read_text())
    want, got = recorded["runs"][name], run_digests(inputs, name)
    moved = sorted(path for path in want.keys() | got.keys()
                   if want.get(path) != got.get(path))
    assert not moved, (
        f"{name}: {', '.join(moved)} moved (recorded with NumPy"
        f" {recorded['numpy']}, running {np.__version__})")


if __name__ == "__main__":
    record()
