"""Golden digests: the bytes of every artifact of the runs that perfbench
does not pin, against the digests in golden_digests.json.

Each ablation variant, the intrabar stop fill under a trailing and under a
fixed stop, one run with a funding table, a funded fee sweep, an alpha x
lambda sweep, a bootstrap, a report and synth itself go through cli.main on
a fixed-seed synthetic universe, and a timeframe sweep on an hourly one. A
change that moves an artifact's bytes on purpose records the digests again
with ``record()``,

    PYTHONPATH=src python tests/test_golden.py

and says which files moved and why.
"""

import hashlib
import json
import pathlib
import shutil
import tempfile
from typing import Callable, Dict, List

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
# 6 hourly symbols over the same 150 days, which every timeframe divides.
HOURLY = SyntheticSpec(seed=17, n_symbols=6, interval=3600,
                       regimes=((1440, 1.5, 0.9), (1440, -1.2, 1.1),
                                (720, 0.3, 0.6)))
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
FUNDED = "costs.funding_rates_file = {funding}\n"
# Three long entry thresholds and two lookbacks keep the 27 points of the
# alpha x lambda sweep (which sets alpha) and the 6 of the timeframe sweep
# small.
SMALL_GRID = ("grid.theta_entry = 0.02,0.05,0.08\n"
              "grid.lookback = 8,20\n")


def config(root: pathlib.Path, name: str, lines: str,
           data: str = "data") -> str:
    """A config file for run ``name`` on the data directory ``data``:
    CONFIG plus ``lines``, in which {funding} is the funding table."""
    path = root / f"{name}.cfg"
    path.write_text(CONFIG.format(data=root / data) + lines.format(
        funding=root / "funding_rates.csv"))
    return str(path)


def backtest(lines: str) -> Callable[[pathlib.Path, pathlib.Path], List[str]]:
    return lambda root, out: ["backtest", "--config",
                              config(root, out.name, lines), "--out", str(out)]


def sweep(axis: str, lines: str, data: str = "data"):
    return lambda root, out: ["sweep", "--axis", axis, "--config",
                              config(root, out.name, lines, data),
                              "--out", str(out)]


def bootstrap(root: pathlib.Path, out: pathlib.Path) -> List[str]:
    return ["bootstrap", "--run-a", str(run(root, "full")), "--run-b",
            str(run(root, "funded")), "--reps", "300", "--block", "12",
            "--seed", "5", "--out", str(out)]


def report(root: pathlib.Path, out: pathlib.Path) -> List[str]:
    """The funded run's directory with a bootstrap and a sweep in it, so
    that every section of the report has something to render."""
    shutil.copytree(run(root, "funded"), out)
    shutil.copy(run(root, "bootstrap") / "bootstrap.json", out)
    shutil.copy(run(root, "sweep_alpha_lambda") / "sweep.csv", out)
    return ["report", "--out", str(out)]


def synth(root: pathlib.Path, out: pathlib.Path) -> List[str]:
    return ["synth", "--out", str(out), "--seed", "21", "--symbols", "3",
            "--interval", "3600", "--regimes", "48:0.9:0.8,48:-0.7:1.2"]


# Run name -> its command line, given the inputs' root and its run directory.
RUNS = {
    **{variant: backtest(f"run.variant = {variant}\n")
       for variant in ABLATION_VARIANTS},
    "intrabar_full": backtest("engine.intrabar_stop_fill = true\n"),
    "intrabar_no_trailing_stop": backtest("engine.intrabar_stop_fill = true\n"
                                          "run.variant = no_trailing_stop\n"),
    "funded": backtest(FUNDED + "benchmarks.kinds = tsmom_1m,tsmom_3m,"
                       "vol_scaled_tsmom,btc_bh,ew_bh\n"),
    "sweep_fee_bps_funded": sweep("fee_bps", FUNDED),
    "sweep_alpha_lambda": sweep("alpha_lambda", SMALL_GRID),
    "sweep_timeframe": sweep("timeframe", SMALL_GRID, data="hourly"),
    "bootstrap": bootstrap,
    "report": report,
    "synth": synth,
}


def write_universe(spec: SyntheticSpec, data: pathlib.Path) -> list:
    """spec's universe as a data directory; its series."""
    series_list, caps = generate_synthetic_universe(spec)
    for series in series_list:
        save_price_series(series, str(data / f"{series.symbol}.csv"))
    save_market_caps(caps, str(data / "market_caps.csv"))
    return series_list


def write_inputs(root: pathlib.Path) -> pathlib.Path:
    """The universes' data directories and the funding table under
    ``root``."""
    write_universe(HOURLY, root / "hourly")
    series_list = write_universe(SPEC, root / "data")
    rows = ["timestamp,symbol,rate_8h"]
    for k in range(SPEC.n_bars * SPEC.interval // FUNDING_STEP + 1):
        for j, series in enumerate(series_list):
            rows.append(f"{SPEC.start + k * FUNDING_STEP},{series.symbol},"
                        f"{RATES[(7 * k + 3 * j) % len(RATES)]}")
    (root / "funding_rates.csv").write_text("\n".join(rows) + "\n")
    return root


def run(root: pathlib.Path, name: str) -> pathlib.Path:
    """The directory that run ``name`` writes under ``root``, run once."""
    out = root / name
    if not out.exists():
        assert main(RUNS[name](root, out)) == 0
    return out


def run_digests(root: pathlib.Path, name: str) -> Dict[str, str]:
    """The sha256 of each file run ``name`` writes but manifest.json, by
    path within its run directory. ``root`` reads as ``<root>`` in the
    bytes hashed, since bootstrap.json names its runs' absolute paths."""
    out = run(root, name)
    return {path.relative_to(out).as_posix(): hashlib.sha256(
                path.read_bytes().replace(str(root).encode(), b"<root>")
            ).hexdigest()
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
