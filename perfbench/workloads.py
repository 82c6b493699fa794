"""Benchmark workloads and the synthetic universes they run on.

Each workload is one `adaptivetrend` CLI invocation (`backtest` or `sweep`)
on a synthetic universe built from the benchmark's seed. The universe is
generated here, with the same per-regime GBM recipe as `adaptivetrend synth`
(PCG64 streams spawned from one SeedSequence, daily caps from the last close
of each day). It is reimplemented rather than imported so that the inputs
stay fixed when the program's own generator changes, and so that the
100-symbol universe is written in about a third of the time `synth` takes.
Prices and volumes are written with six decimals, which is what makes the
files quick to write. `math.exp` is used instead of `np.exp` because NumPy's
SIMD exp can differ in the last bit between CPUs, which would move the
recorded digests.
"""

import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

BASE_PRICE = 100.0
BASE_VOLUME = 500_000.0
BASE_CAP = 1e10
WICK_SCALE = 0.25
SECONDS_PER_YEAR = 31_536_000
SECONDS_PER_DAY = 86_400
START_2022 = 1_640_995_200  # 2022-01-01 00:00 UTC; bars begin one interval later

OHLCV_HEADER = "timestamp,open,high,low,close,volume\n"
CAPS_HEADER = "date,symbol,market_cap_usd\n"
COMPLETE_MARK = ".complete"


@dataclass(frozen=True)
class Universe:
    """A synthetic universe: symbol count, bar interval and a regime schedule
    of (bars, annual drift, annual vol) segments."""

    symbols: int
    interval: int
    regimes: Tuple[Tuple[int, float, float], ...]

    @property
    def bars(self) -> int:
        return sum(n for n, _, _ in self.regimes)

    def key(self) -> str:
        regimes = "_".join(f"{n}:{mu}:{vol}" for n, mu, vol in self.regimes)
        return f"u{self.symbols}x{self.bars}@{self.interval}_{regimes}"


@dataclass(frozen=True)
class Workload:
    name: str
    command: Tuple[str, ...]
    universe: Universe
    config: Dict[str, str] = field(hash=False)


SMALL = Universe(25, 21_600, ((360, 0.5, 0.6), (360, -0.4, 0.8), (360, 0.1, 0.4)))
LARGE = Universe(100, 3_600, ((2920, 0.5, 0.6), (2920, -0.4, 0.8), (2920, 0.1, 0.4)))

# Why each workload, as measured at the commit that added the benchmark
# (BENCHMARK.json carries a one-line form):
# - grid_small is the ROADMAP Baseline set-up. The grid search in rebalancer
#   is ~97% of the run and loading ~3% (16,875 evaluate_cell calls).
# - universe_large makes market_data load and validation (876k bars) and the
#   five comparison benchmarks dominate; with a one-cell grid the grid search
#   is ~10%. A grid-kernel change should not move it; a columnar data core
#   should.
# - sweep_alpha_lambda uses the rebalancer differently: 27 backtests with
#   25-cell grids on data loaded once. Lambda never enters the optimizer, so
#   only 9 of the 27 optimizer configurations are distinct; memoising across
#   runs shows here and not in grid_small.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="grid_small",
            command=("backtest",),
            universe=SMALL,
            config={
                "run.start": "2022-02-01",
                "run.end": "2022-04-30",
                "benchmarks.kinds": "tsmom_1m,btc_bh,ew_bh",
            },
        ),
        Workload(
            name="universe_large",
            command=("backtest",),
            universe=LARGE,
            config={
                "data.interval": "3600",
                "run.start": "2022-02-01",
                "run.end": "2022-12-31",
                "rebalance.buffer_bars": "24",
                "grid.theta_entry": "0.02",
                "grid.theta_entry_short": "0.02",
                "grid.alpha": "3.0",
                "grid.lookback": "24",
                "benchmarks.kinds":
                    "tsmom_1m,tsmom_3m,vol_scaled_tsmom,btc_bh,ew_bh",
            },
        ),
        Workload(
            name="sweep_alpha_lambda",
            command=("sweep", "--axis", "alpha_lambda"),
            universe=SMALL,
            config={
                "run.start": "2022-02-01",
                "run.end": "2022-03-31",
            },
        ),
    )
}


def write_universe(universe: Universe, seed: int, out_dir: str) -> None:
    """Write one OHLCV CSV per symbol plus market_caps.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    n = universe.bars
    dt = universe.interval / SECONDS_PER_YEAR
    mu = np.concatenate([np.full(k, m) for k, m, _ in universe.regimes])
    sigma_bar = np.concatenate([np.full(k, v) for k, _, v in universe.regimes]) \
        * math.sqrt(dt)
    ts = START_2022 + (np.arange(n, dtype=np.int64) + 1) * universe.interval
    ts_list = ts.tolist()
    day_of_bar = ((ts - 1) // SECONDS_PER_DAY).tolist()
    width = max(2, len(str(universe.symbols - 1)))
    exp = np.frompyfunc(math.exp, 1, 1)

    cap_rows = []
    children = np.random.SeedSequence(seed % 2**64).spawn(universe.symbols)
    for j, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        z = rng.standard_normal(n)
        wick_hi = np.abs(rng.standard_normal(n))
        wick_lo = np.abs(rng.standard_normal(n))
        vol_noise = rng.standard_normal(n)

        close = BASE_PRICE * exp(np.cumsum(mu * dt + sigma_bar * z)).astype(float)
        open_ = np.concatenate(([BASE_PRICE], close[:-1]))
        high = np.maximum(open_, close) * (1.0 + WICK_SCALE * sigma_bar * wick_hi)
        low = np.minimum(open_, close) * (
            1.0 - np.minimum(WICK_SCALE * sigma_bar * wick_lo, 0.9))
        volume = BASE_VOLUME * exp(0.5 * vol_noise).astype(float)

        # Six decimals keep the files quick to write; rounding is monotone,
        # so low <= open, close <= high still holds after it.
        cols = [np.round(x, 6).tolist() for x in (open_, high, low, close, volume)]
        symbol = f"SYM{j:0{width}d}"
        lines = [OHLCV_HEADER]
        lines.extend(f"{t},{o!r},{h!r},{lo!r},{c!r},{v!r}\n"
                     for t, o, h, lo, c, v in zip(ts_list, *cols))
        with open(os.path.join(out_dir, f"{symbol}.csv"), "w") as fh:
            fh.writelines(lines)

        last_close = dict(zip(day_of_bar, cols[3]))
        base_cap = BASE_CAP / (j + 1)
        for day in sorted(last_close):
            date = np.datetime64(day, "D").item().isoformat()
            cap_rows.append(f"{date},{symbol},{base_cap * last_close[day] / BASE_PRICE!r}\n")

    with open(os.path.join(out_dir, "market_caps.csv"), "w") as fh:
        fh.write(CAPS_HEADER)
        fh.writelines(cap_rows)


def ensure_universe(work_dir: str, universe: Universe, seed: int) -> Tuple[str, bool]:
    """Data directory for (universe, seed), generated on first use.

    Only one seed per universe is kept on disk: the large universe is 89 MB.
    Returns the directory and whether it was generated by this call.
    """
    data_root = os.path.join(work_dir, "data")
    prefix = universe.key() + "_seed"
    path = os.path.join(data_root, f"{prefix}{seed}")
    if os.path.isfile(os.path.join(path, COMPLETE_MARK)):
        return path, False
    if os.path.isdir(data_root):
        for name in os.listdir(data_root):
            if name.startswith(prefix):
                shutil.rmtree(os.path.join(data_root, name))
    write_universe(universe, seed, path)
    with open(os.path.join(path, COMPLETE_MARK), "w"):
        pass
    return path, True


def write_config(work_dir: str, workload: Workload, data_dir: str) -> str:
    path = os.path.join(work_dir, f"{workload.name}.cfg")
    lines = [f"data.dir = {data_dir}"]
    lines += [f"{k} = {v}" for k, v in workload.config.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
