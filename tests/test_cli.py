"""End-to-end command-line behavior against small synthetic data sets."""

import argparse
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import adaptivetrend
from adaptivetrend import __version__
from adaptivetrend.analytics import REGIME_WINDOW_DAYS
from adaptivetrend.backtester import (ABLATION_VARIANTS, BacktestConfig,
                                      ablation_config)
from adaptivetrend.benchmarks import BenchmarkSpec
from adaptivetrend.cli import (CONFIG_SCHEMA, DATA_DIR_ENV, METRIC_COLUMNS,
                               ConfigError, build_backtest_config,
                               build_parser, load_universe, main,
                               read_data_dir, resolve_config, run_label,
                               write_json)
from adaptivetrend.market_data import (DataError, PriceSeries,
                                       resample_series, save_price_series)
from conftest import FEB1, T0

RUN_END = 1_646_611_200  # 2022-03-07 00:00 UTC
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# README default cells that name no single value
NO_LITERAL_DEFAULT = ("required", "derived", "top cap", "empty", "–",
                      "the data's")

CONFIG_TEMPLATE = """\
# compact run configuration for the test suite
data.dir = {data_dir}
run.start = 2022-02-01
run.end = {end}
{extra}
rebalance.k_long = 3
rebalance.k_short = 3
rebalance.gamma_long = -100
rebalance.gamma_short = -100
grid.theta_entry = 0.01,0.03
grid.theta_entry_short = 0.01,0.03
grid.alpha = 2.0
grid.lookback = 4
grid.atr_window = 3
"""


def write_config(path, data_dir, extra=""):
    path.write_text(CONFIG_TEMPLATE.format(data_dir=data_dir, end=RUN_END,
                                           extra=extra))
    return str(path)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Synthetic data directory plus one completed full-variant run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "11", "--symbols", "6",
                 "--regimes", "130:0.5:0.4,130:-0.3:0.5"]) == 0
    cfg = root / "run.cfg"
    write_config(cfg, data,
                 extra="benchmarks.kinds = tsmom_1m,btc_bh,ew_bh\n")
    run = root / "run_full"
    assert main(["backtest", "--config", str(cfg), "--out", str(run)]) == 0
    return SimpleNamespace(root=root, data=data, cfg=cfg, run=run)


@pytest.fixture(scope="module")
def half_run(ws, tmp_path_factory):
    """A second run with a 50/50 split, for labels and bootstrap pairs."""
    cfg = ws.root / "half.cfg"
    write_config(cfg, ws.data, extra="rebalance.long_ratio = 0.5\n")
    out = ws.root / "run_half"
    assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def hourly(tmp_path_factory):
    """A data directory of 1-hour bars: 4 symbols from 2022-01-01 to
    2022-03-07, and their caps."""
    data = tmp_path_factory.mktemp("hourly") / "data"
    assert main(["synth", "--out", str(data), "--seed", "3", "--symbols",
                 "4", "--interval", "3600", "--regimes", "1560:0.4:0.5"]) == 0
    return data


@pytest.fixture(scope="module")
def alpha_sweep(ws):
    out = ws.root / "sweep_alpha"
    assert main(["sweep", "--config", str(ws.cfg), "--out", str(out),
                 "--axis", "alpha_lambda"]) == 0
    return out


class TestConfig:
    def test_defaults(self):
        cfg = resolve_config(None)
        assert cfg["data.interval"] is None  # the data's
        assert cfg["rebalance.long_ratio"] == 0.7
        assert cfg["rebalance.gamma_long"] == 1.3
        assert cfg["rebalance.gamma_short"] == 1.7
        assert cfg["grid.alpha"] == (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
        assert cfg["grid.lookback"] == (4, 8, 12, 20, 28)
        assert cfg["costs.taker_fee_bps"] == 4.0
        assert cfg["costs.funding_hours"] == (0, 8, 16)
        assert cfg["regimes.enabled"] is True
        assert cfg["run.start"] is None
        assert set(cfg) == set(CONFIG_SCHEMA)

    def test_defaults_are_the_library_defaults(self):
        """A config that sets nothing builds the library's own defaults: each
        schema default is its dataclass field's."""
        cfg = resolve_config(None)
        cfg.update({"run.start": FEB1, "run.end": RUN_END})
        assert build_backtest_config(cfg) == BacktestConfig(FEB1, RUN_END)
        assert BenchmarkSpec(
            kind="tsmom", universe_size=cfg["benchmarks.universe_size"],
            vol_target_annual=cfg["benchmarks.vol_target"],
            symbol=cfg["benchmarks.buy_hold_symbol"]) == BenchmarkSpec("tsmom")
        assert cfg["regimes.window_days"] == REGIME_WINDOW_DAYS

    @pytest.mark.parametrize("gamma", ["1.3", "0", "-2"])
    def test_sharpe_filter_off_admits_every_candidate(self, gamma):
        cfg = resolve_config(None, {
            "run.start": "2022-02-01", "run.end": str(RUN_END),
            "run.variant": "no_sharpe_filter", "rebalance.gamma_long": gamma,
            "rebalance.gamma_short": gamma})
        rebalance = build_backtest_config(cfg).rebalance
        assert rebalance.gamma_long == rebalance.gamma_short == -math.inf

    def test_readme_table_matches_the_schema(self):
        """The README's Configuration table has a row for every key and no
        other, and each default it shows as a literal is the resolved one
        (cells that name no value or abbreviate one with ... are skipped)."""
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("\n## Configuration\n")[1].split("\n## ")[0]
        defaults = resolve_config(None)
        seen = []
        for line in table.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[0].startswith("`"):
                continue
            keys = re.findall(r"`([^`]+)`", cells[0])
            seen += keys
            if cells[1] in NO_LITERAL_DEFAULT or "..." in cells[1]:
                continue
            values = re.findall(r"`([^`]+)`", cells[1])
            if len(values) == 1:
                values *= len(keys)
            assert len(values) == len(keys), line
            for key, value in zip(keys, values):
                parsed = CONFIG_SCHEMA[key][0](value)
                assert parsed == defaults[key], line
                assert type(parsed) is type(defaults[key]), line
        assert sorted(seen) == sorted(CONFIG_SCHEMA)

    def test_readme_library_use_runs_as_written(self):
        """The README's Library use example runs in a fresh interpreter and
        prints its five values: the strategy's final balance, trade count
        and Sharpe, then TSMOM's final balance and Sharpe."""
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("\n## Library use\n")[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        src = os.path.dirname(os.path.dirname(adaptivetrend.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        values = out.stdout.split()
        assert len(values) == 5, out.stdout
        balance, trades, sharpe, tsmom_balance, tsmom_sharpe = values
        assert int(trades) > 0
        assert float(balance) > 0 and float(tsmom_balance) > 0
        assert math.isfinite(float(sharpe)) and math.isfinite(float(tsmom_sharpe))

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nrun.start = 2022-02-01\n"
                        "run.initial_balance = 25000\n")
        cfg = resolve_config(str(path))
        assert cfg["run.start"] == FEB1
        assert cfg["run.initial_balance"] == 25_000.0

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("rebalance.k_lonng = 3\n")
        with pytest.raises(ConfigError, match="rebalance.k_lonng"):
            resolve_config(str(path))

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("rebalance.k_long = soon\n")
        with pytest.raises(ConfigError, match="rebalance.k_long"):
            resolve_config(str(path))

    @pytest.mark.parametrize("line", ["rebalance.gamma_long = -inf",
                                      "grid.alpha = 1.0,nan"])
    def test_non_finite_number_names_key(self, tmp_path, line):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            resolve_config(str(path))

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("run.start = 2022-02-01\nrebalance.k_long 3\n")
        with pytest.raises(ConfigError, match="line 2"):
            resolve_config(str(path))

    def test_start_end_required_for_backtest(self):
        with pytest.raises(ConfigError, match="run.start"):
            build_backtest_config(resolve_config(None))

    def test_run_labels(self):
        cfg = resolve_config(None)
        cfg.update({"run.start": FEB1, "run.end": RUN_END})
        bt = build_backtest_config(cfg)
        assert run_label(cfg, bt) == "AdaptiveTrend (70/30)"

        cfg["run.variant"] = "fixed_params"
        bt = build_backtest_config(cfg)
        assert run_label(cfg, bt) == "AdaptiveTrend (70/30) [fixed_params]"

        cfg["run.variant"] = "symmetric_allocation"
        bt = build_backtest_config(cfg)
        assert run_label(cfg, bt) == \
            "AdaptiveTrend (50/50) [symmetric_allocation]"

        cfg["run.variant"] = "full"
        cfg["run.label"] = "My Run"
        bt = build_backtest_config(cfg)
        assert run_label(cfg, bt) == "My Run"

    @pytest.mark.parametrize("variant, label", [
        ("full", "AdaptiveTrend (60/40)"),
        ("no_cap_filter", "AdaptiveTrend (60/40) [no_cap_filter]"),
        ("symmetric_allocation",
         "AdaptiveTrend (50/50) [symmetric_allocation]")])
    def test_run_label_shows_the_split_the_run_uses(self, variant, label):
        cfg = resolve_config(None, {
            "run.start": "2022-02-01", "run.end": str(RUN_END),
            "rebalance.long_ratio": "0.6", "run.variant": variant})
        assert run_label(cfg, build_backtest_config(cfg)) == label

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_variant_is_applied_by_the_config_builder(self, variant):
        overrides = {"run.start": "2022-02-01", "run.end": str(RUN_END),
                     "rebalance.gamma_long": "0.5"}
        full = build_backtest_config(resolve_config(None, overrides))
        cfg = resolve_config(None, dict(overrides, **{"run.variant": variant}))
        assert build_backtest_config(cfg) == ablation_config(full, variant)

    @pytest.mark.parametrize("key", ["engine.trailing_stop",
                                     "engine.cap_filter",
                                     "engine.sharpe_filter",
                                     "engine.reoptimize"])
    def test_removed_ablation_keys_rejected_by_name(self, tmp_path, key):
        # run.variant is the one way to turn a pipeline component off
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = false\n")
        with pytest.raises(ConfigError,
                           match=f"unknown config keys: {re.escape(key)}$"):
            resolve_config(str(path))


class TestValidateData:
    def test_valid_directory(self, ws, capsys):
        assert main(["validate-data", "--data-dir", str(ws.data)]) == 0
        out = capsys.readouterr().out
        assert "SYM00.csv: OK" in out
        assert "market_caps.csv: OK" in out
        assert "bar interval: 21600 s\n" in out
        assert "7/7 files valid" in out

    def test_hourly_data_needs_no_flag(self, hourly, capsys):
        # The interval is measured, not declared: 1-hour files are valid
        # as they are, and the interval found is printed.
        assert main(["validate-data", "--data-dir", str(hourly)]) == 0
        out = capsys.readouterr().out
        assert out.count(": OK\n") == 5
        assert "bar interval: 3600 s\n5/5 files valid\n" in out

    def test_bar_off_phase_warns(self, hourly, tmp_path, caplog):
        # One SYM00 bar moved by half an hour halves the measured interval,
        # which leaves nearly every step a gap: the loader names the step
        # that set it, and validate-data prints that on stderr.
        data = tmp_path / "data"
        shutil.copytree(hourly, data)
        lines = (data / "SYM00.csv").read_text().splitlines(keepends=True)
        ts, rest = lines[100].split(",", 1)
        moved = int(ts) + 1800
        lines[100] = f"{moved},{rest}"
        (data / "SYM00.csv").write_text("".join(lines))
        after = int(lines[101].split(",", 1)[0])
        with caplog.at_level("WARNING", logger="adaptivetrend.cli"):
            assert read_data_dir(str(data))[1] == 1800
        assert [r.getMessage() for r in caplog.records] == [
            f"SYM00: bars {moved} and {after} are 1800 s apart; at a bar"
            " interval of 1800 s, 6235 of 6236 steps are gaps"]
        src = os.path.dirname(os.path.dirname(adaptivetrend.__file__))
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from adaptivetrend.cli import"
             " main; sys.exit(main(sys.argv[1:]))", "validate-data",
             "--data-dir", str(data)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0
        assert run.stderr == (f"WARNING adaptivetrend.cli: "
                              f"{caplog.records[0].getMessage()}\n")
        assert run.stdout.endswith("bar interval: 1800 s\n5/5 files valid\n")

    def test_daily_series_among_hourly_does_not_warn(self, hourly, tmp_path,
                                                     caplog):
        data = tmp_path / "data"
        shutil.copytree(hourly, data)
        daily = resample_series(load_universe(str(hourly))[0]["SYM00"], 86_400)
        save_price_series(PriceSeries("DAY", 86_400, *daily.columns()),
                          str(data / "DAY.csv"))
        with caplog.at_level("WARNING", logger="adaptivetrend.cli"):
            assert read_data_dir(str(data))[1] == 3600
        assert not caplog.records

    def test_no_interval_without_two_bars(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "A.csv").write_text("timestamp,open,high,low,close,volume\n")
        assert main(["validate-data", "--data-dir", str(data)]) == 0
        assert capsys.readouterr().out == (
            "A.csv: OK\nbar interval: none (no series has two bars)\n"
            "1/1 files valid\n")

    def test_corrupt_file_fails_with_location(self, ws, tmp_path, capsys):
        bad_dir = tmp_path / "bad"
        shutil.copytree(ws.data, bad_dir)
        target = bad_dir / "SYM02.csv"
        target.write_text(target.read_text() + "not,a,row\n")
        assert main(["validate-data", "--data-dir", str(bad_dir)]) == 1
        out = capsys.readouterr().out
        assert "SYM02.csv: FAIL" in out
        assert "line 262" in out
        assert "6/7 files valid" in out

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["validate-data", "--data-dir", str(empty)]) == 1
        assert "no data files found" in capsys.readouterr().err

    def test_no_directory_configured(self, monkeypatch, capsys):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        assert main(["validate-data"]) == 1
        assert "no data directory" in capsys.readouterr().err

    def test_env_var_fallback(self, ws, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(ws.data))
        assert main(["validate-data"]) == 0


class TestSynth:
    ARGS = ["--seed", "5", "--symbols", "2", "--regimes", "20:0.3:0.5"]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a)] + self.ARGS) == 0
        assert main(["synth", "--out", str(b)] + self.ARGS) == 0
        for name in ("SYM00.csv", "SYM01.csv", "market_caps.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a)] + self.ARGS) == 0
        assert main(["synth", "--out", str(b), "--seed", "6"]
                    + self.ARGS[2:]) == 0
        assert (a / "SYM00.csv").read_bytes() != (b / "SYM00.csv").read_bytes()

    def test_bar_count_matches_regimes(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--seed", "5", "--symbols",
                     "1", "--regimes", "8:0.1:0.3,5:0.0:0.2"]) == 0
        rows = (out / "SYM00.csv").read_text().splitlines()
        assert len(rows) == 1 + 13

    @pytest.mark.parametrize("regimes, segment", [("10:0.1", "10:0.1"),
                                                  ("20:0.3:0.5,10:x:0.2",
                                                   "10:x:0.2"),
                                                  ("10:0.1:inf", "10:0.1:inf")])
    def test_malformed_regime_is_a_usage_error(self, tmp_path, capsys,
                                               regimes, segment):
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", "--out", str(tmp_path / "d"), "--regimes", regimes])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"bad regime segment {segment!r}" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--interval", "-5", "error: interval must be > 0"),
        ("--seed", "-1", "error: seed must be >= 0"),
        ("--start", "-99999999999999",
         "error: start -99999999999999 has no UTC date"),
        ("--start", "253402300000", "error: last bar 253402732000 has no"
         " UTC date")], ids=["interval", "seed", "start", "last-bar"])
    def test_nonpositive_interval_reported(self, tmp_path, capsys, flag,
                                           value, message):
        assert main(["synth", "--out", str(tmp_path / "d")] + self.ARGS
                    + [flag, value]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()


class TestBacktest:
    def test_declared_interval_must_be_the_datas(self, tmp_path, capsys):
        # Declared as 1-hour bars, these 6-hour bars once ran to a Sharpe of
        # +3.46, annualized, looked back and buffered at six times the
        # wrong scale; at their own interval the run gives -0.48.
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7",
                     "--symbols", "12"]) == 0
        outputs = []
        for declared in ("3600", "21600", None):
            cfg = tmp_path / f"{declared}.cfg"
            cfg.write_text(f"data.dir = {data}\nrun.start = 2022-03-01\n"
                           "run.end = 2022-04-30\n"
                           + (f"data.interval = {declared}\n" if declared
                              else ""))
            out = tmp_path / f"run_{declared}"
            status = main(["backtest", "--config", str(cfg), "--out",
                           str(out)])
            if declared == "3600":
                assert status == 1
                assert capsys.readouterr().err == (
                    "error: bars are 21600 s apart; data.interval is 3600\n")
                assert not out.exists()
                continue
            assert status == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("equity.csv", "ledger.csv",
                                         "metrics.json")])
        # Declaring the data's own interval is the same as declaring none.
        assert outputs[0] == outputs[1]

    def test_artifacts_written(self, ws):
        for name in ("equity.csv", "ledger.csv", "metrics.json",
                     "rebalance_log.json", "manifest.json",
                     "regime_metrics.csv"):
            assert (ws.run / name).is_file(), name
        for bench in ("tsmom_1m", "btc_bh", "ew_bh"):
            for name in ("equity.csv", "ledger.csv", "metrics.json"):
                assert (ws.run / "benchmarks" / bench / name).is_file()

    def test_metrics_json_shape(self, ws):
        payload = json.loads((ws.run / "metrics.json").read_text())
        assert payload["label"] == "AdaptiveTrend (70/30)"
        assert payload["variant"] == "full"
        assert payload["bankrupt"] is False
        assert set(payload["metrics"]) == set(METRIC_COLUMNS)

    def test_rebalance_log_months(self, ws):
        log = json.loads((ws.run / "rebalance_log.json").read_text())
        assert [r["month"] for r in log] == ["2022-02", "2022-03"]
        assert log[0]["balance_start"] == 100_000.0
        assert all(r["reoptimized"] for r in log)

    def test_manifest_contents(self, ws):
        manifest = json.loads((ws.run / "manifest.json").read_text())
        assert manifest["engine_version"] == __version__
        assert manifest["command"] == "backtest"
        assert manifest["config"]["run.start"] == FEB1
        assert manifest["config"]["rebalance.k_long"] == 3
        assert set(manifest["input_digests"]) == \
            {f"SYM{i:02d}.csv" for i in range(6)} | {"market_caps.csv"}
        assert manifest["duration_seconds"] >= 0
        resources = manifest["resources"]
        assert set(resources) == {"peak_rss_mb", "cpu_s"}
        assert all(type(v) is float for v in resources.values())
        # Each month's problems are distinct: none is answered from the memo,
        # and each is one search of its own grid.
        counters = manifest["counters"]
        assert counters["optimizer.problems"] == \
            counters["optimizer.solved"] == counters["optimizer.searches"] > 0

    def test_rerun_is_byte_identical(self, ws):
        rerun = ws.root / "run_repeat"
        assert main(["backtest", "--config", str(ws.cfg),
                     "--out", str(rerun), "--jobs", "2"]) == 0
        same = ["equity.csv", "ledger.csv", "metrics.json",
                "rebalance_log.json", "regime_metrics.csv",
                "benchmarks/tsmom_1m/equity.csv",
                "benchmarks/ew_bh/metrics.json"]
        for name in same:
            assert (ws.run / name).read_bytes() == \
                (rerun / name).read_bytes(), name

    def test_benchmark_metrics_json_shape(self, ws):
        payload = json.loads(
            (ws.run / "benchmarks" / "btc_bh" / "metrics.json").read_text())
        assert payload["label"] == "BTC Buy & Hold"
        assert payload["variant"] == "btc_bh"
        assert payload["bankrupt"] is False
        assert set(payload["metrics"]) == set(METRIC_COLUMNS)

    def test_half_split_label(self, half_run):
        payload = json.loads((half_run / "metrics.json").read_text())
        assert payload["label"] == "AdaptiveTrend (50/50)"

    def test_funding_rates_file_replaces_the_flat_rate(self, ws, tmp_path):
        # A table of zero rates from before the data charges no funding where
        # the flat rate charges some. A funding_rates.csv in the data
        # directory is not read; the config key is the one way in.
        table = tmp_path / "funding.csv"
        table.write_text("timestamp,symbol,rate_8h\n" + "".join(
            f"1600000000,SYM{i:02d},0\n" for i in range(6)))
        cfg = write_config(tmp_path / "c.cfg", ws.data,
                           extra=f"costs.funding_rates_file = {table}\n")
        out = tmp_path / "o"
        assert main(["backtest", "--config", cfg, "--out", str(out)]) == 0

        def funding(run):
            with open(run / "ledger.csv", newline="") as fh:
                return [float(row["funding"]) for row in csv.DictReader(fh)]
        flat, tabled = funding(ws.run), funding(out)
        assert tabled and all(f == 0.0 for f in tabled)
        assert any(f != 0.0 for f in flat)

    @pytest.mark.parametrize("command", [["backtest"],
                                         ["sweep", "--axis", "fee_bps"]],
                             ids=["backtest", "sweep"])
    def test_bad_variant_rejected(self, ws, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.cfg", ws.data,
                           extra="run.variant = sideways\n")
        out = tmp_path / "o"
        assert main(command + ["--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: config key run.variant: unknown ablation variant")
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ("benchmarks.kinds = tsmom_1m\nbenchmarks.universe_size = 0",
         "universe_size must be >= 1"),
        ("benchmarks.kinds = vol_scaled_tsmom\nbenchmarks.vol_target = 0",
         "vol_target_annual must be > 0"),
        ("grid.alpha = 0", "alpha must be > 0"),
        ("grid.lookback = 0", "lookback must be >= 1"),
        ("grid.theta_entry_short = 0", "theta_entry_short must be > 0"),
        ("regimes.window_days = 0", "shorter than one 21600 s bar"),
        ("run.initial_balance = 1e308",
         "initial_balance must be > 0 and at most 1e+15")],
        ids=["universe_size", "vol_target", "alpha", "lookback",
             "theta_entry_short", "window_days", "initial_balance"])
    def test_value_failing_mid_run_rejected_up_front(self, ws, tmp_path,
                                                     capsys, extra, message):
        # The config template sets the grid axes; a later line overrides.
        cfg = tmp_path / "c.cfg"
        write_config(cfg, ws.data)
        cfg.write_text(cfg.read_text() + extra + "\n")
        out = tmp_path / "o"
        assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_unknown_benchmark_rejected(self, ws, tmp_path, capsys):
        # rejected with the config, before the run writes any artifact
        cfg = write_config(tmp_path / "c.cfg", ws.data,
                           extra="benchmarks.kinds = btc_bh,carry\n")
        out = tmp_path / "o"
        assert main(["backtest", "--config", cfg, "--out", str(out)]) == 1
        assert "carry" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_buy_hold_symbol_rejected(self, ws, tmp_path, capsys):
        # rejected with the config too, not after the strategy's artifacts
        cfg = write_config(tmp_path / "c.cfg", ws.data,
                           extra="benchmarks.kinds = btc_bh\n"
                                 "benchmarks.buy_hold_symbol = NOPE\n")
        out = tmp_path / "o"
        assert main(["backtest", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NOPE" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_buy_hold_without_cap_snapshot_rejected(self, ws, tmp_path,
                                                    capsys):
        # no buy_hold_symbol and no market_caps.csv: nothing to buy, found
        # before the strategy runs and writes its artifacts
        data = tmp_path / "data"
        shutil.copytree(ws.data, data)
        (data / "market_caps.csv").unlink()
        cfg = write_config(tmp_path / "c.cfg", data,
                           extra="benchmarks.kinds = btc_bh\n")
        out = tmp_path / "o"
        assert main(["backtest", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: btc_bh: no market-cap snapshot")
        assert str(data) in err and "2022-02" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_buy_hold_largest_cap_without_prices_rejected(self, ws, tmp_path,
                                                          capsys):
        data = tmp_path / "data"
        shutil.copytree(ws.data, data)
        (data / "market_caps.csv").write_text(
            "date,symbol,market_cap_usd\n2022-01-31,GHOST,1e15\n")
        cfg = write_config(tmp_path / "c.cfg", data,
                           extra="benchmarks.kinds = btc_bh\n")
        out = tmp_path / "o"
        assert main(["backtest", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: btc_bh: largest-cap symbol 'GHOST'")
        assert not out.exists()


class TestSweep:
    def test_fee_axis(self, ws, tmp_path):
        out = tmp_path / "sweep_fee"
        assert main(["sweep", "--config", str(ws.cfg), "--out", str(out),
                     "--axis", "fee_bps"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == ",".join(["fee_bps"] + METRIC_COLUMNS)
        assert len(rows) == 1 + 4
        assert [r.split(",")[0] for r in rows[1:]] == \
            ["0.0", "4.0", "8.0", "12.0"]

    def test_alpha_lambda_axis(self, alpha_sweep):
        rows = (alpha_sweep / "sweep.csv").read_text().splitlines()
        assert rows[0] == ",".join(["alpha", "lambda"] + METRIC_COLUMNS)
        assert len(rows) == 1 + 9 * 3
        # Lambda never reaches the optimizer: its three points share problems.
        # The nine alpha points of a problem share one union-grid search.
        counters = json.loads(
            (alpha_sweep / "manifest.json").read_text())["counters"]
        assert counters["optimizer.problems"] == \
            3 * counters["optimizer.solved"] > 0
        assert counters["optimizer.solved"] == \
            9 * counters["optimizer.searches"]

    def test_alpha_lambda_axis_rejects_symmetric_allocation(self, ws,
                                                            tmp_path, capsys):
        # the axis sets the long ratio that the variant fixes at 0.5
        cfg = write_config(tmp_path / "c.cfg", ws.data,
                           extra="run.variant = symmetric_allocation\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--axis", "alpha_lambda"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "symmetric_allocation" in err
        assert not out.exists()

    def test_timeframe_axis_needs_divisible_source(self, ws, tmp_path,
                                                   capsys):
        # 6-hour bars cannot make the first target, 1-hour bars: the sweep
        # stops there, before any run or write.
        out = tmp_path / "sweep_tf"
        assert main(["sweep", "--config", str(ws.cfg), "--out", str(out),
                     "--axis", "timeframe"]) == 1
        assert capsys.readouterr().err == ("error: SYM00: cannot resample"
                                           " interval 21600 to 3600 (not a"
                                           " multiple)\n")
        assert not out.exists()

    def test_timeframe_axis_on_hourly_data(self, hourly, tmp_path):
        cfg = write_config(tmp_path / "tf.cfg", hourly,
                           extra="data.interval = 3600\n")
        out = tmp_path / "sweep_tf"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--axis", "timeframe"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("timeframe_s,")
        assert [r.split(",")[0] for r in rows[1:]] == \
            ["3600", "14400", "21600", "28800", "43200", "86400"]


class TestBootstrap:
    def test_hourly_runs_annualized_at_their_interval(self, hourly, tmp_path):
        # Without --config the interval is the curves' own, so delta_sr is
        # the difference of the two runs' Sharpes (once it annualized 1-hour
        # returns as 6-hour ones).
        runs, sharpes = [], []
        for ratio in ("0.7", "0.5"):
            cfg = write_config(tmp_path / f"{ratio}.cfg", hourly,
                               extra=f"rebalance.long_ratio = {ratio}\n")
            out = tmp_path / f"run_{ratio}"
            assert main(["backtest", "--config", cfg, "--out", str(out)]) == 0
            runs.append(str(out))
            sharpes.append(json.loads((out / "metrics.json").read_text())
                           ["metrics"]["sharpe"])
        out = tmp_path / "boot"
        assert main(["bootstrap", "--run-a", runs[0], "--run-b", runs[1],
                     "--out", str(out), "--reps", "50"]) == 0
        delta = json.loads((out / "bootstrap.json").read_text())["delta_sr"]
        assert delta != 0.0
        assert delta == pytest.approx(sharpes[0] - sharpes[1], rel=1e-12)

    def test_run_against_itself(self, ws, tmp_path, capsys):
        out = tmp_path / "boot"
        assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                     str(ws.run), "--out", str(out), "--reps", "200",
                     "--block", "10"]) == 0
        payload = json.loads((out / "bootstrap.json").read_text())
        assert payload["delta_sr"] == 0.0
        assert payload["p_value"] == 1.0
        assert payload["n_reps"] == 200 and payload["block_len"] == 10
        assert "p_value=1.0000" in capsys.readouterr().out

    def test_defaults_echoed(self, ws, half_run, tmp_path):
        out = tmp_path / "boot"
        assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                     str(half_run), "--out", str(out)]) == 0
        payload = json.loads((out / "bootstrap.json").read_text())
        assert payload["n_reps"] == 10_000
        assert payload["block_len"] == 20
        assert payload["seed"] == 0
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_seeded_rerun_identical(self, ws, half_run, tmp_path):
        outs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                         str(half_run), "--out", str(out), "--reps", "300",
                         "--block", "10", "--seed", "7"]) == 0
            outs.append((out / "bootstrap.json").read_bytes())
        assert outs[0] == outs[1]

    def test_length_mismatch_reported(self, ws, tmp_path, capsys):
        clone = tmp_path / "short"
        clone.mkdir()
        lines = (ws.run / "equity.csv").read_text().splitlines()
        (clone / "equity.csv").write_text("\n".join(lines[:-1]) + "\n")
        assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                     str(clone), "--out", str(tmp_path / "o"),
                     "--reps", "50", "--block", "5"]) == 1
        assert "differ in length" in capsys.readouterr().err

    def test_misaligned_timestamp_reported(self, ws, tmp_path, capsys):
        clone = tmp_path / "skew"
        clone.mkdir()
        lines = (ws.run / "equity.csv").read_text().splitlines()
        ts, bal = lines[5].split(",")
        lines[5] = f"{int(ts) + 1},{bal}"
        (clone / "equity.csv").write_text("\n".join(lines) + "\n")
        assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                     str(clone), "--out", str(tmp_path / "o"),
                     "--reps", "50", "--block", "5"]) == 1
        assert "misaligned at index 4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, arg", [("--reps", "n_reps"),
                                           ("--block", "block_len")])
    def test_degenerate_counts_reported(self, ws, tmp_path, capsys, flag, arg):
        out = tmp_path / "o"
        args = {"--reps": "50", "--block": "5", flag: "0"}
        assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                     str(ws.run), "--out", str(out)]
                    + [x for kv in args.items() for x in kv]) == 1
        assert f"error: {arg} must be >= 1" in capsys.readouterr().err
        assert not out.exists()


    def test_negative_seed_reported(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                     str(ws.run), "--out", str(out), "--reps", "50",
                     "--block", "5", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "error: seed must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestReport:
    def test_full_report(self, ws, alpha_sweep):
        assert main(["bootstrap", "--run-a", str(ws.run), "--run-b",
                     str(ws.run), "--out", str(ws.run), "--reps", "200",
                     "--block", "10"]) == 0
        shutil.copy(alpha_sweep / "sweep.csv", ws.run / "sweep.csv")
        assert main(["report", "--out", str(ws.run)]) == 0

        text = (ws.run / "report.md").read_text()
        assert "## Performance comparison" in text
        assert "AdaptiveTrend (70/30)" in text
        assert "TSMOM (1M)" in text
        assert "BTC Buy & Hold" in text
        assert "## Regime decomposition" in text
        assert "## Significance" in text
        assert "p = 1.0000" in text
        assert "Sensitivity surface" in text
        assert "## Gaps" not in text

        plot = (ws.run / "report_equity.csv").read_text().splitlines()
        assert plot[0] == "strategy,timestamp,balance"
        labels = {row.split(",")[0] for row in plot[1:]}
        assert "AdaptiveTrend (70/30)" in labels
        assert "Equal-Weight Buy & Hold" in labels

        sens = (ws.run / "sensitivity.csv").read_text().splitlines()
        assert sens[0] == "alpha,lambda,sharpe"
        assert len(sens) == 1 + 27

    def test_report_without_bootstrap(self, half_run):
        assert main(["report", "--out", str(half_run)]) == 0
        text = (half_run / "report.md").read_text()
        assert "significance: not run" in text

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "nope")]) == 1
        assert "no such run directory" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        ("metrics.json", lambda meta: "{not json", "not valid JSON"),
        ("metrics.json", lambda meta: {**meta, "metrics": {
            k: v for k, v in meta["metrics"].items() if k != "ann_return"}},
         "missing key 'metrics.ann_return'"),
        ("benchmarks/btc_bh/metrics.json",
         lambda meta: {k: v for k, v in meta.items() if k != "label"},
         "missing key 'label'"),
        ("bootstrap.json", lambda boot: "[1, 2", "not valid JSON"),
        ("bootstrap.json",
         lambda boot: {k: v for k, v in boot.items() if k != "p_value"},
         "missing key 'p_value'"),
    ], ids=["metrics-json", "metrics-key", "benchmark-label", "bootstrap-json",
            "bootstrap-key"])
    def test_bad_json_is_a_clean_error(self, ws, tmp_path, capsys, name, edit,
                                       message):
        run = tmp_path / "run"
        shutil.copytree(ws.run, run, ignore=shutil.ignore_patterns(
            "report*", "sensitivity.csv"))
        (run / "bootstrap.json").write_text(json.dumps(
            {"delta_sr": 0.0, "p_value": 1.0, "n_reps": 10, "block_len": 5}))
        target = run / name
        edited = edit(json.loads(target.read_text()))
        target.write_text(edited if isinstance(edited, str)
                          else json.dumps(edited))
        assert main(["report", "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: {message}")
        assert not [p for p in os.listdir(run)
                    if p.startswith("report") or p == "sensitivity.csv"]

    @pytest.mark.parametrize("name, key, value", [
        ("bootstrap.json", "delta_sr", None),
        ("bootstrap.json", "n_reps", True),
        ("bootstrap.json", "p_value", "0.5"),
        ("metrics.json", "metrics.sharpe", [1.0]),
        ("benchmarks/btc_bh/metrics.json", "label", 3),
    ], ids=["null-delta", "bool-reps", "string-p", "list-sharpe",
            "number-label"])
    def test_json_value_of_wrong_type_is_a_clean_error(self, ws, tmp_path,
                                                       capsys, name, key,
                                                       value):
        run = tmp_path / "run"
        shutil.copytree(ws.run, run, ignore=shutil.ignore_patterns(
            "report*", "sensitivity.csv"))
        (run / "bootstrap.json").write_text(json.dumps(
            {"delta_sr": 0.0, "p_value": 1.0, "n_reps": 10, "block_len": 5}))
        target = run / name
        payload = json.loads(target.read_text())
        *parents, last = key.split(".")
        obj = payload
        for part in parents:
            obj = obj[part]
        obj[last] = value
        target.write_text(json.dumps(payload))
        assert main(["report", "--out", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"error: {target}: key {key!r} holds a value of the wrong type:"
            f" {json.dumps(value)}\n")
        assert not [p for p in os.listdir(run)
                    if p.startswith("report") or p == "sensitivity.csv"]

    @pytest.mark.parametrize("text, line, width", [
        ("alpha,lambda,sharpe\n1.0\n", 2, 1),
        ("alpha,lambda,sharpe\n1.0,0.7,0.5\n\n2.0,0.7\n", 4, 2),
    ], ids=["first-row", "later-row"])
    def test_bad_sweep_is_a_clean_error(self, ws, tmp_path, capsys, text,
                                        line, width):
        run = tmp_path / "run"
        shutil.copytree(ws.run, run, ignore=shutil.ignore_patterns(
            "report*", "sensitivity.csv"))
        (run / "sweep.csv").write_text(text)
        assert main(["report", "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {run / 'sweep.csv'}: line {line}: expected 3"
                       f" columns, got {width}\n")
        assert not [p for p in os.listdir(run)
                    if p.startswith("report") or p == "sensitivity.csv"]


@pytest.mark.parametrize("command", [["backtest"],
                                     ["sweep", "--axis", "fee_bps"]])
def test_header_only_universe_is_a_clean_error(command, ws, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("SYM00.csv", "SYM01.csv"):
        (data / name).write_text("timestamp,open,high,low,close,volume\n")
    shutil.copy(ws.data / "market_caps.csv", data / "market_caps.csv")
    cfg = write_config(tmp_path / "run.cfg", data)
    out = tmp_path / "out"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: universe has no bars\n"


def test_no_month_boundary_is_a_clean_error(ws, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_config(cfg, ws.data)
    cfg.write_text(cfg.read_text()
                   .replace("run.start = 2022-02-01", "run.start = 2022-02-02")
                   .replace(f"run.end = {RUN_END}", "run.end = 2022-02-20"))
    out = tmp_path / "out"
    assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: no month boundary inside [start, end]\n"
    assert not out.exists()


# entry -> (file name, how the file is spoiled, the reason named after it)
BAD_ENTRIES = {
    "directory": ("x.csv", lambda p: p.mkdir(), "Is a directory"),
    "caps-not-utf8": ("market_caps.csv",
                      lambda p: p.write_bytes(b"\xff" + p.read_bytes()),
                      "'utf-8' codec can't decode byte 0xff in position 0"),
}


@pytest.mark.parametrize("entry", sorted(BAD_ENTRIES))
def test_unreadable_data_entry_is_named(entry, ws, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(ws.data, data)
    name, spoil, reason = BAD_ENTRIES[entry]
    spoil(data / name)
    total = len(os.listdir(data))
    assert main(["validate-data", "--data-dir", str(data)]) == 1
    out = capsys.readouterr().out
    assert f"{name}: FAIL: {data / name}: {reason}" in out
    assert out.count(": OK\n") == total - 1
    assert f"{total - 1}/{total} files valid" in out
    cfg = write_config(tmp_path / "run.cfg", data)
    run = tmp_path / "run"
    assert main(["backtest", "--config", cfg, "--out", str(run)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data / name}: {reason}")
    assert not run.exists()


@pytest.mark.parametrize("command", [["backtest"],
                                     ["sweep", "--axis", "fee_bps"]])
@pytest.mark.parametrize("missing", ["config", "funding"])
def test_missing_input_file_is_named(command, missing, ws, tmp_path, capsys):
    absent = tmp_path / "absent.csv"
    if missing == "config":
        cfg = path = str(tmp_path / "absent.cfg")
    else:
        path = str(absent)
        cfg = write_config(tmp_path / "run.cfg", ws.data,
                           extra=f"costs.funding_rates_file = {absent}\n")
    out = tmp_path / "out"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {path}: No such file or directory\n"
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["backtest", "sweep", "bootstrap"])
def test_out_that_is_not_a_directory_is_rejected(command, below, ws, half_run,
                                                 tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / "sub" if below else afile
    args = {"backtest": ["--config", str(ws.cfg)],
            "sweep": ["--config", str(ws.cfg), "--axis", "fee_bps"],
            "bootstrap": ["--run-a", str(ws.run), "--run-b", str(half_run)]}
    assert main([command, "--out", str(out)] + args[command]) == 1
    assert capsys.readouterr().err == \
        f"error: --out {out}: {afile} is not a directory\n"
    assert os.listdir(tmp_path) == ["afile"] and afile.read_text() == "keep"


@pytest.mark.parametrize("command", [["backtest"],
                                     ["sweep", "--axis", "fee_bps"]])
def test_out_that_is_the_data_directory_is_rejected(command, ws, tmp_path,
                                                    capsys):
    # Written there, the run's CSV files would be read as data by the next
    # load. A subdirectory is no data file: the loader does not recurse.
    data = tmp_path / "data"
    shutil.copytree(ws.data, data)
    listed = sorted(os.listdir(data))
    cfg = write_config(tmp_path / "run.cfg", data)
    out = tmp_path / "link"
    out.symlink_to(data)
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: --out {out} is the data directory {data}\n"
    assert sorted(os.listdir(data)) == listed
    assert main(command + ["--config", cfg, "--out", str(data / "run")]) == 0
    assert sorted(os.listdir(data)) == sorted(listed + ["run"])


# artifact -> the commands that read it
NON_UTF8_ARTIFACTS = {"equity.csv": ["report", "bootstrap"],
                      "regime_metrics.csv": ["report"],
                      "sweep.csv": ["report"]}


@pytest.mark.parametrize("artifact, command", [
    (a, c) for a, cs in NON_UTF8_ARTIFACTS.items() for c in cs])
def test_non_utf8_artifact_is_named(artifact, command, ws, alpha_sweep,
                                    tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(ws.run, run, ignore=shutil.ignore_patterns(
        "report*", "sensitivity.csv"))
    shutil.copy(alpha_sweep / "sweep.csv", run / "sweep.csv")
    path = run / artifact
    path.write_bytes(b"\xff" + path.read_bytes())
    out = tmp_path / "boot"
    args = (["--out", str(run)] if command == "report" else
            ["--run-a", str(run), "--run-b", str(ws.run), "--out", str(out),
             "--reps", "50"])
    assert main([command] + args) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert not out.exists()
    assert not [p for p in os.listdir(run)
                if p.startswith("report") or p == "sensitivity.csv"]


def test_a_non_ascii_symbol_runs_alike_in_any_locale(ws, tmp_path):
    """A symbol whose file name is not ASCII is the same symbol in the C
    locale, where the file-system encoding is ASCII, as in a UTF-8 one, and
    the artifacts that name it are written as UTF-8 in both."""
    data = tmp_path / "data"
    shutil.copytree(ws.data, data)
    os.rename(data / "SYM00.csv", data / "SYM\u00c9.csv")
    caps = data / "market_caps.csv"
    caps.write_bytes(caps.read_bytes().replace(b",SYM00,",
                                               ",SYM\u00c9,".encode()))
    cfg = tmp_path / "run.cfg"
    write_config(cfg, data)
    src = os.path.dirname(os.path.dirname(adaptivetrend.__file__))
    c_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    runs = []
    for env in ({}, c_locale):
        out = tmp_path / f"run{len(runs)}"
        subprocess.run(
            [sys.executable, "-c", "import sys; from adaptivetrend.cli import"
             " main; sys.exit(main(sys.argv[1:]))", "backtest", "--config",
             str(cfg), "--out", str(out)], check=True, capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, **env))
        runs.append([(out / name).read_bytes() for name in
                     ("equity.csv", "ledger.csv", "rebalance_log.json")])
        digests = json.loads((out / "manifest.json").read_bytes())
        assert "SYM\u00c9.csv" in digests["input_digests"]
    assert runs[0] == runs[1]
    assert "SYM\u00c9," in runs[0][1].decode("utf-8")  # it traded


class TestMeasuredInterval:
    @settings(max_examples=40, deadline=None)
    @given(base=st.sampled_from([60, 3600, 21600]), k=st.integers(1, 4),
           data=st.data())
    def test_declared_interval_is_checked(self, base, k, data):
        """Bars k * base apart load at that interval, and a declared base
        fails for every k >= 2. Every series has random gaps, the first has
        one step of a single interval, and one series is sparse (2-5
        intervals apart); each keeps its gaps, on the universe's interval."""
        step = k * base
        stamps = {}
        n_dense = data.draw(st.integers(1, 3), label="dense series")
        for j in range(n_dense + 1):
            sparse = j == n_dense
            gaps = data.draw(st.lists(st.integers(2, 5) if sparse
                                      else st.integers(1, 3), max_size=30))
            stamps[f"S{j}"] = T0 + np.cumsum([1] + ([1] if j == 0 else [])
                                             + gaps) * step
        with tempfile.TemporaryDirectory() as d:
            for sym, ts in stamps.items():
                flat = np.full(len(ts), 10.0)
                save_price_series(PriceSeries(sym, step, ts, flat, flat, flat,
                                              flat, flat),
                                  os.path.join(d, f"{sym}.csv"))
            if k >= 2:
                with pytest.raises(DataError, match=(
                        f"^bars are {step} s apart; data.interval is {base}$")):
                    load_universe(d, base)
            universe, _ = load_universe(d, base if k == 1 else None)
        assert sorted(universe) == sorted(stamps)
        for sym, ts in stamps.items():
            series = universe[sym]
            assert series.interval == step
            assert series.timestamps.tolist() == ts.tolist()


class TestTopLevel:
    def test_readme_cli_table_matches_the_parser(self):
        """Each row of the README's command-line table names exactly the
        options of its subcommand's parser, and every subcommand has one."""
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("\n## Command-line interface\n")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `adaptivetrend ([\w-]+)([^`]*)` \|", table,
                          re.M)
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert sorted(name for name, _ in rows) == sorted(commands)
        for name, usage in rows:
            options = {option for action in commands[name]._actions
                       for option in action.option_strings
                       if option.startswith("--")} - {"--help"}
            assert set(re.findall(r"--[\w-]+", usage)) == options, name

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_write_json_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "metrics.json"
        with pytest.raises(ValueError):
            write_json(str(path), {"metrics": {"ann_return": value}})
        assert not path.exists()
        write_json(str(path), {"metrics": {"ann_return": -1.0}})
        assert json.loads(path.read_text()) == {"metrics": {"ann_return": -1.0}}

    @settings(max_examples=100, deadline=None)
    @given(payload=st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([1e-300, 2.5e17, -1e100]) | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20))
    def test_write_json_writes_the_bytes_of_json_dumps(self, tmp_path_factory,
                                                      payload):
        # Non-ASCII and escaped text and floats whose repr has an exponent
        # among the draws; write_json streams the encoder's chunks.
        path = tmp_path_factory.mktemp("json") / "log.json"
        write_json(str(path), payload)
        assert path.read_bytes() == (json.dumps(
            payload, indent=2, sort_keys=True) + "\n").encode("utf-8")

    def test_write_json_holds_no_copy_of_its_text(self, tmp_path):
        # A rebalance-log-shaped payload of about 2.7 MB written, its traced
        # peak under 1 MB above the payload (one JSON string of the file
        # was about 18 MB of peak).
        log = [{"month": f"2022-{m:02d}", "balance_start": 1e5 / (m + 3),
                "excluded": [f"SYM{i:03d}" for i in range(50)],
                "optimized": [{"symbol": f"SYM{i:03d}", "side": "long",
                               "sharpe": (i - 150) / 7, "weight": 1 / (i + 1),
                               "params": {"theta": 0.02, "alpha": 2.0,
                                          "lookback": 4}}
                              for i in range(300)]} for m in range(1, 37)]
        path = tmp_path / "rebalance_log.json"
        tracemalloc.start()
        try:
            write_json(str(path), log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2_500_000
        assert peak < 1_000_000, peak

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy.random takes milliseconds to import, and only the bootstrap
        # and the synthetic generator draw random numbers.
        src = os.path.dirname(os.path.dirname(adaptivetrend.__file__))
        code = "import sys, adaptivetrend.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"

    def test_unknown_axis_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", "x", "--out", "y", "--axis", "zoom"])
