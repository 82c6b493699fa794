"""End-to-end command-line behavior against small synthetic data sets."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import adaptivetrend
from adaptivetrend import __version__
from adaptivetrend.analytics import REGIME_WINDOW_DAYS
from adaptivetrend.backtester import BacktestConfig
from adaptivetrend.benchmarks import BenchmarkSpec
from adaptivetrend.cli import (CONFIG_SCHEMA, DATA_DIR_ENV, METRIC_COLUMNS,
                               ConfigError, build_backtest_config, main,
                               resolve_config, run_label, write_json)
from conftest import FEB1

RUN_END = 1_646_611_200  # 2022-03-07 00:00 UTC
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# README default cells that name no single value
NO_LITERAL_DEFAULT = ("required", "derived", "top cap", "empty", "–")

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
def alpha_sweep(ws):
    out = ws.root / "sweep_alpha"
    assert main(["sweep", "--config", str(ws.cfg), "--out", str(out),
                 "--axis", "alpha_lambda"]) == 0
    return out


class TestConfig:
    def test_defaults(self):
        cfg = resolve_config(None)
        assert cfg["data.interval"] == 21_600
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
            "engine.sharpe_filter": "false", "rebalance.gamma_long": gamma,
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
        assert run_label(cfg, bt) == "AdaptiveTrend (70/30) [fixed_params]"

        cfg["run.variant"] = "symmetric_allocation"
        assert run_label(cfg, bt) == \
            "AdaptiveTrend (50/50) [symmetric_allocation]"

        cfg["run.variant"] = "full"
        cfg["run.label"] = "My Run"
        assert run_label(cfg, bt) == "My Run"


class TestValidateData:
    def test_valid_directory(self, ws, capsys):
        assert main(["validate-data", "--data-dir", str(ws.data)]) == 0
        out = capsys.readouterr().out
        assert "SYM00.csv: OK" in out
        assert "market_caps.csv: OK" in out
        assert "7/7 files valid" in out

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
        ("regimes.window_days = 0", "shorter than one 21600 s bar")],
        ids=["universe_size", "vol_target", "alpha", "lookback",
             "theta_entry_short", "window_days"])
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

    def test_timeframe_axis_needs_divisible_source(self, ws, tmp_path,
                                                   capsys):
        out = tmp_path / "sweep_tf"
        assert main(["sweep", "--config", str(ws.cfg), "--out", str(out),
                     "--axis", "timeframe"]) == 1
        assert "does not divide" in capsys.readouterr().err

    def test_timeframe_axis_on_hourly_data(self, tmp_path):
        data = tmp_path / "hourly"
        assert main(["synth", "--out", str(data), "--seed", "3", "--symbols",
                     "4", "--interval", "3600",
                     "--regimes", "1560:0.4:0.5"]) == 0
        cfg = write_config(tmp_path / "tf.cfg", data,
                           extra="data.interval = 3600\n")
        out = tmp_path / "sweep_tf"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--axis", "timeframe"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("timeframe_s,")
        assert [r.split(",")[0] for r in rows[1:]] == \
            ["3600", "14400", "21600", "28800", "43200", "86400"]


class TestBootstrap:
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


class TestTopLevel:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_write_json_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "metrics.json"
        with pytest.raises(ValueError):
            write_json(str(path), {"metrics": {"ann_return": value}})
        assert not path.exists()
        write_json(str(path), {"metrics": {"ann_return": -1.0}})
        assert json.loads(path.read_text()) == {"metrics": {"ann_return": -1.0}}

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
