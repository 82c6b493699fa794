"""The CLI's error contract. Input the program rejects makes `main` print
`error: …` as the last line on stderr and return 1, and leaves `--out`
unwritten; no exception escapes `main`. Hypothesis checks this over
adversarial config values, mutated data directories and mutated run
directories, and an `ast` scan of cli.py keeps `main` the one place that
prints `error:`. Scans of `src/` keep one opener of text files, and keep
the pricing rules called from `cost_model` alone."""

import ast
import contextlib
import glob
import io
import os
import re
import shutil
import string
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from adaptivetrend import cli
from adaptivetrend.cli import CONFIG_SCHEMA, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

CONFIG = """\
data.dir = {data}
run.start = 2022-02-01
run.end = 2022-03-31
rebalance.k_long = 2
rebalance.k_short = 2
rebalance.gamma_long = -100
rebalance.gamma_short = -100
grid.theta_entry = 0.01,0.03
grid.theta_entry_short = 0.01,0.03
grid.alpha = 2.0
grid.lookback = 4
grid.atr_window = 3
benchmarks.kinds = btc_bh,vol_scaled_tsmom
costs.funding_rates_file = {data}/funding_rates.csv
"""

FUNDING = "timestamp,symbol,rate_8h\n" + "".join(
    f"{1_643_673_600 + k * 28_800},SYM0{k % 3},{0.0001 * (k - 4)}\n"
    for k in range(12))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Six symbols of 6-hour bars over three months with their caps and a
    funding table; a backtest run of them, with a bootstrap.json and a
    sweep.csv; and a second run for bootstrap to compare with."""
    root = tmp_path_factory.mktemp("contract")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "5", "--symbols",
                 "6", "--regimes", "180:0.6:0.5,180:-0.4:0.6"]) == 0
    (data / "funding_rates.csv").write_text(FUNDING)
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG.format(data=data))
    run, other = root / "run", root / "other"
    assert main(["backtest", "--config", str(cfg), "--out", str(run)]) == 0
    half = root / "half.cfg"
    half.write_text(CONFIG.format(data=data) + "rebalance.long_ratio = 0.5\n")
    assert main(["backtest", "--config", str(half), "--out", str(other)]) == 0
    assert main(["bootstrap", "--run-a", str(run), "--run-b", str(other),
                 "--out", str(run), "--reps", "20", "--block", "5"]) == 0
    # A report's sensitivity surface reads the alpha, lambda and sharpe
    # columns, so the run gets an alpha_lambda-shaped table.
    (run / "sweep.csv").write_text("alpha,lambda,sharpe\n1.0,0.5,0.25\n"
                                   "2.0,0.5,-0.5\n1.0,0.7,0.75\n")
    bad = root / "bad"
    bad.mkdir()
    (bad / "not_utf8.csv").write_bytes(b"\xff\xfe")
    return SimpleNamespace(data=data, run=run, other=other,
                           missing=str(bad / "missing.csv"), directory=str(bad),
                           not_utf8=str(bad / "not_utf8.csv"))


def run_main(argv, out):
    """main(argv) in process, checked against the contract; the exit
    status."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    lines = err.getvalue().splitlines()
    assert status in (0, 1)
    if status == 1:
        assert lines and lines[-1].startswith("error:"), lines
        assert not os.path.exists(out)
    return status


# ---------------------------------------------------------------------------
# Config fuzzing

def adversarial(world):
    return st.sampled_from(["", "   ", "nan", "inf", "-inf", "0", "-1",
                            "1e308", "9" * 40, "no_such_name", world.missing,
                            world.directory, world.not_utf8])


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from([["backtest"], ["sweep", "--axis", "fee_bps"]]),
       data=st.data())
def test_adversarial_config_values(world, command, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(CONFIG_SCHEMA)),
                              min_size=1, max_size=3, unique=True), label="keys")
    lines = [f"{key} = {data.draw(adversarial(world), label=key)}"
             for key in keys]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(CONFIG.format(data=world.data) + "\n".join(lines) + "\n")
        out = os.path.join(tmp, "out")
        run_main(command + ["--config", cfg, "--out", out], out)


# ---------------------------------------------------------------------------
# Data and run-directory fuzzing

MUTATIONS = ("drop", "duplicate", "garble", "nan", "inf", "empty",
             "header_only", "directory", "not_utf8")
# A number standing alone: not part of a name such as SYM00.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")
JUNK = st.text(string.ascii_letters + " #!?;", min_size=1, max_size=12)


def mutate(path, mutation, data):
    """Spoil the file at path in the way ``mutation`` names; the line it
    changes, after the first, is drawn from ``data``."""
    if mutation == "directory":
        os.remove(path)
        os.mkdir(path)
        return
    with open(path, "rb") as fh:
        lines = fh.read().decode().splitlines(keepends=True)
    if mutation == "not_utf8":
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i] = "\udcff" + lines[i]
    elif mutation in ("empty", "header_only"):
        lines = lines[:1] if mutation == "header_only" else []
    else:
        numbered = [i for i, line in enumerate(lines[1:], 1)
                    if mutation not in ("nan", "inf") or NUMBER.search(line)]
        i = data.draw(st.sampled_from(numbered), label="line")
        if mutation == "drop":
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        elif mutation == "garble":
            lines[i] = data.draw(JUNK, label="junk") + "\n"
        else:
            spans = [m.span() for m in NUMBER.finditer(lines[i])]
            a, b = data.draw(st.sampled_from(spans), label="number")
            lines[i] = lines[i][:a] + mutation + lines[i][b:]
    with open(path, "wb") as fh:
        fh.write("".join(lines).encode("utf-8", "surrogateescape"))


# (command, file kind, mutation) -> the README text that documents why the
# command accepts the mutated file. An exit of 0 anywhere else fails.
DOCUMENTED = {
    **{(command, kind, mutation): phrase
       for command in ("validate-data", "backtest")
       for kind, mutation, phrase in (
           ("ohlcv", "drop", "a sparse series keeps its missing bars as gaps"),
           ("ohlcv", "header_only", "header-only file loads as an empty series"),
           ("caps", "drop", "A symbol without a record on a snapshot's date "
                            "has no cap on it"),
           ("caps", "header_only", "A missing or header-only "
                                   "`market_caps.csv` has no snapshot"),
           ("funding", "drop", "A symbol's funding rate steps at each of its "
                               "records"),
           ("funding", "header_only", "a header-only table charges the flat "
                                      "rate throughout"))},
    **{("report", kind, mutation): "Rows of `regime_metrics.csv` or "
       "`sweep.csv` that are dropped, repeated or not finite, or absent after "
       "the header"
       for kind in ("regimes", "sweep")
       for mutation in ("drop", "duplicate", "nan", "inf", "header_only")},
    **{("report", "equity", mutation): "equity samples dropped or repeated, "
       "or absent" for mutation in ("drop", "duplicate", "header_only")},
    **{("report", kind, mutation): "JSON whose shown values were edited or "
       "whose other keys were dropped or repeated"
       for kind in ("metrics", "bootstrap")
       for mutation in ("drop", "duplicate", "nan", "inf")},
    ("report", "sweep", "empty"): "an empty one included, draws no "
                                  "sensitivity surface",
}


def test_documented_paths_are_in_the_readme():
    with open(README) as fh:
        readme = " ".join(fh.read().split())
    assert not {phrase for phrase in DOCUMENTED.values()
                if " ".join(phrase.split()) not in readme}


def data_file(kind, symbol):
    return {"ohlcv": f"{symbol}.csv", "caps": "market_caps.csv",
            "funding": "funding_rates.csv"}[kind]


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["validate-data", "backtest"]),
       kind=st.sampled_from(["ohlcv", "caps", "funding"]),
       mutation=st.sampled_from(MUTATIONS),
       symbol=st.sampled_from([f"SYM{j:02d}" for j in range(6)]),
       data=st.data())
def test_mutated_data_directory(world, command, kind, mutation, symbol, data):
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        shutil.copytree(world.data, data_dir)
        mutate(os.path.join(data_dir, data_file(kind, symbol)), mutation, data)
        out = os.path.join(tmp, "out")
        if command == "validate-data":
            argv = ["validate-data", "--data-dir", data_dir]
        else:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write(CONFIG.format(data=data_dir))
            argv = ["backtest", "--config", cfg, "--out", out]
        if run_main(argv, out) == 0:
            assert (command, kind, mutation) in DOCUMENTED


@pytest.mark.parametrize("command", ["validate-data", "backtest"])
def test_funding_rate_beyond_one_is_rejected(world, command, tmp_path,
                                             capsys):
    # 1e308 is finite, yet a position's funding of it overflows mid-run; the
    # table's rates are bounded as funding_rate_per_8h is.
    data = tmp_path / "data"
    shutil.copytree(world.data, data)
    with open(data / "funding_rates.csv", "a") as fh:
        fh.write(f"{1_643_673_600 + 12 * 28_800},SYM00,1e308\n")
    out = str(tmp_path / "out")
    if command == "validate-data":
        argv = ["validate-data", "--data-dir", str(data)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.format(data=data))
        argv = ["backtest", "--config", str(cfg), "--out", out]
    assert main(argv) == 1
    shown = capsys.readouterr()
    assert (f"{data / 'funding_rates.csv'}: line 14: rate must lie in"
            " [-1, 1], got 1e+308") in shown.out + shown.err
    assert shown.err.splitlines()[-1].startswith("error:")
    assert not os.path.exists(out)


@pytest.mark.parametrize("row, message", [
    (f"{1_643_673_600 + 12 * 28_800},SYM00,1e308",
     "rate must lie in [-1, 1], got 1e+308"),
    ("1643673600,SYM00,0.0002", "duplicate record for SYM00 1643673600"),
    (f"{2**63},SYM00,0.0001", f"timestamp must lie in int64, got {2**63}"),
    (f"{-2**63 - 1},SYM01,0.0001",
     f"timestamp must lie in int64, got {-2**63 - 1}"),
], ids=["rate", "repeat", "above-int64", "below-int64"])
def test_validate_data_names_the_line_of_a_bad_funding_record(
        world, row, message, tmp_path, capsys):
    # A timestamp outside int64 was accepted, and a table of int64 columns
    # would raise an OverflowError that main does not catch.
    data = tmp_path / "data"
    shutil.copytree(world.data, data)
    with open(data / "funding_rates.csv", "a") as fh:
        fh.write(row + "\n")
    assert main(["validate-data", "--data-dir", str(data)]) == 1
    shown = capsys.readouterr()
    assert (f"funding_rates.csv: FAIL: {data / 'funding_rates.csv'}: line 14:"
            f" {message}\n") in shown.out
    assert "Traceback" not in shown.out + shown.err
    assert shown.err.splitlines() == ["error: 1 of 8 files invalid"]


# run-directory file kind -> its path under the run directory
ARTIFACTS = {"metrics": "metrics.json", "equity": "equity.csv",
             "regimes": "regime_metrics.csv", "bootstrap": "bootstrap.json",
             "sweep": "sweep.csv",
             "benchmark_metrics": "benchmarks/btc_bh/metrics.json",
             "benchmark_equity": "benchmarks/btc_bh/equity.csv"}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["report", "bootstrap"]),
       mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_run_directory(world, command, mutation, data):
    kind = ("equity" if command == "bootstrap"  # the one file bootstrap reads
            else data.draw(st.sampled_from(sorted(ARTIFACTS)), label="kind"))
    with tempfile.TemporaryDirectory() as tmp:
        run = os.path.join(tmp, "run")
        shutil.copytree(world.run, run)
        mutate(os.path.join(run, ARTIFACTS[kind]), mutation, data)
        if command == "report":
            out = os.path.join(run, "report.md")
            argv = ["report", "--out", run]
        else:
            out = os.path.join(tmp, "out")
            argv = ["bootstrap", "--run-a", run, "--run-b", str(world.other),
                    "--out", out, "--reps", "20", "--block", "5"]
        if run_main(argv, out) == 0:
            assert (command, kind.replace("benchmark_", ""),
                    mutation) in DOCUMENTED


# ---------------------------------------------------------------------------
# One error boundary

def _prints_error(node):
    """Whether node is a print call whose first argument starts `error:`."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None)
            == "print" and node.args):
        return False
    first = node.args[0]
    if isinstance(first, ast.JoinedStr):
        first = first.values[0] if first.values else None
    return isinstance(first, ast.Constant) and str(first.value).startswith(
        "error:")


def test_main_is_the_one_error_boundary():
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    printers = {fn.name for fn in functions
                if any(map(_prints_error, ast.walk(fn)))}
    assert printers == {"main"}
    handlers = {fn.name for fn in functions if fn.name.startswith("cmd_")
                and any(isinstance(node, ast.ExceptHandler)
                        for node in ast.walk(fn))}
    assert not handlers


def _reads_text(node):
    """Whether node calls the builtin open with a mode that reads text."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None)
            == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    mode = "r" if mode is None else getattr(mode, "value", "")
    return "r" in mode and "b" not in mode


def test_text_files_are_read_through_one_opener():
    readers = set()
    for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        readers |= {(os.path.basename(path), fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    and any(map(_reads_text, ast.walk(fn)))}
    assert readers == {("market_data.py", "opened")}


def test_pricing_is_called_in_cost_model_alone():
    # Every booking prices through cost_model's trade_fills and
    # funding_paid, so no other module may reach the rules behind them.
    pricing = {"fill_costs", "funding_events", "funding_rates_at"}
    callers = set()
    for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        callers |= {os.path.basename(path) for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None)
                        or getattr(node.func, "attr", None)) in pricing}
    assert callers == {"cost_model.py"}
