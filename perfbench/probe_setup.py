"""Set-up probe: what a user pays before any backtest work starts.

Imports the package, resolves a workload's config file and loads its
universe with `cli.load_universe`, then prints the symbol and bar counts and
exits. Usage: python3 perfbench/probe_setup.py CONFIG
"""

import sys

from adaptivetrend import cli


def main(config_path: str) -> int:
    cfg = cli.resolve_config(config_path)
    bt_cfg = cli.build_backtest_config(cfg)
    universe, _caps = cli.load_universe(cli.data_dir_from(cfg, None),
                                        bt_cfg.interval)
    print(f"symbols={len(universe)} bars={sum(len(s) for s in universe.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
