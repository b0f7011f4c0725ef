#!/usr/bin/env python3
"""Regenerate the bundled synthetic sample data under data/.

Usage: ``python scripts/make_sample_data.py [OUT_DIR]`` (default: the
repository's ``data/``).

The panel mimics a small stock universe with a sector structure: four
sectors of ten assets, intra-sector correlations between 0.12 and 0.45 on
top of a weak market-wide factor. Prices follow compounded daily returns.
Deterministic: rerunning writes identical files.
"""

import sys
from pathlib import Path

import numpy as np

from effport.marketdata import panel_from_returns, write_prices_csv

SEED = 20080415
DAYS = 756
SECTORS = {
    "FIN": ("finance", 0.45),
    "TEC": ("technology", 0.30),
    "ENE": ("energy", 0.20),
    "HLT": ("healthcare", 0.12),
}
PER_SECTOR = 10
MARKET_CORR = 0.06
DAILY_VOL = 0.012
DAILY_DRIFT = 0.0003


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "data"
    out_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(SEED)

    market = rng.standard_normal(DAYS)
    returns = []
    assets = []
    sector_rows = []
    for prefix, (sector, intra) in SECTORS.items():
        common = rng.standard_normal(DAYS)
        for j in range(PER_SECTOR):
            name = f"{prefix}{j + 1:02d}"
            assets.append(name)
            sector_rows.append(f"{name},{sector}")
            noise = rng.standard_normal(DAYS)
            shock = (
                np.sqrt(MARKET_CORR) * market
                + np.sqrt(intra - MARKET_CORR) * common
                + np.sqrt(1.0 - intra) * noise
            )
            returns.append(DAILY_DRIFT + DAILY_VOL * shock)

    panel = panel_from_returns(np.column_stack(returns), assets=assets)
    write_prices_csv(panel, out_dir / "synthetic_prices.csv")
    (out_dir / "synthetic_sectors.csv").write_text(
        "asset,sector\n" + "\n".join(sector_rows) + "\n"
    )
    print(f"wrote {out_dir / 'synthetic_prices.csv'} ({panel.n_dates} dates x {panel.n_assets} assets)")
    print(f"wrote {out_dir / 'synthetic_sectors.csv'}")


if __name__ == "__main__":
    main()
