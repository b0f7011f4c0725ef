"""Write price panels with effport's own CSV writer, as a user script would.

Usage: python perfbench/writeprices.py DRAWS.npy OUT.csv [DRAWS.npy OUT.csv ...]

Each DRAWS.npy holds a (T, M) matrix of +-1 returns; it is compounded at
return scale 0.01 from a base price of 100 with
``marketdata.panel_from_returns`` and written with
``marketdata.write_prices_csv``.
"""

import sys

import numpy as np

from effport import marketdata


def main(argv) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    for src, dest in zip(argv[::2], argv[1::2]):
        panel = marketdata.panel_from_returns(np.load(src), scale=0.01)
        marketdata.write_prices_csv(panel, dest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
