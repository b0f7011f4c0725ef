"""The process entry of ``python -m effport`` and of the installed ``effport`` script:
``cli.main`` run with the objects of the imports frozen out of the cyclic collector."""

import gc
import sys


def main() -> None:
    # numpy and effport leave about 21 000 collector-tracked objects that live
    # until exit. Collections during the imports free only a few hundred
    # objects, and once frozen these 21 000 are traversed by no later
    # collection, those at shutdown included. cli.main leaves the collector
    # alone, as it also runs in-process.
    gc.disable()
    from effport import cli

    gc.freeze()
    gc.enable()
    code = cli.main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
