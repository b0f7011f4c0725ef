"""The process entry of ``python -m effport`` and of the installed ``effport`` script:
``cli.main``'s two steps, ``cli.parse`` and ``cli.run``, with the objects of the
imports frozen out of the cyclic collector between them."""

import gc
import sys


def main() -> None:
    # The modules a command runs (numpy's alone about 21 000 collector-tracked
    # objects) live until exit. Collections during the imports free only a
    # few hundred objects, and once frozen these are traversed by no later
    # collection, those at shutdown included. cli.parse imports them with the
    # collector paused, and cli.main, as it also runs in-process, leaves the
    # collector as it found it and freezes nothing.
    gc.disable()
    from effport import cli

    args = cli.parse()
    gc.freeze()
    gc.enable()
    code = cli.run(args)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
