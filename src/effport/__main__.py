"""The process entry of ``python -m effport`` and of the installed ``effport`` script:
the cyclic collector is off for the whole process, and every object is frozen once before exit."""

import gc
import sys


def main() -> None:
    # Nearly every object lives until exit (numpy's alone about 21 000), so a
    # command's collections would free only a few hundred. Frozen objects are
    # also spared the collection at shutdown, which runs with the collector off.
    gc.disable()
    from effport import cli

    code = cli.main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
