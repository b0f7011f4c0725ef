"""The process entry of ``python -m effport`` and of the installed ``effport`` script: the
collector is off, OpenBLAS runs one thread by default, and every object is frozen at exit."""

import gc
import os
import sys


def main() -> None:
    # Nearly every object lives until exit (numpy's alone about 21 000), so a
    # command's collections would free only a few hundred. Frozen objects are
    # also spared the collection at shutdown, which runs with the collector off.
    gc.disable()
    # Read once, when a price command first imports numpy: one thread gives one
    # kernel path whatever the core count, so the last digits of ill-conditioned
    # estimates do not move with the host, and it costs no wall time at the
    # matrix sizes of the commands.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from effport import cli

    code = cli.main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
