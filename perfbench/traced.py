"""Traced in-process replay of one workload's passes.

Usage: python perfbench/traced.py WORKLOAD SEED SIZE BUDGET_S RUN_DIR

Started by ``run.py --trace 1`` as a child process, once at the default
OpenBLAS thread count and once with ``OPENBLAS_NUM_THREADS=1``. Runs whole
passes while the next one still fits in BUDGET_S (at least one). Each step
runs twice in a row through ``cli.main`` (or the price writer): untraced,
then with span wrappers enabled; the difference is the tracing overhead. The
outputs of both must be byte-identical. Writes ``spans.json`` and
``trace.json`` into RUN_DIR at the end.
"""

import sys
import time

_start = time.perf_counter()
import effport  # noqa: E402  (timed: the import a fresh CLI process pays)

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from effport import cli  # noqa: E402

import envinfo  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import writeprices  # noqa: E402


def run_inproc(step: workloads.Step) -> int:
    with open(workloads.stdout_name(step.name), "w") as out, open(
        f"{step.name}.stderr", "w"
    ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return (cli.main if step.is_cli else writeprices.main)(list(step.args))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # A crash is a failed command, as it would be in a fresh process.
            traceback.print_exc()
            return 1


def main(argv) -> int:
    workload, seed, size, budget, run_dir = argv
    budget = float(budget)
    root = Path(__file__).resolve().parent.parent
    steps = workloads.steps(workload, int(seed), size, root / "data")
    os.chdir(run_dir)

    tr = tracer.Tracer()
    sites = tr.install(effport)
    invocations, passes, coverage = [], [], {}
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= budget:
        pass_start = time.perf_counter()
        first = len(tr.spans)
        for step in steps:
            for traced in (False, True):
                step_first = len(tr.spans)
                with tr.active(f"step.{step.name}") if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    rc = run_inproc(step)
                    wall = time.perf_counter() - t0
                if traced:
                    coverage.setdefault(step.name, []).append(
                        tracer.coverage(tr.spans, step_first, len(tr.spans))
                    )
                invocations.append({
                    "step": step.name,
                    "traced": traced,
                    "pass": len(passes),
                    "rc": rc,
                    "wall_s": wall,
                    "sha256": workloads.output_hashes(Path("."), step),
                })
        passes.append(tracer.summarize(tr.spans, first, len(tr.spans)))
        last = time.perf_counter() - pass_start

    with open("spans.json", "w") as fh:
        json.dump(tr.spans, fh)
    record = {
        "import_s": IMPORT_S,
        "env": envinfo.collect(),
        "sites": sites,
        "passes": passes,
        "coverage": coverage,
        "invocations": invocations,
    }
    with open("trace.json", "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
