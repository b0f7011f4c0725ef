"""effport benchmark: the batch CLI timed as a user meets it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see ``workloads.py``) is a closed loop with one client: it runs
the commands of its pass back to back, each as a fresh ``python -m effport``
process at the default OpenBLAS thread count, and repeats whole passes while
the next one still fits in S seconds. This script starts at most one child at
a time.

``--trace 0`` prints the end-to-end metrics: the median over passes of the
pass's total wall time (``wall_s``) and of the largest child peak RSS, the
share of commands that exited 0 and passed their oracle (``ok_rate``), and
``setup_s``, the median of five set-ups (input generation plus one warm-up
``import effport.cli`` process). Each command's own fresh-process wall times
go to the run record only: a command has a time on one workload, and every
end-to-end metric must exist on every workload.

``--trace 1`` replays all eight steps in-process with span wrappers around
every public function of the traced modules (``perfbench/traced.py``), once at
the default thread count and once with ``OPENBLAS_NUM_THREADS=1`` (metrics
prefixed ``t1.``), and prints per-layer metrics, each step's untraced
in-process wall time, its span coverage and its tracing overhead.

Both modes check every output against an independent numpy oracle and
require every rerun of a step to be byte-identical (sha256). The last stdout
line is the result: ``{"correct", "attempted", "failed", "metrics"}``. A
record with environment metadata, seeds, hashes and per-pass figures goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
STEP_TIMEOUT_S = 120.0


class SetupError(Exception):
    pass


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update(extra or {})
    return env


def run_child(argv: list[str], cwd: Path, env, stdout, stderr, timeout: float):
    """Run one child to completion; return (wall_s, peak_rss_mb, exit_code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup(workload: str, seed: int, size: str, env) -> tuple[float, dict]:
    """Generate the inputs and warm up one fresh ``import effport``."""
    inputs = WORK / workload / "inputs"
    t0 = time.perf_counter()
    shutil.rmtree(inputs, ignore_errors=True)
    workloads.make_inputs(workload, seed, size, inputs)
    warm = subprocess.run(
        [sys.executable, str(HERE / "envinfo.py")],
        env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if warm.returncode != 0:
        raise SetupError(f"cannot import effport from {ROOT / 'src'}:\n{warm.stderr}")
    info = json.loads(warm.stdout)
    if not Path(info["effport_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"effport imported from {info['effport_file']}, not from src/")
    return elapsed, info


def step_argv(step: workloads.Step) -> list[str]:
    if step.is_cli:
        return [sys.executable, "-m", "effport", *step.args]
    return [sys.executable, str(HERE / "writeprices.py"), *step.args]


def oracle_problems(steps, run_dir: Path) -> dict[str, list[str]]:
    out = {}
    for step in steps:
        try:
            out[step.name] = step.check(run_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out[step.name] = [f"unreadable output: {exc!r}"]
    return out


def score(steps, run_dir: Path, invocations: list[dict]) -> tuple[int, dict]:
    """Count failed invocations: non-zero exit, oracle miss, or bytes that
    differ from the checked final output. Oracle misses go to stderr."""
    problems = oracle_problems(steps, run_dir)
    for name, found in problems.items():
        for problem in found:
            print(f"check failed: {run_dir.name}/{name}: {problem}", file=sys.stderr)
    final = {step.name: workloads.output_hashes(run_dir, step) for step in steps}
    failed = 0
    for inv in invocations:
        bad = inv["rc"] != 0 or problems[inv["step"]] or inv["sha256"] != final[inv["step"]]
        failed += bool(bad)
    return failed, {"problems": problems, "sha256": final}


def run_e2e(args, steps, env) -> tuple[dict, int, int, dict]:
    steps = [s for s in steps if s.name in workloads.WORKLOADS[args.workload].main]
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [setup(args.workload, args.seed, args.size, env) for _ in range(repeats)]
    run_dir = WORK / args.workload / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    passes, invocations = [], []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= args.seconds:
        pass_start = time.perf_counter()
        walls, rss = {}, []
        for step in steps:
            with open(run_dir / workloads.stdout_name(step.name), "wb") as out, open(
                run_dir / f"{step.name}.stderr", "wb"
            ) as err:
                wall, peak, rc = run_child(step_argv(step), run_dir, env, out, err, STEP_TIMEOUT_S)
            walls[step.name] = wall
            rss.append(peak)
            invocations.append({
                "step": step.name,
                "pass": len(passes),
                "rc": rc,
                "wall_s": wall,
                "peak_rss_mb": peak,
                "sha256": workloads.output_hashes(run_dir, step),
            })
        passes.append({"walls": walls, "peak_rss_mb": max(rss)})
        last = time.perf_counter() - pass_start

    failed, checked = score(steps, run_dir, invocations)
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "wall_s": (statistics.median(sum(p["walls"].values()) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_rate": ((len(invocations) - failed) / len(invocations), "ratio"),
    }
    record = {
        "env": setups[0][1],
        "setup_s": [s[0] for s in setups],
        "step_s": {
            step.name: statistics.median(p["walls"][step.name] for p in passes)
            for step in steps
        },
        "passes": passes,
        "invocations": invocations,
        **checked,
    }
    return metrics, len(invocations), failed, record


def run_traced(args, steps, env) -> tuple[dict, int, int, dict]:
    _, info = setup(args.workload, args.seed, args.size, env)
    children = {}
    attempted = failed = 0
    for label, extra in (("default", {}), ("t1", {"OPENBLAS_NUM_THREADS": "1"})):
        run_dir = WORK / args.workload / f"trace-{label}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        budget = args.seconds / 2
        argv = [sys.executable, str(HERE / "traced.py"), args.workload, str(args.seed),
                args.size, str(budget), str(run_dir)]
        with open(run_dir / "traced.stderr", "wb") as err:
            _, _, rc = run_child(argv, run_dir, child_env(extra), subprocess.DEVNULL, err,
                                 budget + STEP_TIMEOUT_S)
        if rc != 0:
            sys.stderr.write((run_dir / "traced.stderr").read_text())
            raise RuntimeError(f"traced run ({label}) exited with {rc}")
        record = json.loads((run_dir / "trace.json").read_text())
        child_failed, checked = score(steps, run_dir, record["invocations"])
        attempted += len(record["invocations"])
        failed += child_failed
        children[label] = {**record, **checked}

    metrics = {}
    for label, record in children.items():
        prefix = "" if label == "default" else "t1."
        for name, unit in tracer.layer_metrics().items():
            if prefix and unit not in tracer.TIME_UNITS:
                continue
            if name == "cli.import_s":
                value = record["import_s"]
            else:
                value = statistics.median(p[name] for p in record["passes"])
            metrics[prefix + name] = (value, unit)
    default = children["default"]
    for step in steps:
        walls = {
            traced: statistics.median(
                inv["wall_s"] for inv in default["invocations"]
                if inv["step"] == step.name and inv["traced"] == traced
            )
            for traced in (False, True)
        }
        metrics[f"step.{step.name}_s"] = (walls[False], "s")
        metrics[f"coverage.{step.name}"] = (
            statistics.median(default["coverage"][step.name]), "ratio"
        )
        metrics[f"overhead.{step.name}_s"] = (walls[True] - walls[False], "s")
    return metrics, attempted, failed, {"env": info, "children": children}


def source_loc() -> int:
    """Non-blank, non-comment lines of ``src/effport``."""
    total = 0
    for path in sorted((ROOT / "src" / "effport").glob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up, for the smoke test")
    args = parser.parse_args(argv)
    args.size = "small" if args.smoke else "full"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/effport/cli.py", "data/synthetic_prices.csv")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an effport checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = child_env()
    steps = workloads.steps(args.workload, args.seed, args.size, ROOT / "data")
    try:
        run = run_traced if args.trace else run_e2e
        metrics, attempted, failed, record = run(args, steps, env)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        size=args.size,
        git_commit=git_commit(),
        src_loc=source_loc(),
        metrics={name: value for name, (value, _) in metrics.items()},
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
