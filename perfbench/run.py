"""FuseFlow end-to-end benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same op list once untraced and once traced and prints the per-layer
ledger (see ``perfbench/README.md``).  Every metric is printed by name
with its unit, then one ``perfbench-env`` line recording the environment
and the op-list hash, then, as the last line, the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits non-zero, printing no result, when the program under test
cannot be imported (e.g. outside a checkout holding ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: An untraced run sets up at least this many times, and until set-ups
#: have taken at least ``SETUP_BUDGET_S``; ``setup_s`` is their median
#: (a set-up of a few milliseconds needs many samples to be steady).
SETUPS = 5
SETUP_BUDGET_S = 1.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MiB",
}


def _parse_args(argv: List[str]) -> argparse.Namespace:
    from ops import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Put ``src/`` on the path and import the program under test from it."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return False
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro comes from {repro.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args: argparse.Namespace, ops: List[dict]) -> Dict[str, object]:
    """What a result must carry to be compared with another one."""
    import numpy

    from ops import op_list_hash

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "op_list_sha256": op_list_hash(ops),
    }


def end_to_end(outcome, setup_times: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    latencies = outcome.latencies_ms
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": outcome.attempted / outcome.wall_s,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "ok_share": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def measure(workload, ops: List[dict], trace: bool):
    """Set up, measure the op list untraced (and traced), tear down.

    Returns ``(outcomes, setup_times, tracer)``; ``outcomes`` holds the
    untraced pass, then the traced one when ``trace`` is set.
    """
    from ledger import Tracer, codegen_counters

    setup_times: List[float] = []
    while not setup_times or (
        not trace
        and (len(setup_times) < SETUPS or sum(setup_times) < SETUP_BUDGET_S)
    ):
        if setup_times:
            workload.teardown()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    try:
        outcomes = [workload.measure(ops, None)]
    finally:
        workload.teardown()
    if not trace:
        return outcomes, setup_times, None
    workload.setup()
    tracer = Tracer()
    before = codegen_counters()
    tracer.install()
    try:
        outcomes.append(workload.measure(ops, tracer))
    finally:
        tracer.restore()
        workload.teardown()
    after = codegen_counters()
    for key in after:
        tracer.counters[key] += after[key] - before[key]
    return outcomes, setup_times, tracer


def main(argv: List[str]) -> int:
    sys.path.insert(0, HERE)
    args = _parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not _import_program():
        return 2
    # The program's environment switches would change what is measured.
    for name in [n for n in os.environ if n.startswith("FUSEFLOW_")]:
        del os.environ[name]
    # One op runs at a time, so one CPU suffices; pinning to it (workers
    # inherit the mask) keeps a run from changing speed with whichever
    # CPU the scheduler picks, on hosts whose CPUs run at different speeds.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from ledger import PER_LAYER, layer_metrics
    from ops import make_ops
    from workloads import RUNNERS

    ops = make_ops(args.workload, args.seed, args.seconds)
    tmp_root = os.path.join(ROOT, ".perfbench-tmp", f"run-{os.getpid()}")
    os.makedirs(tmp_root, exist_ok=True)
    try:
        workload = RUNNERS[args.workload](tmp_root)
        outcomes, setup_times, tracer = measure(workload, ops, bool(args.trace))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass  # another run still uses it

    plain = outcomes[0]
    if tracer is None:
        values = end_to_end(plain, setup_times)
        units = END_TO_END
    else:
        traced = outcomes[1]
        values = layer_metrics(tracer)
        plain_rate = plain.attempted / plain.wall_s
        values["trace.overhead_share"] = (
            plain_rate - traced.attempted / traced.wall_s
        ) / plain_rate
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    for name, unit in units.items():
        print(f"{name:45s} {values[name]:16.4f} {unit}")
    p90 = statistics.quantiles(plain.latencies_ms, n=10)[8]
    beyond = sum(1 for ms in plain.latencies_ms if ms > p90)
    print(f"{'ops beyond p90 (untraced pass)':45s} {beyond:16d} count")
    for outcome in outcomes:
        for problem in outcome.problems:
            print(f"failed op: {problem}")
    print("perfbench-env " + json.dumps(environment(args, ops), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
