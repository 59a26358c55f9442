"""Self-checks of the benchmark: determinism, exact counts, layer coverage.

Run from the repository root::

    python3 perfbench/check.py            # about two minutes
    python3 perfbench/check.py --seconds 2

Checks, per workload:

* the same seed gives an identical op list and a different seed a
  different one;
* two short traced runs of one seed measure the same op list (by its
  recorded hash), fail no op, report every per-layer metric, and agree
  exactly on the counts a speed-only change must leave alone
  (:data:`ledger.EXACT`);
* every layer the ledger maps to the workload shows nonzero work there
  (:data:`COVERAGE`), so a refactor cannot silently drop a layer.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ledger import EXACT, PASSES, PER_LAYER  # noqa: E402
from ops import WORKLOADS, make_ops, op_list_hash  # noqa: E402

#: Per-layer metrics that must be nonzero on each workload's traced run.
COVERAGE: Dict[str, Tuple[str, ...]] = {
    "serve-mixed": (
        "serve.transport.ms",
        "serve.protocol.calls",
        "sweep.spec.build_bundle.calls",
        "core.einsum.fingerprint.self_ms",
        "driver.session.compile.calls",
        "driver.session.compile.memory_hit_ratio",
        "comal.functional.calls",
        "comal.engine.self_ms",
        "comal.engine.sim_cycles_sum",
        "models.verify.self_ms",
    ),
    "sweep-cold": (
        "driver.session.compile.calls",
        "driver.session.compile.compiled",
        *(f"driver.pipeline.{name}.ms" for name in PASSES),
        "driver.pipeline.infeasible",
        "backend.codegen.emit.calls",
        "backend.codegen.emit.self_ms",
        "backend.codegen.emit.loc",
        "driver.diskcache.put.calls",
        "driver.diskcache.put.bytes",
        "comal.functional.calls",
        "models.verify.self_ms",
    ),
    "restart-warm-disk": (
        "sweep.spec.build_bundle.calls",
        "driver.session.compile.disk_hits",
        "driver.diskcache.get.calls",
        "driver.diskcache.get.hits",
        "backend.codegen.emit.calls",
        "backend.codegen.emit.at_run_calls",
        "comal.functional.calls",
        "comal.engine.self_ms",
        "models.verify.self_ms",
    ),
}


def traced_run(workload: str, seed: int, seconds: int) -> Tuple[dict, dict]:
    """One ``run.py --trace 1`` run: (result object, environment record)."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(
        json.loads(line.split(" ", 1)[1])
        for line in lines
        if line.startswith("perfbench-env ")
    )
    return json.loads(lines[-1]), env


def check_workload(workload: str, seconds: int) -> List[str]:
    """Every failed check of one workload, as messages."""
    problems = []
    same = op_list_hash(make_ops(workload, 1, seconds))
    if same != op_list_hash(make_ops(workload, 1, seconds)):
        problems.append("seed 1 gave two different op lists")
    if same == op_list_hash(make_ops(workload, 2, seconds)):
        problems.append("seeds 1 and 2 gave the same op list")

    runs = [traced_run(workload, 1, seconds) for _ in range(2)]
    for (result, env) in runs:
        if env["op_list_sha256"] != same:
            problems.append("a run measured another op list than its seed gives")
        if not result["correct"] or result["failed"]:
            problems.append(f"{result['failed']} op(s) failed")
        missing = sorted(set(PER_LAYER) - set(result["metrics"]))
        if missing:
            problems.append(f"metrics missing: {missing}")
    first, second = (result["metrics"] for result, _ in runs)
    for name in EXACT:
        if first[name]["value"] != second[name]["value"]:
            problems.append(
                f"{name} differs between two runs: "
                f"{first[name]['value']} vs {second[name]['value']}"
            )
    for name in COVERAGE[workload]:
        if not first[name]["value"] > 0:
            problems.append(f"layer metric {name} is {first[name]['value']}")
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workload or WORKLOADS:
        problems = check_workload(workload, args.seconds)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
