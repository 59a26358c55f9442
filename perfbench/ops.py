"""Seeded op lists for the three workloads.

An op list is plain data (dicts of str/int), generated from the workload
seed alone by :class:`random.Random`; nothing here imports the program
under test.  The same seed always yields the same list, and
:func:`op_list_hash` gives the sha256 recorded with every result so two
runs can be shown to have measured identical inputs.

The op count is fixed by ``--seconds`` through a per-workload rate
(:data:`OPS_PER_SECOND`), never by how fast the machine is: the serve
front end keeps one model bundle per distinct ``model_args`` without
bound, so a run that measured "as many ops as fit" would grow its memory
with its own speed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

#: The canonical golden-trace configurations (``tests/golden/*.json``):
#: small enough to simulate in tens of milliseconds, large enough to
#: exercise every primitive class of each model.
GOLDEN: Dict[str, Dict[str, int]] = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}

#: The deeper serving-sized gpt3 that the restart workload also caches.
GPT3_DEEP = {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 4, "seed": 0}

#: Backends a client may pick ("" is the session default, columnar).
BACKENDS = ("", "codegen")

#: Ops per requested second, calibrated so a run measures for about
#: ``--seconds`` on a 2-core x86 machine.
OPS_PER_SECOND = {"serve-mixed": 17, "sweep-cold": 19, "restart-warm-disk": 7}

#: Split configurations the sweep pairs with every fusion partition
#: (index variables of the traced models; a region that does not iterate
#: one is left unsplit by the split-indices pass).
SWEEP_SPLITS = ({"x1": 2}, {"x1": 4}, {"x2": 4})

#: Candidate schedules per model in the sweep: 16 fusion partitions x
#: the unsplit baseline and the split configs.  A 32-partition
#: enumeration also reaches gpt3 partitions that lower but then fail in
#: simulation with a StreamProtocolError under every backend, a known
#: defect of the program listed in README.md; the benchmark measures a
#: space on which every op passes.
SWEEP_CANDIDATES = 16 * (1 + len(SWEEP_SPLITS))

#: Largest share of the sweep space one run draws, so every seed leaves
#: out a different set of points.
SWEEP_SHARE = 15 / 16

WORKLOADS = tuple(OPS_PER_SECOND)


def op_count(workload: str, seconds: int) -> int:
    """Ops one run of ``workload`` measures for ``seconds``."""
    return max(1, OPS_PER_SECOND[workload] * seconds)


def op_list_hash(ops: List[dict]) -> str:
    """sha256 over the canonical JSON rendering of an op list."""
    rendering = json.dumps(ops, sort_keys=True)
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

#: Upper end of the client think time before each serve request, ms
#: (one timer tick at the common 250 Hz).
THINK_MS = 4.0

#: One block of the serve mix: request class -> ops per block of 20.  Each
#: block is shuffled, so every run holds the classes in exactly these
#: shares.  Latencies sort by class: memo repeats; raw compiles, sae and
#: gpt3 on codegen; gcn on codegen and gpt3 on columnar; gcn on columnar;
#: graphsage on codegen; graphsage on columnar.  The shares put the p50
#: inside the gcn columnar cluster and the p90 inside graphsage columnar,
#: never on a gap between two classes.
SERVE_BLOCK = {
    "repeat": 3,
    "compile": 1,
    "sae/": 1,
    "sae/codegen": 1,
    "gpt3/codegen": 1,
    "gcn/codegen": 1,
    "gpt3/": 1,
    "gcn/": 3,
    "graphsage/codegen": 2,
    "graphsage/": 6,
}


def warm_requests() -> List[dict]:
    """Simulate bodies that warm every (model, backend) before measuring."""
    return [
        _model_body(model, backend, GOLDEN[model]["seed"])
        for model in GOLDEN
        for backend in BACKENDS
    ]


def _model_body(model: str, backend: str, data_seed: int) -> dict:
    body = {"model": model, "model_args": dict(GOLDEN[model], seed=data_seed)}
    if backend:
        body["backend"] = backend
    return body


def raw_program(rng: random.Random, name: str) -> dict:
    """A never-seen raw einsum program: a seeded chain of 1-4 statements.

    Returns the request body plus the region count the compile must
    report (one per statement unfused, one fully fused).
    """
    rows, inner, cols = (rng.randint(4, 12) for _ in range(3))
    lines = [
        f"tensor A({rows}, {inner}): csr",
        f"tensor B({inner}, {cols}): dense",
        f"tensor b({cols}): dv",
        "T0(i, j) = A(i, k) * B(k, j)",
    ]
    tails = [
        "relu(T{p}(i, j))",
        "T{p}(i, j) + b(j)",
        "softmax[j](T{p}(i, j))",
        "exp(T{p}(i, j))",
    ]
    statements = 1 + rng.randint(0, 3)
    for n in range(1, statements):
        lines.append(f"T{n}(i, j) = " + rng.choice(tails).format(p=n - 1))
    schedule = rng.choice(("unfused", "full"))
    body = {
        "program": "\n".join(lines) + "\n",
        "name": name,
        "schedule": schedule,
    }
    backend = rng.choice(BACKENDS)
    if backend:
        body["backend"] = backend
    return {
        "body": body,
        "regions": statements if schedule == "unfused" else 1,
    }


def _blocks(rng: random.Random, block: Dict[str, int], count: int) -> List[str]:
    """``count`` class names: shuffled copies of ``block``, truncated."""
    template = [name for name, n in block.items() for _ in range(n)]
    names: List[str] = []
    while len(names) < count:
        shuffled = list(template)
        rng.shuffle(shuffled)
        names.extend(shuffled)
    return names[:count]


def serve_mixed_ops(seed: int, count: int) -> List[dict]:
    """Closed-loop request list: fresh-seed simulates, repeats, compiles.

    Each op carries a think time the client waits before sending it
    (uniform in ``[0, THINK_MS)``, not part of its latency).  Without it
    the closed loop phase-locks to the kernel's timer tick, which
    quantizes every round trip that waits on a delayed ACK to whole
    ticks.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    data_seeds = rng.sample(range(1, 10**6), count)
    last: Dict[str, dict] = {}
    ops: List[dict] = []
    for index, name in enumerate(_blocks(rng, SERVE_BLOCK, count)):
        if name == "compile":
            op = {"kind": "compile", **raw_program(rng, f"gen{seed}x{index}")}
        elif name == "repeat":
            # The latest request for some (model, backend): its bundle and
            # functional/timed memo entries are still live in the server.
            slot = rng.choice(sorted(last)) if last else None
            body = last[slot] if slot else warm_requests()[0]
            op = {"kind": "repeat", "body": body}
        else:
            model, backend = name.split("/")
            body = _model_body(model, backend, data_seeds[index])
            last[name] = body
            op = {"kind": "simulate", "body": body}
        op["think_ms"] = round(rng.uniform(0.0, THINK_MS), 3)
        ops.append(op)
    return ops


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------


def sweep_cold_ops(seed: int, count: int) -> List[dict]:
    """Distinct (golden model, candidate schedule, backend) sweep points.

    A seeded draw without replacement of at most :data:`SWEEP_SHARE` of
    the space, visited in grid order (model, candidate, backend) as a
    sweep grid expands.  The order is fixed because a point's cost
    depends on what ran before it (codegen reuses compiled sources
    across regions); only the draw varies with the seed.
    """
    rng = random.Random(f"sweep-cold/{seed}")
    space = [
        {"model": model, "candidate": index, "backend": backend}
        for model in sorted(GOLDEN)
        for index in range(SWEEP_CANDIDATES)
        for backend in BACKENDS
    ]
    limit = int(len(space) * SWEEP_SHARE)
    keep = sorted(rng.sample(range(len(space)), min(count, limit)))
    return [space[i] for i in keep]


# ----------------------------------------------------------------------
# restart-warm-disk
# ----------------------------------------------------------------------

#: Cached (model key, model_args) pairs the restart workload draws from.
RESTART_MODELS = {**{m: GOLDEN[m] for m in GOLDEN}, "gpt3-deep": GPT3_DEEP}

#: One block of the restart mix: "model/backend" -> workers per block of
#: 20, all on the partial (serve default) schedule.  Worker latencies sort
#: as sae, then graph models and gpt3 on columnar; sae and gcn on codegen
#: with deep gpt3 on columnar (one overlapping cluster); graphsage on
#: codegen; gpt3 on codegen; deep gpt3 on codegen.  The shares put the
#: p50 inside the middle cluster and the p90 inside gpt3 codegen.
RESTART_BLOCK = {
    "sae/": 1,
    "gpt3/": 2,
    "gcn/": 1,
    "graphsage/": 1,
    "sae/codegen": 2,
    "gcn/codegen": 3,
    "gpt3-deep/": 3,
    "graphsage/codegen": 1,
    "gpt3/codegen": 5,
    "gpt3-deep/codegen": 1,
}

RESTART_SCHEDULE = "partial"


def restart_entries() -> List[dict]:
    """Every (model, schedule, backend) the set-up writes to disk."""
    return [
        {"model": key, "schedule": RESTART_SCHEDULE, "backend": backend}
        for key in sorted(RESTART_MODELS)
        for backend in BACKENDS
    ]


def restart_warm_disk_ops(seed: int, count: int) -> List[dict]:
    """One cached entry per fresh worker, in shuffled blocks."""
    rng = random.Random(f"restart-warm-disk/{seed}")
    ops = []
    for name in _blocks(rng, RESTART_BLOCK, count):
        model, backend = name.split("/")
        ops.append(
            {"model": model, "schedule": RESTART_SCHEDULE, "backend": backend}
        )
    return ops


GENERATORS = {
    "serve-mixed": serve_mixed_ops,
    "sweep-cold": sweep_cold_ops,
    "restart-warm-disk": restart_warm_disk_ops,
}


def make_ops(workload: str, seed: int, seconds: int) -> List[dict]:
    """The op list one run of ``workload`` measures."""
    return GENERATORS[workload](seed, op_count(workload, seconds))
