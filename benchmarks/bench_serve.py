"""Persistent compile-cache benchmark: warm disk cache vs cold compile.

The serving story (PR 7) rests on one number: how much faster a *cold
process* answers a compile when the shared
:class:`~repro.driver.diskcache.DiskCache` directory is warm.  This
benchmark measures it honestly — every sample runs ``Session.compile``
in a freshly forked child process (no inherited session cache, no warmed
codegen state), timing only the compile path:

``cold``
    A cache *miss*: the full pass pipeline runs and the entry is
    serialized, digested, and atomically written — everything a serving
    process pays the first time it sees a program.  Each sample uses a
    fresh scratch cache directory so every one is a genuine miss.
``warm``
    The shared cache directory holds the entry: read, digest-check,
    unpickle.

Both modes run under each backend (:data:`BACKENDS`).  Under ``codegen``
a compile also emits every region kernel and obtains its code object: a
miss runs ``compile()`` on each emitted source and writes the code
entries, a warm sample loads them from disk with ``marshal.loads``.  The
child drops its in-memory code cache before every codegen sample, so no
sample is served a code object an earlier one compiled.

The committed artifact's headline — and the CI gate — is the warm/cold
ratio on the gpt3 serving hot path (the deepest model, fused schedule),
which must stay >= 5x under the default backend and under codegen.

The artifact also times HTTP round trips through ``fuseflow serve``: an
in-process server on an ephemeral port, one keep-alive connection, and,
after warm-up, interleaved ``GET /healthz`` and memo-hit ``POST
/v1/simulate`` requests for the gcn golden point (median and quartiles).
A response that reached the socket as a head and a separate body would
wait ~40 ms for the client's delayed ACK on every round trip; CI gates
the memo-hit simulate round trip below 10 ms.

Run directly to (re)generate the committed artifact::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json

or via pytest (asserts the acceptance floors)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(__file__))

#: The serving hot path (gpt3, the deepest program) plus a graph model for
#: breadth.  gpt3 uses a multi-layer configuration: serving-sized programs
#: are where compile cost hurts and where the cache pays.
MODELS: Dict[str, Dict[str, object]] = {
    "gpt3": {
        "seq_len": 16,
        "d_model": 8,
        "block": 4,
        "n_layers": 20,
        "seed": 0,
    },
    "gcn": {"nodes": 48, "density": 0.1, "seed": 0},
}

GRANULARITY = "partial"

#: Backend axis: ``""`` is the session default (the columnar interpreter).
BACKENDS = ("", "codegen")

#: The point the HTTP round trips simulate: the gcn golden-trace point.
ROUNDTRIP_POINT = {
    "model": "gcn",
    "model_args": {"nodes": 30, "density": 0.1, "seed": 0},
    "schedule": GRANULARITY,
}

#: Round trips per path in each repeat of the HTTP measurement.
ROUNDTRIPS = 30


def _compile_once(
    model: str,
    model_args: Dict[str, object],
    cache_dir: Optional[str],
    backend: str,
    queue,
) -> None:
    """Child-process body: build the bundle, time one compile.

    Before the timed sample the child compiles and disk-loads a tiny
    *sacrificial* program (different key, scratch cache directory).  That
    pays the process's one-time costs — lazy imports, pickle class
    resolution, pass-pipeline setup — outside the measurement, so the
    sample reflects the per-request cost of each path rather than fork
    start-up jitter.  Both the warm and the cold mode get the identical
    warm-up, keeping the comparison fair.
    """
    from repro.backend.codegen import clear_codegen_caches
    from repro.driver import Session
    from repro.sweep import SweepPoint, build_bundle

    backend_arg = backend or None
    with tempfile.TemporaryDirectory(prefix="ffserve-scratch-") as scratch:
        sacrificial = build_bundle(
            SweepPoint.make("gcn", model_args={"nodes": 12, "seed": 1})
        )
        sacrificial_schedule = sacrificial.schedule(GRANULARITY)
        # Warm the compile path (full pipeline) and write the entry ...
        Session(backend=backend_arg, disk_cache=scratch).compile(
            sacrificial.program, sacrificial_schedule
        )
        clear_codegen_caches()
        # ... then the disk-load path (read, digest, unpickle) from a
        # fresh session over the same scratch directory.
        Session(backend=backend_arg, disk_cache=scratch).compile(
            sacrificial.program, sacrificial_schedule
        )

    bundle = build_bundle(SweepPoint.make(model, model_args=model_args))
    schedule = bundle.schedule(GRANULARITY)
    # Best-of inside the child: each sample uses a fresh Session and an
    # empty code cache (no in-memory carry-over), which filters out fork
    # and scheduler jitter that a single long sample would absorb.  In
    # warm mode every sample reads the shared cache directory; in miss
    # mode every sample gets its own scratch directory, so each pays the
    # full pipeline plus the serialize-digest-write that populates the
    # cache.  Warm samples are roughly an order of magnitude cheaper than
    # miss samples, so the warm mode takes more of them — both floors get
    # a comparable time budget rather than a comparable sample count.
    inner = 9 if cache_dir is not None else 3
    best_ms = float("inf")
    sources = set()
    with tempfile.TemporaryDirectory(prefix="ffserve-miss-") as miss_root:
        for i in range(inner):
            if cache_dir is not None:
                session_cache: object = cache_dir
            else:
                session_cache = os.path.join(miss_root, str(i))
            session = Session(backend=backend_arg, disk_cache=session_cache)
            clear_codegen_caches()
            started = time.perf_counter()
            _, source = session.compile_detailed(bundle.program, schedule)
            best_ms = min(best_ms, (time.perf_counter() - started) * 1e3)
            sources.add(source)
    queue.put({"ms": best_ms, "sources": sorted(sources)})


def _cold_process_compile(
    model: str,
    model_args: Dict[str, object],
    cache_dir: Optional[str],
    backend: str,
    repeats: int,
) -> Tuple[float, set]:
    """Best-of compile wall ms across ``repeats`` fresh child processes."""
    if sys.platform.startswith("linux"):
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-Linux dev machines
        ctx = multiprocessing.get_context()
    best = float("inf")
    sources = set()
    for _ in range(repeats):
        queue = ctx.Queue()
        proc = ctx.Process(
            target=_compile_once,
            args=(model, model_args, cache_dir, backend, queue),
        )
        proc.start()
        sample = queue.get(timeout=600)
        proc.join(timeout=600)
        assert proc.exitcode == 0, f"child failed for {model}"
        best = min(best, sample["ms"])
        sources.update(sample["sources"])
    return best, sources


def _measure_row(
    model: str, model_args: Dict[str, object], backend: str, repeats: int
) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="ffserve-bench-") as cache_dir:
        # Prewarm: one cold child compiles and writes the entry.
        _, prewarm_sources = _cold_process_compile(
            model, model_args, cache_dir, backend, 1
        )
        # The prewarm child's first sample compiles and writes the
        # entry; its later in-child samples already read it back.
        assert "compiled" in prewarm_sources, prewarm_sources
        # Interleave warm and miss children round by round so both
        # minima sample the same temporal window — background load
        # drifting between two separate phases would otherwise skew
        # the ratio either way.
        warm_ms = cold_ms = float("inf")
        warm_sources: set = set()
        cold_sources: set = set()
        for _ in range(repeats):
            ms, sources = _cold_process_compile(
                model, model_args, cache_dir, backend, 1
            )
            warm_ms = min(warm_ms, ms)
            warm_sources.update(sources)
            ms, sources = _cold_process_compile(
                model, model_args, None, backend, 1
            )
            cold_ms = min(cold_ms, ms)
            cold_sources.update(sources)
    assert cold_sources == {"compiled"}, cold_sources
    return {
        "model": model,
        "backend": backend or "default",
        "config": dict(model_args),
        "granularity": GRANULARITY,
        "cold_miss_ms": round(cold_ms, 4),
        "warm_disk_ms": round(warm_ms, 4),
        "disk_speedup": round(cold_ms / warm_ms, 3),
        "warm_sources": sorted(warm_sources),
    }


def _quartiles(samples: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "median_ms": round(median, 4),
        "q1_ms": round(q1, 4),
        "q3_ms": round(q3, 4),
        "samples": len(samples),
    }


def _http_roundtrips(repeats: int) -> Dict[str, Dict[str, float]]:
    """Keep-alive round-trip wall ms for ``/healthz`` and a memo-hit simulate.

    The server runs in this process on its own thread, so it must start
    only after every forked compile child has been joined.
    """
    from repro.serve import make_server

    server = make_server(port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=300)
    simulate = json.dumps(ROUNDTRIP_POINT).encode("utf-8")

    def roundtrip(method: str, path: str, body: Optional[bytes] = None):
        started = time.perf_counter()
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        ms = (time.perf_counter() - started) * 1e3
        assert resp.status == 200, (path, payload)
        return ms, payload

    samples: Dict[str, List[float]] = {"healthz": [], "memo_simulate": []}
    try:
        # Warm-up: the first simulate compiles and fills the functional
        # memo; later ones are memory hits answered from the memo.
        for _ in range(5):
            _, payload = roundtrip("POST", "/v1/simulate", simulate)
            assert payload["verified"], payload
            roundtrip("GET", "/healthz")
        for _ in range(repeats * ROUNDTRIPS):
            samples["healthz"].append(roundtrip("GET", "/healthz")[0])
            ms, payload = roundtrip("POST", "/v1/simulate", simulate)
            assert payload["cache"] == "memory" and payload["verified"]
            samples["memo_simulate"].append(ms)
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    return {name: _quartiles(values) for name, values in samples.items()}


def run_benchmark(repeats: int = 5) -> Dict[str, object]:
    rows = [
        _measure_row(model, model_args, backend, repeats)
        for backend in BACKENDS
        for model, model_args in MODELS.items()
    ]
    gpt3 = {r["backend"]: r for r in rows if r["model"] == "gpt3"}
    roundtrips = _http_roundtrips(repeats)
    return {
        "name": "serve_disk_cache",
        "granularity": GRANULARITY,
        "repeats": repeats,
        "rows": rows,
        "roundtrip_point": ROUNDTRIP_POINT,
        "roundtrips": roundtrips,
        "headline": {
            # The CI gates: a cold process over a warm cache directory
            # must answer the gpt3 hot-path compile >= 5x faster than the
            # uncached miss path (compile + populate the entry), under
            # the default backend and under codegen.
            "gpt3_cold_miss_ms": gpt3["default"]["cold_miss_ms"],
            "gpt3_warm_disk_ms": gpt3["default"]["warm_disk_ms"],
            "gpt3_disk_speedup": gpt3["default"]["disk_speedup"],
            "gpt3_codegen_cold_miss_ms": gpt3["codegen"]["cold_miss_ms"],
            "gpt3_codegen_warm_disk_ms": gpt3["codegen"]["warm_disk_ms"],
            "gpt3_codegen_disk_speedup": gpt3["codegen"]["disk_speedup"],
            # Median keep-alive round trips; the CI gate holds the
            # memo-hit simulate under 10 ms (a delayed-ACK stall is ~40).
            "healthz_roundtrip_ms": roundtrips["healthz"]["median_ms"],
            "memo_simulate_roundtrip_ms": (
                roundtrips["memo_simulate"]["median_ms"]
            ),
        },
    }


def render(payload: Dict[str, object]) -> str:
    lines = [
        f"{'model':8s} {'backend':8s} {'miss ms':>10s} {'warm ms':>10s} "
        f"{'speedup':>8s}"
    ]
    for r in payload["rows"]:
        lines.append(
            f"{r['model']:8s} {r['backend']:8s} {r['cold_miss_ms']:10.3f} "
            f"{r['warm_disk_ms']:10.3f} {r['disk_speedup']:8.2f}"
        )
    head = payload["headline"]
    lines.append("")
    for prefix, label in (("gpt3", "default"), ("gpt3_codegen", "codegen")):
        lines.append(
            f"gpt3 hot path ({label}): warm-disk cold-process compile "
            f"{head[prefix + '_warm_disk_ms']:.3f} ms vs uncached miss "
            f"{head[prefix + '_cold_miss_ms']:.3f} ms = "
            f"{head[prefix + '_disk_speedup']:.2f}x"
        )
    for name, stats in payload["roundtrips"].items():
        lines.append(
            f"{name} keep-alive round trip: median {stats['median_ms']:.3f} ms "
            f"(quartiles {stats['q1_ms']:.3f}-{stats['q3_ms']:.3f}, "
            f"n={stats['samples']})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry points (acceptance floors — the CI gate)
# ----------------------------------------------------------------------

import pytest


@pytest.fixture(scope="module")
def payload():
    return run_benchmark(repeats=3)


def test_warm_disk_speedup_floor(payload):
    """Acceptance: warm-cache cold-process compile >= 5x the cold compile."""
    assert payload["headline"]["gpt3_disk_speedup"] >= 5.0, render(payload)


def test_codegen_warm_disk_speedup_floor(payload):
    """Acceptance: the same floor under codegen (kernels load from disk)."""
    head = payload["headline"]
    assert head["gpt3_codegen_disk_speedup"] >= 5.0, render(payload)


def test_memo_simulate_roundtrip_floor(payload):
    """Acceptance: a memo-hit simulate round trip stays under 10 ms."""
    head = payload["headline"]
    assert head["memo_simulate_roundtrip_ms"] < 10.0, render(payload)


def test_warm_loads_actually_come_from_disk(payload):
    """Every warm sample was served by the disk cache, never recompiled."""
    for row in payload["rows"]:
        assert row["warm_sources"] == ["disk"], row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    payload = run_benchmark(repeats=args.repeats)
    print(render(payload))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
