"""The three workloads: set-up, one measured pass over an op list, tear-down.

Each workload drives only public entry points of the program: the HTTP
front end (``serve-mixed``), ``Session``/``Executable`` in process
(``sweep-cold``), and the same in freshly forked workers over a warm disk
cache (``restart-warm-disk``).  Every op is checked; an op that is not
correct counts as failed.

A measured pass returns an :class:`Outcome`; the tracer, when given, is
installed only for the pass itself.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import resource
import select
import signal
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ledger import Tracer, codegen_counters
from ops import (
    GOLDEN,
    RESTART_MODELS,
    SWEEP_CANDIDATES,
    SWEEP_SPLITS,
    restart_entries,
    warm_requests,
)

#: A forked worker that has not answered after this long is killed and
#: its op counted as failed.
WORKER_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one measured pass saw."""

    latencies_ms: List[float] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    def record(self, ms: float, problem: Optional[str]) -> None:
        self.latencies_ms.append(ms)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _point(model_key: str, args: Dict[str, int]):
    from repro.sweep import SweepPoint

    return SweepPoint.make(model_key.split("-")[0], model_args=args)


class Workload:
    """Base: a scratch directory per set-up under the run's temp root."""

    name = ""

    def __init__(self, tmp_root: str) -> None:
        self.tmp_root = tmp_root

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix=self.name + "-", dir=self.tmp_root)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, ops: List[dict], tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class ServeMixed(Workload):
    """Closed loop over one keep-alive connection to an in-process server."""

    name = "serve-mixed"

    def setup(self) -> None:
        from repro.backend.codegen import clear_codegen_caches
        from repro.serve import make_server

        # Every set-up starts from the same cold process-wide code cache.
        clear_codegen_caches()
        self.server = make_server(port=0, cache_dir=self.fresh_dir(), quiet=True)
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-serve", daemon=True
        )
        self.thread.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=60
        )
        for body in warm_requests():
            status, payload = self._post("/v1/simulate", body)
            if status != 200 or not payload.get("verified"):
                raise RuntimeError(f"warm-up request failed: {status} {payload}")

    def _post(self, path: str, body: dict):
        self.conn.request(
            "POST",
            path,
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def measure(self, ops: List[dict], tracer: Optional[Tracer]) -> Outcome:
        from repro.models.common import VERIFY_TOLERANCE

        out = Outcome()
        seen: Dict[str, dict] = {}
        started = time.perf_counter()
        for index, op in enumerate(ops):
            path = "/v1/compile" if op["kind"] == "compile" else "/v1/simulate"
            time.sleep(op["think_ms"] / 1e3)
            root = tracer.begin_op(index, "serve.roundtrip") if tracer else None
            t0 = time.perf_counter()
            status, payload = self._post(path, op["body"])
            ms = (time.perf_counter() - t0) * 1e3
            if root is not None:
                tracer.end_op(root)
            problem = None
            if status != 200:
                problem = f"HTTP {status}: {payload.get('error')}"
            elif op["kind"] == "compile":
                if payload["regions"] != op["regions"] or payload["cache"] != "compiled":
                    problem = (
                        f"compile reply {payload['regions']} region(s) from "
                        f"{payload['cache']}, expected {op['regions']} compiled"
                    )
            elif not (payload["verified"] and payload["max_abs_err"] < VERIFY_TOLERANCE):
                problem = f"{payload['label']}: max |err| {payload['max_abs_err']}"
            elif payload["cache"] != "memory":
                problem = f"{payload['label']}: compile from {payload['cache']}"
            else:
                key = json.dumps(op["body"], sort_keys=True)
                if op["kind"] == "repeat" and key in seen and seen[key] != payload["metrics"]:
                    problem = f"{payload['label']}: repeat changed its metrics"
                seen[key] = payload["metrics"]
            out.record(ms, problem)
        out.wall_s = time.perf_counter() - started
        out.peak_rss_mb = rss_mb()
        return out

    def teardown(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------


class SweepCold(Workload):
    """Distinct sweep points, each a compile miss plus a disk put."""

    name = "sweep-cold"

    def setup(self) -> None:
        from repro.backend.codegen import clear_codegen_caches
        from repro.core.schedule.autotune import enumerate_schedules
        from repro.driver import Session
        from repro.driver.diskcache import DiskCache
        from repro.sweep import build_bundle

        clear_codegen_caches()
        self.bundles = {m: build_bundle(_point(m, GOLDEN[m])) for m in GOLDEN}
        with warnings.catch_warnings():
            # The enumeration cap truncating the partition space is the
            # intended, deterministic subset; its warning is noise here.
            warnings.simplefilter("ignore")
            self.candidates = {
                m: enumerate_schedules(
                    b.program,
                    max_candidates=SWEEP_CANDIDATES,
                    splits=list(SWEEP_SPLITS),
                )
                for m, b in self.bundles.items()
            }
        for model, candidates in self.candidates.items():
            if len(candidates) != SWEEP_CANDIDATES:
                raise RuntimeError(
                    f"{model}: {len(candidates)} candidate schedules, "
                    f"expected {SWEEP_CANDIDATES}"
                )
        cache = DiskCache(self.fresh_dir())
        self.sessions = {
            backend: Session(backend=backend or None, disk_cache=cache)
            for backend in ("", "codegen")
        }

    def measure(self, ops: List[dict], tracer: Optional[Tracer]) -> Outcome:
        from repro.core.tables.lower import LoweringError

        out = Outcome()
        started = time.perf_counter()
        for index, op in enumerate(ops):
            bundle = self.bundles[op["model"]]
            schedule = self.candidates[op["model"]][op["candidate"]]
            session = self.sessions[op["backend"]]
            root = tracer.begin_op(index, "sweep.point") if tracer else None
            t0 = time.perf_counter()
            problem = None
            try:
                executable, source = session.compile_detailed(
                    bundle.program, schedule
                )
            except LoweringError:
                # An infeasible design point is an expected sweep outcome.
                executable, source = None, "infeasible"
            if executable is not None:
                try:
                    bundle.verify(executable(bundle.binding))
                except AssertionError as exc:
                    problem = str(exc)
                if source != "compiled":
                    problem = f"{schedule.name}: compile from {source}"
            ms = (time.perf_counter() - t0) * 1e3
            if root is not None:
                tracer.end_op(root)
            out.record(ms, problem)
        out.wall_s = time.perf_counter() - started
        out.peak_rss_mb = rss_mb()
        return out


# ----------------------------------------------------------------------
# restart-warm-disk
# ----------------------------------------------------------------------


def _fill_cache(cache_dir: str) -> dict:
    """Compile every restart entry into ``cache_dir`` (runs in a child)."""
    from repro.driver import Session
    from repro.sweep import build_bundle

    for entry in restart_entries():
        bundle = build_bundle(_point(entry["model"], RESTART_MODELS[entry["model"]]))
        session = Session(backend=entry["backend"] or None, disk_cache=cache_dir)
        session.compile(bundle.program, bundle.schedule(entry["schedule"]))
    return {}


def _answer(cache_dir: str, op: dict, tracer: Optional[Tracer]) -> dict:
    """One restarted worker's simulate: disk compile, execute, verify."""
    from repro.driver import Session
    from repro.sweep import build_bundle

    before = codegen_counters()
    if tracer is not None:
        tracer.reset()
    root = tracer.begin_op(0, "restart.worker") if tracer else None
    t0 = time.perf_counter()
    bundle = build_bundle(_point(op["model"], RESTART_MODELS[op["model"]]))
    session = Session(backend=op["backend"] or None, disk_cache=cache_dir)
    executable, source = session.compile_detailed(
        bundle.program, bundle.schedule(op["schedule"])
    )
    problem = None
    try:
        bundle.verify(executable(bundle.binding))
    except AssertionError as exc:
        problem = str(exc)
    ms = (time.perf_counter() - t0) * 1e3
    if root is not None:
        tracer.end_op(root)
    if problem is None and source != "disk":
        problem = f"{op['model']}/{op['schedule']}: compile from {source}"
    reply = {"ms": ms, "problem": problem, "rss_mb": rss_mb()}
    if tracer is not None:
        after = codegen_counters()
        reply["spans"] = tracer.spans
        reply["counters"] = {k: after[k] - before[k] for k in after}
    return reply


def _in_child(fn, *args) -> dict:
    """Run ``fn(*args)`` in a forked child; returns its JSON-able reply.

    The child answers through a pipe and leaves with ``os._exit`` so it
    never runs the parent's exit handlers.  A child that crashes or stays
    silent past :data:`WORKER_TIMEOUT_S` yields ``{"problem": ...}``.
    """
    # Freeze the parent's heap out of the collector: a worker's first
    # collection would otherwise walk every inherited object, copying
    # each page it touches, at a moment set by the parent's allocation
    # history rather than by the worker's own work.
    gc.freeze()
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            try:
                reply = fn(*args)
            except Exception as exc:  # the parent reports it as a failed op
                reply = {"problem": f"{type(exc).__name__}: {exc}"}
                code = 1
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(reply, pipe)
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    with os.fdopen(read_fd, "r", encoding="utf-8") as pipe:
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([pipe], [], [], max(0.0, remaining))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = pipe.read()
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    try:
        reply = json.loads("".join(chunks))
    except json.JSONDecodeError:
        reply = {"problem": f"worker {pid} gave no reply (status {status})"}
    return reply


class RestartWarmDisk(Workload):
    """Each op: a freshly forked worker answers one simulate from disk."""

    name = "restart-warm-disk"

    def __init__(self, tmp_root: str) -> None:
        super().__init__(tmp_root)
        # Workers measure the per-request path, not imports: load every
        # module they touch before the first fork (numpy loads its random
        # and masked-array packages lazily).
        import numpy.ma  # noqa: F401
        import numpy.random  # noqa: F401
        import repro.backend.codegen  # noqa: F401
        import repro.driver  # noqa: F401
        import repro.models.gcn  # noqa: F401
        import repro.models.gpt3  # noqa: F401
        import repro.models.graphsage  # noqa: F401
        import repro.models.sae  # noqa: F401
        import repro.sweep  # noqa: F401

    def setup(self) -> None:
        # The parent stays a process that compiled nothing: a child fills
        # the cache and exits.
        self.cache_dir = self.fresh_dir()
        reply = _in_child(_fill_cache, self.cache_dir)
        if reply.get("problem"):
            raise RuntimeError(f"filling the disk cache failed: {reply['problem']}")

    def measure(self, ops: List[dict], tracer: Optional[Tracer]) -> Outcome:
        out = Outcome()
        started = time.perf_counter()
        for index, op in enumerate(ops):
            reply = _in_child(_answer, self.cache_dir, op, tracer)
            out.record(reply.get("ms", 0.0), reply.get("problem"))
            out.peak_rss_mb = max(out.peak_rss_mb, reply.get("rss_mb", 0.0))
            if tracer is not None and "spans" in reply:
                for span in reply["spans"]:
                    span[5] = index
                tracer.absorb(reply["spans"], reply["counters"])
        out.wall_s = time.perf_counter() - started
        return out


RUNNERS = {
    cls.name: cls for cls in (ServeMixed, SweepCold, RestartWarmDisk)
}
