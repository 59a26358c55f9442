"""Span tracer and the per-layer ledger built from its spans.

The tracer records spans from the benchmark's own files: it wraps public
functions and methods of the program at the layer boundaries below, and
restores them when the traced run ends.  Nothing under ``src/`` knows it is
being traced.

A span is ``[id, name, start, end, parent, op, attrs]`` (times from
:func:`time.perf_counter`, in seconds).  Spans are kept in memory and
turned into metrics once the run ends.  A span's parent is the innermost
open span on the same thread; a span opened on a thread with no open span
(a serve handler thread) hangs under the current op's root span, so the
client round trip is the parent of the server-side work it waited for.

Self time is a span's duration minus the durations of its children.
Layer metrics that are times (``.ms``, ``.self_ms``) are totals over the
traced run in milliseconds; every run of a workload measures the same op
count, so totals compare across runs.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Pass names of the default compile pipeline, in order.
PASSES = (
    "fuse-regions",
    "fold-masks",
    "merge-contractions",
    "split-indices",
    "lower-region",
    "place-memory",
    "parallelize",
)

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "serve.transport.ms": ("ms", "lower"),
    "serve.protocol.calls": ("count", "lower"),
    "serve.protocol.self_ms": ("ms", "lower"),
    "sweep.spec.build_bundle.calls": ("count", "lower"),
    "sweep.spec.build_bundle.self_ms": ("ms", "lower"),
    "core.einsum.fingerprint.self_ms": ("ms", "lower"),
    "driver.session.compile.calls": ("count", "lower"),
    "driver.session.compile.memory_hit_ratio": ("ratio", "higher"),
    "driver.session.compile.disk_hits": ("count", "higher"),
    "driver.session.compile.compiled": ("count", "lower"),
    **{f"driver.pipeline.{name}.ms": ("ms", "lower") for name in PASSES},
    "driver.pipeline.infeasible": ("count", "lower"),
    "backend.codegen.emit.calls": ("count", "lower"),
    "backend.codegen.emit.self_ms": ("ms", "lower"),
    "backend.codegen.emit.at_run_calls": ("count", "lower"),
    "backend.codegen.emit.loc": ("count", "lower"),
    "backend.codegen.token_dispatches": ("count", "lower"),
    "backend.codegen.fallbacks": ("count", "lower"),
    "driver.diskcache.get.calls": ("count", "lower"),
    "driver.diskcache.get.ms": ("ms", "lower"),
    "driver.diskcache.get.hits": ("count", "higher"),
    "driver.diskcache.put.calls": ("count", "lower"),
    "driver.diskcache.put.ms": ("ms", "lower"),
    "driver.diskcache.put.bytes": ("bytes", "lower"),
    "comal.functional.calls": ("count", "lower"),
    "comal.functional.self_ms": ("ms", "lower"),
    "comal.functional.tokens": ("count", "lower"),
    "comal.engine.self_ms": ("ms", "lower"),
    "comal.engine.sim_cycles_sum": ("cycles", "lower"),
    "models.verify.self_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

#: Per-layer counts that must repeat exactly between two traced runs of
#: one seed: a speed-only change leaves them identical.
EXACT = (
    "comal.engine.sim_cycles_sum",
    "driver.pipeline.infeasible",
    "backend.codegen.emit.loc",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._op_root: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1][0] if stack else self._op_root
        span = [sid, name, time.perf_counter(), None, parent, self.op, {}]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def begin_op(self, op: int, name: str) -> list:
        """Open the root span of op ``op``; server-side spans hang under it."""
        self.op = op
        span = self.open(name)
        self._op_root = span[0]
        return span

    def end_op(self, span: list) -> None:
        self.close(span)
        self._op_root = None

    def reset(self) -> None:
        """Forget recorded spans and counters (a forked worker starts clean)."""
        self.spans = []
        self.counters = defaultdict(int)
        self._next = 0

    def absorb(self, spans: List[list], counters: Dict[str, int]) -> None:
        """Merge spans and counters a forked worker recorded."""
        with self._lock:
            base = self._next
            self._next += len(spans) + 1
            for span in spans:
                span[0] += base
                if span[4] is not None:
                    span[4] += base
                self.spans.append(span)
        for key, value in counters.items():
            self.counters[key] += value

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[dict, Any, tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(attrs, result, args)`` may annotate the span once the call
        returns; an exception is recorded as ``attrs["error"]``.
        """
        # A class attribute is taken raw so the wrapper binds like a method.
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[6]["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if after is not None:
                after(span[6], result, args)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the ledger reports."""
        import repro.backend.codegen as codegen
        import repro.comal.engine as engine
        import repro.driver.compiled as compiled
        import repro.serve.app as app
        import repro.sweep as sweep
        from repro.driver.diskcache import DiskCache
        from repro.driver.session import Session
        from repro.models.common import ModelBundle

        def compile_after(attrs, result, _args):
            executable, source = result
            attrs["source"] = source
            if source == "compiled":
                attrs["passes"] = dict(executable.diagnostics.pass_seconds)

        def get_after(attrs, result, _args):
            attrs["hit"] = result is not None

        def put_after(attrs, result, args):
            cache, key = args[0], args[1]
            if result:
                attrs["bytes"] = os.path.getsize(cache.path_for(key))

        misses = {"n": codegen.codegen_cache_info()["artifact_misses"]}

        def artifact_after(attrs, artifact, _args):
            now = codegen.codegen_cache_info()["artifact_misses"]
            attrs["emitted"] = now > misses["n"]
            misses["n"] = now
            if attrs["emitted"]:
                attrs["loc"] = artifact.loc

        def functional_after(attrs, result, _args):
            attrs["tokens"] = result.total_tokens()

        def timed_after(attrs, result, _args):
            attrs["cycles"] = result.cycles

        self.wrap(app.ServerState, "handle", "serve.handle")
        self.wrap(app, "parse_request", "serve.protocol")
        self.wrap(app, "build_bundle", "sweep.spec.build_bundle")
        self.wrap(sweep, "build_bundle", "sweep.spec.build_bundle")
        self.wrap(Session, "cache_key", "core.einsum.fingerprint")
        self.wrap(Session, "compile_detailed", "driver.session.compile", compile_after)
        self.wrap(DiskCache, "get", "driver.diskcache.get", get_after)
        self.wrap(DiskCache, "put", "driver.diskcache.put", put_after)
        self.wrap(codegen, "artifact_for", "backend.codegen.artifact_for", artifact_after)
        self.wrap(engine, "run_functional", "comal.functional", functional_after)
        self.wrap(compiled, "run_timed", "comal.engine", timed_after)
        self.wrap(ModelBundle, "max_abs_err", "models.verify")


def codegen_counters() -> Dict[str, int]:
    """The codegen counters the ledger reports, as a snapshot."""
    from repro.backend.codegen import codegen_cache_info

    info = codegen_cache_info()
    return {k: info[k] for k in ("token_dispatches", "fallbacks")}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics (every :data:`PER_LAYER` name but the overhead)."""
    spans = tracer.spans
    child_time: Dict[int, float] = defaultdict(float)
    names = {span[0]: span[1] for span in spans}
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]

    def self_ms(span) -> float:
        return (span[3] - span[2] - child_time[span[0]]) * 1e3

    parents = {span[0]: span[4] for span in spans}

    def under(span, layer: str) -> bool:
        node = span[4]
        while node is not None:
            if names.get(node) == layer:
                return True
            node = parents.get(node)
        return False

    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def total_self(name: str) -> float:
        return sum(self_ms(s) for s in by_name[name])

    compiles = by_name["driver.session.compile"]
    sources = [s[6].get("source") for s in compiles]
    passes = defaultdict(float)
    for span in compiles:
        for name, seconds in span[6].get("passes", {}).items():
            passes[name] += seconds * 1e3
    emitted = [s for s in by_name["backend.codegen.artifact_for"] if s[6].get("emitted")]
    gets = by_name["driver.diskcache.get"]
    puts = by_name["driver.diskcache.put"]
    out: Dict[str, float] = {
        "serve.transport.ms": total_self("serve.roundtrip"),
        "serve.protocol.calls": len(by_name["serve.protocol"]),
        "serve.protocol.self_ms": total_self("serve.protocol"),
        "sweep.spec.build_bundle.calls": len(by_name["sweep.spec.build_bundle"]),
        "sweep.spec.build_bundle.self_ms": total_self("sweep.spec.build_bundle"),
        "core.einsum.fingerprint.self_ms": total_self("core.einsum.fingerprint"),
        "driver.session.compile.calls": len(compiles),
        "driver.session.compile.memory_hit_ratio": (
            sources.count("memory") / len(compiles) if compiles else 0.0
        ),
        "driver.session.compile.disk_hits": sources.count("disk"),
        "driver.session.compile.compiled": sources.count("compiled"),
        **{f"driver.pipeline.{name}.ms": passes[name] for name in PASSES},
        "driver.pipeline.infeasible": sum(
            1 for s in compiles if s[6].get("error") == "LoweringError"
        ),
        "backend.codegen.emit.calls": len(emitted),
        "backend.codegen.emit.self_ms": sum(self_ms(s) for s in emitted),
        "backend.codegen.emit.at_run_calls": sum(
            1 for s in emitted if under(s, "comal.functional")
        ),
        "backend.codegen.emit.loc": sum(s[6]["loc"] for s in emitted),
        "backend.codegen.token_dispatches": tracer.counters["token_dispatches"],
        "backend.codegen.fallbacks": tracer.counters["fallbacks"],
        "driver.diskcache.get.calls": len(gets),
        "driver.diskcache.get.ms": total_self("driver.diskcache.get"),
        "driver.diskcache.get.hits": sum(1 for s in gets if s[6].get("hit")),
        "driver.diskcache.put.calls": len(puts),
        "driver.diskcache.put.ms": total_self("driver.diskcache.put"),
        "driver.diskcache.put.bytes": sum(s[6].get("bytes", 0) for s in puts),
        "comal.functional.calls": len(by_name["comal.functional"]),
        "comal.functional.self_ms": total_self("comal.functional"),
        "comal.functional.tokens": sum(
            s[6].get("tokens", 0) for s in by_name["comal.functional"]
        ),
        "comal.engine.self_ms": total_self("comal.engine"),
        "comal.engine.sim_cycles_sum": sum(
            s[6].get("cycles", 0.0) for s in by_name["comal.engine"]
        ),
        "models.verify.self_ms": total_self("models.verify"),
    }
    return out
