"""Code-generating backend: one compiled Python kernel per fusion region.

Instead of walking the region graph node by node (paying a dict-dispatched
``process`` call, an :class:`~repro.sam.primitives.base.ExecutionContext`,
and per-port stream plumbing for every node on every execution), this
backend walks the graph **once**, emits a single specialized Python source
function that inlines every node's per-token logic — scanner/joiner/ALU/
reduce/writer loops with the node's configuration folded in as constants
and streams collapsed into local lists — compiles it with
:func:`compile`/``exec``, and caches the artifact.

Two emission tiers share this machinery (``FUSEFLOW_CODEGEN_TIER``):

* **token** — the original tier: per-token Python loops over ``(kind,
  payload)`` tuples, semantics copied line for line from the legacy
  ``process`` kernels.  Fastest when streams are tiny (gpt3's blocked
  streams), because it pays no numpy per-call overhead.
* **columnar** (default) — kernels whose locals are the numpy arrays
  backing each :class:`~repro.sam.token.TokenStream` (``kinds`` int8 /
  ``data`` float64 / ``objs`` escape hatch).  The vectorized
  ``process_columnar`` bodies from ``sam/primitives/`` are inlined with
  node configuration and token-kind literals folded in as constants;
  structure-preserving nodes (repsig, aligncheck) forward streams by
  reference so nothing is rematerialized.  Nodes whose inputs carry
  object payloads escape, per node, to the bound primitive's columnar
  kernel; kinds with no columnar emitter bridge, per node, through the
  token-tier body; regions the columnar emitter cannot handle at all
  fall back to the token tier, then to the columnar interpreter.

Both tiers are bit-exact against the interpreters: identical streams,
per-node statistics, result tensors, and therefore identical timed
metrics (the timed engine reads only stream lengths, stats, and node
metadata).  Because they are interchangeable, the columnar tier delegates
*runs* over tiny inputs (payload count below
:func:`small_stream_cutoff`) to the token-tier kernel — numpy dispatch
overhead dominates short arrays — so ``backend=codegen`` wins on every
model regardless of stream length.

Three cache levels:

* per-graph (weak, validated by topological-order identity — the same
  idiom as the timed engine's plan cache): repeated executions of one
  graph reuse its compiled kernel;
* per-source (keyed by the SHA-256 of the emitted source): structurally
  identical regions from *different* graph objects share one code object
  and pay ``compile()`` once per process;
* on disk, behind the per-source level: when the graph's
  :class:`~repro.driver.diskcache.DiskCache` is known (a ``Session`` with
  a disk cache hands it to :func:`artifact_for`, which remembers it per
  graph), a per-source miss reads the marshalled code object stored
  under the source's SHA-256 and the interpreter's bytecode magic, and
  only a disk miss runs ``compile()`` (then writes the entry back).  A
  fresh process over a warm cache directory still emits each kernel —
  emission yields the key and the kernel's bindings, and is cheap — but
  never compiles one.

Regions containing a primitive kind the emitter does not know fall back
to the columnar interpreter, per region, with a recorded reason — every
model runs under ``--backend codegen`` regardless.

Exceptions raised inside a generated kernel are re-raised with the node id
and region name appended (protocol errors keep their type and message so
``pytest.raises(..., match=...)`` assertions hold under
``FUSEFLOW_BACKEND=codegen``); emitted sources are registered with
:mod:`linecache` under each code object's ``co_filename`` so tracebacks
show real kernel lines, not ``<string>``, for disk-loaded kernels too.
"""

from __future__ import annotations

import hashlib
import linecache
import os
import threading
import time
import weakref
from array import array
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ftree.tensor import SparseTensor
from ..sam.graph import SAMGraph
from ..sam.primitives.base import ExecutionContext, NodeStats
from ..sam.primitives.compute import _BINARY_OPS, _UNARY_OPS
from ..sam.primitives.fiberops import _apply_over_fiber, _layernorm, _softmax
from ..sam.primitives.joiner import (
    _check_controls,
    _control_mismatch,
    _payload_columns,
    _require_aligned,
    _split_segments,
)
from ..sam.primitives.reduce import _segment_sums
from ..sam.primitives.scanner import (
    _B_CRD,
    _B_DONE,
    _B_REF,
    _B_STOP,
    _wrap_columns,
)
from ..sam.token import (
    StreamProtocolError,
    TokenStream,
    check_stream,
    stream_to_nest,
    streams_equal,
)
from .base import Backend

__all__ = [
    "CodegenBackend",
    "CodegenError",
    "RegionArtifact",
    "artifact_for",
    "cached_artifacts",
    "codegen_cache_info",
    "codegen_tier",
    "clear_codegen_caches",
    "small_stream_cutoff",
    "try_run_codegen",
]

class CodegenError(RuntimeError):
    """A generated kernel failed for a non-protocol reason."""


_TIERS = ("token", "columnar")

#: Payload-count cutoff under which a columnar-tier run delegates to the
#: token-tier kernel.  Calibrated on the BENCH_codegen golden points: the
#: sae hot path probes at ~120-150 payloads per region and runs faster
#: through plain Python loops than through numpy calls on short arrays,
#: while the gcn / graphsage golden points probe at ~380-670 and win
#: columnar (blocked gpt3 routes to the token tier separately, via the
#: blocked-payload probe, regardless of size).
DEFAULT_SMALL_STREAM_CUTOFF = 256


def codegen_tier() -> str:
    """The selected emission tier (``FUSEFLOW_CODEGEN_TIER``).

    Returns ``"columnar"`` (the default) or ``"token"``.  Any other value
    raises so typos fail loudly instead of silently changing tiers.
    """
    tier = os.environ.get("FUSEFLOW_CODEGEN_TIER", "").strip().lower()
    if not tier:
        return "columnar"
    if tier not in _TIERS:
        raise ValueError(
            f"FUSEFLOW_CODEGEN_TIER must be one of {_TIERS}, got {tier!r}"
        )
    return tier


def small_stream_cutoff() -> int:
    """Adaptive-dispatch threshold (``FUSEFLOW_CODEGEN_SMALL_CUTOFF``).

    When a columnar-tier kernel is about to run and the region's bound
    input tensors carry fewer than this many payload values in total, the
    run is delegated to the (bit-exact) token-tier kernel instead.  ``0``
    disables the dispatch; unset/unparsable falls back to
    :data:`DEFAULT_SMALL_STREAM_CUTOFF`.
    """
    raw = os.environ.get("FUSEFLOW_CODEGEN_SMALL_CUTOFF", "").strip()
    if not raw:
        return DEFAULT_SMALL_STREAM_CUTOFF
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_SMALL_STREAM_CUTOFF


@dataclass
class RegionArtifact:
    """The compiled form of one region under the codegen backend.

    Attributes
    ----------
    region : str
        Name of the region graph this artifact was emitted from.
    tier : str
        Emission tier the artifact was built with (``token``/``columnar``).
    source : str
        The emitted Python source (empty when the region fell back).
    loc : int
        Emitted lines of code.
    node_count : int
        Nodes of the region graph.
    emit_seconds : float
        Wall time spent emitting the source.
    compile_seconds : float
        Wall time spent obtaining the code object (``compile()``, or a
        disk read and ``marshal.loads``) and ``exec``-ing it.
    fallback : str
        Empty when the region compiled; otherwise the reason the region
        runs on the columnar interpreter instead.
    code_cached : bool
        True when the code object came from the per-source cache, in
        memory or on disk, rather than from ``compile()``.
    fn : callable or None
        The compiled kernel, or ``None`` when ``fallback`` is set.
    sha : str
        SHA-256 hex digest of ``source`` (the code-cache key).
    probe : tuple of str
        Tensor names the region scans/locates/gathers, used by the
        adaptive small-stream dispatch to size a run before executing it.
    probe_base : int
        Emit-time-known payload contribution (replayed source streams).
    runs : int
        Executions of this kernel (for ``--profile`` amortization).
    run_seconds : float
        Total wall time spent inside this kernel across ``runs``.
    """

    region: str
    tier: str = "token"
    source: str = ""
    loc: int = 0
    node_count: int = 0
    emit_seconds: float = 0.0
    compile_seconds: float = 0.0
    fallback: str = ""
    code_cached: bool = False
    fn: Optional[Callable] = None
    sha: str = ""
    probe: Tuple[str, ...] = ()
    probe_base: int = 0
    runs: int = 0
    run_seconds: float = 0.0


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------

@dataclass
class _GraphSlot:
    """One graph's entry in :data:`_GRAPH_ARTIFACTS`.

    ``order`` is the topological order list the artifacts were emitted
    from; its identity doubles as a structure-version tag (SAMGraph
    rebuilds it on mutation).  ``retentions`` is a list of ``(sha,
    finalizer)`` pairs pinning source-cache entries (and their linecache
    registrations) for as long as the graph lives — see
    :func:`_retain_sha_locked`.  ``disk_cache`` is the disk level the
    graph's kernels are loaded from and stored to, remembered so tiers
    emitted lazily at run time use it too.
    """

    order: Any
    tiers: Dict[str, RegionArtifact]
    retentions: List[Tuple[str, Any]]
    disk_cache: Any = None


#: graph -> its :class:`_GraphSlot`.  Weak keys bound this cache by graph
#: lifetime.
_GRAPH_ARTIFACTS: "weakref.WeakKeyDictionary[SAMGraph, _GraphSlot]" = (
    weakref.WeakKeyDictionary()
)

#: source sha -> number of live graph retentions.  When the last graph
#: referencing a source is collected (or its artifacts are invalidated by
#: structural mutation), the entry drops to zero and the source is purged
#: from both the code cache and linecache, so long sweep/serve processes
#: do not grow linecache without bound.
_SHA_REFS: Dict[str, int] = {}

#: Releases requested by a gc finalizer that fired while another frame on
#: this thread held the (non-reentrant) cache lock; drained by the next
#: locked section.
_PENDING_SHA_RELEASES: List[str] = []

#: source sha -> compiled code object, shared across graphs.  A bounded
#: LRU: unlike the weak per-graph cache, nothing ties these entries to a
#: live object, so an unbounded dict leaks every distinct emitted source
#: for the life of a serve process.
_CODE_CACHE: "OrderedDict[str, Any]" = OrderedDict()

#: source sha -> linecache filenames registered for it, purged on eviction
#: (multiple graphs may register the same source under different names).
_CODE_FILES: Dict[str, List[str]] = {}

#: Entry cap for the cross-graph source cache.
CODE_CACHE_LIMIT = 256

#: Guards the caches and counters: the threaded serve front end compiles
#: from many threads, and unguarded ``dict`` updates lose counts (and can
#: tear the LRU ordering).
_CACHE_LOCK = threading.Lock()

_COUNTERS = {
    "artifact_hits": 0,
    "artifact_misses": 0,
    "code_hits": 0,
    "code_misses": 0,
    "code_disk_hits": 0,
    "code_disk_misses": 0,
    "code_evictions": 0,
    "fallbacks": 0,
    "token_dispatches": 0,
}


def codegen_cache_info() -> Dict[str, int]:
    """Snapshot of the artifact/code cache counters (for ``--profile``).

    ``code_hits`` counts code objects found in memory,
    ``code_disk_hits``/``code_disk_misses`` the in-memory misses that
    consulted a disk cache, and ``code_misses`` the ``compile()`` calls.
    Includes ``code_entries``/``code_limit`` so a long-lived process can
    observe the bounded LRU's occupancy alongside the hit counters, and
    ``code_files``/``retained_sources`` so linecache growth stays
    observable (generated sources are unregistered when the last graph
    holding them is collected or evicted).
    """
    with _CACHE_LOCK:
        _drain_pending_releases_locked()
        info = dict(_COUNTERS)
        info["code_entries"] = len(_CODE_CACHE)
        info["code_limit"] = CODE_CACHE_LIMIT
        info["code_files"] = sum(len(v) for v in _CODE_FILES.values())
        info["retained_sources"] = len(_SHA_REFS)
    return info


def cached_artifacts(graph) -> Dict[str, "RegionArtifact"]:
    """Already-emitted artifacts for ``graph``, keyed by tier.

    Pure lookup — nothing is emitted or compiled — so profilers can
    inspect which tiers actually ran (``runs``/``run_seconds``) without
    perturbing the caches.

    Parameters
    ----------
    graph:
        The region :class:`~repro.sam.graph.SAMGraph` to look up.
    """
    with _CACHE_LOCK:
        slot = _GRAPH_ARTIFACTS.get(graph)
        return dict(slot.tiers) if slot is not None else {}


def clear_codegen_caches() -> None:
    """Drop compiled artifacts and reset counters (tests only)."""
    with _CACHE_LOCK:
        for slot in _GRAPH_ARTIFACTS.values():
            for _sha, finalizer in slot.retentions:
                finalizer.detach()
        _GRAPH_ARTIFACTS.clear()
        _SHA_REFS.clear()
        _PENDING_SHA_RELEASES.clear()
        for sha in list(_CODE_FILES):
            _purge_code_entry_locked(sha)
        _CODE_CACHE.clear()
        _CODE_FILES.clear()
        for key in _COUNTERS:
            _COUNTERS[key] = 0


def _purge_code_entry_locked(sha: str) -> None:
    """Drop one source-cache entry and its linecache registrations."""
    _CODE_CACHE.pop(sha, None)
    for filename in _CODE_FILES.pop(sha, ()):
        linecache.cache.pop(filename, None)


def _release_sha_locked(sha: str) -> None:
    count = _SHA_REFS.get(sha)
    if count is None:
        return
    if count <= 1:
        del _SHA_REFS[sha]
        _purge_code_entry_locked(sha)
    else:
        _SHA_REFS[sha] = count - 1


def _drain_pending_releases_locked() -> None:
    while _PENDING_SHA_RELEASES:
        _release_sha_locked(_PENDING_SHA_RELEASES.pop())


def _on_graph_collected(sha: str) -> None:
    # weakref.finalize callback: a graph holding this source died.  gc can
    # run this re-entrantly on a thread that already holds the
    # (non-reentrant) cache lock, so never block here — defer instead.
    if _CACHE_LOCK.acquire(blocking=False):
        try:
            _drain_pending_releases_locked()
            _release_sha_locked(sha)
        finally:
            _CACHE_LOCK.release()
    else:
        _PENDING_SHA_RELEASES.append(sha)


def _retain_sha_locked(graph: SAMGraph, sha: str, retentions: List) -> None:
    """Pin a source-cache entry to ``graph``'s lifetime."""
    if not sha:
        return
    _SHA_REFS[sha] = _SHA_REFS.get(sha, 0) + 1
    finalizer = weakref.finalize(graph, _on_graph_collected, sha)
    finalizer.atexit = False
    retentions.append((sha, finalizer))


# ----------------------------------------------------------------------
# Shared kernel runtime (exec globals)
# ----------------------------------------------------------------------


def _get_tensor(binding: Dict[str, Any], name: str):
    """Bound tensor lookup with the interpreter's error message."""
    try:
        return binding[name]
    except KeyError:
        raise KeyError(
            f"tensor {name!r} not bound (have {sorted(binding)})"
        ) from None


def _level_arrays(lvl):
    """Cached int64 views of a compressed level's ``pos``/``crd`` lists.

    Levels store plain Python lists; vectorized scanner expansion needs
    numpy arrays.  The cache is keyed on list lengths so a level that is
    still being built (``append_fiber``) never serves a stale view.
    """
    cached = getattr(lvl, "_cg_arrays", None)
    if (
        cached is not None
        and len(cached[0]) == len(lvl.pos)
        and len(cached[1]) == len(lvl.crd)
    ):
        return cached
    arrays = (
        np.asarray(lvl.pos, dtype=np.int64),
        np.asarray(lvl.crd, dtype=np.int64),
    )
    try:
        lvl._cg_arrays = arrays
    except AttributeError:  # pragma: no cover - slotted level classes
        pass
    return arrays


def _dbg_check(stream, node_id: str, port_name: str) -> None:
    """Per-stream protocol validation, worded like the interpreter's."""
    if len(stream):
        try:
            check_stream(stream)
        except StreamProtocolError as exc:
            raise StreamProtocolError(
                f"node {node_id} port {port_name!r}: {exc}"
            ) from exc


def _fibermax_fn(x: np.ndarray, axis: int) -> np.ndarray:
    return np.broadcast_to(np.max(x, axis=axis, keepdims=True), x.shape).copy()


_FIBER_FNS: Dict[str, Callable] = {
    "softmax": _softmax,
    "layernorm": _layernorm,
    "fibermax": _fibermax_fn,
}

#: Names every generated kernel can reference.  Per-graph runtime objects
#: (writer formats, source streams) are layered on top per exec.
_SHARED_GLOBALS: Dict[str, Any] = {
    "np": np,
    "StreamProtocolError": StreamProtocolError,
    "SparseTensor": SparseTensor,
    "stream_to_nest": stream_to_nest,
    "_apply_over_fiber": _apply_over_fiber,
    "_require_aligned": _require_aligned,
    "_control_mismatch": _control_mismatch,
    "_get_tensor": _get_tensor,
    "_dbg": _dbg_check,
    "_BINARY_OPS": _BINARY_OPS,
    "_UNARY_OPS": _UNARY_OPS,
    "_FIBER_FNS": _FIBER_FNS,
    # Columnar-tier runtime: the same helpers the interpreter kernels in
    # sam/primitives/ call, so emitted bodies stay line-for-line faithful.
    "array": array,
    "check_stream": check_stream,
    "_TS": TokenStream,
    "_Ctx": ExecutionContext,
    "_streams_equal": streams_equal,
    "_split_segments": _split_segments,
    "_check_controls": _check_controls,
    "_payload_columns": _payload_columns,
    "_segment_sums": _segment_sums,
    "_lvl_arrays": _level_arrays,
    "_wrap_cols": _wrap_columns,
    "_B_CRD": _B_CRD,
    "_B_REF": _B_REF,
    "_B_STOP": _B_STOP,
    "_B_DONE": _B_DONE,
}


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------


class _Unsupported(Exception):
    """Raised by an emitter to trigger region-level interpreter fallback."""


class _Emitter:
    """Walks one region graph and emits its kernel source."""

    def __init__(self, graph: SAMGraph, order: List[str]) -> None:
        self.graph = graph
        self.order = order
        self.lines: List[str] = []
        self.indent = 1
        # Runtime objects the source cannot express literally, injected
        # into the exec globals per graph (names are deterministic given
        # the source, so sharing the code object across graphs is sound).
        self.env: Dict[str, Any] = {}
        # (node_id, port) -> local variable holding the stream.
        self.var: Dict[Tuple[str, str], str] = {}

    # -- infrastructure -------------------------------------------------
    def w(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    @contextmanager
    def _indented(self):
        self.indent += 1
        try:
            yield
        finally:
            self.indent -= 1

    def _prelude(self) -> None:
        self.w("_ET = (5, None)")
        self.w("_DT = (4, None)")

    def _node_emitter(self, prim, node_id: str) -> Callable:
        emitter = getattr(self, f"_emit_{prim.kind}", None)
        if emitter is None:
            raise _Unsupported(
                f"unsupported primitive kind {prim.kind!r} at node {node_id}"
            )
        return emitter

    def emit(self) -> str:
        self.lines.append(
            "def _region_kernel(binding, stats, results, "
            "scratchpad_bytes, debug_streams, _cur):"
        )
        self._prelude()
        for i, node_id in enumerate(self.order):
            node = self.graph.nodes[node_id]
            prim = node.prim
            emitter = self._node_emitter(prim, node_id)
            self.w()
            self.w(f"# -- {node_id}: {prim.describe()} --")
            self.w(f"_cur[0] = {node_id!r}")
            self.w(f"_st = stats[{node_id!r}]")
            outs = [f"s{i}_{p}" for p in prim.out_ports]
            emitter(i, node_id, node, prim)
            for port, var in zip(prim.out_ports, outs):
                self.var[(node_id, port)] = var
            self.w("if debug_streams:")
            for port, var in zip(prim.out_ports, outs):
                self.w(f"    _dbg({var}, {node_id!r}, {port!r})")
        self.w()
        self.w("return {")
        for node_id in self.order:
            node = self.graph.nodes[node_id]
            for port in node.prim.out_ports:
                var = self.var[(node_id, port)]
                self.w(f"    ({node_id!r}, {port!r}): {var},")
        self.w("}")
        return "\n".join(self.lines) + "\n"

    def _in(self, node, port: str) -> str:
        src = node.inputs[port]
        return self.var[(src.node_id, src.port)]

    def _bind(self, name: str, obj: Any) -> str:
        self.env[name] = obj
        return name

    # -- per-kind emitters ----------------------------------------------
    def _emit_root(self, i, node_id, node, prim) -> None:
        self.w(f"s{i}_ref = [(1, 0), _DT]")
        self.w("_st.tokens_out += 2")

    def _emit_source(self, i, node_id, node, prim) -> None:
        src = self._bind(f"_SRC{i}", prim.stream)
        self.w(f"s{i}_out = list({src})")
        self.w(f"_st.tokens_out += len(s{i}_out)")

    def _emit_scan(self, i, node_id, node, prim) -> None:
        ref_in = self._in(node, "ref")
        dram = prim.dram
        self.w(f"_t = _get_tensor(binding, {prim.tensor_name!r})")
        self.w(f"_lvl = _t.levels[{prim.level}]")
        self.w('_comp = _lvl.kind == "compressed"')
        self.w(f"s{i}_crd = []")
        self.w(f"s{i}_ref = []")
        self.w(f"_ca = s{i}_crd.append")
        self.w(f"_ra = s{i}_ref.append")
        self.w("_open = False")
        if dram:
            self.w("_ab = 0")
        self.w(f"_st.tokens_in += len({ref_in})")
        self.w(f"for _tok in {ref_in}:")
        self.w("    _k = _tok[0]")
        self.w("    if _k == 1:")
        self.w("        if _open:")
        self.w("            _ca((3, 0))")
        self.w("            _ra((3, 0))")
        self.w("        _coords, _children = _lvl.fiber(_tok[1])")
        self.w("        for _c, _ch in zip(_coords, _children):")
        self.w("            _ca((0, _c))")
        self.w("            _ra((1, _ch))")
        if dram:
            self.w("        if _comp:")
            self.w("            _ab += 8 + 4 * len(_coords)")
        self.w("        _open = True")
        self.w("    elif _k == 5:")
        self.w("        if _open:")
        self.w("            _ca((3, 0))")
        self.w("            _ra((3, 0))")
        self.w("        _open = True")
        self.w("    elif _k == 3:")
        self.w("        _p = _tok[1] + 1")
        self.w("        _ca((3, _p))")
        self.w("        _ra((3, _p))")
        self.w("        _open = False")
        self.w("    elif _k == 4:")
        self.w("        if _open:")
        self.w("            _ca((3, 0))")
        self.w("            _ra((3, 0))")
        self.w("        _ca(_DT)")
        self.w("        _ra(_DT)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            "f\"scanner got unexpected token kind {_k}\")"
        )
        if dram:
            self.w("if _comp:")
            self.w("    _fp = _t.bytes_structure()")
            self.w("    if _fp <= scratchpad_bytes:")
            self.w("        _st.dram_reads += min(_ab, _fp)")
            self.w("    else:")
            self.w("        _st.dram_reads += _ab")
        self.w(f"_st.tokens_out += len(s{i}_crd) + len(s{i}_ref)")

    def _emit_locate(self, i, node_id, node, prim) -> None:
        crd_in = self._in(node, "crd")
        dram = prim.dram
        self.w(f"_t = _get_tensor(binding, {prim.tensor_name!r})")
        self.w(f"_lvl = _t.levels[{prim.level}]")
        self.w('_dense = _lvl.kind == "dense"')
        self.w(f"s{i}_ref = []")
        self.w(f"_o = s{i}_ref.append")
        self.w(f"_st.tokens_in += len({crd_in})")
        self.w(f"for _tok in {crd_in}:")
        self.w("    _k = _tok[0]")
        self.w("    if _k == 0:")
        self.w("        if _dense:")
        self.w("            _o((1, _tok[1]))")
        self.w("        else:")
        self.w("            _coords, _children = _lvl.fiber(0)")
        self.w("            _found = False")
        self.w("            for _c, _ch in zip(_coords, _children):")
        self.w("                if _c == _tok[1]:")
        self.w("                    _o((1, _ch))")
        self.w("                    _found = True")
        self.w("                    break")
        self.w("            if not _found:")
        self.w("                _o(_ET)")
        if dram:
            self.w("            _st.dram_reads += 8")
        self.w("    elif _k == 3 or _k == 4 or _k == 5:")
        self.w("        _o(_tok)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            "f\"locate got unexpected token kind {_k}\")"
        )
        self.w(f"_st.tokens_out += len(s{i}_ref)")

    def _emit_joiner(self, i, node_id, node, prim, keep_all: bool) -> None:
        kind = prim.kind
        ca, ra = self._in(node, "crd_a"), self._in(node, "ref_a")
        cb, rb = self._in(node, "crd_b"), self._in(node, "ref_b")
        self.w(f"_require_aligned({ca}, {ra}, \"{kind}(a)\", {node_id!r})")
        self.w(f"_require_aligned({cb}, {rb}, \"{kind}(b)\", {node_id!r})")
        self.w(
            f"_st.tokens_in += len({ca}) + len({cb}) + len({ra}) + len({rb})"
        )
        self.w(f"s{i}_crd = []")
        self.w(f"s{i}_ref_a = []")
        self.w(f"s{i}_ref_b = []")
        self.w(f"_oc = s{i}_crd.append")
        self.w(f"_oa = s{i}_ref_a.append")
        self.w(f"_ob = s{i}_ref_b.append")
        self.w("_ia = 0")
        self.w("_ib = 0")
        self.w(f"_na = len({ca})")
        self.w(f"_nb = len({cb})")
        self.w("while _ia < _na and _ib < _nb:")
        self.w(f"    _ta = {ca}[_ia]")
        self.w(f"    _tb = {cb}[_ib]")
        self.w("    _ka = _ta[0]")
        self.w("    _kb = _tb[0]")
        self.w("    if _ka == 0 and _kb == 0:")
        self.w("        _va = _ta[1]")
        self.w("        _vb = _tb[1]")
        self.w("        if _va == _vb:")
        self.w("            _oc(_ta)")
        self.w(f"            _oa({ra}[_ia])")
        self.w(f"            _ob({rb}[_ib])")
        self.w("            _ia += 1")
        self.w("            _ib += 1")
        self.w("        elif _va < _vb:")
        if keep_all:
            self.w("            _oc(_ta)")
            self.w(f"            _oa({ra}[_ia])")
            self.w("            _ob(_ET)")
        self.w("            _ia += 1")
        self.w("        else:")
        if keep_all:
            self.w("            _oc(_tb)")
            self.w("            _oa(_ET)")
            self.w(f"            _ob({rb}[_ib])")
        self.w("            _ib += 1")
        self.w("    elif _ka == 0:")
        if keep_all:
            self.w("        _oc(_ta)")
            self.w(f"        _oa({ra}[_ia])")
            self.w("        _ob(_ET)")
        self.w("        _ia += 1")
        self.w("    elif _kb == 0:")
        if keep_all:
            self.w("        _oc(_tb)")
            self.w("        _oa(_ET)")
            self.w(f"        _ob({rb}[_ib])")
        self.w("        _ib += 1")
        self.w("    else:")
        self.w("        if _ta != _tb:")
        self.w(
            f"            raise _control_mismatch({kind!r}, {node_id!r}, "
            "_ia, _ib, _ta, _tb)"
        )
        self.w("        _oc(_ta)")
        self.w("        _oa(_ta)")
        self.w("        _ob(_ta)")
        self.w("        _ia += 1")
        self.w("        _ib += 1")
        self.w("        if _ka == 4:")
        self.w("            break")
        self.w(
            f"_st.tokens_out += len(s{i}_crd) + len(s{i}_ref_a) "
            f"+ len(s{i}_ref_b)"
        )

    def _emit_intersect(self, i, node_id, node, prim) -> None:
        self._emit_joiner(i, node_id, node, prim, keep_all=False)

    def _emit_union(self, i, node_id, node, prim) -> None:
        self._emit_joiner(i, node_id, node, prim, keep_all=True)

    #: Binary ops worth inlining as expressions (the rest call the table fn).
    _INLINE_BINARY = {"add": "_va + _vb", "sub": "_va - _vb", "mul": "_va * _vb"}

    def _emit_alu(self, i, node_id, node, prim) -> None:
        a, b = self._in(node, "a"), self._in(node, "b")
        op = prim.op
        expr = self._INLINE_BINARY.get(op)
        if expr is None:
            self.w(f"_fn = _BINARY_OPS[{op!r}]")
            expr = "_fn(_va, _vb)"
        self.w(f"if len({a}) != len({b}):")
        self.w(
            "    raise StreamProtocolError("
            f"f\"alu({op}): misaligned inputs ({{len({a})}} vs {{len({b})}})\")"
        )
        self.w(f"_st.tokens_in += len({a}) + len({b})")
        self.w(f"s{i}_out = []")
        self.w(f"_o = s{i}_out.append")
        self.w("_ops = 0")
        self.w(f"for _ta, _tb in zip({a}, {b}):")
        self.w("    _ka = _ta[0]")
        self.w("    if _ka == 3 or _ka == 4:")
        self.w("        if _ta != _tb:")
        self.w(
            "            raise StreamProtocolError("
            f"f\"alu({op}): control mismatch {{_ta}} vs {{_tb}}\")"
        )
        self.w("        _o(_ta)")
        self.w("    elif _ka == 5 and _tb[0] == 5:")
        self.w("        _o(_ta)")
        self.w("    else:")
        self.w("        _va = 0.0 if _ka == 5 else _ta[1]")
        self.w("        _vb = 0.0 if _tb[0] == 5 else _tb[1]")
        self.w(f"        _r = {expr}")
        if op in ("bmm", "bmt"):
            self.w("        if isinstance(_r, np.ndarray) and _r.ndim == 2:")
            self.w(
                "            _ops += 2 * _r.shape[0] * _r.shape[1] * ("
                "_va.shape[1] if isinstance(_va, np.ndarray) "
                "and _va.ndim == 2 else 1)"
            )
            self.w("        else:")
            self.w(
                "            _ops += int(_r.size) "
                "if isinstance(_r, np.ndarray) else 1"
            )
        else:
            self.w(
                "        _ops += int(_r.size) "
                "if isinstance(_r, np.ndarray) else 1"
            )
        self.w("        _o((2, _r))")
        self.w("_st.ops += _ops")
        self.w(f"_st.tokens_out += len(s{i}_out)")

    def _emit_ualu(self, i, node_id, node, prim) -> None:
        a = self._in(node, "a")
        scaled = prim.scale != 1.0 or prim.offset != 0.0
        self.w(f"_fn = _UNARY_OPS[{prim.op!r}]")
        self.w(f"_st.tokens_in += len({a})")
        self.w(f"s{i}_out = []")
        self.w(f"_o = s{i}_out.append")
        self.w("_ops = 0")
        self.w(f"for _tok in {a}:")
        self.w("    if _tok[0] == 2:")
        if scaled:
            self.w(f"        _x = {prim.scale!r} * _tok[1] + {prim.offset!r}")
        else:
            self.w("        _x = _tok[1]")
        self.w("        _r = _fn(_x)")
        self.w(
            "        _ops += int(_r.size) if isinstance(_r, np.ndarray) else 1"
        )
        self.w("        _o((2, _r))")
        self.w("    else:")
        self.w("        _o(_tok)")
        self.w("_st.ops += _ops")
        self.w(f"_st.tokens_out += len(s{i}_out)")

    def _emit_array(self, i, node_id, node, prim) -> None:
        ref_in = self._in(node, "ref")
        dram = prim.dram
        self.w(f"_t = _get_tensor(binding, {prim.tensor_name!r})")
        self.w("_vals = _t.values")
        self.w("_blocked = _vals.ndim > 1")
        self.w("_zero = np.zeros(_vals.shape[1:]) if _blocked else 0.0")
        if dram:
            self.w(
                "_eb = int(np.prod(_vals.shape[1:])) * 8 if _blocked else 8"
            )
            self.w("_nref = 0")
        self.w(f"s{i}_val = []")
        self.w(f"_o = s{i}_val.append")
        self.w(f"_st.tokens_in += len({ref_in})")
        self.w(f"for _tok in {ref_in}:")
        self.w("    _k = _tok[0]")
        self.w("    if _k == 1:")
        self.w("        _o((2, _vals[_tok[1]]))")
        if dram:
            self.w("        _nref += 1")
        self.w("    elif _k == 5:")
        self.w("        _o((2, _zero))")
        self.w("    elif _k == 3 or _k == 4:")
        self.w("        _o(_tok)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            "f\"array got unexpected token kind {_k}\")"
        )
        if dram:
            self.w("_fp = int(_vals.size) * 8")
            self.w("_ab = _eb * _nref")
            self.w("if _fp <= scratchpad_bytes:")
            self.w("    _st.dram_reads += min(_ab, _fp)")
            self.w("else:")
            self.w("    _st.dram_reads += _ab")
        self.w(f"_st.tokens_out += len(s{i}_val)")

    def _emit_reduce(self, i, node_id, node, prim) -> None:
        val_in = self._in(node, "val")
        self.w(f"s{i}_val = []")
        self.w(f"_o = s{i}_val.append")
        self.w("_acc = None")
        self.w("_ops = 0")
        self.w(f"_st.tokens_in += len({val_in})")
        self.w(f"for _tok in {val_in}:")
        self.w("    _k = _tok[0]")
        self.w("    if _k == 2:")
        self.w("        if _acc is None:")
        self.w("            _acc = _tok[1]")
        self.w("        else:")
        self.w("            _acc = _acc + _tok[1]")
        self.w(
            "            _ops += 1 if not isinstance(_acc, np.ndarray) "
            "else int(_acc.size)"
        )
        self.w("    elif _k == 5:")
        self.w("        if _acc is None:")
        self.w("            _acc = 0.0")
        self.w("    elif _k == 3:")
        self.w("        _o((2, _acc if _acc is not None else 0.0))")
        self.w("        _acc = None")
        self.w("        if _tok[1] > 0:")
        self.w("            _o((3, _tok[1] - 1))")
        self.w("    elif _k == 4:")
        self.w("        if _acc is not None:")
        self.w("            _o((2, _acc))")
        self.w("            _acc = None")
        self.w("        _o(_DT)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            "f\"reduce got unexpected token kind {_k}\")"
        )
        self.w("_st.ops += _ops")
        self.w(f"_st.tokens_out += len(s{i}_val)")

    def _emit_vreduce(self, i, node_id, node, prim) -> None:
        n = prim.order
        val_in = self._in(node, "val")
        crd_ins = [self._in(node, f"crd{d}") for d in range(n)]
        self.w(f"_crds = [{', '.join(crd_ins)}]")
        self.w(f"for _d in range({n}):")
        self.w(f"    if len(_crds[_d]) != len({val_in}):")
        self.w(
            "        raise StreamProtocolError("
            "f\"vreduce: crd{_d}/val misaligned \""
            f"f\"({{len(_crds[_d])}} vs {{len({val_in})}})\")"
        )
        self.w(f"_st.tokens_in += len({val_in}) * {n + 1}")
        self.w(f"_ocrds{i} = [[] for _d in range({n})]")
        self.w(f"_oval{i} = []")
        self.w(f"_acc{i} = {{}}")
        self.w(f"def _emit_group{i}():")
        self.w(f"    _keys = sorted(_acc{i})")
        self.w("    _prev = None")
        self.w("    for _key in _keys:")
        self.w("        if _prev is not None:")
        self.w("            _common = 0")
        self.w(
            f"            while _common < {n} "
            "and _prev[_common] == _key[_common]:"
        )
        self.w("                _common += 1")
        self.w(f"            for _d in range({n}):")
        self.w("                if _common <= _d - 1:")
        self.w(
            f"                    _ocrds{i}[_d].append((3, _d - 1 - _common))"
        )
        self.w(f"            if _common <= {n - 2}:")
        self.w(f"                _oval{i}.append((3, {n - 2} - _common))")
        self.w(f"        for _d in range({n}):")
        self.w(
            "        "
            "    if _prev is None or _key[: _d + 1] != _prev[: _d + 1]:"
        )
        self.w(f"                _ocrds{i}[_d].append((0, _key[_d]))")
        self.w(f"        _oval{i}.append((2, _acc{i}[_key]))")
        self.w("        _prev = _key")
        self.w(f"    _acc{i}.clear()")
        self.w(f"def _close_group{i}(_lvl):")
        self.w(f"    _extra = _lvl - {n}")
        self.w(f"    for _d in range({n}):")
        self.w(f"        _ocrds{i}[_d].append((3, _d + _extra))")
        self.w(f"    _oval{i}.append((3, _lvl - 1))")
        self.w("_ops = 0")
        self.w("_pos = 0")
        self.w(f"for _tv in {val_in}:")
        self.w("    _kv = _tv[0]")
        self.w("    if _kv == 2 or _kv == 5:")
        self.w("        _key = []")
        self.w(f"        for _d in range({n}):")
        self.w("            _tc = _crds[_d][_pos]")
        self.w("            if _tc[0] != 0:")
        self.w(
            "                raise StreamProtocolError("
            "f\"vreduce: crd{_d} token {_tc} does not align with value\")"
        )
        self.w("            _key.append(_tc[1])")
        self.w("        _key_t = tuple(_key)")
        self.w("        _value = 0.0 if _kv == 5 else _tv[1]")
        self.w(f"        if _key_t in _acc{i}:")
        self.w(f"            _acc{i}[_key_t] = _acc{i}[_key_t] + _value")
        self.w(
            "            _ops += int(_value.size) "
            "if isinstance(_value, np.ndarray) else 1"
        )
        self.w("        else:")
        self.w(f"            _acc{i}[_key_t] = _value")
        self.w("    elif _kv == 3:")
        self.w("        _lvl = _tv[1]")
        self.w(f"        for _d in range({n}):")
        self.w("            _tc = _crds[_d][_pos]")
        self.w("            if _tc[0] != 3 or _tc[1] != _lvl:")
        self.w(
            "                raise StreamProtocolError("
            "\"vreduce: stop tokens disagree\")"
        )
        self.w(f"        if _lvl >= {n}:")
        self.w(f"            _emit_group{i}()")
        self.w(f"            _close_group{i}(_lvl)")
        self.w("    elif _kv == 4:")
        self.w(f"        if _acc{i}:")
        self.w(f"            _emit_group{i}()")
        self.w(f"            _close_group{i}({n})")
        self.w(f"        for _d in range({n}):")
        self.w(f"            _ocrds{i}[_d].append(_DT)")
        self.w(f"        _oval{i}.append(_DT)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            "f\"vreduce got unexpected token kind {_kv}\")"
        )
        self.w("    _pos += 1")
        self.w("_st.ops += _ops")
        self.w(
            f"_st.tokens_out += sum(len(_s) for _s in _ocrds{i}) "
            f"+ len(_oval{i})"
        )
        for d in range(n):
            self.w(f"s{i}_crd{d} = _ocrds{i}[{d}]")
        self.w(f"s{i}_val = _oval{i}")

    def _emit_crddrop(self, i, node_id, node, prim) -> None:
        crd_in, val_in = self._in(node, "crd"), self._in(node, "val")
        self.w(f"if len({crd_in}) != len({val_in}):")
        self.w(
            "    raise StreamProtocolError(\"crddrop: crd/val misaligned\")"
        )
        self.w(f"_st.tokens_in += len({crd_in}) + len({val_in})")
        self.w(f"s{i}_crd = []")
        self.w(f"s{i}_val = []")
        self.w(f"_oc = s{i}_crd.append")
        self.w(f"_ov = s{i}_val.append")
        self.w(f"for _tc, _tv in zip({crd_in}, {val_in}):")
        self.w("    if _tc[0] == 0:")
        self.w("        _v = _tv[1]")
        self.w("        if isinstance(_v, np.ndarray):")
        self.w("            _is_zero = float(np.abs(_v).max()) == 0.0")
        self.w("        else:")
        self.w("            _is_zero = _v == 0.0")
        self.w("        if not _is_zero:")
        self.w("            _oc(_tc)")
        self.w("            _ov(_tv)")
        self.w("    else:")
        self.w("        _oc(_tc)")
        self.w("        _ov(_tv)")
        self.w(f"_st.tokens_out += len(s{i}_crd) + len(s{i}_val)")

    def _emit_aligncheck(self, i, node_id, node, prim) -> None:
        a, b = self._in(node, "a"), self._in(node, "b")
        self.w(f"_st.tokens_in += len({a}) + len({b})")
        self.w(f"if {a} != {b}:")
        self.w(
            "    raise StreamProtocolError("
            "\"aligned-adopt streams differ; the fusion schedule requires a \""
            "\"materialization boundary between these statements\")"
        )
        self.w(f"_st.tokens_out += len({a})")
        self.w(f"s{i}_out = list({a})")

    def _emit_repeat(self, i, node_id, node, prim) -> None:
        base, rep = self._in(node, "base"), self._in(node, "rep")
        self.w(f"_st.tokens_in += len({base}) + len({rep})")
        self.w(f"s{i}_out = []")
        self.w(f"_o = s{i}_out.append")
        self.w("_bi = 0")
        self.w(f"_nb = len({base})")
        self.w(f"for _tok in {rep}:")
        self.w("    _k = _tok[0]")
        self.w("    if _k == 0:")
        self.w(f"        _bk = {base}[_bi][0] if _bi < _nb else 4")
        self.w("        if _bk == 3 or _bk == 4:")
        self.w(
            "            raise StreamProtocolError(\"repeat: rep stream has "
            "coordinates but base has none current\")"
        )
        self.w(f"        _o({base}[_bi])")
        self.w("    elif _k == 3:")
        self.w("        _o(_tok)")
        self.w(f"        _bk = {base}[_bi][0] if _bi < _nb else 4")
        self.w("        if _bk != 3 and _bk != 4:")
        self.w("            _bi += 1")
        self.w("        if _tok[1] >= 1:")
        self.w(f"            _bk = {base}[_bi][0] if _bi < _nb else 4")
        self.w("            if _bk != 3:")
        self.w(
            "                raise StreamProtocolError("
            "f\"repeat: rep stop {_tok[1]} expects a base stop \""
            f"f\"{{_tok[1] - 1}}, found "
            f"{{{base}[_bi] if _bi < _nb else 'EOS'}}\")"
        )
        self.w(f"            if {base}[_bi][1] != _tok[1] - 1:")
        self.w(
            "                raise StreamProtocolError("
            "f\"repeat: rep stop {_tok[1]} mismatches base stop \""
            f"f\"{{{base}[_bi][1]}}\")"
        )
        self.w("            _bi += 1")
        self.w("    elif _k == 4:")
        self.w("        _o(_DT)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            "f\"repeat: unexpected token kind {_k} on rep stream\")"
        )
        self.w(f"_st.tokens_out += len(s{i}_out)")

    def _emit_repsig(self, i, node_id, node, prim) -> None:
        crd_in = self._in(node, "crd")
        self.w(f"s{i}_out = list({crd_in})")
        self.w(f"_st.tokens_in += len(s{i}_out)")
        self.w(f"_st.tokens_out += len(s{i}_out)")

    def _emit_srepeat(self, i, node_id, node, prim) -> None:
        base, rep = self._in(node, "base"), self._in(node, "rep")
        self.w(f"_st.tokens_in += len({base}) + len({rep})")
        self.w(
            f"_pays = [_t for _t in {base} if _t[0] != 3 and _t[0] != 4]"
        )
        self.w("if len(_pays) != 1:")
        self.w(
            "    raise StreamProtocolError("
            "f\"scalar repeat expects exactly one base payload, "
            "got {len(_pays)}\")"
        )
        self.w("_p = _pays[0]")
        self.w(f"s{i}_out = []")
        self.w(f"_o = s{i}_out.append")
        self.w(f"for _tok in {rep}:")
        self.w("    _k = _tok[0]")
        self.w("    if _k == 0:")
        self.w("        _o(_p)")
        self.w("    elif _k == 3 or _k == 4:")
        self.w("        _o(_tok)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            "f\"scalar repeat: unexpected token kind {_k} on rep stream\")"
        )
        self.w(f"_st.tokens_out += len(s{i}_out)")

    def _emit_fiberop(self, i, node_id, node, prim) -> None:
        val_in = self._in(node, "val")
        kind = prim.kind
        fpe = prim.flops_per_elem
        self.w(f"_fn = _FIBER_FNS[{kind!r}]")
        self.w(f"s{i}_out = []")
        self.w(f"_o = s{i}_out.append")
        self.w(f"_buf{i} = []")
        self.w(f"_st.tokens_in += len({val_in})")
        self.w("_ops = 0")
        self.w(f"for _tok in {val_in}:")
        self.w("    _k = _tok[0]")
        self.w("    if _k == 2:")
        self.w(f"        _buf{i}.append(_tok[1])")
        self.w("    elif _k == 5:")
        self.w(f"        _buf{i}.append(0.0)")
        self.w("    elif _k == 3 or _k == 4:")
        self.w(f"        if _buf{i}:")
        self.w(f"            for _r in _apply_over_fiber(_buf{i}, _fn):")
        self.w("                _o((2, _r))")
        self.w(
            f"                _ops += {fpe} * (int(_r.size) "
            "if isinstance(_r, np.ndarray) else 1)"
        )
        self.w(f"            _buf{i}.clear()")
        self.w("        _o(_tok)")
        self.w("    else:")
        self.w(
            "        raise StreamProtocolError("
            f"f\"{kind} got token kind {{_k}}\")"
        )
        self.w("_st.ops += _ops")
        self.w(f"_st.tokens_out += len(s{i}_out)")

    _emit_softmax = _emit_fiberop
    _emit_layernorm = _emit_fiberop
    _emit_fibermax = _emit_fiberop

    def _emit_write(self, i, node_id, node, prim) -> None:
        n = len(prim.shape)
        name = prim.tensor_name
        crd_ins = [self._in(node, f"crd{d}") for d in range(n)]
        val_in = self._in(node, "val")
        fmt = self._bind(f"_fmt{i}", prim.fmt)
        self.w(
            "_st.tokens_in += "
            + " + ".join(f"len({s})" for s in crd_ins + [val_in])
        )
        self.w(f"_nests{i} = [")
        for d, s in enumerate(crd_ins):
            self.w(f"    stream_to_nest({s}, {d + 1}, check=debug_streams),")
        self.w("]")
        self.w(f"_vals{i} = stream_to_nest({val_in}, {n}, check=debug_streams)")
        self.w(f"_coords{i} = {{}}")
        self.w(f"def _rec{i}(_depth, _frames, _vals, _prefix):")
        self.w("    _ch = _frames[0]")
        self.w("    if len(_ch) != len(_vals):")
        self.w(
            "        raise StreamProtocolError("
            f"f\"writer {name}: level {{_depth}} crd/val fan-out \""
            "f\"mismatch ({len(_ch)} vs {len(_vals)})\")"
        )
        self.w("    for _j, _c in enumerate(_ch):")
        self.w("        _path = _prefix + (_c,)")
        self.w(f"        if _depth == {n - 1}:")
        self.w(f"            _coords{i}[_path] = _vals[_j]")
        self.w("        else:")
        self.w(
            f"            _rec{i}(_depth + 1, "
            "[_f[_j] for _f in _frames[1:]], _vals[_j], _path)"
        )
        self.w(f"_rec{i}(0, _nests{i}, _vals{i}, ())")
        if prim.drop_zeros:
            self.w(f"_coords{i} = {{")
            self.w(f"    _p: _v for _p, _v in _coords{i}.items()")
            self.w(
                "    if (np.abs(_v).max() if isinstance(_v, np.ndarray) "
                "else abs(_v)) != 0.0"
            )
            self.w("}")
        self.w(
            f"_tw = SparseTensor.from_coords({prim.shape!r}, {fmt}, "
            f"_coords{i}, name={name!r})"
        )
        if prim.dram:
            self.w("_st.dram_writes += _tw.bytes_total()")
        self.w(f"results[{name!r}] = _tw")
        self.w(f"s{i}_tensor = []")


class _ColumnarEmitter(_Emitter):
    """Emits kernels over TokenStream columns instead of token tuples.

    Per node the emitter picks, in order:

    1. a ``_cemit_{kind}`` method — the inlined columnar body, specialized
       with the node's configuration folded in (nodes whose inputs carry
       object payloads guard with a whole-node escape to the bound
       primitive's ``process_columnar``, reproducing the interpreter's
       blocked paths — and their stats accounting — exactly);
    2. the token-tier ``_emit_{kind}`` body bridged through
       ``to_tokens()``/``from_tokens()`` at this node's ports only;
    3. region-level fallback (``_Unsupported``) when neither exists.
    """

    tier = "columnar"

    def _prelude(self) -> None:
        super()._prelude()
        self.w("_I8_VAL = np.int8(2)")
        self.w("_I8_REF = np.int8(1)")
        self.w("_I8_EMPTY = np.int8(5)")
        # One ExecutionContext per run, shared by every escape-to-primitive
        # call site; results is the kernel's dict so writer escapes land in
        # the same place as inlined writers.
        self.w(
            "_ctx = _Ctx(None, scratchpad_bytes=scratchpad_bytes, "
            "debug_streams=debug_streams)"
        )
        self.w("_ctx.binding = binding")
        self.w("_ctx.results = results")

    def _node_emitter(self, prim, node_id: str) -> Callable:
        emitter = getattr(self, f"_cemit_{prim.kind}", None)
        if emitter is not None:
            return emitter
        token_emitter = getattr(_Emitter, f"_emit_{prim.kind}", None)
        if token_emitter is None:
            raise _Unsupported(
                f"unsupported primitive kind {prim.kind!r} at node {node_id}"
            )

        def bridged(i, nid, node, p, _fn=token_emitter):
            self._emit_token_bridge(_fn, i, nid, node, p)

        return bridged

    def _emit_token_bridge(self, token_emitter, i, node_id, node, prim) -> None:
        """Run one node through its token-tier body (per-node fallback)."""
        self.w(f"# (token-tier bridge: no columnar emitter for {prim.kind!r})")
        saved: Dict[Tuple[str, str], str] = {}
        for port in prim.in_ports:
            src = node.inputs[port]
            key = (src.node_id, src.port)
            if key in saved:
                continue
            saved[key] = self.var[key]
            self.w(f"_tb{i}_{port} = {saved[key]}.to_tokens()")
            self.var[key] = f"_tb{i}_{port}"
        token_emitter(self, i, node_id, node, prim)
        self.var.update(saved)
        for port in prim.out_ports:
            var = f"s{i}_{port}"
            self.w(f"{var} = _TS.from_tokens({var})")

    def _emit_prim_call(self, i, node_id, node, prim) -> None:
        """Escape hatch: run the bound primitive's columnar kernel whole.

        Used for input shapes the inlined bodies do not cover (object
        payloads / blocked values); the primitive performs the exact
        interpreter computation *and* stats accounting, so escapes must be
        emitted before any inline stats updates.
        """
        pname = self._bind(f"_P{i}", prim)
        ins = ", ".join(
            f"{port!r}: {self._in(node, port)}" for port in prim.in_ports
        )
        self.w(f"_ctx.current_node = {node_id!r}")
        self.w(f"_po{i} = {pname}.process_columnar({{{ins}}}, _ctx, _st)")
        for port in prim.out_ports:
            self.w(f"s{i}_{port} = _po{i}[{port!r}]")

    # -- per-kind columnar emitters -------------------------------------
    def _cemit_root(self, i, node_id, node, prim) -> None:
        const = self._bind(f"_R{i}", type(prim)._COLUMNAR)
        self.w(f"s{i}_ref = {const}")
        self.w("_st.tokens_out += 2")

    def _cemit_source(self, i, node_id, node, prim) -> None:
        # Convert the replayed stream once at emit time and bind the
        # columnar form (the primitive caches it on the same attribute).
        cached = getattr(prim, "_columnar", None)
        if cached is None:
            cached = TokenStream.from_tokens(prim.stream)
            prim._columnar = cached
        src = self._bind(f"_SRC{i}", cached)
        self.w(f"s{i}_out = {src}")
        self.w(f"_st.tokens_out += {len(cached)}")

    def _cemit_scan(self, i, node_id, node, prim) -> None:
        ref_in = self._in(node, "ref")
        self.w(f"if {ref_in}.objs is not None:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            # Vectorized CSR-style expansion: per-token output counts from
            # shifted-kind masks, offsets by cumsum, fibers gathered with
            # one repeat/arange scatter.  Observable behavior (stats order,
            # error wording, emitted values) matches the per-token kernel
            # in sam/primitives/scanner.py exactly.
            self.w(f"_t = _get_tensor(binding, {prim.tensor_name!r})")
            self.w(f"_lvl = _t.levels[{prim.level}]")
            self.w(f"_ki = {ref_in}.kinds")
            self.w(f"_di = {ref_in}.data")
            self.w("_n = len(_ki)")
            self.w("_st.tokens_in += _n")
            self.w("_isr = _ki == 1")
            self.w("_iss = _ki == 3")
            self.w("_isd = _ki == 4")
            self.w("_ise = _ki == 5")
            self.w("_setv = _isr | _ise")
            self.w("_bad = ~(_setv | _iss | _isd)")
            self.w("if _bad.any():")
            self.w(
                "    raise StreamProtocolError("
                "f\"scanner got unexpected token kind "
                "{int(_ki[np.argmax(_bad)])}\")"
            )
            # open_fiber before token t == value set by the last open/close
            # token (REF/EMPTY open, STOP closes; DONE leaves it untouched)
            # strictly before t.
            self.w("_mi = np.where(_setv | _iss, np.arange(_n), -1)")
            self.w("np.maximum.accumulate(_mi, out=_mi)")
            self.w("_opens = np.zeros(_n, dtype=bool)")
            self.w("if _n > 1:")
            self.w("    _lb = _mi[:-1]")
            self.w("    _hv = _lb >= 0")
            self.w("    _opens[1:][_hv] = _setv[_lb[_hv]]")
            self.w("_ins = _opens & (_setv | _isd)")
            self.w("_refs = _di[_isr].astype(np.int64)")
            self.w("_nf = len(_refs)")
            self.w("if _lvl.kind == 'dense':")
            self.w("    _sz = _lvl.size")
            self.w("    _starts = _refs * _sz")
            self.w("    _lens = np.full(_nf, _sz, dtype=np.int64)")
            self.w("else:")
            self.w("    _pos, _crd = _lvl_arrays(_lvl)")
            self.w("    _starts = _pos[_refs]")
            self.w("    _lens = _pos[_refs + 1] - _starts")
            self.w("_nnz = int(_lens.sum())")
            self.w("_cnt = _ins.astype(np.int64)")
            self.w("_cnt[_isr] += _lens")
            self.w("_cnt[_iss] += 1")
            self.w("_cnt[_isd] += 1")
            self.w("_off = np.zeros(_n + 1, dtype=np.int64)")
            self.w("np.cumsum(_cnt, out=_off[1:])")
            self.w("_total = int(_off[_n])")
            self.w("_ck = np.zeros(_total, dtype=np.int8)")
            self.w("_rk = np.ones(_total, dtype=np.int8)")
            self.w("_cd = np.zeros(_total, dtype=np.float64)")
            self.w("_rd = np.zeros(_total, dtype=np.float64)")
            self.w("_s0 = _off[:-1][_ins]")
            self.w("_ck[_s0] = 3")
            self.w("_rk[_s0] = 3")
            self.w("_ss = _off[:-1][_iss]")
            self.w("_ck[_ss] = 3")
            self.w("_rk[_ss] = 3")
            self.w("_sp = _di[_iss] + 1.0")
            self.w("_cd[_ss] = _sp")
            self.w("_rd[_ss] = _sp")
            self.w("_sd = _off[:-1][_isd] + _ins[_isd]")
            self.w("_ck[_sd] = 4")
            self.w("_rk[_sd] = 4")
            self.w("if _nnz:")
            self.w("    _pb = _off[:-1][_isr] + _ins[_isr]")
            self.w("    _csum = np.zeros(_nf, dtype=np.int64)")
            self.w("    np.cumsum(_lens[:-1], out=_csum[1:])")
            self.w(
                "    _within = np.arange(_nnz, dtype=np.int64)"
                " - np.repeat(_csum, _lens)"
            )
            self.w("    _slots = np.repeat(_pb, _lens) + _within")
            self.w("    if _lvl.kind == 'dense':")
            self.w("        _cd[_slots] = _within")
            self.w("        _rd[_slots] = np.repeat(_starts, _lens) + _within")
            self.w("    else:")
            self.w("        _src = np.repeat(_starts, _lens) + _within")
            self.w("        _cd[_slots] = _crd[_src]")
            self.w("        _rd[_slots] = _src")
            if prim.dram:
                self.w("if _lvl.kind == 'compressed':")
                self.w("    _ab = 8 * _nf + 4 * _nnz")
                self.w("    _fp = _t.bytes_structure()")
                self.w("    if _fp <= scratchpad_bytes:")
                self.w("        _st.dram_reads += min(_ab, _fp)")
                self.w("    else:")
                self.w("        _st.dram_reads += _ab")
            self.w("_st.tokens_out += 2 * _total")
            self.w(f"s{i}_crd = _TS(_ck, _cd)")
            self.w(f"s{i}_ref = _TS(_rk, _rd)")

    def _cemit_locate(self, i, node_id, node, prim) -> None:
        crd_in = self._in(node, "crd")
        self.w(f"_t = _get_tensor(binding, {prim.tensor_name!r})")
        self.w(f"_lvl = _t.levels[{prim.level}]")
        self.w(f"_kk = {crd_in}.kinds")
        self.w(f"_st.tokens_in += len({crd_in})")
        self.w("_bad = np.nonzero((_kk == 1) | (_kk == 2))[0]")
        self.w("if _bad.size:")
        self.w(
            "    raise StreamProtocolError("
            "f\"locate got unexpected token kind {int(_kk[_bad[0]])}\")"
        )
        self.w("_ic = _kk == 0")
        self.w("if _lvl.kind == 'dense':")
        self.w("    _ok = np.where(_ic, _I8_REF, _kk)")
        self.w(f"    s{i}_ref = _TS(_ok, {crd_in}.data)")
        self.w("else:")
        self.w("    _coords, _children = _lvl.fiber(0)")
        self.w("    _carr = np.asarray(_coords, dtype=np.int64)")
        self.w(f"    _q = {crd_in}.data[_ic].astype(np.int64)")
        self.w("    _idx = np.searchsorted(_carr, _q)")
        self.w("    _clip = np.minimum(_idx, max(len(_carr) - 1, 0))")
        self.w("    if len(_carr):")
        self.w("        _found = (_carr[_clip] == _q) & (_idx < len(_carr))")
        self.w("    else:")
        self.w("        _found = np.zeros(len(_q), dtype=bool)")
        self.w("    _cb = _children[0] if len(_carr) else 0")
        self.w("    _ok = _kk.copy()")
        self.w(f"    _od = {crd_in}.data.copy()")
        self.w("    _cp = np.nonzero(_ic)[0]")
        self.w("    _ok[_cp] = np.where(_found, _I8_REF, _I8_EMPTY)")
        self.w(
            "    _od[_cp] = np.where(_found, "
            "(_cb + _clip).astype(np.float64), 0.0)"
        )
        if prim.dram:
            self.w("    _st.dram_reads += 8 * len(_q)")
        self.w(f"    s{i}_ref = _TS(_ok, _od)")
        self.w(f"_st.tokens_out += len(s{i}_ref)")

    def _cemit_joiner(self, i, node_id, node, prim, keep_all: bool) -> None:
        kind = prim.kind
        ca, ra = self._in(node, "crd_a"), self._in(node, "ref_a")
        cb, rb = self._in(node, "crd_b"), self._in(node, "ref_b")
        self.w(f"_require_aligned({ca}, {ra}, \"{kind}(a)\", {node_id!r})")
        self.w(f"_require_aligned({cb}, {rb}, \"{kind}(b)\", {node_id!r})")
        self.w(
            f"_st.tokens_in += len({ca}) + len({cb}) + len({ra}) + len({rb})"
        )
        self.w(
            f"_ctA, _payA, _segA, _crdsA = _split_segments({ca}, "
            f"\"{kind}(a)\", {node_id!r})"
        )
        self.w(
            f"_ctB, _payB, _segB, _crdsB = _split_segments({cb}, "
            f"\"{kind}(b)\", {node_id!r})"
        )
        self.w(
            f"_check_controls({ca}, {cb}, _ctA, _ctB, {kind!r}, {node_id!r})"
        )
        self.w("_cmax = 0")
        self.w("if _crdsA.size:")
        self.w("    _cmax = int(_crdsA.max())")
        self.w("if _crdsB.size:")
        self.w("    _cmax = max(_cmax, int(_crdsB.max()))")
        self.w("_cspan = _cmax + 2")
        self.w("_keyA = _segA * _cspan + _crdsA")
        self.w("_keyB = _segB * _cspan + _crdsB")
        if not keep_all:
            self.w(
                "_x0, _ja, _jb = np.intersect1d("
                "_keyA, _keyB, assume_unique=True, return_indices=True)"
            )
            self.w("_posA = _payA[_ja]")
            self.w("_posB = _payB[_jb]")
            self.w("_ocrd = _crdsA[_ja]")
            self.w("_oseg = _segA[_ja]")
            self.w(f"_ka, _da, _oa = _payload_columns({ra}, _posA, None)")
            self.w(f"_kb, _db, _ob = _payload_columns({rb}, _posB, None)")
        else:
            self.w("_keys = np.union1d(_keyA, _keyB)")
            self.w("_ia = np.searchsorted(_keyA, _keys)")
            self.w("_inA = np.zeros(len(_keys), dtype=bool)")
            self.w("if len(_keyA):")
            self.w("    _iac = np.minimum(_ia, len(_keyA) - 1)")
            self.w("    _inA = _keyA[_iac] == _keys")
            self.w("_ib = np.searchsorted(_keyB, _keys)")
            self.w("_inB = np.zeros(len(_keys), dtype=bool)")
            self.w("if len(_keyB):")
            self.w("    _ibc = np.minimum(_ib, len(_keyB) - 1)")
            self.w("    _inB = _keyB[_ibc] == _keys")
            self.w(
                "_posA = _payA[_iac[_inA]] if len(_keyA) "
                "else np.empty(0, dtype=np.int64)"
            )
            self.w(
                "_posB = _payB[_ibc[_inB]] if len(_keyB) "
                "else np.empty(0, dtype=np.int64)"
            )
            self.w("_oseg, _ocrd = np.divmod(_keys, _cspan)")
            self.w(f"_ka, _da, _oa = _payload_columns({ra}, _posA, _inA)")
            self.w(f"_kb, _db, _ob = _payload_columns({rb}, _posB, _inB)")
        self.w("_npay = len(_ocrd)")
        self.w("_nctrl = len(_ctA)")
        self.w(
            "_ckeys = np.arange(_nctrl, dtype=np.int64) * _cspan "
            "+ (_cspan - 1)"
        )
        self.w("_pkeys = _oseg * _cspan + _ocrd")
        self.w(
            "_ord = np.argsort(np.concatenate([_pkeys, _ckeys]), "
            "kind='stable')"
        )
        self.w(f"_ctk = {ca}.kinds[_ctA]")
        self.w(f"_ctd = {ca}.data[_ctA]")
        self.w(
            "_crdk = np.concatenate("
            "[np.zeros(_npay, dtype=np.int8), _ctk])[_ord]"
        )
        self.w(
            "_crdd = np.concatenate("
            "[_ocrd.astype(np.float64), _ctd])[_ord]"
        )
        self.w(f"s{i}_crd = _TS(_crdk, _crdd)")
        for port, k, d, o in (
            ("ref_a", "_ka", "_da", "_oa"),
            ("ref_b", "_kb", "_db", "_ob"),
        ):
            self.w(f"_sk = np.concatenate([{k}, _ctk])[_ord]")
            self.w(f"_sd = np.concatenate([{d}, _ctd])[_ord]")
            self.w(f"if {o} is not None:")
            self.w(
                f"    _so = np.concatenate([{o}, "
                "np.full(_nctrl, None, dtype=object)])[_ord]"
            )
            self.w("else:")
            self.w("    _so = None")
            self.w(f"s{i}_{port} = _TS(_sk, _sd, _so)")
        self.w(
            f"_st.tokens_out += len(s{i}_crd) + len(s{i}_ref_a) "
            f"+ len(s{i}_ref_b)"
        )

    def _cemit_intersect(self, i, node_id, node, prim) -> None:
        self._cemit_joiner(i, node_id, node, prim, keep_all=False)

    def _cemit_union(self, i, node_id, node, prim) -> None:
        self._cemit_joiner(i, node_id, node, prim, keep_all=True)

    #: Binary ops inlined as vector expressions over the data columns
    #: (mirrors _vec_binary in sam/primitives/compute.py; div is special).
    _INLINE_VEC_BINARY = {
        "add": "{a}.data + {b}.data",
        "sub": "{a}.data - {b}.data",
        "mul": "{a}.data * {b}.data",
        "bmm": "{a}.data * {b}.data",
        "bmt": "{a}.data * {b}.data",
        "max": "np.maximum({a}.data, {b}.data)",
        "min": "np.minimum({a}.data, {b}.data)",
    }

    def _cemit_alu(self, i, node_id, node, prim) -> None:
        a, b = self._in(node, "a"), self._in(node, "b")
        op = prim.op
        self.w(f"if {a}.objs is not None or {b}.objs is not None:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            self.w(f"if len({a}) != len({b}):")
            self.w(
                "    raise StreamProtocolError("
                f"f\"alu({op}): misaligned inputs "
                f"({{len({a})}} vs {{len({b})}})\")"
            )
            self.w(f"_n = len({a})")
            self.w("_st.tokens_in += 2 * _n")
            self.w(f"_ka = {a}.kinds")
            self.w(f"_kb = {b}.kinds")
            self.w("_cta = (_ka == 3) | (_ka == 4)")
            self.w("_ctb = (_kb == 3) | (_kb == 4)")
            self.w(
                "_mm = (_cta != _ctb) | (_cta & ((_ka != _kb) "
                f"| ({a}.data != {b}.data)))"
            )
            self.w("if _mm.any():")
            self.w("    _i = int(np.nonzero(_mm)[0][0])")
            self.w("    raise StreamProtocolError(")
            self.w(
                f"        f\"alu({op}): control mismatch "
                f"{{{a}.token_at(_i)}} vs \""
            )
            self.w(f"        f\"{{{b}.token_at(_i)}} at position {{_i}}\"")
            self.w("    )")
            self.w("_be = (_ka == 5) & (_kb == 5)")
            self.w("_cm = ~_cta & ~_be")
            self.w("_ok = np.where(_cm, _I8_VAL, _ka)")
            if op == "div":
                self.w("with np.errstate(divide='ignore', invalid='ignore'):")
                self.w(
                    f"    _res = np.where({b}.data != 0.0, "
                    f"{a}.data / {b}.data, 0.0)"
                )
            else:
                self.w(f"_res = {self._INLINE_VEC_BINARY[op].format(a=a, b=b)}")
            self.w(f"_od = np.where(_cm, _res, {a}.data)")
            self.w("_st.ops += int(np.count_nonzero(_cm))")
            self.w(f"s{i}_out = _TS(_ok, _od)")
            self.w("_st.tokens_out += _n")

    #: Unary ops inlined as vector expressions over ``_x`` (mirrors
    #: _UNARY_OPS; anything not listed calls the shared table function).
    _INLINE_VEC_UNARY = {
        "relu": "np.maximum(_x, 0.0)",
        "exp": "np.exp(_x)",
        "neg": "-_x",
        "abs": "np.abs(_x)",
        "sigmoid": "1.0 / (1.0 + np.exp(-_x))",
        "tanh": "np.tanh(_x)",
        "sqrt": "np.sqrt(_x)",
        "identity": "_x",
        "square": "_x * _x",
    }

    def _cemit_ualu(self, i, node_id, node, prim) -> None:
        a = self._in(node, "a")
        op = prim.op
        self.w(f"if {a}.objs is not None:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            self.w(f"_n = len({a})")
            self.w("_st.tokens_in += _n")
            self.w(f"_kk = {a}.kinds")
            self.w("_iv = _kk == 2")
            if prim.scale != 1.0 or prim.offset != 0.0:
                self.w(f"_x = {prim.scale!r} * {a}.data + {prim.offset!r}")
            else:
                self.w(f"_x = {a}.data")
            expr = self._INLINE_VEC_UNARY.get(op)
            if expr is None:
                expr = f"_UNARY_OPS[{op!r}](_x)"
            self.w("with np.errstate(all='ignore'):")
            self.w(f"    _res = {expr}")
            self.w(f"_od = np.where(_iv, _res, {a}.data)")
            self.w("_st.ops += int(np.count_nonzero(_iv))")
            self.w("_st.tokens_out += _n")
            self.w(f"s{i}_out = _TS(_kk, _od)")

    def _cemit_array(self, i, node_id, node, prim) -> None:
        ref_in = self._in(node, "ref")
        self.w(f"_t = _get_tensor(binding, {prim.tensor_name!r})")
        self.w("_vals = _t.values")
        self.w("if _vals.ndim > 1:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            self.w(f"_n = len({ref_in})")
            self.w("_st.tokens_in += _n")
            self.w(f"_kk = {ref_in}.kinds")
            self.w("_bad = np.nonzero((_kk == 0) | (_kk == 2))[0]")
            self.w("if _bad.size:")
            self.w(
                "    raise StreamProtocolError("
                "f\"array got unexpected token kind {int(_kk[_bad[0]])}\")"
            )
            self.w("_ir = _kk == 1")
            self.w("_ie = _kk == 5")
            self.w("_rp = np.nonzero(_ir)[0]")
            self.w(f"_idx = {ref_in}.data[_rp].astype(np.int64)")
            self.w("_ok = np.where(_ir | _ie, _I8_VAL, _kk)")
            self.w(f"_od = np.where(_ir | _ie, 0.0, {ref_in}.data)")
            self.w("_od[_rp] = _vals[_idx]")
            if prim.dram:
                self.w("_ab = 8 * len(_rp)")
                self.w("_fp = int(_vals.size) * 8")
                self.w("if _fp <= scratchpad_bytes:")
                self.w("    _st.dram_reads += min(_ab, _fp)")
                self.w("else:")
                self.w("    _st.dram_reads += _ab")
            self.w("_st.tokens_out += _n")
            self.w(f"s{i}_val = _TS(_ok, _od)")

    def _cemit_reduce(self, i, node_id, node, prim) -> None:
        v = self._in(node, "val")
        self.w(f"if {v}.objs is not None:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            self.w(f"_n = len({v})")
            self.w("_st.tokens_in += _n")
            self.w(f"_kk = {v}.kinds")
            self.w("_bad = np.nonzero((_kk == 0) | (_kk == 1))[0]")
            self.w("if _bad.size:")
            self.w(
                "    raise StreamProtocolError("
                "f\"reduce got unexpected token kind {int(_kk[_bad[0]])}\")"
            )
            self.w("_sp = np.nonzero(_kk == 3)[0]")
            self.w(f"_sl = {v}.data[_sp].astype(np.int64)")
            self.w("_ns = len(_sp)")
            self.w("_vp = np.nonzero(_kk == 2)[0]")
            self.w("_ep = np.nonzero(_kk == 5)[0]")
            self.w("_sv = np.searchsorted(_sp, _vp)")
            self.w("_se = np.searchsorted(_sp, _ep)")
            self.w("_nseg = _ns + 1")
            self.w(f"_sums, _vc = _segment_sums({v}.data[_vp], _sv, _nseg)")
            self.w("_ec = np.bincount(_se, minlength=_nseg)")
            self.w("_hv = _vc > 0")
            self.w("_fv = np.full(_nseg, _n, dtype=np.int64)")
            self.w("_fv[_sv[::-1]] = _vp[::-1]")
            self.w("_fe = np.full(_nseg, _n, dtype=np.int64)")
            self.w("_fe[_se[::-1]] = _ep[::-1]")
            self.w("_ee = _hv & (_fe < _fv)")
            self.w(
                "_st.ops += int(np.sum(_vc[_hv] - 1) "
                "+ np.count_nonzero(_ee))"
            )
            self.w("_tr = bool(_hv[-1] or _ec[-1] > 0)")
            self.w("_dp = _sl > 0")
            self.w("_sz = 1 + _dp.astype(np.int64)")
            self.w("_off = np.concatenate([[0], np.cumsum(_sz)])")
            self.w("_tot = int(_off[-1]) + (1 if _tr else 0) + 1")
            self.w("_okk = np.full(_tot, 2, dtype=np.int8)")
            self.w("_odd = np.zeros(_tot, dtype=np.float64)")
            self.w("_vsl = _off[:-1]")
            self.w("_odd[_vsl] = _sums[:_ns]")
            self.w("_dsl = _vsl[_dp] + 1")
            self.w("_okk[_dsl] = 3")
            self.w("_odd[_dsl] = (_sl[_dp] - 1).astype(np.float64)")
            self.w("if _tr:")
            self.w("    _odd[_tot - 2] = _sums[_ns]")
            self.w("_okk[_tot - 1] = 4")
            self.w("_odd[_tot - 1] = 0.0")
            self.w(f"s{i}_val = _TS(_okk, _odd)")
            self.w("_st.tokens_out += _tot")

    def _cemit_vreduce(self, i, node_id, node, prim) -> None:
        # VectorReducer's columnar kernel is already lexsort-vectorized and
        # carries its own internal escapes; call it whole.
        self._emit_prim_call(i, node_id, node, prim)

    def _cemit_crddrop(self, i, node_id, node, prim) -> None:
        c, v = self._in(node, "crd"), self._in(node, "val")
        self.w(f"if {v}.objs is not None:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            self.w(f"if len({c}) != len({v}):")
            self.w(
                "    raise StreamProtocolError("
                "\"crddrop: crd/val misaligned\")"
            )
            self.w(f"_n = len({c})")
            self.w("_st.tokens_in += 2 * _n")
            self.w(f"_ic = {c}.kinds == 0")
            self.w(f"_ne = {v}.kinds != 5")
            self.w(f"_z = ({v}.data == 0.0) & _ne")
            self.w("_keep = np.nonzero(~(_ic & _z))[0]")
            self.w(f"s{i}_crd = {c}.gather(_keep)")
            self.w(f"s{i}_val = {v}.gather(_keep)")
            self.w(f"_st.tokens_out += len(s{i}_crd) + len(s{i}_val)")

    def _cemit_aligncheck(self, i, node_id, node, prim) -> None:
        a, b = self._in(node, "a"), self._in(node, "b")
        self.w(f"_st.tokens_in += len({a}) + len({b})")
        self.w(f"if not _streams_equal({a}, {b}):")
        self.w("    raise StreamProtocolError(")
        self.w(
            "        \"aligned-adopt streams differ; the fusion schedule "
            "requires a \""
        )
        self.w("        \"materialization boundary between these statements\"")
        self.w("    )")
        self.w(f"_st.tokens_out += len({a})")
        self.w(f"s{i}_out = {a}")

    def _cemit_repeat(self, i, node_id, node, prim) -> None:
        base, rep = self._in(node, "base"), self._in(node, "rep")
        self.w(f"_st.tokens_in += len({base}) + len({rep})")
        self.w(f"_rk = {rep}.kinds")
        self.w("_n = len(_rk)")
        self.w("_bad = np.nonzero((_rk == 1) | (_rk == 2) | (_rk == 5))[0]")
        self.w("if _bad.size:")
        self.w(
            "    raise StreamProtocolError("
            "f\"repeat: unexpected token kind {int(_rk[_bad[0]])} "
            "on rep stream\")"
        )
        self.w(f"_bk = {base}.kinds.tolist()")
        self.w(f"_bd = {base}.data")
        self.w("_nb = len(_bk)")
        self.w("_sp = np.nonzero(_rk == 3)[0]")
        self.w(f"_sl = {rep}.data[_sp].astype(np.int64).tolist()")
        self.w("_curs = [0]")
        self.w("_bi = 0")
        self.w("for _lvl in _sl:")
        self.w("    _k = _bk[_bi] if _bi < _nb else 4")
        self.w("    if _k != 3 and _k != 4:")
        self.w("        _bi += 1")
        self.w("    if _lvl >= 1:")
        self.w("        _k = _bk[_bi] if _bi < _nb else 4")
        self.w("        if _k != 3:")
        self.w(
            f"            _found = {base}.token_at(_bi) "
            "if _bi < _nb else 'EOS'"
        )
        self.w("            raise StreamProtocolError(")
        self.w(
            "                f\"repeat: rep stop {_lvl} expects a base "
            "stop \""
        )
        self.w("                f\"{_lvl - 1}, found {_found}\"")
        self.w("            )")
        self.w("        if int(_bd[_bi]) != _lvl - 1:")
        self.w("            raise StreamProtocolError(")
        self.w(
            "                f\"repeat: rep stop {_lvl} mismatches base "
            "stop \""
        )
        self.w("                f\"{int(_bd[_bi])}\"")
        self.w("            )")
        self.w("        _bi += 1")
        self.w("    _curs.append(_bi)")
        self.w("_cp = np.nonzero(_rk == 0)[0]")
        self.w("_ok = _rk.copy()")
        self.w(f"_od = {rep}.data.copy()")
        self.w("_oo = None")
        self.w("if _cp.size:")
        self.w("    _fc = np.searchsorted(_sp, _cp)")
        self.w("    _src = np.asarray(_curs, dtype=np.int64)[_fc]")
        self.w("    _valid = _src < _nb")
        self.w("    _srck = np.where(_valid, _src, 0)")
        self.w(f"    _kat = {base}.kinds[_srck]")
        self.w("    _pok = _valid & (_kat != 3) & (_kat != 4)")
        self.w("    if not _pok.all():")
        self.w("        raise StreamProtocolError(")
        self.w(
            "            \"repeat: rep stream has coordinates but base "
            "has none current\""
        )
        self.w("        )")
        self.w("    _ok[_cp] = _kat")
        self.w("    _od[_cp] = _bd[_srck]")
        self.w(f"    if {base}.objs is not None:")
        self.w("        _oo = np.full(_n, None, dtype=object)")
        self.w(f"        _oo[_cp] = {base}.objs[_srck]")
        self.w(f"s{i}_out = _TS(_ok, _od, _oo)")
        self.w("_st.tokens_out += _n")

    def _cemit_repsig(self, i, node_id, node, prim) -> None:
        crd_in = self._in(node, "crd")
        self.w(f"_st.tokens_in += len({crd_in})")
        self.w(f"_st.tokens_out += len({crd_in})")
        self.w(f"s{i}_out = {crd_in}")

    def _cemit_srepeat(self, i, node_id, node, prim) -> None:
        base, rep = self._in(node, "base"), self._in(node, "rep")
        self.w(f"_st.tokens_in += len({base}) + len({rep})")
        self.w(f"_bk = {base}.kinds")
        self.w("_pp = np.nonzero((_bk != 3) & (_bk != 4))[0]")
        self.w("if len(_pp) != 1:")
        self.w(
            "    raise StreamProtocolError("
            "f\"scalar repeat expects exactly one base payload, "
            "got {len(_pp)}\")"
        )
        self.w("_p = int(_pp[0])")
        self.w(f"_rk = {rep}.kinds")
        self.w("_n = len(_rk)")
        self.w("_bad = np.nonzero((_rk != 0) & (_rk != 3) & (_rk != 4))[0]")
        self.w("if _bad.size:")
        self.w(
            "    raise StreamProtocolError("
            "f\"scalar repeat: unexpected token kind {int(_rk[_bad[0]])} "
            "on rep stream\")"
        )
        self.w("_ic = _rk == 0")
        self.w("_ok = np.where(_ic, _bk[_p], _rk)")
        self.w(f"_od = np.where(_ic, {base}.data[_p], {rep}.data)")
        self.w("_oo = None")
        self.w(
            f"if {base}.objs is not None and {base}.objs[_p] is not None:"
        )
        self.w("    _oo = np.full(_n, None, dtype=object)")
        self.w("    _fill = np.empty(int(np.count_nonzero(_ic)), dtype=object)")
        self.w(f"    _fill.fill({base}.objs[_p])")
        self.w("    _oo[_ic] = _fill")
        self.w(f"s{i}_out = _TS(_ok, _od, _oo)")
        self.w("_st.tokens_out += _n")

    def _cemit_fiberop(self, i, node_id, node, prim) -> None:
        v = self._in(node, "val")
        kind = prim.kind
        fpe = prim.flops_per_elem
        self.w(f"if {v}.objs is not None:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            self.w(f"_fn = _FIBER_FNS[{kind!r}]")
            self.w(f"_n = len({v})")
            self.w("_st.tokens_in += _n")
            self.w(f"_kk = {v}.kinds")
            self.w("_bad = np.nonzero((_kk == 0) | (_kk == 1))[0]")
            self.w("if _bad.size:")
            self.w(
                "    raise StreamProtocolError("
                f"f\"{kind} got token kind {{int(_kk[_bad[0]])}}\")"
            )
            self.w("_cp = np.nonzero((_kk == 3) | (_kk == 4))[0]")
            self.w("_pm = (_kk == 2) | (_kk == 5)")
            self.w("_pp = np.nonzero(_pm)[0]")
            self.w("_ok = np.where(_pm, _I8_VAL, _kk)")
            self.w(f"_od = {v}.data.copy()")
            self.w("_bounds = np.searchsorted(_pp, _cp)")
            self.w(f"_va = {v}.data[_pp]")
            self.w("_s = 0")
            self.w("for _e in _bounds.tolist():")
            self.w("    if _e > _s:")
            self.w("        _od[_pp[_s:_e]] = _fn(_va[_s:_e], axis=0)")
            self.w(f"        _st.ops += {fpe} * (_e - _s)")
            self.w("    _s = _e")
            self.w(f"s{i}_out = _TS(_ok, _od)")
            self.w("_st.tokens_out += _n")

    _cemit_softmax = _cemit_fiberop
    _cemit_layernorm = _cemit_fiberop
    _cemit_fibermax = _cemit_fiberop

    def _cemit_write(self, i, node_id, node, prim) -> None:
        n = len(prim.shape)
        name = prim.tensor_name
        crd_ins = [self._in(node, f"crd{d}") for d in range(n)]
        val_in = self._in(node, "val")
        fmt = self._bind(f"_fmt{i}", prim.fmt)
        self.w(f"if {val_in}.objs is not None:")
        with self._indented():
            self._emit_prim_call(i, node_id, node, prim)
        self.w("else:")
        with self._indented():
            self.w(
                "_st.tokens_in += "
                + " + ".join(f"len({s})" for s in crd_ins + [val_in])
            )
            self.w("if debug_streams:")
            for s in crd_ins + [val_in]:
                self.w(f"    check_stream({s})")
            self.w(f"_vk = {val_in}.kinds")
            self.w("_vp = np.nonzero((_vk != 3) & (_vk != 4))[0]")
            self.w("_m = len(_vp)")
            self.w("_cols = []")
            for d, s in enumerate(crd_ins):
                self.w(f"_ck = {s}.kinds")
                self.w("_pay = np.nonzero((_ck != 3) & (_ck != 4))[0]")
                self.w("if (_ck[_pay] != 0).any():")
                self.w("    raise StreamProtocolError(")
                self.w(
                    f"        \"writer {name}: crd{d} carries "
                    "non-coordinate \""
                )
                self.w("        \"payload tokens\"")
                self.w("    )")
                self.w(f"_pl = {s}.data[_pay].astype(np.int64)")
                if d == n - 1:
                    self.w("if len(_pl) != _m:")
                    self.w("    raise StreamProtocolError(")
                    self.w(
                        f"        f\"writer {name}: level {d} crd/val "
                        "fan-out \""
                    )
                    self.w("        f\"mismatch ({len(_pl)} vs {_m})\"")
                    self.w("    )")
                    self.w("_cols.append(_pl)")
                else:
                    self.w(
                        f"_closes = (_vk == 3) & ({val_in}.data >= {n - 2 - d})"
                    )
                    self.w("_grp = np.cumsum(_closes)[_vp]")
                    self.w("if _m and (len(_pl) <= int(_grp.max())):")
                    self.w("    raise StreamProtocolError(")
                    self.w(
                        f"        f\"writer {name}: level {d} crd/val "
                        "fan-out \""
                    )
                    self.w(
                        "        f\"mismatch ({len(_pl)} vs "
                        "{int(_grp.max()) + 1})\""
                    )
                    self.w("    )")
                    self.w("_cols.append(_pl[_grp] if _m else _pl[:0])")
            self.w(f"_vv = {val_in}.data[_vp]")
            if prim.drop_zeros:
                self.w("_keep = _vv != 0.0")
                self.w("_vv = _vv[_keep]")
                self.w("_cols = [_c[_keep] for _c in _cols]")
            if n:
                self.w("_paths = zip(*(_c.tolist() for _c in _cols))")
            else:
                self.w("_paths = iter(())")
            self.w("_coords = dict(zip(_paths, _vv.tolist()))")
            self.w(
                f"_tw = SparseTensor.from_coords({prim.shape!r}, {fmt}, "
                f"_coords, name={name!r})"
            )
            if prim.dram:
                self.w("_st.dram_writes += _tw.bytes_total()")
            self.w(f"results[{name!r}] = _tw")
            self.w(f"s{i}_tensor = _TS.empty()")


# ----------------------------------------------------------------------
# Compilation and execution
# ----------------------------------------------------------------------


def _probe_spec(graph: SAMGraph, order: List[str]) -> Tuple[Tuple[str, ...], int]:
    """Tensor names + constant token floor used to size a run's input.

    The adaptive dispatcher estimates how much work a run carries by
    summing the nnz of the tensors the region reads plus the length of
    any replayed source streams; both are knowable without executing.
    """
    names: Dict[str, None] = {}
    base = 0
    for node_id in order:
        prim = graph.nodes[node_id].prim
        if prim.kind in ("scan", "array", "locate"):
            names[prim.tensor_name] = None
        elif prim.kind == "source":
            base += len(prim.stream)
    return tuple(names), base


def _compile_artifact(
    graph: SAMGraph, order: List[str], tier: str, disk_cache
) -> RegionArtifact:
    started = time.perf_counter()
    emitter_cls = _ColumnarEmitter if tier == "columnar" else _Emitter
    emitter = emitter_cls(graph, order)
    probe, probe_base = _probe_spec(graph, order)
    try:
        source = emitter.emit()
    except _Unsupported as exc:
        with _CACHE_LOCK:
            _COUNTERS["fallbacks"] += 1
        return RegionArtifact(
            region=graph.name,
            tier=tier,
            node_count=len(order),
            emit_seconds=time.perf_counter() - started,
            fallback=str(exc),
            probe=probe,
            probe_base=probe_base,
        )
    emit_seconds = time.perf_counter() - started
    sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
    compile_started = time.perf_counter()
    code, cached = _code_for(
        sha, source, f"<fuseflow-codegen {graph.name} {sha[:12]}>", disk_cache
    )
    namespace = dict(_SHARED_GLOBALS)
    namespace.update(emitter.env)
    exec(code, namespace)
    return RegionArtifact(
        region=graph.name,
        tier=tier,
        source=source,
        loc=source.count("\n"),
        node_count=len(order),
        emit_seconds=emit_seconds,
        compile_seconds=time.perf_counter() - compile_started,
        code_cached=cached,
        fn=namespace["_region_kernel"],
        sha=sha,
        probe=probe,
        probe_base=probe_base,
    )


def _code_for(sha: str, source: str, filename: str, disk_cache):
    """The code object for ``source``: memory, then disk, then ``compile()``.

    Returns ``(code, cached)``; ``cached`` is False only when this call
    ran ``compile()``.  A compiled code object is written back to
    ``disk_cache`` (when given) after it enters the memory level.
    """
    with _CACHE_LOCK:
        code = _CODE_CACHE.get(sha)
        if code is not None:
            _COUNTERS["code_hits"] += 1
            _CODE_CACHE.move_to_end(sha)
            return code, True
    # The disk read and compile() run outside the lock (they are the slow
    # part); the re-insert below keeps the cache single-valued under races.
    if disk_cache is not None:
        code = disk_cache.get_code(sha)
    from_disk = code is not None
    if not from_disk:
        code = compile(source, filename, "exec")
    with _CACHE_LOCK:
        if disk_cache is not None:
            _COUNTERS["code_disk_hits" if from_disk else "code_disk_misses"] += 1
        if not from_disk:
            _COUNTERS["code_misses"] += 1
        incumbent = _CODE_CACHE.get(sha)
        if incumbent is not None:
            _CODE_CACHE.move_to_end(sha)
            return incumbent, from_disk
        _CODE_CACHE[sha] = code
        # Register the source so tracebacks out of the kernel show real
        # lines instead of an opaque <string> frame.  A disk-loaded code
        # object keeps the filename of the process that compiled it.
        linecache.cache[code.co_filename] = (
            len(source),
            None,
            source.splitlines(True),
            code.co_filename,
        )
        _CODE_FILES.setdefault(sha, []).append(code.co_filename)
        while len(_CODE_CACHE) > CODE_CACHE_LIMIT:
            _purge_code_entry_locked(next(iter(_CODE_CACHE)))
            _COUNTERS["code_evictions"] += 1
    if not from_disk and disk_cache is not None:
        disk_cache.put_code(sha, code)
    return code, from_disk


def artifact_for(
    graph: SAMGraph, tier: Optional[str] = None, disk_cache=None
) -> RegionArtifact:
    """The compiled :class:`RegionArtifact` for ``graph``, cached per tier.

    Parameters
    ----------
    graph:
        A lowered region graph.  Artifacts are cached weakly per graph
        (one slot per emission tier) and invalidated when the graph's
        topological order is rebuilt (i.e. on structural mutation).
    tier:
        ``"token"`` or ``"columnar"``; ``None`` reads
        :func:`codegen_tier` (the ``FUSEFLOW_CODEGEN_TIER`` selector).
    disk_cache:
        A :class:`~repro.driver.diskcache.DiskCache` to load kernels'
        code objects from and store them to.  It is remembered for
        ``graph``, so later calls without one (the tiers adaptive
        dispatch emits at run time) use it as well; ``None`` keeps the
        remembered one, if any.

    Returns
    -------
    RegionArtifact
        With ``fn`` set, or ``fallback`` naming the unsupported primitive.
    """
    if tier is None:
        tier = codegen_tier()
    elif tier not in _TIERS:
        raise ValueError(
            f"unknown codegen tier {tier!r}; expected one of {_TIERS}"
        )
    graph.ensure_validated()
    order = graph.topological_order()
    with _CACHE_LOCK:
        _drain_pending_releases_locked()
        slot = _GRAPH_ARTIFACTS.get(graph)
        if slot is not None:
            if disk_cache is None:
                disk_cache = slot.disk_cache
            else:
                slot.disk_cache = disk_cache
            incumbent = slot.tiers.get(tier) if slot.order is order else None
            if incumbent is not None:
                _COUNTERS["artifact_hits"] += 1
                return incumbent
        _COUNTERS["artifact_misses"] += 1
    artifact = _compile_artifact(graph, order, tier, disk_cache)
    with _CACHE_LOCK:
        slot = _GRAPH_ARTIFACTS.get(graph)
        if slot is None or slot.order is not order:
            if slot is not None:
                # Structural mutation: the old tiers' sources no longer
                # correspond to this graph — drop their linecache pins.
                for sha, finalizer in slot.retentions:
                    if finalizer.detach():
                        _release_sha_locked(sha)
            slot = _GraphSlot(order, {}, [], disk_cache)
            _GRAPH_ARTIFACTS[graph] = slot
        incumbent = slot.tiers.get(tier)
        if incumbent is not None:
            return incumbent
        slot.tiers[tier] = artifact
        _retain_sha_locked(graph, artifact.sha, slot.retentions)
    return artifact


def _probe_size(artifact: RegionArtifact, binding: Dict[str, Any]):
    """Adaptive-dispatch probe: (estimated input tokens, blocked payloads).

    ``blocked`` is True when any probed tensor carries multi-dimensional
    payloads (e.g. gpt3's block-sparse matrices): those ride the ``objs``
    escape hatch through every columnar kernel, so the token tier's
    specialized loops are the faster choice regardless of stream length.
    """
    size = artifact.probe_base
    blocked = False
    for name in artifact.probe:
        values = getattr(binding.get(name), "values", None)
        if values is not None:
            size += int(values.size)
            if values.ndim > 1:
                blocked = True
    return size, blocked


def try_run_codegen(
    graph: SAMGraph,
    binding: Dict[str, Any],
    scratchpad_bytes: int,
    debug_streams: bool,
):
    """Execute ``graph`` through its generated kernel.

    Parameters
    ----------
    graph, binding, scratchpad_bytes, debug_streams:
        As for :func:`repro.comal.functional.run_functional` (memoization
        is handled by the caller).

    Returns
    -------
    FunctionalResult or None
        ``None`` signals the caller to fall back to the columnar
        interpreter (no tier could emit the region).

    Raises
    ------
    StreamProtocolError
        Protocol violations, re-raised with node id + region context
        appended (type and original message preserved).
    KeyError
        Unbound tensors, likewise annotated.
    CodegenError
        Any other failure inside the generated kernel.
    """
    from ..comal.functional import FunctionalResult

    tier = codegen_tier()
    artifact = artifact_for(graph, tier)
    if artifact.fn is None and tier == "columnar":
        # Region-level fallback: retry with the token tier before giving
        # the region to the columnar interpreter.
        artifact = artifact_for(graph, "token")
    if artifact.fn is None:
        return None
    if artifact.tier == "columnar":
        # Adaptive dispatch (cutoff 0 disables it, forcing the columnar
        # kernels — the differential suite uses that to test the tier in
        # isolation): blocked payloads escape every columnar kernel, and
        # short streams drown in numpy call overhead.  Either way the
        # token tier's plain loops win (DEFAULT_SMALL_STREAM_CUTOFF).
        cutoff = small_stream_cutoff()
        if cutoff:
            size, blocked = _probe_size(artifact, binding)
            if blocked or size < cutoff:
                token_artifact = artifact_for(graph, "token")
                if token_artifact.fn is not None:
                    artifact = token_artifact
                    with _CACHE_LOCK:
                        _COUNTERS["token_dispatches"] += 1
    order = graph.topological_order()
    stats = {node_id: NodeStats() for node_id in order}
    results: Dict[str, Any] = {}
    cursor = ["?"]
    run_started = time.perf_counter()
    try:
        streams = artifact.fn(
            binding, stats, results, scratchpad_bytes, debug_streams, cursor
        )
    except StreamProtocolError as exc:
        raise StreamProtocolError(
            f"{exc} [codegen kernel, region {graph.name!r}, node {cursor[0]}]"
        ) from exc
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        raise KeyError(
            f"{detail} [codegen kernel, region {graph.name!r}, "
            f"node {cursor[0]}]"
        ) from exc
    except Exception as exc:
        raise CodegenError(
            f"generated kernel for region {graph.name!r} failed at node "
            f"{cursor[0]}: {type(exc).__name__}: {exc}"
        ) from exc
    artifact.runs += 1
    artifact.run_seconds += time.perf_counter() - run_started
    result = FunctionalResult()
    result.order = order
    result.streams = streams
    result.stats = stats
    result.results = results
    return result


class CodegenBackend(Backend):
    """Backend that executes regions through generated, compiled kernels."""

    name = "codegen"

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            "codegen: per-region specialized Python kernels "
            f"({codegen_tier()} emission tier, compile()/exec; "
            "unsupported nodes bridge to the token tier, unsupported "
            "regions fall back to the columnar interpreter)"
        )
