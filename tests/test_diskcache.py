"""Persistent compile cache + Session thread safety (repro.driver.diskcache).

Covers the disk cache's safety contract — atomic writes under concurrent
writer *processes*, torn/corrupt entries degrading to misses, LRU
eviction order — plus the two cache levels composed: cross-session and
cross-process warm starts that skip the pass pipeline entirely, and the
Session compile cache hammered from many threads (the serve front end's
access pattern).  Code entries (the codegen backend's marshalled kernels)
obey the same contract, and a fresh process over a warm directory runs
every golden model under codegen without one ``compile()`` call.
"""

import hashlib
import importlib.util
import linecache
import multiprocessing
import os
import sys
import threading
import traceback

import numpy as np
import pytest

from repro.backend.codegen import (
    artifact_for,
    clear_codegen_caches,
    codegen_cache_info,
)
from repro.comal.functional import run_functional
from repro.driver import DiskCache, Session
from repro.driver.diskcache import (
    CODE_MAGIC,
    ENTRY_MAGIC,
    RESCAN_WRITES,
    code_key,
    entry_key,
)
from repro.models.gcn import gcn_on_synthetic
from repro.sam.graph import SAMGraph
from repro.sam.primitives.scanner import LevelScanner, Root
from repro.sweep import SweepPoint, build_bundle


@pytest.fixture(scope="module")
def bundle():
    return gcn_on_synthetic(nodes=16, density=0.2, seed=0)


# ----------------------------------------------------------------------
# DiskCache basics
# ----------------------------------------------------------------------


class TestDiskCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("prog", "sched", "pipe")
        entry = {"compiled": [1, 2, 3], "meta": {"name": "x"}}
        assert cache.put(key, entry)
        assert cache.get(key) == entry
        info = cache.info()
        assert info.writes == 1 and info.hits == 1 and info.entries == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert cache.get(entry_key("nope")) is None
        assert cache.info().misses == 1

    def test_entry_key_is_content_addressed(self):
        assert entry_key("a", "b") == entry_key("a", "b")
        assert entry_key("a", "b") != entry_key("a", "c")

    def test_invalid_caps_raise(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            DiskCache(str(tmp_path), max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            DiskCache(str(tmp_path), max_bytes=0)

    def test_torn_entry_is_a_miss_and_removed(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        cache.put(key, {"v": "x" * 256})
        path = cache.path_for(key)
        blob = open(path, "rb").read()
        # A crash mid-write before the rename never produces this (the
        # rename is atomic), but a torn file from e.g. a copied cache
        # directory must read as a miss, not a crash.
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert not os.path.exists(path)
        info = cache.info()
        assert info.corrupt == 1 and info.misses == 1

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        cache.put(key, {"v": 1})
        path = cache.path_for(key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert cache.get(key) is None
        assert cache.info().corrupt == 1

    def test_foreign_file_is_corrupt(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        with open(cache.path_for(key), "wb") as fh:
            fh.write(b"this is not a cache entry")
        assert cache.get(key) is None
        assert cache.info().corrupt == 1

    def test_wrong_magic_is_corrupt(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        cache.put(key, {"v": 1})
        blob = open(cache.path_for(key), "rb").read()
        with open(cache.path_for(key), "wb") as fh:
            fh.write(b"XXXX0000" + blob[len(ENTRY_MAGIC) :])
        assert cache.get(key) is None

    def test_unpicklable_entry_is_swallowed(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert not cache.put(entry_key("k"), {"fn": lambda: None})
        assert cache.info().writes == 0

    def test_eviction_drops_least_recently_used(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries=2)
        ka, kb, kc = entry_key("a"), entry_key("b"), entry_key("c")
        cache.put(ka, {"v": "a"})
        cache.put(kb, {"v": "b"})
        # Pin recency explicitly (mtime is the LRU clock): a is oldest.
        os.utime(cache.path_for(ka), (1000, 1000))
        os.utime(cache.path_for(kb), (2000, 2000))
        cache.put(kc, {"v": "c"})
        assert cache.get(ka) is None  # evicted as LRU
        assert cache.get(kb) == {"v": "b"}
        assert cache.get(kc) == {"v": "c"}
        assert cache.info().evictions == 1

    def test_get_refreshes_recency(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries=2)
        ka, kb, kc = entry_key("a"), entry_key("b"), entry_key("c")
        cache.put(ka, {"v": "a"})
        cache.put(kb, {"v": "b"})
        os.utime(cache.path_for(ka), (1000, 1000))
        os.utime(cache.path_for(kb), (2000, 2000))
        # Touch a: the hit refreshes its mtime, so b becomes the LRU.
        assert cache.get(ka) is not None
        cache.put(kc, {"v": "c"})
        assert cache.get(kb) is None
        assert cache.get(ka) is not None

    def test_byte_cap_eviction(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_bytes=2048)
        for i in range(8):
            cache.put(entry_key(str(i)), {"pad": "x" * 512})
        info = cache.info()
        assert info.total_bytes <= 2048
        assert info.evictions > 0

    def test_writes_scan_the_directory_only_now_and_then(
        self, tmp_path, monkeypatch
    ):
        cache = DiskCache(str(tmp_path))
        scans = []
        real = cache._entries
        monkeypatch.setattr(cache, "_entries", lambda: scans.append(1) or real())
        for i in range(2 * RESCAN_WRITES + 1):
            cache.put(entry_key(str(i)), {"i": i})
        # The first write, then one rescan per RESCAN_WRITES writes.
        assert len(scans) == 3

    def test_rescan_counts_other_writers_entries(self, tmp_path):
        root = str(tmp_path)
        capped = DiskCache(root, max_entries=8)
        capped.put(entry_key("first"), {"v": 0})
        other = DiskCache(root)  # another process, under looser caps
        for i in range(20):
            other.put(entry_key("other", str(i)), {"v": i})
        for i in range(RESCAN_WRITES):
            capped.put(entry_key("mine", str(i)), {"v": i})
        assert capped.info().entries <= 8

    def test_clear_removes_everything(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        for i in range(3):
            cache.put(entry_key(str(i)), {"i": i})
        assert cache.clear() == 3
        assert cache.info().entries == 0


# ----------------------------------------------------------------------
# Concurrent writer processes
# ----------------------------------------------------------------------


def _hammer_cache(root: str, seed: int, iters: int) -> None:
    cache = DiskCache(root)
    for i in range(iters):
        key = entry_key("shared", str(i % 5))
        cache.put(key, {"writer": seed, "i": i, "pad": "x" * 512})
        entry = cache.get(key)
        # A concurrent writer may have replaced the entry, but a reader
        # must only ever observe a whole one (or a miss), never garbage.
        assert entry is None or (
            isinstance(entry, dict) and len(entry["pad"]) == 512
        )


class TestConcurrentWriters:
    def test_two_processes_never_corrupt_entries(self, tmp_path):
        root = str(tmp_path)
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_cache, args=(root, seed, 200))
            for seed in (1, 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # Every surviving entry decodes cleanly; no torn files, no strays.
        cache = DiskCache(root)
        for i in range(5):
            entry = cache.get(entry_key("shared", str(i)))
            assert isinstance(entry, dict) and entry["writer"] in (1, 2)
        assert cache.info().corrupt == 0
        leftovers = [n for n in os.listdir(root) if n.startswith(".tmp-")]
        assert leftovers == []


# ----------------------------------------------------------------------
# The two cache levels composed: Session + DiskCache
# ----------------------------------------------------------------------


def _compile_in_child(cache_dir: str, queue) -> None:
    bundle = gcn_on_synthetic(nodes=16, density=0.2, seed=0)
    session = Session(disk_cache=cache_dir)
    exe, source = session.compile_detailed(
        bundle.program, bundle.schedule("partial")
    )
    result = exe(bundle.binding)
    queue.put(
        {
            "source": source,
            "cycles": result.metrics.cycles,
            "err": bundle.max_abs_err(result),
        }
    )


class TestSessionDiskCache:
    def test_cross_session_warm_start_is_bit_exact(self, bundle, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = Session(disk_cache=cache_dir)
        exe1, source1 = cold.compile_detailed(
            bundle.program, bundle.schedule("partial")
        )
        assert source1 == "compiled"
        assert cold.cache_info().disk_misses == 1
        result1 = exe1(bundle.binding)

        warm = Session(disk_cache=cache_dir)  # fresh in-memory cache
        exe2, source2 = warm.compile_detailed(
            bundle.program, bundle.schedule("partial")
        )
        assert source2 == "disk"
        assert warm.cache_info().disk_hits == 1
        result2 = exe2(bundle.binding)
        assert result2.metrics.cycles == result1.metrics.cycles
        for name, tensor in result1.tensors.items():
            assert np.array_equal(
                tensor.to_dense(), result2.tensors[name].to_dense()
            ), name

    def test_cross_process_warm_start(self, bundle, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        # Child one: cold cache, compiles and writes the entry.
        p = ctx.Process(target=_compile_in_child, args=(cache_dir, queue))
        p.start()
        first = queue.get(timeout=120)
        p.join(timeout=120)
        assert p.exitcode == 0 and first["source"] == "compiled"
        # Child two: a genuinely cold *process* served from disk.
        p = ctx.Process(target=_compile_in_child, args=(cache_dir, queue))
        p.start()
        second = queue.get(timeout=120)
        p.join(timeout=120)
        assert p.exitcode == 0 and second["source"] == "disk"
        assert second["cycles"] == first["cycles"]
        assert second["err"] < 1e-6

    def test_memory_hit_shadows_disk(self, bundle, tmp_path):
        session = Session(disk_cache=str(tmp_path / "cache"))
        schedule = bundle.schedule("unfused")
        _, first = session.compile_detailed(bundle.program, schedule)
        _, second = session.compile_detailed(bundle.program, schedule)
        assert (first, second) == ("compiled", "memory")
        info = session.cache_info()
        assert (info.disk_hits, info.disk_misses) == (0, 1)
        assert "disk 0/1" in str(info)

    def test_env_var_configures_disk_cache(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "envcache")
        monkeypatch.setenv("FUSEFLOW_CACHE_DIR", cache_dir)
        assert Session().disk_cache is not None
        assert Session().disk_cache.root == os.path.abspath(cache_dir)
        # Explicit False wins over the environment.
        assert Session(disk_cache=False).disk_cache is None
        monkeypatch.delenv("FUSEFLOW_CACHE_DIR")
        assert Session().disk_cache is None

    def test_hierarchy_partitions_disk_entries(self, bundle, tmp_path):
        # Two sessions over one directory but different hierarchies must
        # not serve each other's entries (the timed engine differs).
        cache_dir = str(tmp_path / "cache")
        flat = Session(disk_cache=cache_dir)
        flat.compile(bundle.program, bundle.schedule("partial"))
        sram = Session(disk_cache=cache_dir, hierarchy="fpga-small")
        _, source = sram.compile_detailed(
            bundle.program, bundle.schedule("partial")
        )
        assert source == "compiled"


# ----------------------------------------------------------------------
# Session compile cache under threads (the serve access pattern)
# ----------------------------------------------------------------------


class TestSessionThreadSafety:
    def test_threaded_compile_hammer(self, bundle):
        session = Session(cache_size=8)
        schedules = [
            bundle.schedule(g) for g in ("unfused", "partial", "full")
        ]
        n_threads, iters = 8, 24
        barrier = threading.Barrier(n_threads)
        errors = []
        seen = [dict() for _ in range(n_threads)]

        def worker(tid: int) -> None:
            barrier.wait()
            for i in range(iters):
                schedule = schedules[(tid + i) % len(schedules)]
                try:
                    exe = session.compile(bundle.program, schedule)
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)
                    return
                seen[tid].setdefault(schedule.name, set()).add(id(exe))

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert errors == []
        # Every thread observed the *same* executable per schedule: the
        # post-compile re-check keeps the cache single-valued even when
        # several threads compiled the same key simultaneously.
        merged: dict = {}
        for per_thread in seen:
            for name, ids in per_thread.items():
                merged.setdefault(name, set()).update(ids)
        assert all(len(ids) == 1 for ids in merged.values()), merged
        # Counters never tear: every call is exactly one hit or miss.
        info = session.cache_info()
        assert info.hits + info.misses == n_threads * iters
        assert info.entries == len(schedules)


# ----------------------------------------------------------------------
# Code entries: the codegen backend's kernels on disk
# ----------------------------------------------------------------------


def _code(text: str):
    return compile(text, "<test-code>", "exec")


def _code_files(root: str):
    return sorted(n for n in os.listdir(root) if n.startswith("code-"))


def _truncate(blob: bytes) -> bytes:
    return blob[: len(blob) // 2]


def _flip(blob: bytes) -> bytes:
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    return bytes(flipped)


def _foreign_bytecode(blob: bytes) -> bytes:
    # A whole, digest-valid entry written by an interpreter whose
    # bytecode magic differs from this one's.
    header = len(CODE_MAGIC) + 32
    magic = importlib.util.MAGIC_NUMBER
    payload = bytes([magic[0] ^ 0xFF]) + blob[header + 1 :]
    return CODE_MAGIC + hashlib.sha256(payload).digest() + payload


def _run_dense(session, bundle):
    exe, source = session.compile_detailed(
        bundle.program, bundle.schedule("partial")
    )
    result = exe(bundle.binding)
    dense = {name: t.to_dense() for name, t in result.tensors.items()}
    return source, result.metrics.cycles, dense


class TestCodeEntries:
    def test_code_roundtrip(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        code = _code("y = 6 * 7")
        assert cache.put_code("s1", code)
        loaded = cache.get_code("s1")
        namespace = {}
        exec(loaded, namespace)
        assert namespace["y"] == 42
        assert cache.get_code("s2") is None
        info = cache.info()
        assert (info.writes, info.hits, info.misses, info.entries) == (1, 1, 1, 1)
        assert os.path.exists(cache.path_for(code_key("s1")))

    def test_code_key_carries_the_bytecode_magic(self):
        assert code_key("s1") == code_key("s1")
        assert code_key("s1") != code_key("s2")
        assert code_key("s1") == "code-" + entry_key(
            "s1", importlib.util.MAGIC_NUMBER.hex()
        )

    def test_code_and_program_entries_share_the_entry_cap(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries=2)
        program_key = entry_key("a")
        cache.put(program_key, {"v": "a"})
        cache.put_code("s1", _code("x = 1"))
        os.utime(cache.path_for(program_key), (1000, 1000))
        os.utime(cache.path_for(code_key("s1")), (2000, 2000))
        cache.put_code("s2", _code("x = 2"))
        assert cache.get(program_key) is None  # the LRU entry, evicted
        assert cache.get_code("s1") is not None
        assert cache.get_code("s2") is not None
        info = cache.info()
        assert (info.entries, info.evictions) == (2, 1)

    def test_code_entries_count_toward_the_byte_cap(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_bytes=2048)
        for i in range(8):
            cache.put_code(str(i), _code(f"x = '{'x' * 512}{i}'"))
        info = cache.info()
        assert 0 < info.total_bytes <= 2048
        assert info.evictions > 0

    def test_clear_and_info_count_code_entries(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.put(entry_key("p"), {"v": 1})
        cache.put_code("s1", _code("x = 1"))
        cache.put_code("s2", _code("x = 2"))
        assert cache.info().entries == 3
        assert cache.clear() == 3
        assert os.listdir(str(tmp_path)) == []

    def test_program_reader_never_decodes_a_code_entry(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.put_code("s1", _code("x = 1"))
        # Same envelope, other magic: a program read of it is corrupt.
        assert cache.get(code_key("s1")) is None
        assert cache.info().corrupt == 1

    def test_construction_does_no_new_filesystem_work(
        self, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "cache")
        made = []
        real_makedirs = os.makedirs

        def spy(path, *args, **kwargs):
            made.append(path)
            return real_makedirs(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", spy)
        Session(backend="codegen", disk_cache=root)
        DiskCache(root)
        # The cache directory itself and nothing else: the code store
        # needs no subdirectory, created eagerly or otherwise.
        assert made == [root, root]
        assert os.listdir(root) == []

    @pytest.mark.parametrize(
        "damage", [_truncate, _flip, _foreign_bytecode], ids=lambda f: f.__name__
    )
    def test_damaged_code_entry_recompiles_bit_exact(
        self, bundle, tmp_path, damage
    ):
        cache_dir = str(tmp_path / "cache")
        clear_codegen_caches()
        _, cycles, dense = _run_dense(
            Session(backend="codegen", disk_cache=cache_dir), bundle
        )
        names = _code_files(cache_dir)
        assert names
        for name in names:
            path = os.path.join(cache_dir, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(damage(blob))

        clear_codegen_caches()  # a fresh process, as far as codegen goes
        session = Session(backend="codegen", disk_cache=cache_dir)
        source, cycles2, dense2 = _run_dense(session, bundle)
        assert source == "disk"
        info = codegen_cache_info()
        assert info["code_disk_hits"] == 0
        assert info["code_misses"] == len(names)
        assert session.disk_cache.info().corrupt == len(names)
        assert cycles2 == cycles
        for name, tensor in dense.items():
            assert np.array_equal(tensor, dense2[name]), name
        # The damaged entries were deleted and rewritten whole.
        assert _code_files(cache_dir) == names
        clear_codegen_caches()
        _run_dense(Session(backend="codegen", disk_cache=cache_dir), bundle)
        info = codegen_cache_info()
        assert (info["code_disk_hits"], info["code_misses"]) == (len(names), 0)


# ----------------------------------------------------------------------
# Fresh processes under codegen: kernels load from disk, never compile
# ----------------------------------------------------------------------

#: The canonical golden configurations (tests/test_golden_traces.py).
GOLDEN = {
    "gcn": {"nodes": 30, "density": 0.1, "seed": 0},
    "graphsage": {"nodes": 30, "density": 0.1, "seed": 0},
    "sae": {"nodes": 16, "seed": 0},
    "gpt3": {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 1, "seed": 0},
}


def _codegen_run_in_child(cache_dir: str, model: str, queue) -> None:
    # A forked child inherits the parent's in-memory code cache; drop it
    # so the child starts as cold as a new process.
    clear_codegen_caches()
    bundle = build_bundle(SweepPoint.make(model, model_args=GOLDEN[model]))
    source, cycles, dense = _run_dense(
        Session(backend="codegen", disk_cache=cache_dir), bundle
    )
    queue.put(
        {
            "source": source,
            "cycles": cycles,
            "dense": dense,
            "info": codegen_cache_info(),
        }
    )


def _in_forked_child(*args):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=_codegen_run_in_child, args=(*args, queue))
    proc.start()
    reply = queue.get(timeout=300)
    proc.join(timeout=120)
    assert proc.exitcode == 0
    return reply


def _kernel_error_graph(name: str) -> SAMGraph:
    graph = SAMGraph(name)
    root = graph.add(Root(), node_id="root")
    graph.add(
        LevelScanner("A", 0), {"ref": graph.port(root, "ref")}, node_id="scan"
    )
    return graph


class TestCodegenWarmStart:
    @pytest.mark.parametrize("model", sorted(GOLDEN))
    def test_fresh_process_runs_from_disk_without_compile(
        self, model, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        warm = _in_forked_child(cache_dir, model)
        assert warm["source"] == "compiled"
        assert warm["info"]["code_misses"] > 0
        fresh = _in_forked_child(cache_dir, model)
        assert fresh["source"] == "disk"
        assert fresh["info"]["code_misses"] == 0
        assert fresh["info"]["code_disk_hits"] == warm["info"]["code_misses"]
        assert fresh["cycles"] == warm["cycles"]
        assert fresh["dense"].keys() == warm["dense"].keys()
        for name, tensor in warm["dense"].items():
            assert np.array_equal(tensor, fresh["dense"][name]), name

    def test_threads_share_one_code_object_and_count_every_lookup(
        self, tmp_path
    ):
        cache = DiskCache(str(tmp_path / "cache"))
        clear_codegen_caches()
        n_threads = 8
        graphs = [_kernel_error_graph(f"race{i}") for i in range(n_threads)]
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(graph):
            barrier.wait()
            try:
                artifact_for(graph, "token", disk_cache=cache)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(g,)) for g in graphs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        info = codegen_cache_info()
        # Every lookup is one memory hit or one disk lookup, and every
        # disk miss one compile(); the shared source keeps one code object
        # and one linecache registration however the threads interleave.
        lookups = (
            info["code_hits"] + info["code_disk_hits"] + info["code_disk_misses"]
        )
        assert lookups == n_threads
        assert info["code_misses"] == info["code_disk_misses"] >= 1
        assert (info["code_entries"], info["code_files"]) == (1, 1)
        assert len(_code_files(cache.root)) == 1

    def test_disk_loaded_kernel_traceback_shows_source_lines(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        clear_codegen_caches()
        first = _kernel_error_graph("kerr_first")
        artifact_for(first, disk_cache=cache)
        with pytest.raises(KeyError):
            run_functional(first, {}, backend="codegen", cache=False)

        clear_codegen_caches()  # drops the code and its linecache entry
        # Same structure, other name: the same source, loaded from disk.
        second = _kernel_error_graph("kerr_second")
        artifact_for(second, disk_cache=cache)
        with pytest.raises(KeyError) as excinfo:
            run_functional(second, {}, backend="codegen", cache=False)
        info = codegen_cache_info()
        assert info["code_misses"] == 0 and info["code_disk_hits"] >= 1
        frames = [
            frame
            for frame in traceback.extract_tb(
                excinfo.value.__cause__.__traceback__
            )
            if frame.filename.startswith("<fuseflow-codegen")
        ]
        assert frames
        for frame in frames:
            # The filename the code object was compiled under, with the
            # kernel's real source registered behind it.
            assert "kerr_first" in frame.filename
            assert frame.line
            assert frame.line == linecache.getline(
                frame.filename, frame.lineno
            ).strip()

