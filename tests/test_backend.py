"""Backend subsystem tests: selection, caching, fallback, and errors.

Covers the :mod:`repro.backend` contract end to end:

* the four-layer resolution precedence (explicit ``backend`` > explicit
  ``columnar`` > ``FUSEFLOW_BACKEND`` > ``FUSEFLOW_LEGACY_STREAMS``);
* the backend registry singletons;
* the compile cache incorporating backend identity — flipping the backend
  between compiles of the *same* program must miss the warm cache and
  yield a distinct executable (the regression satellite of PR 6);
* codegen artifact/source caching and its counters;
* per-region fallback to the columnar interpreter for primitives the
  emitter does not know;
* generated-kernel exceptions re-raised with node id + region context.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    InterpreterBackend,
    artifact_for,
    codegen_cache_info,
    get_backend,
    resolve_backend_name,
)
from repro.backend.codegen import clear_codegen_caches
from repro.comal.functional import run_functional
from repro.comal.machines import RDA_MACHINE
from repro.core.einsum.parser import parse_program
from repro.driver import Session
from repro.ftree import SparseTensor, csr, dense
from repro.sam.graph import SAMGraph
from repro.sam.primitives.base import Primitive
from repro.sam.primitives.scanner import CrdSource, LevelScanner, Root
from repro.sam.token import (
    VAL,
    StreamProtocolError,
    crd,
    done,
    stop,
    streams_equal,
    val,
)
from repro.sweep.spec import SweepPoint, SweepSpecError

_PROGRAM = (
    "tensor A(4, 5): csr\n"
    "tensor X(5, 3): dense\n"
    "T(i, j) = A(i, k) * X(k, j)"
)


def _program_and_binding(seed=0):
    program = parse_program(_PROGRAM)
    rng = np.random.default_rng(seed)
    a = rng.random((4, 5)) * (rng.random((4, 5)) < 0.5)
    x = rng.random((5, 3))
    binding = {
        "A": SparseTensor.from_dense(a, csr(), "A"),
        "X": SparseTensor.from_dense(x, dense(2), "X"),
    }
    return program, binding


@pytest.fixture
def clean_env(monkeypatch):
    """No backend-related environment overrides."""
    monkeypatch.delenv("FUSEFLOW_BACKEND", raising=False)
    monkeypatch.delenv("FUSEFLOW_LEGACY_STREAMS", raising=False)
    return monkeypatch


# ----------------------------------------------------------------------
# Resolution precedence
# ----------------------------------------------------------------------


class TestResolution:
    def test_default_is_columnar(self, clean_env):
        assert resolve_backend_name() == "columnar"

    def test_legacy_env_selects_interp(self, clean_env):
        clean_env.setenv("FUSEFLOW_LEGACY_STREAMS", "1")
        assert resolve_backend_name() == "interp"

    def test_backend_env_beats_legacy_env(self, clean_env):
        clean_env.setenv("FUSEFLOW_LEGACY_STREAMS", "1")
        clean_env.setenv("FUSEFLOW_BACKEND", "codegen")
        assert resolve_backend_name() == "codegen"

    def test_columnar_arg_beats_env(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "codegen")
        assert resolve_backend_name(columnar=True) == "columnar"
        assert resolve_backend_name(columnar=False) == "interp"

    def test_backend_arg_beats_everything(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "codegen")
        assert resolve_backend_name("interp", columnar=True) == "interp"

    def test_name_is_normalized(self):
        assert resolve_backend_name("  Codegen ") == "codegen"

    @pytest.mark.parametrize("bad", ["fancy", "cpp", "numba"])
    def test_unknown_backend_rejected(self, bad):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name(bad)

    def test_unknown_env_backend_rejected(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "fancy")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name()

    def test_session_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Session(machine=RDA_MACHINE, backend="fancy")

    def test_sweep_point_validates_backend(self):
        point = SweepPoint.make("gcn", backend="fancy")
        with pytest.raises(SweepSpecError, match="unknown backend"):
            point.validate()
        for name in BACKEND_NAMES:
            SweepPoint.make("gcn", backend=name).validate()

    def test_backend_only_in_fingerprint_when_set(self):
        base = SweepPoint.make("gcn")
        same = SweepPoint.make("gcn", backend="")
        flipped = SweepPoint.make("gcn", backend="codegen")
        assert base.point_id == same.point_id
        assert flipped.point_id != base.point_id
        assert "backend:codegen" in flipped.label()
        assert "backend" not in base.label()


class TestRegistry:
    def test_singletons(self, clean_env):
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            assert backend is get_backend(name)
            assert backend.name == name
            assert name in backend.describe()

    def test_default_lookup_follows_env(self, clean_env):
        assert get_backend().name == "columnar"
        clean_env.setenv("FUSEFLOW_BACKEND", "interp")
        assert get_backend().name == "interp"

    def test_interpreter_backend_names(self):
        assert InterpreterBackend(columnar=True).name == "columnar"
        assert InterpreterBackend(columnar=False).name == "interp"

    def test_backend_run_matches_run_functional(self, clean_env):
        program, binding = _program_and_binding()
        session = Session(machine=RDA_MACHINE)
        exe = session.compile(program)
        graph = exe.regions[0].graph
        for name in BACKEND_NAMES:
            got = get_backend(name).run(
                graph, binding, RDA_MACHINE.scratchpad_bytes, cache=False
            )
            want = run_functional(
                graph,
                binding,
                RDA_MACHINE.scratchpad_bytes,
                backend=name,
                cache=False,
            )
            for key in want.streams:
                assert streams_equal(got.streams[key], want.streams[key])


# ----------------------------------------------------------------------
# Compile cache x backend identity (the warm-cache flip regression)
# ----------------------------------------------------------------------


class TestCompileCache:
    def test_backend_flip_misses_warm_cache(self, clean_env):
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE)
        exe_columnar = session.compile(program)
        assert exe_columnar.backend == "columnar"
        assert session.compile(program) is exe_columnar  # warm hit

        # Flipping the environment backend must miss the warm cache: the
        # key is resolved at call time, so the cached columnar executable
        # must not be served for a codegen request.
        clean_env.setenv("FUSEFLOW_BACKEND", "codegen")
        exe_codegen = session.compile(program)
        assert exe_codegen is not exe_columnar
        assert exe_codegen.backend == "codegen"
        assert exe_codegen.diagnostics.backend == "codegen"

        # Both entries stay warm under their own identity.
        assert session.compile(program) is exe_codegen
        clean_env.delenv("FUSEFLOW_BACKEND")
        assert session.compile(program) is exe_columnar

    def test_explicit_session_backend_beats_env(self, clean_env):
        clean_env.setenv("FUSEFLOW_BACKEND", "interp")
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE, backend="codegen")
        assert session.compile(program).backend == "codegen"

    def test_executables_of_all_backends_agree(self, clean_env):
        program, binding = _program_and_binding()
        tensors = {}
        for name in BACKEND_NAMES:
            session = Session(
                machine=RDA_MACHINE, backend=name, sim_cache=False
            )
            exe = session.compile(program)
            assert exe.backend == name
            tensors[name] = exe(binding).tensors["T"].to_dense()
        assert np.array_equal(tensors["columnar"], tensors["interp"])
        assert np.array_equal(tensors["columnar"], tensors["codegen"])


# ----------------------------------------------------------------------
# Codegen artifact + source caches
# ----------------------------------------------------------------------


class TestCodegenCaches:
    def test_artifact_cached_per_graph(self, clean_env):
        clear_codegen_caches()
        program, _ = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        first = artifact_for(graph)
        assert first is artifact_for(graph)
        info = codegen_cache_info()
        assert info["artifact_misses"] >= 1
        assert info["artifact_hits"] >= 2  # prewarm miss, then two hits

    def test_source_cache_dedups_across_graphs(self, clean_env):
        clear_codegen_caches()
        program, _ = _program_and_binding()
        exe_a = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        exe_b = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        art_a = artifact_for(exe_a.regions[0].graph)
        art_b = artifact_for(exe_b.regions[0].graph)
        assert art_a is not art_b  # distinct graphs, distinct artifacts
        assert art_a.source == art_b.source
        assert art_a.sha == art_b.sha
        assert art_b.code_cached  # identical source compiled once
        assert codegen_cache_info()["code_hits"] >= 1

    def test_prewarm_fills_diagnostics(self, clean_env):
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE, backend="codegen")
        exe = session.compile(program)
        assert exe.diagnostics.backend == "codegen"
        for region in exe.diagnostics.regions:
            assert region.codegen_fallback == ""
            assert region.codegen_loc > 0
            assert region.codegen_seconds >= 0.0
        assert "backend codegen" in exe.diagnostics.describe()


# ----------------------------------------------------------------------
# Per-region fallback for unsupported primitives
# ----------------------------------------------------------------------


class _Doubler(Primitive):
    """A primitive the codegen emitter has never heard of."""

    kind = "doubler2x"
    in_ports = ("a",)

    def process(self, ins, ctx, stats):
        out = []
        for kind, payload in ins["a"]:
            stats.tokens_in += 1
            if kind == VAL:
                out.append(val(payload * 2.0))
                stats.ops += 1
            else:
                out.append((kind, payload))
            stats.tokens_out += 1
        return {"out": out}


def _doubler_graph():
    graph = SAMGraph("exotic")
    src = graph.add(
        CrdSource([val(1.0), val(2.5), stop(0), val(-3.0), done()], "v"),
        node_id="src",
    )
    graph.add(_Doubler(), {"a": graph.port(src)}, node_id="dbl")
    return graph


class TestFallback:
    def test_unknown_primitive_marks_fallback(self):
        graph = _doubler_graph()
        artifact = artifact_for(graph)
        assert artifact.fn is None
        assert "doubler2x" in artifact.fallback
        assert "dbl" in artifact.fallback

    def test_fallback_execution_matches_interpreter(self):
        graph = _doubler_graph()
        via_codegen = run_functional(graph, {}, backend="codegen", cache=False)
        reference = run_functional(graph, {}, columnar=True, cache=False)
        assert set(via_codegen.streams) == set(reference.streams)
        for key in reference.streams:
            assert streams_equal(
                via_codegen.streams[key], reference.streams[key]
            ), key
        for node_id, want in reference.stats.items():
            have = via_codegen.stats[node_id]
            assert have.tokens_in == want.tokens_in
            assert have.tokens_out == want.tokens_out
            assert have.ops == want.ops

    def test_fallback_counted(self):
        clear_codegen_caches()
        artifact_for(_doubler_graph())
        assert codegen_cache_info()["fallbacks"] == 1


# ----------------------------------------------------------------------
# Generated-kernel exception context
# ----------------------------------------------------------------------


class TestKernelErrors:
    def _scan_graph(self):
        graph = SAMGraph("kerr")
        root = graph.add(Root(), node_id="root")
        graph.add(
            LevelScanner("A", 0),
            {"ref": graph.port(root, "ref")},
            node_id="scan",
        )
        return graph

    def test_missing_tensor_keeps_keyerror_with_context(self):
        graph = self._scan_graph()
        with pytest.raises(KeyError) as excinfo:
            run_functional(graph, {}, backend="codegen", cache=False)
        message = str(excinfo.value)
        assert "tensor 'A' not bound" in message
        assert "codegen kernel, region 'kerr'" in message
        assert "node scan" in message

    def test_protocol_error_keeps_type_and_message(self):
        graph = SAMGraph("badproto")
        graph.add(CrdSource([crd(0)], "s"), node_id="src")  # no done token
        with pytest.raises(StreamProtocolError) as excinfo:
            run_functional(
                graph, {}, backend="codegen", debug_streams=True, cache=False
            )
        message = str(excinfo.value)
        # The interpreter's own diagnostic survives...
        assert "node src" in message
        # ...and the codegen layer appends where it happened.
        assert "codegen kernel, region 'badproto'" in message

    def test_checks_off_matches_interpreter_leniency(self):
        # With debug_streams off the malformed stream flows through, same
        # as the interpreter paths.
        graph = SAMGraph("lenient")
        graph.add(CrdSource([crd(0)], "s"), node_id="src")
        res = run_functional(
            graph, {}, backend="codegen", debug_streams=False, cache=False
        )
        assert len(res.stream("src")) == 1


# ----------------------------------------------------------------------
# Emission tiers (token vs columnar) and adaptive dispatch
# ----------------------------------------------------------------------


class TestEmissionTiers:
    def test_tier_selector_env(self, monkeypatch):
        from repro.backend.codegen import codegen_tier

        monkeypatch.delenv("FUSEFLOW_CODEGEN_TIER", raising=False)
        assert codegen_tier() == "columnar"
        monkeypatch.setenv("FUSEFLOW_CODEGEN_TIER", "token")
        assert codegen_tier() == "token"
        monkeypatch.setenv("FUSEFLOW_CODEGEN_TIER", "simd")
        with pytest.raises(ValueError):
            codegen_tier()

    def test_tiers_cached_independently(self, clean_env):
        from repro.backend.codegen import cached_artifacts

        clear_codegen_caches()
        program, _ = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        col = artifact_for(graph, "columnar")
        tok = artifact_for(graph, "token")
        assert col.tier == "columnar"
        assert tok.tier == "token"
        assert col is not tok
        assert col.sha != tok.sha
        # Stable per (graph, tier): repeated lookups are cache hits.
        assert col is artifact_for(graph, "columnar")
        assert tok is artifact_for(graph, "token")
        assert cached_artifacts(graph) == {"columnar": col, "token": tok}

    def test_unknown_tier_rejected(self, clean_env):
        program, _ = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        with pytest.raises(ValueError, match="unknown codegen tier"):
            artifact_for(exe.regions[0].graph, "simd")

    def test_both_tiers_match_the_interpreter(self, clean_env, monkeypatch):
        # Forced columnar (cutoff 0 disables adaptive dispatch) and forced
        # token both reproduce the columnar interpreter exactly.
        program, binding = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        want = run_functional(
            graph, binding, columnar=True, cache=False
        )
        for tier, cutoff in (("columnar", "0"), ("token", "0")):
            monkeypatch.setenv("FUSEFLOW_CODEGEN_TIER", tier)
            monkeypatch.setenv("FUSEFLOW_CODEGEN_SMALL_CUTOFF", cutoff)
            clear_codegen_caches()
            have = run_functional(
                graph, binding, backend="codegen", cache=False
            )
            for key in want.streams:
                assert streams_equal(have.streams[key], want.streams[key]), (
                    tier,
                    key,
                )
            for node_id, stats in want.stats.items():
                assert have.stats[node_id].tokens_out == stats.tokens_out, tier

    def test_unsupported_node_bridges_through_token_emitter(
        self, clean_env, monkeypatch
    ):
        # Deleting one _cemit_ handler must not fall the region back to
        # the interpreter: the node rides the per-node token bridge
        # (to_tokens -> token-emitter body -> from_tokens) and the kernel
        # stays bit-exact.
        from repro.backend.codegen import _ColumnarEmitter

        monkeypatch.delattr(_ColumnarEmitter, "_cemit_alu")
        clear_codegen_caches()
        program, binding = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        artifact = artifact_for(graph, "columnar")
        assert artifact.fallback == ""
        assert ".to_tokens()" in artifact.source
        assert "_TS.from_tokens(" in artifact.source
        want = run_functional(graph, binding, columnar=True, cache=False)
        monkeypatch.setenv("FUSEFLOW_CODEGEN_SMALL_CUTOFF", "0")
        have = run_functional(graph, binding, backend="codegen", cache=False)
        for key in want.streams:
            assert streams_equal(have.streams[key], want.streams[key]), key
        for node_id, stats in want.stats.items():
            assert have.stats[node_id].tokens_in == stats.tokens_in
            assert have.stats[node_id].tokens_out == stats.tokens_out
            assert have.stats[node_id].ops == stats.ops
        clear_codegen_caches()

    def test_small_streams_dispatch_to_token_tier(self, clean_env, monkeypatch):
        monkeypatch.setenv("FUSEFLOW_CODEGEN_SMALL_CUTOFF", str(10**9))
        clear_codegen_caches()
        program, binding = _program_and_binding()
        exe = Session(machine=RDA_MACHINE, backend="codegen").compile(program)
        graph = exe.regions[0].graph
        before = codegen_cache_info()["token_dispatches"]
        have = run_functional(graph, binding, backend="codegen", cache=False)
        assert codegen_cache_info()["token_dispatches"] == before + 1
        want = run_functional(graph, binding, columnar=True, cache=False)
        for key in want.streams:
            assert streams_equal(have.streams[key], want.streams[key]), key

    def test_probe_flags_blocked_payloads(self):
        from repro.backend.codegen import RegionArtifact, _probe_size

        artifact = RegionArtifact(
            region="r", tier="columnar", probe=("A",), probe_base=3
        )

        class _T:
            pass

        flat = _T()
        flat.values = np.zeros(7)
        assert _probe_size(artifact, {"A": flat}) == (10, False)
        blocked = _T()
        blocked.values = np.zeros((4, 2, 2))
        assert _probe_size(artifact, {"A": blocked}) == (19, True)
        # Unbound probe tensors contribute nothing (and do not raise).
        assert _probe_size(artifact, {}) == (3, False)


# ----------------------------------------------------------------------
# Bounded linecache registration
# ----------------------------------------------------------------------


class TestLinecacheBounds:
    def test_sources_unregister_when_graph_collected(self, clean_env):
        import gc
        import linecache

        clear_codegen_caches()
        program, _ = _program_and_binding()
        session = Session(machine=RDA_MACHINE, backend="codegen")
        exe = session.compile(program)
        graph = exe.regions[0].graph
        artifact = artifact_for(graph)
        filename = f"<fuseflow-codegen {graph.name} {artifact.sha[:12]}>"
        assert linecache.getline(filename, 1)  # source is registered
        assert codegen_cache_info()["retained_sources"] >= 1
        # Drop every strong reference to the compiled program (the session
        # compile cache holds the graphs alive) and collect.
        del exe, graph, artifact, session
        gc.collect()
        info = codegen_cache_info()  # drains pending finalizer releases
        assert info["retained_sources"] == 0
        assert info["code_files"] == 0
        assert not linecache.getline(filename, 1)


# ----------------------------------------------------------------------
# Public API docstring audit
# ----------------------------------------------------------------------


class TestDocstrings:
    def test_public_backend_api_is_documented(self):
        """Every public name in repro.backend carries a real docstring."""
        import inspect

        import repro.backend as pkg
        from repro.backend import codegen as cg

        names = [
            (pkg, name) for name in pkg.__all__
        ] + [(cg, name) for name in cg.__all__]
        for module, name in names:
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue  # constants (BACKEND_NAMES)
            doc = inspect.getdoc(obj)
            assert doc and len(doc.split()) >= 3, f"{name} lacks a docstring"
            if inspect.isfunction(obj) and (
                inspect.signature(obj).parameters
            ):
                assert "Parameters" in doc or doc.count("\n") == 0, (
                    f"{name}: numpydoc Parameters section missing"
                )

