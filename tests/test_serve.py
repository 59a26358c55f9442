"""The serve front end: protocol validation, round trips, in-flight dedup.

The server under test binds an ephemeral localhost port with real threads
and real HTTP (stdlib urllib client), because the bugs this layer exists
to prevent — duplicated concurrent compiles, torn shared state — only
show up under genuine concurrency.  The transport tests use one
keep-alive ``http.client`` connection instead: urllib closes the
connection after each request, which hides per-round-trip stalls.
"""

import http.client
import json
import socket
import socketserver
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import SingleFlight, ServeError, make_server, parse_request
from repro.serve.app import BUNDLE_CACHE_SIZE, ServerState
from repro.sweep import SweepPoint

MM_PROGRAM = """
tensor A(8, 8): csr
tensor B(8, 8): dense
C(i, j) = A(i, k) * B(k, j)
"""


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    srv = make_server(port=0, cache_dir=str(tmp_path / "cache"), quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=30)


def _url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path: str):
    with urllib.request.urlopen(_url(server, path), timeout=60) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def _post(server, path: str, body: dict):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def _post_error(server, path: str, body) -> tuple:
    data = (
        body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    )
    request = urllib.request.Request(_url(server, path), data=data)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=60)
    err = excinfo.value
    return err.code, json.loads(err.read())


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_model_request_reuses_sweep_validation(self):
        request = parse_request(
            json.dumps({"model": "gcn", "model_args": {"nodes": 24}}).encode(),
            "simulate",
        )
        assert request.point is not None
        assert request.point.model == "gcn"
        assert request.key() == request.key()

    def test_key_is_content_addressed(self):
        a = parse_request(json.dumps({"model": "gcn"}).encode(), "compile")
        b = parse_request(json.dumps({"model": "gcn"}).encode(), "compile")
        c = parse_request(json.dumps({"model": "sae"}).encode(), "compile")
        d = parse_request(json.dumps({"model": "gcn"}).encode(), "simulate")
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert a.key() != d.key()  # same point, different action

    def test_rejections(self):
        cases = [
            (b"not json", "compile", "not valid JSON"),
            (b"[1, 2]", "compile", "JSON object"),
            (json.dumps({}).encode(), "compile", "exactly one of"),
            (
                json.dumps({"model": "gcn", "program": "x"}).encode(),
                "compile",
                "exactly one of",
            ),
            (json.dumps({"model": "nope"}).encode(), "compile", "unknown model"),
            (
                json.dumps({"model": "gcn", "typo_knob": 1}).encode(),
                "compile",
                "unknown request key",
            ),
            (
                json.dumps({"program": MM_PROGRAM}).encode(),
                "simulate",
                "compile-only",
            ),
            (
                json.dumps({"program": "garbage ("}).encode(),
                "compile",
                "does not parse",
            ),
            (
                json.dumps({"program": MM_PROGRAM, "schedule": "cs"}).encode(),
                "compile",
                "support schedule",
            ),
        ]
        for raw, action, match in cases:
            with pytest.raises(ServeError, match=match):
                parse_request(raw, action)


class TestSingleFlight:
    def test_concurrent_identical_work_runs_once(self):
        flight = SingleFlight()
        release = threading.Event()
        calls = []

        def work():
            calls.append(1)
            release.wait(timeout=60)
            return "value"

        results = []

        def runner():
            results.append(flight.run("k", work))

        leader = threading.Thread(target=runner)
        leader.start()
        while not calls:  # leader is inside work()
            pass
        followers = [threading.Thread(target=runner) for _ in range(4)]
        for t in followers:
            t.start()
        while flight.stats()["followers"] < 4:
            pass
        release.set()
        leader.join(timeout=60)
        for t in followers:
            t.join(timeout=60)
        assert len(calls) == 1
        assert [r[0] for r in results] == ["value"] * 5
        assert sorted(r[1] for r in results) == [False, True, True, True, True]

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        with pytest.raises(RuntimeError, match="boom"):
            flight.run("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        # The key is released: the next run starts a fresh flight.
        assert flight.run("k", lambda: 7) == (7, False)


# ----------------------------------------------------------------------
# End-to-end round trips
# ----------------------------------------------------------------------


class TestServer:
    def test_healthz(self, server):
        status, _, payload = _get(server, "/healthz")
        assert (status, payload) == (200, {"status": "ok"})

    def test_unknown_paths_are_404(self, server):
        code, payload = _post_error(server, "/v1/nope", {"model": "gcn"})
        assert code == 404 and "unknown path" in payload["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(_url(server, "/nope"), timeout=60)
        assert excinfo.value.code == 404

    def test_compile_roundtrip_and_memory_hit(self, server):
        body = {"model": "gcn", "model_args": {"nodes": 20}}
        status, headers, payload = _post(server, "/v1/compile", body)
        assert status == 200
        assert headers["X-Fuseflow-Cache"] == "compiled"
        assert headers["X-Fuseflow-Deduped"] == "0"
        assert float(headers["X-Fuseflow-Compile-Ms"]) > 0
        assert payload["cache"] == "compiled"
        assert payload["regions"] > 0
        _, headers, payload = _post(server, "/v1/compile", body)
        assert headers["X-Fuseflow-Cache"] == "memory"
        assert payload["cache"] == "memory"

    def test_simulate_runs_and_verifies(self, server):
        status, headers, payload = _post(
            server,
            "/v1/simulate",
            {"model": "gcn", "model_args": {"nodes": 20}, "schedule": "partial"},
        )
        assert status == 200
        assert payload["verified"] is True
        assert payload["max_abs_err"] < 1e-6
        assert payload["metrics"]["cycles"] > 0
        # The header times the compile step alone; elapsed_ms also covers
        # simulation and verification, which take far longer than the
        # header's 0.01 ms rounding.
        compile_ms = float(headers["X-Fuseflow-Compile-Ms"])
        assert 0 < compile_ms < payload["elapsed_ms"] - 0.01

    def test_program_text_compile(self, server):
        status, _, payload = _post(
            server, "/v1/compile", {"program": MM_PROGRAM, "name": "mm"}
        )
        assert status == 200
        assert payload["program"] == "mm"
        assert payload["regions"] == 1

    def test_bad_request_is_400_and_counted(self, server):
        code, payload = _post_error(server, "/v1/compile", {"model": "nope"})
        assert code == 400 and "unknown model" in payload["error"]
        _, _, stats = _get(server, "/v1/stats")
        assert stats["errors"] == 1

    def test_disk_cache_survives_server_restart(self, server, tmp_path):
        body = {"model": "gcn", "model_args": {"nodes": 20}}
        _post(server, "/v1/compile", body)
        # A brand-new server process state over the same cache directory
        # answers from disk, not by recompiling.
        reborn = make_server(
            port=0, cache_dir=str(tmp_path / "cache"), quiet=True
        )
        thread = threading.Thread(target=reborn.serve_forever, daemon=True)
        thread.start()
        try:
            _, headers, payload = _post(reborn, "/v1/compile", body)
            assert headers["X-Fuseflow-Cache"] == "disk"
            assert payload["cache"] == "disk"
        finally:
            reborn.shutdown()
            reborn.server_close()
            thread.join(timeout=30)

    def test_identical_inflight_requests_compile_once(self, server):
        # K identical requests for a key nothing has compiled yet: the
        # single-flight layer plus the session cache guarantee exactly one
        # fresh pipeline run no matter how the threads interleave.
        body = {
            "model": "gpt3",
            "model_args": {"seq_len": 16, "n_layers": 2},
            "schedule": "partial",
        }
        k = 6
        barrier = threading.Barrier(k)
        responses = []
        errors = []

        def fire():
            barrier.wait()
            try:
                responses.append(_post(server, "/v1/simulate", body))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        assert errors == []
        assert len(responses) == k
        _, _, stats = _get(server, "/v1/stats")
        assert stats["compiles"] == 1
        assert stats["requests"] == k
        # Exactly one response did the fresh compile itself; every other
        # either rode the in-flight execution (deduped) or arrived after
        # it finished and hit the session cache.
        fresh = [
            (headers, payload)
            for _, headers, payload in responses
            if headers["X-Fuseflow-Deduped"] == "0"
            and payload["cache"] == "compiled"
        ]
        assert len(fresh) == 1
        cycles = {r[2]["metrics"]["cycles"] for r in responses}
        assert len(cycles) == 1  # all K saw the same result

    def test_stats_shape(self, server):
        _post(server, "/v1/compile", {"model": "sae", "model_args": {"nodes": 12}})
        _, _, stats = _get(server, "/v1/stats")
        for key in (
            "requests",
            "compiles",
            "errors",
            "deduped",
            "inflight",
            "sessions",
            "disk_cache",
        ):
            assert key in stats, key
        assert stats["disk_cache"]["writes"] >= 1


# ----------------------------------------------------------------------
# Transport: keep-alive round trips and response framing
# ----------------------------------------------------------------------


def _connection(server) -> http.client.HTTPConnection:
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=60)


def _roundtrip(conn, method: str, path: str, body: bytes = None):
    """One request on ``conn``: (wall ms, status, Content-Length, body)."""
    started = time.perf_counter()
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    data = resp.read()
    ms = (time.perf_counter() - started) * 1000.0
    return ms, resp.status, resp.getheader("Content-Length"), data


class TestTransport:
    # A response written as a head and a separate body waits for the
    # client's delayed ACK (~40 ms) before the body leaves.
    @pytest.mark.parametrize(
        "method,path,body,status,bound_ms",
        [
            ("GET", "/healthz", None, 200, 10.0),
            ("POST", "/v1/compile", b"not json", 400, 10.0),
            # http.server's own send_error reply closes the connection, so
            # each of these round trips also opens a connection and starts
            # a handler thread, which alone spreads to ~9 ms on a loaded
            # 2-vCPU machine; 20 ms still sits well under the stall.
            ("PUT", "/v1/compile", None, 501, 20.0),
        ],
    )
    def test_roundtrip_has_no_ack_stall(
        self, server, method, path, body, status, bound_ms
    ):
        conn = _connection(server)
        try:
            samples = []
            for _ in range(30):
                ms, got, _, _ = _roundtrip(conn, method, path, body)
                assert got == status
                samples.append(ms)
        finally:
            conn.close()
        assert statistics.median(samples) < bound_ms, sorted(samples)

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_bad_content_length_is_400_and_closes(self, server, length):
        with socket.create_connection(server.server_address[:2], 60) as sock:
            sock.sendall(
                b"POST /v1/compile HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length + b"\r\n\r\n{}"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert b"non-negative integer" in reply

    def test_mixed_replies_keep_framing_on_one_connection(
        self, server, monkeypatch
    ):
        # Count the server's socket writes: each reply must leave whole in
        # one write, and Content-Length must frame it exactly, or the next
        # reply on the shared connection would be misparsed.
        writes = []
        write = socketserver._SocketWriter.write

        def counting_write(self, data):
            writes.append(len(data))
            return write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
        cases = [
            ("GET", "/healthz", None, 200),
            ("POST", "/v1/compile", b"{not json", 400),
            ("GET", "/nope", None, 404),
            # An unknown POST path still has its body consumed, so the
            # body cannot be parsed as the next request line.
            ("POST", "/v1/nope", b'{"model": "gcn"}', 404),
        ]
        conn = _connection(server)
        try:
            for i in range(50):
                method, path, body, status = cases[i % len(cases)]
                _, got, length, data = _roundtrip(conn, method, path, body)
                assert got == status, (i, data)
                assert int(length) == len(data)
                assert isinstance(json.loads(data), dict)
        finally:
            conn.close()
        assert len(writes) == 50


class TestBundleCache:
    def test_distinct_seeds_stay_bounded(self):
        state = ServerState()
        points = [
            SweepPoint.make("gcn", model_args={"nodes": 12, "seed": seed})
            for seed in range(200)
        ]
        bundles = [state.bundle_for(point) for point in points]
        assert len(state._bundles) <= BUNDLE_CACHE_SIZE
        # The latest point is still cached, and as the same object: the
        # functional memo keys on tensor identity, so a rebuilt bundle
        # would miss it.
        assert state.bundle_for(points[-1]) is bundles[-1]
        # A hit refreshes the entry: the oldest survivor, touched once,
        # outlives every point inserted after it but the last.
        oldest = points[200 - BUNDLE_CACHE_SIZE]
        kept = state.bundle_for(oldest)
        state.bundle_for(
            SweepPoint.make("gcn", model_args={"nodes": 12, "seed": 200})
        )
        assert state.bundle_for(oldest) is kept
