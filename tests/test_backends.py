import http.server
import json
import threading

import pytest

from rustport import backends
from rustport.backends import (
    GenerationRequest,
    OracleBackend,
    RemoteBackend,
    ReplayBackend,
    ScriptedFailureBackend,
    request_digest,
)
from rustport.errors import BackendError


def req(user="translate this", system="sys", tag="crate::m::f#1"):
    return GenerationRequest(system=system, user=user, tag=tag)


def test_replay_returns_stored_text(tmp_path):
    backend = ReplayBackend(tmp_path)
    r = req()
    backend.record(r, "fn body here")
    assert backend.generate(r).text == "fn body here"


def test_replay_miss_is_hard_error(tmp_path):
    backend = ReplayBackend(tmp_path)
    with pytest.raises(BackendError):
        backend.generate(req(user="never recorded"))


def test_digest_ignores_trailing_whitespace():
    a = req(user="line one  \nline two")
    b = req(user="line one\nline two")
    assert request_digest(a) == request_digest(b)


def test_oracle_returns_body_for_tag():
    backend = OracleBackend({"crate::m::f": "a + b"})
    assert backend.generate(req(tag="crate::m::f#3")).text == "a + b"
    with pytest.raises(BackendError):
        backend.generate(req(tag="crate::m::missing#1"))


def test_scripted_failure_sequence():
    backend = ScriptedFailureBackend(
        failures={"crate::m::f": 2}, bodies={"crate::m::f": "GOOD"}
    )
    first = backend.generate(req(tag="crate::m::f#1")).text
    second = backend.generate(req(tag="crate::m::f#2")).text
    third = backend.generate(req(tag="crate::m::f#3")).text
    assert first == second == ScriptedFailureBackend.DEFAULT_INVALID
    assert third == "GOOD"


def test_scripted_permanent_failure():
    backend = ScriptedFailureBackend(failures={"f": None}, bodies={"f": "GOOD"})
    for i in range(10):
        assert backend.generate(req(tag=f"f#{i}")).text != "GOOD"


def test_scripted_unlock_substring_short_circuits():
    backend = ScriptedFailureBackend(
        failures={"f": 5}, bodies={"f": "GOOD"}, unlock_substring="offset_of!"
    )
    plain = backend.generate(req(tag="f#1"))
    assert plain.text != "GOOD"
    unlocked = backend.generate(req(user="hint: use offset_of! here", tag="f#2"))
    assert unlocked.text == "GOOD"


def test_local_backends_deterministic(tmp_path):
    backend = ReplayBackend(tmp_path)
    r = req()
    backend.record(r, "stable")
    stream1 = [backend.generate(r).text for _ in range(3)]
    stream2 = [backend.generate(r).text for _ in range(3)]
    assert stream1 == stream2

    oracle = OracleBackend({"f": "body"})
    assert [oracle.generate(req(tag="f#1")).text for _ in range(3)] == ["body"] * 3


class _Handler(http.server.BaseHTTPRequestHandler):
    fail_times = 0
    hits = []
    bodies = []

    def do_POST(self):
        _Handler.hits.append(self.path)
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        _Handler.bodies.append(raw)
        body = json.loads(raw)
        if len(_Handler.hits) <= _Handler.fail_times:
            self.send_response(500)
            self.end_headers()
            return
        reply = {
            "choices": [
                {
                    "message": {"content": f"echo:{body['messages'][1]['content']}"},
                    "finish_reason": "stop",
                }
            ]
        }
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_backend_server(monkeypatch):
    monkeypatch.setattr(backends, "REMOTE_BACKOFF_BASE", 0.0)
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.hits = []
    _Handler.bodies = []
    _Handler.fail_times = 0
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


def test_remote_backend_round_trip(http_backend_server):
    backend = RemoteBackend(endpoint=http_backend_server, model="test-model")
    resp = backend.generate(req(user="hello wire"))
    assert resp.finish_reason == "complete"
    assert resp.text == "echo:hello wire"


def test_remote_backend_request_body_bytes(http_backend_server):
    """The wire body is fixed byte for byte: greedy decoding parameters and
    the output-token cap, nothing taken from the request but the prompt."""
    backend = RemoteBackend(endpoint=http_backend_server, model="test-model")
    backend.generate(GenerationRequest(system="sys", user="usr", tag="crate::m::f#1"))
    assert _Handler.bodies == [
        b'{"model": "test-model", "messages": [{"role": "system", "content": "sys"}, '
        b'{"role": "user", "content": "usr"}], "temperature": 0.0, "top_p": 1.0, '
        b'"max_tokens": 8192}'
    ]


def test_remote_backend_recovers_after_transient_failure(http_backend_server, monkeypatch):
    monkeypatch.setattr(backends, "REMOTE_MAX_ATTEMPTS", 3)
    _Handler.fail_times = 2
    backend = RemoteBackend(endpoint=http_backend_server, model="test-model")
    resp = backend.generate(req(user="retry me"))
    assert resp.finish_reason == "complete"
    assert len(_Handler.hits) == 3


def test_remote_backend_bounded_attempts_then_error(http_backend_server, monkeypatch):
    monkeypatch.setattr(backends, "REMOTE_MAX_ATTEMPTS", 3)
    _Handler.fail_times = 99
    backend = RemoteBackend(endpoint=http_backend_server, model="test-model")
    resp = backend.generate(req(user="always failing"))
    assert resp.finish_reason == "error"
    assert resp.text == ""
    assert len(_Handler.hits) == 3

