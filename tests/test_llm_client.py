import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from fleetopt.agent import ChatClient, LlmConfig, LlmError


class _Handler(BaseHTTPRequestHandler):
    responses = []
    requests = []
    fail_first = 0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests.append((dict(self.headers), body))
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        content = type(self).responses.pop(0)
        reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        blob = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    _Handler.responses = []
    _Handler.requests = []
    _Handler.fail_first = 0
    yield f"http://127.0.0.1:{httpd.server_port}/v1/chat/completions"
    httpd.shutdown()
    httpd.server_close()


class TestChatClient:
    def test_round_trip_and_payload_shape(self, server, monkeypatch):
        monkeypatch.setenv("FLEETOPT_LLM_API_KEY", "sk-test")
        _Handler.responses = ["maximize sum(i in I, j in J, k in K) x[i,j,k]"]
        client = ChatClient(LlmConfig(endpoint=server, model="test-model",
                                      temperature=0.25))
        reply = client.complete([{"role": "user", "content": "hello"}])
        assert reply.startswith("maximize")
        headers, body = _Handler.requests[0]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.25
        assert body["messages"][0]["content"] == "hello"
        assert headers["Authorization"] == "Bearer sk-test"

    def test_retries_after_transport_failure(self, server):
        _Handler.fail_first = 1
        _Handler.responses = ["ok"]
        client = ChatClient(LlmConfig(endpoint=server, model="m", retry_wait=0.0))
        assert client.complete([{"role": "user", "content": "x"}]) == "ok"

    def test_gives_up_after_max_retries(self, server):
        _Handler.fail_first = 10
        client = ChatClient(LlmConfig(endpoint=server, model="m",
                                      max_retries=2, retry_wait=0.0))
        with pytest.raises(LlmError):
            client.complete([{"role": "user", "content": "x"}])

    def test_transcript_file_is_replayable(self, server, tmp_path):
        path = tmp_path / "transcript.json"
        _Handler.responses = ["first", "second"]
        client = ChatClient(LlmConfig(endpoint=server, model="m",
                                      transcript_path=str(path)))
        client.complete([{"role": "user", "content": "a"}])
        client.complete([{"role": "user", "content": "b"}])
        from fleetopt.agent import ReplayClient

        replay = ReplayClient.from_file(str(path))
        assert replay.complete([]) == "first"
        assert replay.complete([]) == "second"

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv("FLEETOPT_LLM_ENDPOINT", raising=False)
        with pytest.raises(LlmError):
            ChatClient(LlmConfig(endpoint="", model="m"))
