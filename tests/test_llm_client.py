import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from fleetopt.agent import ChatClient, LlmConfig, LlmError


class _Handler(BaseHTTPRequestHandler):
    # a str response is sent as the first choice's content, bytes as the
    # raw reply, and any other value as the whole JSON body
    responses = []
    requests = []
    fail_first = 0
    stall_first = 0  # requests answered with nothing after STALL_S

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests.append((dict(self.headers), body))
        if type(self).stall_first > 0:
            type(self).stall_first -= 1
            time.sleep(STALL_S)
            return
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        content = type(self).responses.pop(0)
        if isinstance(content, bytes):
            self.wfile.write(content)
            return
        if isinstance(content, str):
            reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        else:
            reply = content
        blob = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


STALL_S = 0.5


@pytest.fixture
def server():
    # one thread per request, so a stalled request does not hold up the retry
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll, so shutdown at teardown does not wait out the default 0.5 s
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _Handler.responses = []
    _Handler.requests = []
    _Handler.fail_first = 0
    _Handler.stall_first = 0
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

    def test_a_read_timeout_is_retried_then_an_llm_error(self, server):
        _Handler.stall_first = 1
        _Handler.responses = ["ok"]
        client = ChatClient(LlmConfig(endpoint=server, model="m", timeout=0.1,
                                      retry_wait=0.0))
        assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        _Handler.stall_first = 1
        client = ChatClient(LlmConfig(endpoint=server, model="m", timeout=0.1,
                                      max_retries=1, retry_wait=0.0))
        with pytest.raises(LlmError, match="timed out"):
            client.complete([{"role": "user", "content": "x"}])

    def test_a_body_that_is_not_an_object_is_retried_then_an_llm_error(self, server):
        _Handler.responses = [["not", "an", "object"], "ok", 5]
        client = ChatClient(LlmConfig(endpoint=server, model="m", retry_wait=0.0))
        assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        assert len(_Handler.requests) == 2
        client = ChatClient(LlmConfig(endpoint=server, model="m", max_retries=1,
                                      retry_wait=0.0))
        with pytest.raises(LlmError, match="no first choice"):
            client.complete([{"role": "user", "content": "x"}])

    def test_content_that_is_not_text_is_retried_then_an_llm_error(self, server):
        not_text = {"choices": [{"message": {"role": "assistant", "content": 5}}]}
        _Handler.responses = [not_text, "ok", not_text]
        client = ChatClient(LlmConfig(endpoint=server, model="m", retry_wait=0.0))
        assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        assert len(_Handler.requests) == 2
        client = ChatClient(LlmConfig(endpoint=server, model="m", max_retries=1,
                                      retry_wait=0.0))
        with pytest.raises(LlmError, match="reply content is int, not text"):
            client.complete([{"role": "user", "content": "x"}])

    def test_a_malformed_status_line_is_retried_then_an_llm_error(self, server):
        _Handler.responses = [b"garbage\r\n\r\n", "ok", b"garbage\r\n\r\n"]
        client = ChatClient(LlmConfig(endpoint=server, model="m", retry_wait=0.0))
        assert client.complete([{"role": "user", "content": "x"}]) == "ok"
        client = ChatClient(LlmConfig(endpoint=server, model="m", max_retries=1,
                                      retry_wait=0.0))
        with pytest.raises(LlmError, match="garbage"):
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
