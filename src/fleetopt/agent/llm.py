"""Chat-completions client over plain HTTP, with transcripts and replay.

The request body is the widely used JSON shape {model, messages,
temperature}; the reply text is read from the first choice's message
content. Every exchange can be appended to a transcript file, and
``ReplayClient`` serves a recorded transcript back in order, which
makes guide behavior reproducible in tests without any network.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

TRANSCRIPT_VERSION = 1


class LlmError(RuntimeError):
    """Transport or protocol failure after retries."""


@dataclass
class LlmConfig:
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "FLEETOPT_LLM_API_KEY"
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 3
    retry_wait: float = 1.0
    transcript_path: str | None = None

    def __post_init__(self):
        if not self.endpoint:
            self.endpoint = os.environ.get("FLEETOPT_LLM_ENDPOINT", "")
        if not self.model:
            self.model = os.environ.get("FLEETOPT_LLM_MODEL", "")


class ChatClient:
    """Minimal blocking client for a chat-completions endpoint."""

    def __init__(self, config: LlmConfig):
        if not config.endpoint:
            raise LlmError(
                "no endpoint configured (set FLEETOPT_LLM_ENDPOINT or pass one)"
            )
        self.config = config
        self.transcript: list[dict] = []

    def complete(self, messages: list[dict[str, str]]) -> str:
        payload = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries):
            if attempt:
                time.sleep(self.config.retry_wait * attempt)
            request = urllib.request.Request(
                self.config.endpoint, data=body, headers=headers
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.config.timeout
                ) as resp:
                    raw = resp.read().decode("utf-8")
                content = _reply_content(json.loads(raw))
                self._record(payload, content)
                return content
            # URLError and a read timeout are OSErrors, a malformed status
            # line an HTTPException; a body that is not JSON text (or not
            # UTF-8) is a ValueError
            except (OSError, http.client.HTTPException, ValueError, LlmError) as err:
                if isinstance(err, urllib.error.HTTPError):
                    err.close()  # the error holds the reply's connection
                last_error = err
        raise LlmError(f"chat endpoint failed after retries: {last_error}")

    def _record(self, request: dict, content: str) -> None:
        self.transcript.append({"request": request, "response_content": content})
        if self.config.transcript_path:
            save_transcript(self.transcript, self.config.transcript_path)


def _reply_content(body) -> str:
    """The text of a reply body's first choice; raises :class:`LlmError`
    when the body does not have that shape."""
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise LlmError("reply carried no first choice with message content") from None
    if not isinstance(content, str):
        raise LlmError(f"reply content is {type(content).__name__}, not text")
    return content


class ReplayClient:
    """Serves recorded responses in order; raises when the tape runs out."""

    def __init__(self, responses: list[str]):
        self.responses = list(responses)
        self.cursor = 0
        self.transcript: list[dict] = []

    @classmethod
    def from_file(cls, path: str) -> "ReplayClient":
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("version") != TRANSCRIPT_VERSION:
            raise LlmError(f"unsupported transcript version {doc.get('version')}")
        return cls([entry["response_content"] for entry in doc["entries"]])

    def complete(self, messages: list[dict[str, str]]) -> str:
        if self.cursor >= len(self.responses):
            raise LlmError("replay transcript exhausted")
        content = self.responses[self.cursor]
        self.cursor += 1
        self.transcript.append(
            {"request": {"messages": messages}, "response_content": content}
        )
        return content


def save_transcript(entries: list[dict], path: str) -> None:
    doc = {"version": TRANSCRIPT_VERSION, "entries": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def extract_json_array(text: str):
    """First JSON array in a reply that parses from its ``[``, or None.

    Each ``[`` is tried in turn with the JSON decoder, so brackets
    inside strings are read as text."""
    decoder = json.JSONDecoder()
    for start, ch in enumerate(text):
        if ch == "[":
            try:
                return decoder.raw_decode(text, start)[0]
            except json.JSONDecodeError:
                continue
    return None
