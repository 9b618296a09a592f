"""Backends: scripted replay, live wire shape, retries, thinking spans."""

import json

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

import infmem.backend as backend_mod
from infmem.backend import (
    BackendError,
    GenerationRequest,
    LiveBackend,
    ScriptedBackend,
    ScriptExhaustedError,
    strip_thinking,
    strip_thinking_flagged,
    user_message,
)


def _req(content="hello", **kwargs):
    return GenerationRequest(messages=(user_message(content),), **kwargs)


def test_scripted_returns_next_response():
    be = ScriptedBackend({"ep": {"prethink": ["STOP"]}})
    res = be.complete(_req(), episode_id="ep", call_kind="prethink")
    assert res.text == "STOP"
    assert res.finish_reason == "stop"
    assert res.latency_ms == 0


def test_scripted_exhaustion_errors():
    be = ScriptedBackend({"ep": {"prethink": ["STOP"]}})
    be.complete(_req(), episode_id="ep", call_kind="prethink")
    with pytest.raises(ScriptExhaustedError, match="call #2"):
        be.complete(_req(), episode_id="ep", call_kind="prethink")


def test_scripted_kinds_and_episodes_independent():
    be = ScriptedBackend({"a": {"prethink": ["p1"], "write": ["w1"]}, "b": {"prethink": ["p2"]}})
    assert be.complete(_req(), episode_id="a", call_kind="prethink").text == "p1"
    assert be.complete(_req(), episode_id="b", call_kind="prethink").text == "p2"
    assert be.complete(_req(), episode_id="a", call_kind="write").text == "w1"
    assert be.calls == 3
    assert be.calls_by_kind == {"prethink": 2, "write": 1}


def test_scripted_dict_entry_sets_finish_reason():
    be = ScriptedBackend({"ep": {"write": [{"text": "partial memory", "finish_reason": "length"}]}})
    res = be.complete(_req(), episode_id="ep", call_kind="write")
    assert res.finish_reason == "length"


def test_request_validation():
    with pytest.raises(ValueError):
        GenerationRequest(messages=())
    with pytest.raises(ValueError):
        _req(max_new_tokens=0)
    with pytest.raises(ValueError):
        _req(top_p=1.5)


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

    def json(self):
        return self._payload


def test_live_request_body_shape(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["url"] = url
        captured["body"] = json
        captured["headers"] = headers
        return _FakeResponse(
            payload={
                "choices": [{"message": {"content": "fine"}, "finish_reason": "stop"}],
                "usage": {"prompt_tokens": 7, "completion_tokens": 1},
            }
        )

    monkeypatch.setattr(backend_mod.requests, "post", fake_post)
    be = LiveBackend(base_url="http://host:8000", model="m", api_key="secret")
    res = be.complete(
        _req("hi", temperature=1.0, top_p=1.0, max_new_tokens=1536), episode_id="e", call_kind="prethink"
    )
    assert captured["url"] == "http://host:8000/v1/chat/completions"
    body = captured["body"]
    assert body["messages"] == [{"role": "user", "content": "hi"}]
    assert body["temperature"] == 1.0
    assert body["top_p"] == 1.0
    assert body["max_tokens"] == 1536
    assert captured["headers"]["Authorization"] == "Bearer secret"
    assert res.text == "fine"
    assert res.prompt_tokens == 7


def test_live_retries_transport_errors(monkeypatch):
    attempts = {"n": 0}

    def flaky_post(url, **kwargs):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise requests.ConnectionError("down")
        return _FakeResponse(payload={"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]})

    monkeypatch.setattr(backend_mod.requests, "post", flaky_post)
    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    be = LiveBackend(base_url="http://h", model="m")
    assert be.complete(_req(), episode_id="e", call_kind="answer").text == "ok"
    assert attempts["n"] == 3


def test_live_gives_up_after_three_transport_failures(monkeypatch):
    def dead_post(url, **kwargs):
        raise requests.ConnectionError("down")

    monkeypatch.setattr(backend_mod.requests, "post", dead_post)
    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    be = LiveBackend(base_url="http://h", model="m")
    with pytest.raises(BackendError) as err:
        be.complete(_req(), episode_id="e", call_kind="answer")
    assert err.value.attempts == 3


def test_live_http_error_not_retried(monkeypatch):
    calls = {"n": 0}

    def bad_post(url, **kwargs):
        calls["n"] += 1
        return _FakeResponse(status_code=500, text="boom")

    monkeypatch.setattr(backend_mod.requests, "post", bad_post)
    be = LiveBackend(base_url="http://h", model="m")
    with pytest.raises(BackendError, match="500"):
        be.complete(_req(), episode_id="e", call_kind="answer")
    assert calls["n"] == 1


def test_live_from_env(monkeypatch):
    monkeypatch.delenv("INFMEM_API_BASE", raising=False)
    with pytest.raises(BackendError):
        LiveBackend.from_env()
    monkeypatch.setenv("INFMEM_API_BASE", "http://srv")
    monkeypatch.setenv("INFMEM_MODEL", "mdl")
    monkeypatch.setenv("INFMEM_API_KEY", "k")
    be = LiveBackend.from_env()
    assert (be.base_url, be.model, be.api_key) == ("http://srv", "mdl", "k")


def _scan_oracle(text):
    """Character-by-character state machine, independent of the implementation."""
    out, i, inside = [], 0, False
    while i < len(text):
        if not inside and text.startswith("<think>", i):
            close = text.find("</think>", i + 7)
            if close == -1:
                return "".join(out)
            i = close + 8
            continue
        out.append(text[i])
        i += 1
    return "".join(out)


def test_strip_thinking_single_span():
    assert strip_thinking("<think>plan</think>STOP") == "STOP"


def test_strip_thinking_no_tags_unchanged():
    assert strip_thinking("no tags here") == "no tags here"


def test_strip_thinking_multi_span_matches_scanner():
    text = "<think>a</think>x<think>b</think>y"
    assert strip_thinking(text) == "xy"
    assert strip_thinking(text) == _scan_oracle(text)


def test_strip_thinking_unmatched_open_flags():
    stripped, unclosed = strip_thinking_flagged("head<think>never closed")
    assert stripped == "head"
    assert unclosed


@given(
    parts=st.lists(
        st.one_of(
            st.text(alphabet="abc <>/", max_size=12),
            st.just("<think>"),
            st.just("</think>"),
        ),
        max_size=12,
    )
)
def test_strip_thinking_properties(parts):
    text = "".join(parts)
    stripped = strip_thinking(text)
    assert len(stripped) <= len(text)
    assert strip_thinking(stripped) == stripped or "<think>" in stripped  # idempotent once spans are gone
    assert stripped == _scan_oracle(text)


def test_live_maps_unknown_finish_reason_to_error(monkeypatch):
    def post(url, **kwargs):
        return _FakeResponse(
            payload={"choices": [{"message": {"content": "x"}, "finish_reason": "content_filter"}]}
        )

    monkeypatch.setattr(backend_mod.requests, "post", post)
    be = LiveBackend(base_url="http://h", model="m")
    res = be.complete(_req(), episode_id="e", call_kind="answer")
    assert res.finish_reason == "error"


class _BodyResponse:
    """A 200 response whose ``json()`` returns ``payload`` or raises it."""

    status_code = 200
    text = "<html>gateway</html>"

    def __init__(self, payload):
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


@pytest.mark.parametrize(
    "payload",
    [
        requests.exceptions.JSONDecodeError("Expecting value", "<html>gateway</html>", 0),
        {},
        {"choices": []},
        {"choices": None},
        [],
        {"choices": ["not an object"]},
        {"choices": [{"message": {"content": "x"}}], "usage": "none"},
    ],
    ids=["not-json", "no-choices", "empty-choices", "null-choices", "list-body", "string-choice", "string-usage"],
)
def test_live_malformed_200_body_raises_backend_error(monkeypatch, payload):
    calls = {"n": 0}

    def post(url, **kwargs):
        calls["n"] += 1
        return _BodyResponse(payload)

    monkeypatch.setattr(backend_mod.requests, "post", post)
    be = LiveBackend(base_url="http://h", model="m")
    with pytest.raises(BackendError, match="malformed response body") as err:
        be.complete(_req(), episode_id="e", call_kind="answer")
    assert err.value.attempts == 1
    assert calls["n"] == 1
