"""Pluggable chat-completion backends.

``LiveBackend`` talks to any OpenAI-compatible ``/v1/chat/completions``
endpoint; ``ScriptedBackend`` replays canned responses keyed by
(episode id, call kind, ordinal) so episodes are byte-for-byte
deterministic under test. Both are safe for concurrent in-flight requests;
per-episode call ordering is the caller's job.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import requests

from .budget import TokenCounter, WHITESPACE_COUNTER, count_tokens

CALL_KINDS = ("prethink", "write", "answer", "baseline")

THINK_OPEN = "<think>"
THINK_CLOSE = "</think>"


class BackendError(RuntimeError):
    """Backend call failed; ``attempts`` records how many tries were made."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class ScriptExhaustedError(BackendError):
    """A scripted episode ran out of responses for a call kind."""


@dataclass(frozen=True)
class GenerationRequest:
    messages: tuple[dict, ...]
    temperature: float = 1.0
    top_p: float = 1.0
    max_new_tokens: int = 1536
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be > 0")
        if not 0.0 <= self.top_p <= 1.0:
            raise ValueError("top_p must be in [0, 1]")


@dataclass(frozen=True)
class GenerationResult:
    text: str
    finish_reason: str  # stop | length | error
    prompt_tokens: int
    completion_tokens: int
    latency_ms: int


class Backend(Protocol):
    def complete(self, request: GenerationRequest, *, episode_id: str, call_kind: str) -> GenerationResult:
        ...


def user_message(content: str) -> dict:
    return {"role": "user", "content": content}


def system_message(content: str) -> dict:
    return {"role": "system", "content": content}


class ScriptedBackend:
    """Deterministic backend replaying a script.

    Script shape: ``{episode_id: {kind: [entry, ...]}}`` where an entry is
    either a response string or ``{"text": ..., "finish_reason": ...}``.
    Responses are consumed in call order per (episode, kind); running past
    the end raises ScriptExhaustedError.
    """

    def __init__(self, script: dict, counter: TokenCounter = WHITESPACE_COUNTER):
        self.script = script
        self.counter = counter
        self.calls = 0
        self.calls_by_kind: dict[str, int] = {}
        self._ordinals: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path, counter: TokenCounter = WHITESPACE_COUNTER) -> "ScriptedBackend":
        with Path(path).open("r", encoding="utf-8") as f:
            return cls(json.load(f), counter=counter)

    def complete(self, request: GenerationRequest, *, episode_id: str, call_kind: str) -> GenerationResult:
        if call_kind not in CALL_KINDS:
            raise ValueError(f"unknown call kind {call_kind!r}")
        with self._lock:
            key = (episode_id, call_kind)
            ordinal = self._ordinals.get(key, 0)
            self._ordinals[key] = ordinal + 1
            self.calls += 1
            self.calls_by_kind[call_kind] = self.calls_by_kind.get(call_kind, 0) + 1
        entries = self.script.get(episode_id, {}).get(call_kind, [])
        if ordinal >= len(entries):
            raise ScriptExhaustedError(
                f"script exhausted for episode {episode_id!r}, kind {call_kind!r}, call #{ordinal + 1}"
            )
        entry = entries[ordinal]
        if isinstance(entry, str):
            text, finish = entry, "stop"
        else:
            text, finish = entry["text"], entry.get("finish_reason", "stop")
        prompt_text = "\n".join(str(m.get("content", "")) for m in request.messages)
        return GenerationResult(
            text=text,
            finish_reason=finish,
            prompt_tokens=count_tokens(prompt_text, self.counter),
            completion_tokens=count_tokens(text, self.counter),
            latency_ms=0,
        )


class LiveBackend:
    """OpenAI-compatible chat-completions client.

    Transport failures are retried with exponential backoff (3 attempts);
    HTTP-level generation errors are not retried, keeping call accounting
    deterministic.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str = "",
        timeout: float = 120.0,
        max_retries: int = 3,
        counter: TokenCounter = WHITESPACE_COUNTER,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.counter = counter

    @classmethod
    def from_env(cls, **kwargs) -> "LiveBackend":
        base = os.environ.get("INFMEM_API_BASE", "")
        if not base:
            raise BackendError("INFMEM_API_BASE is not set")
        return cls(
            base_url=base,
            model=os.environ.get("INFMEM_MODEL", ""),
            api_key=os.environ.get("INFMEM_API_KEY", ""),
            **kwargs,
        )

    def complete(self, request: GenerationRequest, *, episode_id: str, call_kind: str) -> GenerationResult:
        del episode_id, call_kind  # routing keys are for scripted replay only
        body = {
            "model": self.model,
            "messages": list(request.messages),
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_new_tokens,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_exc: Exception | None = None
        start = time.monotonic()
        for attempt in range(1, self.max_retries + 1):
            try:
                resp = requests.post(
                    f"{self.base_url}/v1/chat/completions",
                    json=body,
                    headers=headers,
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_exc = exc
                if attempt < self.max_retries:
                    time.sleep(2 ** (attempt - 1))
                continue
            latency_ms = int((time.monotonic() - start) * 1000)
            if resp.status_code != 200:
                raise BackendError(
                    f"endpoint returned HTTP {resp.status_code}: {resp.text[:500]}", attempts=attempt
                )
            try:
                payload = resp.json()
                choice = payload["choices"][0]
                text = choice.get("message", {}).get("content") or ""
                finish = choice.get("finish_reason") or "stop"
                usage = payload.get("usage", {})
                prompt_tokens = usage.get("prompt_tokens", 0)
                completion_tokens = usage.get("completion_tokens", count_tokens(text, self.counter))
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                # A 200 whose body is not JSON or lacks a usable ``choices[0]``.
                raise BackendError(
                    f"malformed response body ({type(exc).__name__}: {exc}): {resp.text[:500]}", attempts=attempt
                ) from exc
            if finish not in ("stop", "length"):
                finish = "error"
            return GenerationResult(
                text=text,
                finish_reason=finish,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                latency_ms=latency_ms,
            )
        raise BackendError(f"transport failure after {self.max_retries} attempts: {last_exc}", attempts=self.max_retries)


def strip_thinking_flagged(text: str) -> tuple[str, bool]:
    """Remove every ``<think>...</think>`` span; flag an unmatched opener.

    An opening tag with no closer removes everything to the end of text.
    """
    out: list[str] = []
    pos = 0
    unclosed = False
    while True:
        open_at = text.find(THINK_OPEN, pos)
        if open_at == -1:
            out.append(text[pos:])
            break
        out.append(text[pos:open_at])
        close_at = text.find(THINK_CLOSE, open_at + len(THINK_OPEN))
        if close_at == -1:
            unclosed = True
            break
        pos = close_at + len(THINK_CLOSE)
    return "".join(out), unclosed


def strip_thinking(text: str) -> str:
    return strip_thinking_flagged(text)[0]
