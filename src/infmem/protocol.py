"""The bounded-memory control loop: PreThink, Retrieve, Write, Early Stop.

One episode is a strictly sequential state machine over the streaming chunks
of a single instance. Each step first asks the planner whether the current
memory suffices (STOP) or what to retrieve (RETRIEVE + query + top_k); STOP
votes accumulate toward the stop threshold while non-terminal STOP steps
keep reading via a retrieval-free write, and any RETRIEVE resets the votes.
After termination the answer is produced from the final memory alone; the
raw document never reaches the answer prompt.

Prompt templates are versioned text assets filled in a single pass, so slot
markers inside user content are never re-expanded.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping, Sequence

from .backend import (
    Backend,
    BackendError,
    GenerationRequest,
    GenerationResult,
    strip_thinking,
    system_message,
    user_message,
)
from .budget import BudgetConfig, TokenCounter, WHITESPACE_COUNTER, count_tokens, truncate_to_budget
from .retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    Bm25Index,
    RetrievalUnit,
    StreamChunk,
    build_index,
    build_units,
    concat_retrieved,
    query_index,
    segment_stream,
)

TEMPLATE_VERSION = "v1"
TEMPLATE_FILES = {
    "prethink": f"prethink_{TEMPLATE_VERSION}.txt",
    "write": f"write_{TEMPLATE_VERSION}.txt",
    "answer": f"answer_{TEMPLATE_VERSION}.txt",
}

ANSWER_SYSTEM_LINE = "Answer the question using only the MEMORY. Respond with the answer span only."

K_MAX_DEFAULT = 10
FALLBACK_TOP_K = 6

MEMORY_MARKERS = ("Updated memory:", "**Updated memory:**", "Updated Memory:")

STOP = "STOP"
RETRIEVE = "RETRIEVE"

MODES = ("infmem", "memagent", "rag-top6")

TRAJECTORY_SCHEMA_VERSION = "1"

_SLOT_RE = re.compile(r"\{(prompt|retrieval_history|retrieve|chunk|memory)\}")
_FUNCTION_RE = re.compile(r"^[ \t]*FUNCTION:\s*retrievesearch\s*$", re.MULTILINE)


def load_template(name: str) -> str:
    return resources.files("infmem").joinpath("templates", TEMPLATE_FILES[name]).read_text(encoding="utf-8")


_TEMPLATES = {name: load_template(name) for name in TEMPLATE_FILES}


class ControlParseError(ValueError):
    """Planner output contained neither a STOP line nor a parsable call."""


class EpisodeError(RuntimeError):
    """Backend failure mid-episode; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory", cause: Exception):
        super().__init__(message)
        self.trajectory = trajectory
        self.cause = cause


@dataclass(frozen=True)
class ControlRecord:
    action: str
    query: str | None = None
    top_k: int | None = None
    rationale: str | None = None

    def __post_init__(self) -> None:
        if self.action not in (STOP, RETRIEVE):
            raise ValueError(f"action must be STOP or RETRIEVE, got {self.action!r}")
        if self.action == RETRIEVE and (not self.query or self.top_k is None):
            raise ValueError("RETRIEVE control records need a non-empty query and a top_k")
        if self.action == STOP and (self.query is not None or self.top_k is not None):
            raise ValueError("STOP control records carry no query or top_k")


@dataclass(frozen=True)
class MemoryState:
    text: str
    token_count: int
    step: int


@dataclass(frozen=True)
class StopPolicy:
    """Terminate once this many STOP votes accumulate without an intervening RETRIEVE."""

    threshold: int = 1

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"stop threshold must be >= 1, got {self.threshold}")


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    control: ControlRecord | None
    retrieval_entry: tuple[str, int] | None
    retrieved_unit_ids: tuple[int, ...]
    prethink_prompt: str | None
    prethink_generation: str | None
    write_prompt: str | None
    write_generation: str | None
    memory_before: MemoryState
    memory_after: MemoryState
    call_ok: bool
    memory_ok: bool
    prethink_latency_ms: int | None = None
    write_latency_ms: int | None = None


@dataclass(frozen=True)
class Trajectory:
    instance_id: str
    mode: str
    question: str
    steps: tuple[StepRecord, ...]
    stop_step: int | None
    stop_count_at_termination: int
    final_memory: MemoryState
    answer: str
    answer_prompt: str
    answer_generation: str
    total_latency_ms: int


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 1.0
    top_p: float = 1.0


def _fill(template: str, slots: Mapping[str, str]) -> str:
    # Single-pass substitution: slot markers inside the filled content are
    # rendered literally, never re-templated.
    return _SLOT_RE.sub(lambda m: slots.get(m.group(1), m.group(0)), template)


def render_history(history: Sequence[tuple[str, int]]) -> str:
    return "\n".join(f"Step {n}: query='{q}', top_k={k}" for n, (q, k) in enumerate(history, start=1))


def render_prethink_prompt(question: str, memory: MemoryState, history: Sequence[tuple[str, int]]) -> str:
    return _fill(
        _TEMPLATES["prethink"],
        {"prompt": question, "retrieval_history": render_history(history), "memory": memory.text},
    )


def render_write_prompt(question: str, memory: MemoryState, retrieved_context: str, chunk_text: str) -> str:
    return _fill(
        _TEMPLATES["write"],
        {"prompt": question, "retrieve": retrieved_context, "chunk": chunk_text, "memory": memory.text},
    )


def render_answer_prompt(question: str, memory: MemoryState) -> str:
    return _fill(_TEMPLATES["answer"], {"prompt": question, "memory": memory.text})


def parse_control_record(generation: str, k_max: int = K_MAX_DEFAULT) -> ControlRecord:
    """Extract the planner decision from raw generation text.

    Thinking spans are stripped first. A line equal to STOP (case-insensitive,
    trimmed) wins; otherwise a ``FUNCTION: retrievesearch`` block followed by
    an ARGS JSON object with a string ``query`` and integer ``top_k`` yields a
    RETRIEVE record with top_k clamped into [1, k_max].
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    text = strip_thinking(generation)
    for line in text.splitlines():
        if line.strip().upper() == STOP:
            return ControlRecord(action=STOP)
    match = _FUNCTION_RE.search(text)
    if match is None:
        raise ControlParseError("no STOP line and no retrievesearch call found")
    args_at = text.find("ARGS:", match.end())
    if args_at == -1:
        raise ControlParseError("retrievesearch call has no ARGS block")
    try:
        obj, _ = json.JSONDecoder().raw_decode(text[args_at + len("ARGS:") :].lstrip())
    except json.JSONDecodeError as exc:
        raise ControlParseError(f"ARGS is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "query" not in obj or "top_k" not in obj:
        raise ControlParseError("ARGS must be an object with 'query' and 'top_k'")
    query = obj["query"]
    top_k = obj["top_k"]
    if not isinstance(query, str) or not query.strip():
        raise ControlParseError("'query' must be a non-empty string")
    if isinstance(top_k, bool) or not isinstance(top_k, int):
        raise ControlParseError("'top_k' must be an integer")
    return ControlRecord(action=RETRIEVE, query=query, top_k=max(1, min(top_k, k_max)))


def extract_memory_update(
    generation: str,
    budget: int,
    counter: TokenCounter,
    finish_reason: str = "stop",
) -> tuple[str, bool]:
    """New memory text plus the memory verifier flag.

    Takes the text after the last update marker (teacher outputs vary in
    formatting), strips thinking, truncates to the memory budget at a word
    boundary. The flag is false iff the generation hit the length cap or the
    extracted text is empty.
    """
    if budget <= 0:
        raise ValueError(f"memory budget must be > 0, got {budget}")
    stripped = strip_thinking(generation)
    best_end = -1
    for marker in MEMORY_MARKERS:
        at = stripped.rfind(marker)
        if at != -1 and at + len(marker) > best_end:
            best_end = at + len(marker)
    extracted = stripped[best_end:] if best_end != -1 else stripped
    extracted = extracted.strip()
    text = truncate_to_budget(extracted, budget, counter, boundary="word")
    ok = finish_reason != "length" and bool(text)
    return text, ok


def _first_line(text: str) -> str:
    stripped = strip_thinking(text).strip()
    for line in stripped.splitlines():
        if line.strip():
            return line.strip()
    return ""


def make_request(messages: Sequence[dict], max_new_tokens: int, sampling: SamplingConfig) -> GenerationRequest:
    return GenerationRequest(
        messages=tuple(messages),
        temperature=sampling.temperature,
        top_p=sampling.top_p,
        max_new_tokens=max_new_tokens,
    )


def answer_call(
    question: str,
    memory: MemoryState,
    backend: Backend,
    *,
    episode_id: str,
    max_new_tokens: int = 1536,
    sampling: SamplingConfig = SamplingConfig(),
    call_kind: str = "answer",
) -> tuple[str, str, GenerationResult]:
    """One backend call producing the final answer from (question, memory) only."""
    prompt = render_answer_prompt(question, memory)
    request = make_request([system_message(ANSWER_SYSTEM_LINE), user_message(prompt)], max_new_tokens, sampling)
    result = backend.complete(request, episode_id=episode_id, call_kind=call_kind)
    return _first_line(result.text), prompt, result


@dataclass(frozen=True)
class EpisodeRuntime:
    """Immutable per-instance context shared by every step of an episode."""

    chunks: tuple[StreamChunk, ...]
    units: tuple[RetrievalUnit, ...]
    index: Bm25Index | None


def prepare_runtime(
    long_text: str,
    budgets: BudgetConfig,
    counter: TokenCounter,
    unit_tokens: int | None = None,
    k1: float | None = None,
    b: float | None = None,
) -> EpisodeRuntime:
    chunks = tuple(segment_stream(long_text, budgets.recurrent, counter))
    units = tuple(build_units(long_text, unit_tokens or budgets.retrieval_unit, counter))
    index = build_index(units, k1 or DEFAULT_K1, b or DEFAULT_B) if units else None
    return EpisodeRuntime(chunks=chunks, units=units, index=index)


# One slot per thread: the last runtime this thread prepared, with its key.
# Rollouts of one document run back to back in one thread, so one slot
# serves them all, and a thread never holds more than one document's index.
_runtime_slot = threading.local()


def _episode_runtime(
    long_text: str,
    budgets: BudgetConfig,
    counter: TokenCounter,
    unit_tokens: int | None,
    k1: float | None,
    b: float | None,
) -> EpisodeRuntime:
    """The previous episode's runtime when it read the same text under the same settings.

    On a miss the old runtime is dropped before the new one is built, so two
    documents' indexes are never alive at once.
    """
    unit_tokens, k1, b = unit_tokens or budgets.retrieval_unit, k1 or DEFAULT_K1, b or DEFAULT_B
    settings = (budgets.recurrent, unit_tokens, k1, b, counter)
    slot = getattr(_runtime_slot, "entry", None)
    if slot is not None and slot[1] == settings and slot[0] == long_text:
        return slot[2]
    slot = _runtime_slot.entry = None
    runtime = prepare_runtime(long_text, budgets, counter, unit_tokens, k1, b)
    _runtime_slot.entry = (long_text, settings, runtime)
    return runtime


def release_runtime() -> None:
    """Empty the calling thread's runtime slot."""
    _runtime_slot.entry = None


def run_episode(
    instance,
    backend: Backend,
    budgets: BudgetConfig,
    stop_policy: StopPolicy = StopPolicy(1),
    k_max: int = K_MAX_DEFAULT,
    *,
    counter: TokenCounter = WHITESPACE_COUNTER,
    sampling: SamplingConfig = SamplingConfig(),
    retrieval_scope: str = "full",
    unit_tokens: int | None = None,
    k1: float | None = None,
    b: float | None = None,
) -> Trajectory:
    """Execute the full control loop over one instance and answer at the end.

    ``retrieval_scope`` is "full" (whole-document index, the default) or
    "prefix" (only units already streamed past). A planner parse failure
    degrades to a RETRIEVE with the raw question and the default top_k so
    rollouts stay alive; the step is flagged call_ok=False. The document's
    chunks, units and index are reused from this thread's previous episode
    when it read the same text under the same settings.
    """
    if retrieval_scope not in ("full", "prefix"):
        raise ValueError(f"retrieval_scope must be 'full' or 'prefix', got {retrieval_scope!r}")
    rt = _episode_runtime(instance.long_text, budgets, counter, unit_tokens, k1, b)
    units_by_id = {u.unit_id: u for u in rt.units}
    question = truncate_to_budget(instance.question, budgets.query, counter)

    memory = MemoryState(text="", token_count=0, step=0)
    history: list[tuple[str, int]] = []
    steps: list[StepRecord] = []
    stop_count = 0
    stop_step: int | None = None
    total_latency = 0

    def partial(reason: str, cause: Exception) -> EpisodeError:
        traj = Trajectory(
            instance_id=instance.instance_id,
            mode="infmem",
            question=question,
            steps=tuple(steps),
            stop_step=stop_step,
            stop_count_at_termination=stop_count,
            final_memory=memory,
            answer="",
            answer_prompt="",
            answer_generation="",
            total_latency_ms=total_latency,
        )
        return EpisodeError(reason, traj, cause)

    for t, chunk in enumerate(rt.chunks, start=1):
        prethink_prompt = render_prethink_prompt(question, memory, history)
        try:
            prethink_res = backend.complete(
                make_request([user_message(prethink_prompt)], budgets.max_generation, sampling),
                episode_id=instance.instance_id,
                call_kind="prethink",
            )
        except BackendError as exc:
            raise partial(f"prethink call failed at step {t}", exc) from exc
        total_latency += prethink_res.latency_ms

        call_ok = True
        try:
            control = parse_control_record(prethink_res.text, k_max)
        except ControlParseError:
            control = ControlRecord(action=RETRIEVE, query=question, top_k=FALLBACK_TOP_K)
            call_ok = False

        if control.action == STOP:
            stop_count += 1
            if stop_count >= stop_policy.threshold:
                stop_step = t
                steps.append(
                    StepRecord(
                        step_index=t,
                        control=control,
                        retrieval_entry=None,
                        retrieved_unit_ids=(),
                        prethink_prompt=prethink_prompt,
                        prethink_generation=prethink_res.text,
                        write_prompt=None,
                        write_generation=None,
                        memory_before=memory,
                        memory_after=replace(memory, step=t),
                        call_ok=call_ok,
                        memory_ok=True,
                        prethink_latency_ms=prethink_res.latency_ms,
                        write_latency_ms=None,
                    )
                )
                memory = replace(memory, step=t)
                break
            # Non-terminal STOP: keep reading; the vote persists, the write
            # sees an empty retrieved section.
            retrieved_text = ""
            unit_ids: tuple[int, ...] = ()
            entry: tuple[str, int] | None = None
        else:
            stop_count = 0
            assert control.query is not None and control.top_k is not None
            scope_end = chunk.start if retrieval_scope == "prefix" else None
            hits = (
                query_index(
                    rt.index, control.query, control.top_k,
                    exclude_span=(chunk.start, chunk.end), scope_end=scope_end,
                )
                if rt.index is not None
                else []
            )
            retrieved_text = concat_retrieved(hits, units_by_id, budgets.retrieved, counter)
            unit_ids = tuple(h.unit_id for h in hits)
            entry = (control.query, control.top_k)
            history.append(entry)

        write_prompt = render_write_prompt(question, memory, retrieved_text, chunk.text)
        try:
            write_res = backend.complete(
                make_request([user_message(write_prompt)], budgets.max_generation, sampling),
                episode_id=instance.instance_id,
                call_kind="write",
            )
        except BackendError as exc:
            raise partial(f"write call failed at step {t}", exc) from exc
        total_latency += write_res.latency_ms

        new_text, memory_ok = extract_memory_update(
            write_res.text, budgets.memory, counter, finish_reason=write_res.finish_reason
        )
        memory_after = MemoryState(text=new_text, token_count=count_tokens(new_text, counter), step=t)
        steps.append(
            StepRecord(
                step_index=t,
                control=control,
                retrieval_entry=entry,
                retrieved_unit_ids=unit_ids,
                prethink_prompt=prethink_prompt,
                prethink_generation=prethink_res.text,
                write_prompt=write_prompt,
                write_generation=write_res.text,
                memory_before=memory,
                memory_after=memory_after,
                call_ok=call_ok,
                memory_ok=memory_ok,
                prethink_latency_ms=prethink_res.latency_ms,
                write_latency_ms=write_res.latency_ms,
            )
        )
        memory = memory_after

    try:
        answer_text, answer_prompt, answer_res = answer_call(
            question, memory, backend,
            episode_id=instance.instance_id, max_new_tokens=budgets.max_generation, sampling=sampling,
        )
    except BackendError as exc:
        raise partial("answer call failed", exc) from exc
    total_latency += answer_res.latency_ms

    return Trajectory(
        instance_id=instance.instance_id,
        mode="infmem",
        question=question,
        steps=tuple(steps),
        stop_step=stop_step,
        stop_count_at_termination=stop_count,
        final_memory=memory,
        answer=answer_text,
        answer_prompt=answer_prompt,
        answer_generation=answer_res.text,
        total_latency_ms=total_latency,
    )


def _memory_to_dict(m: MemoryState) -> dict:
    return {"text": m.text, "token_count": m.token_count, "step": m.step}


def _memory_from_dict(d: Mapping) -> MemoryState:
    return MemoryState(text=d["text"], token_count=d["token_count"], step=d["step"])


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "instance_id": traj.instance_id,
        "mode": traj.mode,
        "question": traj.question,
        "steps": [
            {
                "step_index": s.step_index,
                "control": None
                if s.control is None
                else {
                    "action": s.control.action,
                    "query": s.control.query,
                    "top_k": s.control.top_k,
                    "rationale": s.control.rationale,
                },
                "retrieval_entry": None if s.retrieval_entry is None else list(s.retrieval_entry),
                "retrieved_unit_ids": list(s.retrieved_unit_ids),
                "prethink_prompt": s.prethink_prompt,
                "prethink_generation": s.prethink_generation,
                "write_prompt": s.write_prompt,
                "write_generation": s.write_generation,
                "memory_before": _memory_to_dict(s.memory_before),
                "memory_after": _memory_to_dict(s.memory_after),
                "verifier_flags": {"call_ok": s.call_ok, "memory_ok": s.memory_ok},
                "latency_ms": {"prethink": s.prethink_latency_ms, "write": s.write_latency_ms},
            }
            for s in traj.steps
        ],
        "stop_step": traj.stop_step,
        "stop_count_at_termination": traj.stop_count_at_termination,
        "final_memory": _memory_to_dict(traj.final_memory),
        "answer": traj.answer,
        "answer_prompt": traj.answer_prompt,
        "answer_generation": traj.answer_generation,
        "total_latency_ms": traj.total_latency_ms,
    }


def trajectory_from_dict(d: Mapping) -> Trajectory:
    steps = []
    for s in d["steps"]:
        control = None
        if s["control"] is not None:
            c = s["control"]
            control = ControlRecord(action=c["action"], query=c["query"], top_k=c["top_k"], rationale=c["rationale"])
        entry = s["retrieval_entry"]
        steps.append(
            StepRecord(
                step_index=s["step_index"],
                control=control,
                retrieval_entry=None if entry is None else (entry[0], entry[1]),
                retrieved_unit_ids=tuple(s["retrieved_unit_ids"]),
                prethink_prompt=s["prethink_prompt"],
                prethink_generation=s["prethink_generation"],
                write_prompt=s["write_prompt"],
                write_generation=s["write_generation"],
                memory_before=_memory_from_dict(s["memory_before"]),
                memory_after=_memory_from_dict(s["memory_after"]),
                call_ok=s["verifier_flags"]["call_ok"],
                memory_ok=s["verifier_flags"]["memory_ok"],
                prethink_latency_ms=s["latency_ms"]["prethink"],
                write_latency_ms=s["latency_ms"]["write"],
            )
        )
    return Trajectory(
        instance_id=d["instance_id"],
        mode=d["mode"],
        question=d["question"],
        steps=tuple(steps),
        stop_step=d["stop_step"],
        stop_count_at_termination=d["stop_count_at_termination"],
        final_memory=_memory_from_dict(d["final_memory"]),
        answer=d["answer"],
        answer_prompt=d["answer_prompt"],
        answer_generation=d["answer_generation"],
        total_latency_ms=d["total_latency_ms"],
    )


def dumps_trajectory(traj: Trajectory) -> str:
    """One stable JSONL line; key order is fixed for golden-file diffs."""
    return json.dumps(trajectory_to_dict(traj), ensure_ascii=False, sort_keys=True)


def loads_trajectory(line: str) -> Trajectory:
    return trajectory_from_dict(json.loads(line))
