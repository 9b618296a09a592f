"""Controlled-comparison baselines sharing budgets and backend with the agent.

``run_memagent`` reuses the memory-update template with an empty retrieved
section (no published prompt exists for the original recurrent-overwrite
agent, and reusing ours isolates the planning/retrieval delta).
``run_rag_top6`` is the single-shot retrieve-then-answer pipeline:
1000-token units, the raw question as the query, top-6 units concatenated
into one answer prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import Backend, BackendError, user_message
from .budget import BudgetConfig, TokenCounter, WHITESPACE_COUNTER, count_tokens, truncate_to_budget
from .protocol import (
    EpisodeError,
    MemoryState,
    SamplingConfig,
    StepRecord,
    Trajectory,
    answer_call,
    extract_memory_update,
    make_request,
    render_write_prompt,
)
from .retrieval import DEFAULT_B, DEFAULT_K1, build_index, build_units, concat_retrieved, query_index, segment_stream

MEMAGENT_PROMPT_NOTE = "memory-update template with empty retrieved section (surrogate)"


@dataclass(frozen=True)
class RagConfig:
    unit_tokens: int = 1000
    top_k: int = 6
    context_cap: int = 8000
    max_new_tokens: int = 1536


def run_memagent(
    instance,
    backend: Backend,
    budgets: BudgetConfig,
    *,
    counter: TokenCounter = WHITESPACE_COUNTER,
    sampling: SamplingConfig = SamplingConfig(),
) -> Trajectory:
    """Recurrent overwrite over every chunk: no planner, no retrieval, no early stop."""
    chunks = segment_stream(instance.long_text, budgets.recurrent, counter)
    question = truncate_to_budget(instance.question, budgets.query, counter)
    memory = MemoryState(text="", token_count=0, step=0)
    steps: list[StepRecord] = []
    total_latency = 0

    def partial(reason: str, cause: Exception) -> EpisodeError:
        traj = Trajectory(
            instance_id=instance.instance_id,
            mode="memagent",
            question=question,
            steps=tuple(steps),
            stop_step=None,
            stop_count_at_termination=0,
            final_memory=memory,
            answer="",
            answer_prompt="",
            answer_generation="",
            total_latency_ms=total_latency,
        )
        return EpisodeError(reason, traj, cause)

    for t, chunk in enumerate(chunks, start=1):
        write_prompt = render_write_prompt(question, memory, "", chunk.text)
        try:
            res = backend.complete(
                make_request([user_message(write_prompt)], budgets.max_generation, sampling),
                episode_id=instance.instance_id,
                call_kind="write",
            )
        except BackendError as exc:
            raise partial(f"write call failed at step {t}", exc) from exc
        total_latency += res.latency_ms
        new_text, memory_ok = extract_memory_update(res.text, budgets.memory, counter, finish_reason=res.finish_reason)
        memory_after = MemoryState(text=new_text, token_count=count_tokens(new_text, counter), step=t)
        steps.append(
            StepRecord(
                step_index=t,
                control=None,
                retrieval_entry=None,
                retrieved_unit_ids=(),
                prethink_prompt=None,
                prethink_generation=None,
                write_prompt=write_prompt,
                write_generation=res.text,
                memory_before=memory,
                memory_after=memory_after,
                call_ok=True,
                memory_ok=memory_ok,
                prethink_latency_ms=None,
                write_latency_ms=res.latency_ms,
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
        mode="memagent",
        question=question,
        steps=tuple(steps),
        stop_step=None,
        stop_count_at_termination=0,
        final_memory=memory,
        answer=answer_text,
        answer_prompt=answer_prompt,
        answer_generation=answer_res.text,
        total_latency_ms=total_latency,
    )


def run_rag_top6(
    instance,
    backend: Backend,
    rag: RagConfig = RagConfig(),
    *,
    counter: TokenCounter = WHITESPACE_COUNTER,
    sampling: SamplingConfig = SamplingConfig(),
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Trajectory:
    """Single-shot retrieval baseline: exactly one backend call, zero write steps.

    The retrieved context takes the memory slot of the answer prompt; the
    trajectory's final memory is that context so downstream scoring sees it.
    """
    units = build_units(instance.long_text, rag.unit_tokens, counter)
    hits = []
    if units:
        index = build_index(units, k1=k1, b=b)
        hits = query_index(index, instance.question, rag.top_k)
    context = concat_retrieved(hits, units, rag.context_cap, counter)
    memory = MemoryState(text=context, token_count=count_tokens(context, counter), step=0)

    answer_text, answer_prompt, answer_res = answer_call(
        instance.question, memory, backend,
        episode_id=instance.instance_id, max_new_tokens=rag.max_new_tokens, sampling=sampling,
    )
    return Trajectory(
        instance_id=instance.instance_id,
        mode="rag-top6",
        question=instance.question,
        steps=(),
        stop_step=None,
        stop_count_at_termination=0,
        final_memory=memory,
        answer=answer_text,
        answer_prompt=answer_prompt,
        answer_generation=answer_res.text,
        total_latency_ms=answer_res.latency_ms,
    )
