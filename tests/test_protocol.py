"""Protocol state machine: rendering, parsing, episodes, serialization."""

import random

import pytest

from infmem.backend import ScriptedBackend
from infmem.budget import WHITESPACE_COUNTER, count_tokens
from infmem.protocol import (
    ControlParseError,
    ControlRecord,
    EpisodeError,
    MemoryState,
    StopPolicy,
    Trajectory,
    answer_call,
    dumps_trajectory,
    extract_memory_update,
    loads_trajectory,
    parse_control_record,
    render_prethink_prompt,
    render_write_prompt,
    run_episode,
)

from conftest import make_instance, retrieve_line

C = WHITESPACE_COUNTER
M0 = MemoryState(text="", token_count=0, step=0)


# ---------------------------------------------------------------- rendering


def test_prethink_prompt_empty_memory_slot():
    prompt = render_prethink_prompt("q?", M0, [])
    assert prompt.endswith("CURRENT MEMORY:\n\n")
    assert "<retrieval_history>\n\n</retrieval_history>" in prompt
    assert "You are a Retrieval Planner." in prompt


def test_prethink_prompt_history_lines_in_order():
    history = [("first query", 5), ("second query", 3), ("third query", 7)]
    prompt = render_prethink_prompt("q?", M0, history)
    assert "Step 1: query='first query', top_k=5" in prompt
    assert "Step 2: query='second query', top_k=3" in prompt
    assert "Step 3: query='third query', top_k=7" in prompt
    assert prompt.index("Step 1:") < prompt.index("Step 2:") < prompt.index("Step 3:")


def test_prethink_prompt_braces_rendered_literally():
    prompt = render_prethink_prompt("what is {memory} here?", MemoryState("SECRET", 1, 1), [])
    assert "what is {memory} here?" in prompt
    assert "what is SECRET here?" not in prompt


def test_write_prompt_sections():
    prompt = render_write_prompt("q?", MemoryState("old facts", 2, 1), "retrieved text", "chunk text")
    assert "<retrieved_chunk>\nretrieved text\n</retrieved_chunk>" in prompt
    assert "<recurrent_chunk>\nchunk text\n</recurrent_chunk>" in prompt
    assert "<memory>\nold facts\n</memory>" in prompt
    assert prompt.rstrip().endswith("Updated memory:")


def test_write_prompt_empty_retrieved_section_present():
    prompt = render_write_prompt("q?", M0, "", "chunk")
    assert "<retrieved_chunk>\n\n</retrieved_chunk>" in prompt


# ------------------------------------------------------------------ parsing


def test_parse_retrieve_call():
    gen = 'FUNCTION: retrievesearch\nARGS: {"query": "Sakura Wars series game count", "top_k": 10}'
    record = parse_control_record(gen, k_max=10)
    assert record == ControlRecord(action="RETRIEVE", query="Sakura Wars series game count", top_k=10)


def test_parse_stop_after_thinking():
    record = parse_control_record("<think>memory has the answer</think>\nSTOP", k_max=10)
    assert record.action == "STOP"


def test_parse_stop_case_insensitive():
    assert parse_control_record("stop", k_max=5).action == "STOP"


def test_parse_clamps_top_k():
    gen = 'FUNCTION: retrievesearch\nARGS: {"query": "q", "top_k": 99}'
    assert parse_control_record(gen, k_max=10).top_k == 10
    gen = 'FUNCTION: retrievesearch\nARGS: {"query": "q", "top_k": -2}'
    assert parse_control_record(gen, k_max=10).top_k == 1


@pytest.mark.parametrize(
    "gen",
    [
        "no decision at all",
        "STOP.",
        "FUNCTION: retrievesearch\nARGS: not json",
        'FUNCTION: retrievesearch\nARGS: {"query": "q"}',
        'FUNCTION: retrievesearch\nARGS: {"query": "", "top_k": 3}',
        'FUNCTION: retrievesearch\nARGS: {"query": "q", "top_k": "three"}',
        'FUNCTION: somethingelse\nARGS: {"query": "q", "top_k": 3}',
    ],
)
def test_parse_errors(gen):
    with pytest.raises(ControlParseError):
        parse_control_record(gen, k_max=10)


def test_parse_multiline_args_json():
    gen = 'preamble\nFUNCTION: retrievesearch\nARGS: {"query": "who directed it",\n  "top_k": 4}\ntrailer'
    record = parse_control_record(gen, k_max=10)
    assert record.query == "who directed it"
    assert record.top_k == 4


# ------------------------------------------------------- memory extraction


def test_extract_after_marker():
    gen = "analysis text\nUpdated memory:\nHuh Jung directed The Mimic, released August 17, 2017."
    text, ok = extract_memory_update(gen, 50, C)
    assert text.startswith("Huh Jung directed")
    assert ok


def test_extract_bold_marker_and_last_wins():
    gen = "Updated memory:\nstale\nmore\n**Updated memory:**\n- fresh fact"
    text, ok = extract_memory_update(gen, 50, C)
    assert text == "- fresh fact"
    assert ok


def test_extract_without_marker_keeps_whole_text():
    text, ok = extract_memory_update("<think>x</think>just facts", 50, C)
    assert text == "just facts"
    assert ok


def test_extract_length_finish_fails_verifier():
    text, ok = extract_memory_update("Updated memory:\ncut off mid", 50, C, finish_reason="length")
    assert not ok
    assert text  # the partial text is still stored


def test_extract_empty_fails_verifier():
    text, ok = extract_memory_update("Updated memory:\n", 50, C)
    assert text == ""
    assert not ok


def test_extract_truncates_to_budget():
    draft = "Updated memory:\n" + " ".join(f"f{i}" for i in range(1500))
    text, ok = extract_memory_update(draft, 1024, C)
    assert count_tokens(text, C) <= 1024
    assert ok


# ----------------------------------------------------------------- episodes


def test_immediate_stop_episode(small_budgets):
    inst = make_instance()
    be = ScriptedBackend({"ep1": {"prethink": ["STOP"], "answer": ["Sammy Fain"]}})
    traj = run_episode(inst, be, small_budgets, StopPolicy(1))
    assert len(traj.steps) == 1
    assert traj.stop_step == 1
    assert traj.steps[0].retrieval_entry is None
    assert traj.steps[0].write_generation is None
    assert traj.answer == "Sammy Fain"
    assert be.calls == 2  # one prethink, one answer


def test_three_stop_episode(small_budgets):
    inst = make_instance()
    script = {"ep1": {
        "prethink": [retrieve_line("w30 w31", 2), "STOP", "STOP", "STOP"],
        "write": ["Updated memory:\nfact a", "Updated memory:\nfact b", "Updated memory:\nfact c"],
        "answer": ["done"],
    }}
    be = ScriptedBackend(script)
    traj = run_episode(inst, be, small_budgets, StopPolicy(3))
    assert traj.stop_step == 4
    assert traj.stop_count_at_termination == 3
    assert len(traj.steps) == 4
    # Non-terminal STOP steps still consume the chunk through a write.
    assert traj.steps[1].control.action == "STOP"
    assert traj.steps[1].write_generation is not None
    assert "<retrieved_chunk>\n\n</retrieved_chunk>" in traj.steps[1].write_prompt
    # Terminal STOP has no write.
    assert traj.steps[3].write_generation is None
    assert be.calls == 8


def test_retrieve_resets_stop_counter(small_budgets):
    inst = make_instance()
    script = {"ep1": {
        "prethink": ["STOP", retrieve_line("w30", 1), "STOP", "STOP"],
        "write": ["Updated memory: a", "Updated memory: b", "Updated memory: c"],
        "answer": ["x"],
    }}
    be = ScriptedBackend(script)
    traj = run_episode(inst, be, small_budgets, StopPolicy(2))
    # Votes: 1 (stop), reset (retrieve), 1 (stop), 2 (stop) -> terminates at step 4.
    assert traj.stop_step == 4
    assert traj.stop_count_at_termination == 2


def test_all_retrieve_episode(small_budgets):
    inst = make_instance(n_words=36)  # 3 chunks of 12
    script = {"ep1": {
        "prethink": [retrieve_line(f"w{i}") for i in (30, 1, 2)],
        "write": ["Updated memory: m1", "Updated memory: m2", "Updated memory: m3"],
        "answer": ["final"],
    }}
    be = ScriptedBackend(script)
    traj = run_episode(inst, be, small_budgets, StopPolicy(1))
    assert len(traj.steps) == 3
    assert traj.stop_step is None
    assert all(s.write_generation is not None for s in traj.steps)
    assert be.calls_by_kind == {"prethink": 3, "write": 3, "answer": 1}
    assert traj.final_memory.text == "m3"


def test_parse_failure_falls_back_to_question_retrieval(small_budgets):
    inst = make_instance(question="who wrote it?")
    script = {"ep1": {
        "prethink": ["garbled nonsense", "STOP"],
        "write": ["Updated memory: something"],
        "answer": ["x"],
    }}
    be = ScriptedBackend(script)
    traj = run_episode(inst, be, small_budgets, StopPolicy(1))
    step = traj.steps[0]
    assert not step.call_ok
    assert step.control.action == "RETRIEVE"
    assert step.control.query == "who wrote it?"
    assert step.control.top_k == 6
    assert step.retrieval_entry == ("who wrote it?", 6)
    assert traj.stop_step == 2


def test_memory_bound_holds_every_step(small_budgets):
    inst = make_instance()
    oversized = "Updated memory:\n" + " ".join(f"long{i}" for i in range(200))
    script = {"ep1": {
        "prethink": [retrieve_line("w30")] * 4,
        "write": [oversized] * 4,
        "answer": ["x"],
    }}
    traj = run_episode(inst, ScriptedBackend(script), small_budgets, StopPolicy(1))
    for step in traj.steps:
        assert step.memory_after.token_count <= small_budgets.memory
        assert count_tokens(step.memory_after.text, C) == step.memory_after.token_count


def test_memory_after_step_matches_step_index(small_budgets):
    inst = make_instance()
    script = {"ep1": {
        "prethink": [retrieve_line("w30"), "STOP"],
        "write": ["Updated memory: a"],
        "answer": ["x"],
    }}
    traj = run_episode(inst, ScriptedBackend(script), small_budgets, StopPolicy(1))
    for step in traj.steps:
        assert step.memory_after.step == step.step_index
    assert traj.final_memory == traj.steps[-1].memory_after


def test_answer_prompt_isolated_from_document(small_budgets):
    sentinel = "zqxjkvwsentinel"
    text = " ".join([sentinel] + [f"w{i}" for i in range(47)])
    inst = make_instance(text=text)
    script = {"ep1": {"prethink": ["STOP"], "answer": ["abstain"]}}
    traj = run_episode(inst, ScriptedBackend(script), small_budgets, StopPolicy(1))
    assert sentinel not in traj.answer_prompt
    # Empty memory still issues the answer call.
    assert traj.answer == "abstain"


def test_prompt_assembly_respects_field_budgets(small_budgets):
    long_question = " ".join(f"q{i}" for i in range(100))
    inst = make_instance(question=long_question)
    script = {"ep1": {
        "prethink": [retrieve_line("w20 w30 w40")],
        "write": ["Updated memory: x"],
        "answer": ["x"] ,
    }}
    be = ScriptedBackend({"ep1": {**script["ep1"], "prethink": script["ep1"]["prethink"] + ["STOP"]}})
    traj = run_episode(inst, be, small_budgets, StopPolicy(1))
    assert count_tokens(traj.question, C) <= small_budgets.query
    step = traj.steps[0]
    retrieved = step.write_prompt.split("<retrieved_chunk>\n")[1].split("\n</retrieved_chunk>")[0]
    assert count_tokens(retrieved, C) <= small_budgets.retrieved
    chunk = step.write_prompt.split("<recurrent_chunk>\n")[1].split("\n</recurrent_chunk>")[0]
    assert count_tokens(chunk, C) <= small_budgets.recurrent


def test_step_ceiling_all_stop_script(small_budgets):
    # All-STOP planner with threshold s terminates after min(s, T) steps.
    for threshold, expected in ((2, 2), (10, 4)):
        inst = make_instance()
        script = {"ep1": {
            "prethink": ["STOP"] * 4,
            "write": ["Updated memory: pad"] * 4,
            "answer": ["x"],
        }}
        traj = run_episode(inst, ScriptedBackend(script), small_budgets, StopPolicy(threshold))
        assert len(traj.steps) == expected


def test_backend_error_carries_partial_trajectory(small_budgets):
    inst = make_instance()
    script = {"ep1": {
        "prethink": [retrieve_line("w30"), retrieve_line("w31")],
        "write": ["Updated memory: first"],  # second write missing
        "answer": ["x"],
    }}
    with pytest.raises(EpisodeError) as err:
        run_episode(inst, ScriptedBackend(script), small_budgets, StopPolicy(1))
    partial = err.value.trajectory
    assert len(partial.steps) == 1
    assert partial.steps[0].memory_after.text == "first"
    assert partial.answer == ""


def test_episode_deterministic_serialization(small_budgets):
    script = {"ep1": {
        "prethink": [retrieve_line("w30 w31", 2), "STOP"],
        "write": ["Updated memory: stable"],
        "answer": ["Sammy Fain"],
    }}
    inst = make_instance()
    t1 = run_episode(inst, ScriptedBackend(script), small_budgets, StopPolicy(1))
    t2 = run_episode(inst, ScriptedBackend(script), small_budgets, StopPolicy(1))
    assert dumps_trajectory(t1) == dumps_trajectory(t2)


def test_trajectory_roundtrip(small_budgets):
    script = {"ep1": {
        "prethink": [retrieve_line("w30"), "STOP"],
        "write": ["Updated memory: stable"],
        "answer": ["Sammy Fain"],
    }}
    traj = run_episode(make_instance(), ScriptedBackend(script), small_budgets, StopPolicy(1))
    assert loads_trajectory(dumps_trajectory(traj)) == traj


def test_early_stop_semantics_random_scripts(small_budgets):
    """Terminated early iff the threshold was reached with no later RETRIEVE."""
    rng = random.Random(11)
    for trial in range(60):
        threshold = rng.randint(1, 3)
        actions = [rng.random() < 0.55 for _ in range(4)]  # True = STOP vote
        prethink, writes = [], []
        for is_stop in actions:
            if is_stop:
                prethink.append("STOP")
            else:
                prethink.append(retrieve_line("w30"))
            writes.append("Updated memory: pad")
        script = {"ep1": {"prethink": prethink, "write": writes, "answer": ["x"]}}
        traj = run_episode(make_instance(), ScriptedBackend(script), small_budgets, StopPolicy(threshold))

        votes, expected_stop = 0, None
        for idx, is_stop in enumerate(actions, start=1):
            votes = votes + 1 if is_stop else 0
            if votes >= threshold:
                expected_stop = idx
                break
        assert traj.stop_step == expected_stop, f"trial {trial}"
        if expected_stop is not None:
            assert traj.steps[expected_stop - 1].control.action == "STOP"
            assert len(traj.steps) == expected_stop


def test_answer_uses_memory_only(small_budgets):
    be = ScriptedBackend({"adhoc": {"answer": ["Sammy Fain"]}})
    memory = MemoryState("composed by Sammy Fain", 4, 3)
    result, prompt, _ = answer_call("who composed it?", memory, be, episode_id="adhoc")
    assert result == "Sammy Fain"
    assert "composed by Sammy Fain" in prompt


def test_answer_takes_first_line():
    be = ScriptedBackend({"adhoc": {"answer": ["<think>hmm</think>\nThe answer is X.\nBecause reasons."]}})
    assert answer_call("q", M0, be, episode_id="adhoc")[0] == "The answer is X."


def test_stop_policy_validation():
    with pytest.raises(ValueError):
        StopPolicy(0)


def test_parse_stop_line_takes_precedence_over_call():
    # A trimmed STOP line wins even when a parsable call is also present.
    gen = "STOP\nFUNCTION: retrievesearch\nARGS: {\"query\": \"q\", \"top_k\": 2}"
    assert parse_control_record(gen, k_max=10).action == "STOP"


def test_extract_titlecase_marker():
    text, ok = extract_memory_update("prelude\nUpdated Memory: Huh Jung directed it", 50, C)
    assert text == "Huh Jung directed it"
    assert ok


def test_run_episode_rejects_bad_scope(small_budgets):
    with pytest.raises(ValueError, match="retrieval_scope"):
        run_episode(make_instance(), ScriptedBackend({}), small_budgets, retrieval_scope="sideways")


def test_prefix_scope_restricts_to_streamed_text(small_budgets):
    # Under prefix scope the index only serves units fully behind the
    # current chunk: nothing at step 1, past words afterwards, future never.
    inst = make_instance()
    script = {"ep1": {
        "prethink": [retrieve_line("w0"), retrieve_line("w0"), retrieve_line("w30"), "STOP"],
        "write": ["Updated memory: a", "Updated memory: b", "Updated memory: c"],
        "answer": ["x"],
    }}
    traj = run_episode(
        inst, ScriptedBackend(script), small_budgets, StopPolicy(1), retrieval_scope="prefix"
    )
    assert traj.steps[0].retrieved_unit_ids == ()   # nothing streamed yet
    assert traj.steps[1].retrieved_unit_ids == (0,)  # w0 lives in unit 0, already streamed
    assert traj.steps[2].retrieved_unit_ids == ()   # w30 is ahead of the stream
