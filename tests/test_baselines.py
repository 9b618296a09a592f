"""Recurrent-overwrite and RAG baselines under shared budgets."""

import dataclasses

from infmem.backend import ScriptedBackend
from infmem.baselines import RagConfig, run_memagent, run_rag_top6
from infmem.budget import WHITESPACE_COUNTER, count_tokens
from infmem.cli import _run_one
from infmem.config import RunConfig
from infmem.protocol import StopPolicy, run_episode
from infmem.retrieval import segment_stream

from conftest import make_instance, retrieve_line

C = WHITESPACE_COUNTER


def test_memagent_one_write_per_chunk(small_budgets):
    inst = make_instance(n_words=36)  # 3 chunks
    script = {"ep1": {
        "write": ["Updated memory: a", "Updated memory: b", "Updated memory: c"],
        "answer": ["done"],
    }}
    be = ScriptedBackend(script)
    traj = run_memagent(inst, be, small_budgets)
    assert be.calls_by_kind == {"write": 3, "answer": 1}
    assert len(traj.steps) == 3
    assert traj.stop_step is None
    assert traj.mode == "memagent"
    assert all(s.control is None and s.prethink_prompt is None for s in traj.steps)
    assert traj.answer == "done"


def test_memagent_memory_bound_every_step(small_budgets):
    inst = make_instance()
    flood = "Updated memory: " + " ".join(f"x{i}" for i in range(300))
    be = ScriptedBackend({"ep1": {"write": [flood] * 4, "answer": ["y"]}})
    traj = run_memagent(inst, be, small_budgets)
    for step in traj.steps:
        assert step.memory_after.token_count <= small_budgets.memory


def test_memagent_write_prompts_have_empty_retrieved_section(small_budgets):
    inst = make_instance(n_words=24)
    be = ScriptedBackend({"ep1": {"write": ["Updated memory: a", "Updated memory: b"], "answer": ["z"]}})
    traj = run_memagent(inst, be, small_budgets)
    for step in traj.steps:
        assert "<retrieved_chunk>\n\n</retrieved_chunk>" in step.write_prompt


def test_memagent_matches_retrieval_free_agent_run(small_budgets):
    # An all-RETRIEVE agent episode whose queries hit nothing sees the same
    # write prompts as the recurrent baseline; identical scripted writes must
    # therefore produce the identical final memory.
    inst = make_instance(n_words=36)
    writes = ["Updated memory: alpha", "Updated memory: beta", "Updated memory: gamma"]
    agent_script = {"ep1": {
        "prethink": [retrieve_line("zzqqxx")] * 3,  # out-of-vocabulary query, empty retrieval
        "write": list(writes),
        "answer": ["same"],
    }}
    base_script = {"ep1": {"write": list(writes), "answer": ["same"]}}
    agent_traj = run_episode(inst, ScriptedBackend(agent_script), small_budgets, StopPolicy(1))
    base_traj = run_memagent(inst, ScriptedBackend(base_script), small_budgets)
    assert agent_traj.final_memory.text == base_traj.final_memory.text
    assert [s.write_prompt for s in agent_traj.steps] == [s.write_prompt for s in base_traj.steps]


def test_budget_parity_same_chunk_count(small_budgets):
    inst = make_instance()
    chunks = segment_stream(inst.long_text, small_budgets.recurrent, C)
    base = run_memagent(
        inst,
        ScriptedBackend({"ep1": {"write": ["Updated memory: m"] * len(chunks), "answer": ["a"]}}),
        small_budgets,
    )
    assert len(base.steps) == len(chunks)


def test_rag_default_config():
    rag = RagConfig()
    assert rag.unit_tokens == 1000
    assert rag.top_k == 6


def test_rag_single_call_no_steps():
    text = " ".join(["filler"] * 120 + ["needle evidence sentence"] + ["filler"] * 80)
    inst = make_instance(instance_id="r1", question="needle evidence", text=text)
    be = ScriptedBackend({"r1": {"answer": ["the needle"]}})
    traj = run_rag_top6(inst, be, RagConfig(unit_tokens=50, top_k=6, context_cap=400))
    assert be.calls == 1
    assert traj.steps == ()
    assert traj.mode == "rag-top6"
    assert traj.answer == "the needle"
    assert "needle" in traj.final_memory.text


def test_rag_shorter_than_topk_uses_all_units():
    text = " ".join(["alpha beta gamma"] * 20)  # few units at 50-token granularity
    inst = make_instance(instance_id="r2", question="alpha", text=text)
    be = ScriptedBackend({"r2": {"answer": ["x"]}})
    traj = run_rag_top6(inst, be, RagConfig(unit_tokens=50, top_k=6, context_cap=500))
    n_units = traj.final_memory.text.count("[Unit ")
    assert 1 <= n_units <= 2  # the document only has ~2 units


def test_rag_context_within_cap():
    text = " ".join(f"word{i} target" for i in range(400))
    inst = make_instance(instance_id="r3", question="target", text=text)
    be = ScriptedBackend({"r3": {"answer": ["x"]}})
    cap = 60
    traj = run_rag_top6(inst, be, RagConfig(unit_tokens=40, top_k=6, context_cap=cap))
    assert count_tokens(traj.final_memory.text, C) <= cap


def test_rag_deterministic_retrieval():
    text = " ".join(f"w{i % 37} marker" for i in range(300))
    inst = make_instance(instance_id="r4", question="marker w3", text=text)
    t1 = run_rag_top6(inst, ScriptedBackend({"r4": {"answer": ["x"]}}), RagConfig(unit_tokens=30, top_k=4, context_cap=300))
    t2 = run_rag_top6(inst, ScriptedBackend({"r4": {"answer": ["x"]}}), RagConfig(unit_tokens=30, top_k=4, context_cap=300))
    assert t1.final_memory.text == t2.final_memory.text


def test_rag_uses_configured_bm25_parameters():
    # Unit 0 holds "needle" once among punctuation (1 index token); unit 1 holds it
    # twice among 8 index tokens. Strong length normalization (the default b) ranks
    # the short unit first; almost none (b = 0.01) ranks the higher tf first.
    text = " ".join(
        ["needle"] + ["--"] * 9 + ["needle", "needle"] + ["fill"] * 8 + [f"other{i}" for i in range(30)]
    )
    inst = make_instance(instance_id="rb", question="needle", text=text)
    base = RunConfig(rag=RagConfig(unit_tokens=10, top_k=1, context_cap=100))

    def top_unit(config):
        traj = _run_one(inst, "rag-top6", ScriptedBackend({"rb": {"answer": ["x"]}}), config, config.stop_policy)
        return traj.final_memory.text.split("\n", 1)[0]

    assert top_unit(base) == "[Unit 0]"
    flat = dataclasses.replace(base, retrieval=dataclasses.replace(base.retrieval, b=0.01))
    assert top_unit(flat) == "[Unit 1]"
