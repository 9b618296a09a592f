"""Self-tests of the benchmark's checks at small scale.

Each workload runs once at a few thousand tokens (one fresh worker process
each, all three at once); the untouched outputs must pass every check, and
each deliberately corrupted copy must be rejected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import CheckError, check_round  # noqa: E402
from inputs import make_inputs  # noqa: E402

WORKLOADS = ("fullread-1m", "rollouts-128k", "baselines-b4-128k")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out, procs = {}, []
    for name in WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        plan, corpus = make_inputs(name, 7, True, work)
        procs.append(subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(work), "0", "0"]))
        out[name] = (plan, corpus, work / "round0")
    try:
        codes = [proc.wait(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert codes == [0] * len(procs)
    return out


def corrupt(runs, tmp_path, workload: str, filename: str, mutate) -> tuple:
    """Copy round 0 of ``workload`` and apply ``mutate`` to one output file."""
    plan, corpus, rdir = runs[workload]
    copy = tmp_path / "round"
    shutil.copytree(rdir, copy)
    path = copy / filename
    if filename.endswith(".jsonl"):
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        mutate(records)
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    else:
        record = json.loads(path.read_text(encoding="utf-8"))
        mutate(record)
        path.write_text(json.dumps(record), encoding="utf-8")
    return plan, corpus, copy


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untouched_outputs_pass(runs, workload):
    plan, corpus, rdir = runs[workload]
    totals = check_round(plan, corpus, rdir)
    assert totals.episodes > 0 and totals.calls > totals.episodes


def _drop_step(trajs):
    del trajs[0]["steps"][3]


def _memory_over_budget(trajs):
    step = trajs[0]["steps"][2]
    step["memory_after"]["text"] = " ".join(["word"] * 500)
    step["memory_after"]["token_count"] = 500


def _reorder_hits(trajs):
    step = trajs[0]["steps"][0]
    assert len(step["retrieved_unit_ids"]) >= 2
    step["retrieved_unit_ids"][:2] = step["retrieved_unit_ids"][1::-1]


def _shrink_chunk(trajs):
    """The chunk slot of step 2 loses its last word."""
    step = trajs[0]["steps"][1]
    prompt = step["write_prompt"]
    end = prompt.index("\n</recurrent_chunk>")
    head = prompt[:end].rstrip()
    step["write_prompt"] = head[: head.rfind(" ") + 1] + prompt[end:]


def _stretch_chunk(trajs):
    """The chunk slot of step 2 also holds the first words of chunk 3."""
    steps = trajs[0]["steps"]
    nxt = steps[2]["write_prompt"]
    first_words = nxt[nxt.index("<recurrent_chunk>\n") + 18:].split(" ")[:3]
    steps[1]["write_prompt"] = steps[1]["write_prompt"].replace(
        "\n</recurrent_chunk>", " ".join(first_words) + "\n</recurrent_chunk>", 1)


def _wrong_answer(trajs):
    trajs[-1]["answer"] = "qxnobody"


@pytest.mark.parametrize(
    "workload,filename,mutate",
    [
        ("fullread-1m", "run.jsonl", _drop_step),
        ("fullread-1m", "run.jsonl", _memory_over_budget),
        ("fullread-1m", "run.jsonl", _reorder_hits),
        ("fullread-1m", "run.jsonl", _stretch_chunk),
        ("fullread-1m", "run.jsonl", _wrong_answer),
        ("rollouts-128k", "run.jsonl", _drop_step),
        ("rollouts-128k", "run.jsonl", _shrink_chunk),
        ("baselines-b4-128k", "memagent.jsonl", _drop_step),
        ("baselines-b4-128k", "memagent.jsonl", _memory_over_budget),
    ],
    ids=["fullread-drop-step", "fullread-memory-over-budget", "fullread-reordered-hits", "fullread-stretched-chunk",
         "fullread-answer", "rollouts-drop-step", "rollouts-chunk-shrunk", "memagent-drop-step",
         "memagent-memory-over-budget"],
)
def test_trajectory_corruption_is_rejected(runs, tmp_path, workload, filename, mutate):
    with pytest.raises(CheckError):
        check_round(*corrupt(runs, tmp_path, workload, filename, mutate))


def _flip_found(report):
    report["per_instance"][0]["found"] = not report["per_instance"][0]["found"]


def _early_reward(recs):
    recs[0]["r_early"] = min(1.0, recs[0]["r_early"] + 0.1)


def _t_first(recs):
    recs[1]["t_first"] = (recs[1]["t_first"] or 0) + 1


def _advantages(recs):
    recs[0]["advantage"] += 0.5


def _total(recs):
    recs[2]["total"] += 0.01


def _drop_dialogue(dialogues):
    dialogues.pop()


def _keep_wrong(report):
    wrong = next(r for r in report if not r["kept"])
    wrong["kept"] = True


def _rag_context(trajs):
    trajs[0]["final_memory"]["text"] = trajs[0]["final_memory"]["text"][:-20]


def _context_byte(instances):
    ctx = instances[0]["context"]
    instances[0]["context"] = ctx[:100] + ("x" if ctx[100] != "x" else "y") + ctx[101:]


@pytest.mark.parametrize(
    "workload,filename,mutate",
    [
        ("fullread-1m", "run_eval.json", _flip_found),
        ("rollouts-128k", "rewards.jsonl", _early_reward),
        ("rollouts-128k", "rewards.jsonl", _t_first),
        ("rollouts-128k", "rewards.jsonl", _advantages),
        ("rollouts-128k", "rewards.jsonl", _total),
        ("rollouts-128k", "sft.jsonl", _drop_dialogue),
        ("rollouts-128k", "sft.jsonl.report.json", _keep_wrong),
        ("baselines-b4-128k", "rag.jsonl", _rag_context),
        ("baselines-b4-128k", "data/instances_2048.jsonl", _context_byte),
    ],
    ids=["eval-found", "reward-r-early", "reward-t-first", "reward-advantages", "reward-total", "sft-dropped",
         "sft-kept-wrong", "rag-context", "dataset-byte"],
)
def test_scoring_corruption_is_rejected(runs, tmp_path, workload, filename, mutate):
    with pytest.raises(CheckError):
        check_round(*corrupt(runs, tmp_path, workload, filename, mutate))
