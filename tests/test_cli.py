"""CLI harness: routing, exit codes, manifests, pipeline roundtrips."""

import json
from pathlib import Path

import pytest

from infmem.backend import ScriptedBackend
from infmem.cli import dispatch
from infmem.protocol import StopPolicy, dumps_trajectory, run_episode
from infmem.synth import read_instances

CONFIG_YAML = """\
budget:
  query: 16
  retrieved: 12
  recurrent: 120
  memory: 16
  reserve: 8
  max_generation: 64
  retrieval_unit: 12
total_input_budget: 172
retrieval:
  unit_tokens: 12
"""


@pytest.fixture
def workspace(tmp_path):
    """QA + distractor JSONL files, a small-budget config, output dirs."""
    qa_path = tmp_path / "qa.jsonl"
    with qa_path.open("w") as f:
        for i in range(2):
            rec = {
                "id": f"qa{i}",
                "question": f"what is needle {i}?",
                "answers": [f"needle answer {i}"],
                "gold_docs": [
                    {"id": f"g{i}", "title": f"Gold {i}", "text": " ".join(f"needle{i}word{j}" for j in range(40))}
                ],
                "source": "hotpotqa",
            }
            f.write(json.dumps(rec) + "\n")
    dist_path = tmp_path / "pool.jsonl"
    with dist_path.open("w") as f:
        for i in range(12):
            rec = {"id": f"p{i}", "title": f"Pool {i}", "text": " ".join(f"pool{i}tok{j}" for j in range(50))}
            f.write(json.dumps(rec) + "\n")
    config_path = tmp_path / "config.yaml"
    config_path.write_text(CONFIG_YAML)
    return tmp_path, qa_path, dist_path, config_path


def _synth(ws, length=400):
    tmp_path, qa_path, dist_path, config_path = ws
    out_dir = tmp_path / "data"
    code = dispatch([
        "synth", "--source", str(qa_path), "--distractors", str(dist_path),
        "--lengths", str(length), "--seed", "7", "--per-length-count", "2",
        "--out", str(out_dir), "--config", str(config_path),
    ])
    assert code == 0
    return out_dir / f"instances_{length}.jsonl"


def _write_stop_script(ws, dataset, script_name="script.json"):
    tmp_path = ws[0]
    script = {}
    for inst in read_instances(dataset):
        answer = inst.gold_answers[0]
        script[inst.instance_id] = {"prethink": ["STOP"], "answer": [answer]}
    path = tmp_path / script_name
    path.write_text(json.dumps(script))
    return path


def test_synth_writes_files_and_manifest(workspace):
    dataset = _synth(workspace)
    assert dataset.exists()
    out_dir = dataset.parent
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["suite_seed"] == 7
    assert (out_dir / "run_manifest.json").exists()
    run_manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert run_manifest["config_snapshot"]["budget"]["recurrent"] == 120
    assert set(run_manifest["dataset_checksums"]) == {"source", "distractors"}
    assert set(run_manifest["template_hashes"]) == {"prethink", "write", "answer"}


def test_run_eval_report_pipeline(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    script = _write_stop_script(workspace, dataset)
    traj_path = tmp_path / "traj.jsonl"
    code = dispatch([
        "run", "--dataset", str(dataset), "--mode", "infmem", "--backend", "scripted",
        "--script", str(script), "--out", str(traj_path), "--config", str(config_path),
    ])
    assert code == 0
    lines = traj_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert traj_path.with_name("traj.jsonl.manifest.json").exists()

    report_path = tmp_path / "report.json"
    code = dispatch([
        "eval", "--traj", str(traj_path), "--dataset", str(dataset),
        "--group", "task,length", "--out", str(report_path), "--config", str(config_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["total"]["avg_em"] == 1.0  # scripted answers equal the golds
    assert report_path.with_suffix(".txt").exists()

    csv_path = tmp_path / "steps-vs-f1.csv"
    code = dispatch(["report", "--eval", str(report_path), "--plot", str(csv_path)])
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert "avg_f1" in header and "mean_steps" in header


def test_run_parallel_is_order_deterministic(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    script = _write_stop_script(workspace, dataset)
    outs = []
    for name, parallel in (("serial.jsonl", "1"), ("par.jsonl", "4")):
        out = tmp_path / name
        code = dispatch([
            "run", "--dataset", str(dataset), "--backend", "scripted", "--script", str(script),
            "--parallel", parallel, "--out", str(out), "--config", str(config_path),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_exit_code_one_on_unknown_flag():
    assert dispatch(["run", "--no-such-flag"]) == 1


def test_exit_code_one_on_bad_budget(workspace, tmp_path):
    _, qa_path, dist_path, _ = workspace
    bad = tmp_path / "bad.yaml"
    bad.write_text("budget:\n  query: 10\ntotal_input_budget: 5\n")
    code = dispatch([
        "synth", "--source", str(qa_path), "--distractors", str(dist_path),
        "--lengths", "100", "--seed", "1", "--out", str(tmp_path / "x"), "--config", str(bad),
    ])
    assert code == 1


def test_exit_code_two_on_script_exhaustion(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    script = tmp_path / "empty.json"
    script.write_text("{}")
    code = dispatch([
        "run", "--dataset", str(dataset), "--backend", "scripted", "--script", str(script),
        "--out", str(tmp_path / "t.jsonl"), "--config", str(config_path),
    ])
    assert code == 2


def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
    out = capsys.readouterr().out
    assert "infmem" in out
    assert "schema trajectory" in out


def test_index_query_prints_units(workspace, capsys):
    _, _, _, config_path = workspace
    dataset = _synth(workspace)
    instance_id = read_instances(dataset)[0].instance_id
    code = dispatch([
        "index", "query", "--dataset", str(dataset), "--instance", instance_id,
        "--q", "needle0word3", "--k", "3", "--config", str(config_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "unit " in out and "score" in out


def _write_rollout_file(workspace, dataset, traj_path):
    """Four scripted rollouts per instance, two correct and two wrong."""
    from infmem.config import load_config

    config = load_config(workspace[3])
    instances = read_instances(dataset)
    lines = []
    for inst in instances:
        gold = inst.gold_answers[0]
        for i, ans in enumerate([gold, "wrong one", gold, "wrong two"]):
            script = {inst.instance_id: {"prethink": ["STOP"], "answer": [ans]}}
            traj = run_episode(
                inst, ScriptedBackend(script), config.budgets, StopPolicy(1), counter=config.counter
            )
            lines.append(dumps_trajectory(traj))
    traj_path.write_text("".join(line + "\n" for line in lines))


def test_reward_cli_groups_by_instance(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    traj_path = tmp_path / "rollouts.jsonl"
    _write_rollout_file(workspace, dataset, traj_path)
    out = tmp_path / "rewards.jsonl"
    code = dispatch([
        "reward", "--traj", str(traj_path), "--dataset", str(dataset),
        "--group-size", "4", "--out", str(out), "--config", str(config_path),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 8
    by_group = {}
    for rec in records:
        by_group.setdefault(rec["group_id"], []).append(rec)
    for group in by_group.values():
        assert abs(sum(r["advantage"] for r in group)) < 1e-9
        assert len({r["group_mean"] for r in group}) == 1


def test_reward_cli_rejects_wrong_group_size(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    traj_path = tmp_path / "rollouts.jsonl"
    _write_rollout_file(workspace, dataset, traj_path)
    code = dispatch([
        "reward", "--traj", str(traj_path), "--dataset", str(dataset),
        "--group-size", "3", "--out", str(tmp_path / "r.jsonl"), "--config", str(config_path),
    ])
    assert code == 1


def test_export_sft_cli(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    traj_path = tmp_path / "rollouts.jsonl"
    _write_rollout_file(workspace, dataset, traj_path)
    out = tmp_path / "sft.jsonl"
    code = dispatch([
        "export-sft", "--traj", str(traj_path), "--dataset", str(dataset),
        "--out", str(out), "--config", str(config_path),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 4  # half the rollouts answered correctly
    for rec in records:
        assert rec["mask_roles"] == ["assistant"]
        assert rec["meta"]["em"] == 1
    report = json.loads((tmp_path / "sft.jsonl.report.json").read_text())
    assert sum(1 for r in report if not r["kept"]) == 4


def test_run_baseline_modes(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    from infmem.config import load_config
    from infmem.retrieval import segment_stream

    config = load_config(config_path)
    ma_script, rag_script = {}, {}
    for inst in read_instances(dataset):
        T = len(segment_stream(inst.long_text, config.budgets.recurrent, config.counter))
        ma_script[inst.instance_id] = {
            "write": [f"Updated memory: pass {t}" for t in range(T)],
            "answer": [inst.gold_answers[0]],
        }
        rag_script[inst.instance_id] = {"answer": [inst.gold_answers[0]]}
    (tmp_path / "ma.json").write_text(json.dumps(ma_script))
    (tmp_path / "rag.json").write_text(json.dumps(rag_script))

    for mode, script_name, out_name in (("memagent", "ma.json", "ma.jsonl"), ("rag-top6", "rag.json", "rag.jsonl")):
        out = tmp_path / out_name
        code = dispatch([
            "run", "--dataset", str(dataset), "--mode", mode, "--backend", "scripted",
            "--script", str(tmp_path / script_name), "--out", str(out), "--config", str(config_path),
        ])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["mode"] == mode for r in records)
        if mode == "rag-top6":
            assert all(r["steps"] == [] for r in records)
        else:
            assert all(len(r["steps"]) >= 1 and r["stop_step"] is None for r in records)


def test_reward_cli_with_evaluator_script(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    traj_path = tmp_path / "rollouts.jsonl"
    _write_rollout_file(workspace, dataset, traj_path)
    # One evaluator answer per probed step: every rollout has exactly 1 step.
    evaluator = {}
    for inst in read_instances(dataset):
        evaluator[inst.instance_id] = {"answer": [inst.gold_answers[0]] * 4}
    eval_path = tmp_path / "evaluator.json"
    eval_path.write_text(json.dumps(evaluator))
    out = tmp_path / "rewards_eval.jsonl"
    code = dispatch([
        "reward", "--traj", str(traj_path), "--dataset", str(dataset),
        "--group-size", "4", "--evaluator-script", str(eval_path),
        "--out", str(out), "--config", str(config_path),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["t_first"] == 1 for r in records)
    # Stop at step 1 with sufficiency at step 1 means d = 0: no shaping reward.
    assert all(r["r_early"] == 0.0 for r in records)


def test_memagent_manifest_labels_surrogate_prompt(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    from infmem.config import load_config
    from infmem.retrieval import segment_stream

    config = load_config(config_path)
    script = {}
    for inst in read_instances(dataset):
        T = len(segment_stream(inst.long_text, config.budgets.recurrent, config.counter))
        script[inst.instance_id] = {"write": ["Updated memory: m"] * T, "answer": ["a"]}
    (tmp_path / "ma2.json").write_text(json.dumps(script))
    out = tmp_path / "ma2.jsonl"
    code = dispatch([
        "run", "--dataset", str(dataset), "--mode", "memagent", "--backend", "scripted",
        "--script", str(tmp_path / "ma2.json"), "--out", str(out), "--config", str(config_path),
    ])
    assert code == 0
    manifest = json.loads(out.with_name("ma2.jsonl.manifest.json").read_text())
    assert "surrogate" in manifest["notes"]["memagent_prompt"]


def test_dispatch_without_command_prints_usage():
    assert dispatch([]) == 1


def test_run_limit_flag(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    script = _write_stop_script(workspace, dataset)
    out = tmp_path / "limited.jsonl"
    code = dispatch([
        "run", "--dataset", str(dataset), "--backend", "scripted", "--script", str(script),
        "--limit", "1", "--out", str(out), "--config", str(config_path),
    ])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 1


def test_eval_rejects_unknown_instance(workspace):
    tmp_path, _, _, config_path = workspace
    dataset = _synth(workspace)
    script = _write_stop_script(workspace, dataset)
    traj_path = tmp_path / "t.jsonl"
    assert dispatch([
        "run", "--dataset", str(dataset), "--backend", "scripted", "--script", str(script),
        "--out", str(traj_path), "--config", str(config_path),
    ]) == 0
    other = tmp_path / "other.jsonl"
    other.write_text("")  # empty dataset: every trajectory is unknown
    code = dispatch([
        "eval", "--traj", str(traj_path), "--dataset", str(other),
        "--out", str(tmp_path / "r.json"), "--config", str(config_path),
    ])
    assert code == 1


def test_run_live_malformed_body_exits_2(workspace, monkeypatch, capsys):
    import infmem.backend as backend_mod

    class NoChoices:
        status_code = 200
        text = "{}"

        def json(self):
            return {}

    monkeypatch.setattr(backend_mod.requests, "post", lambda url, **kwargs: NoChoices())
    monkeypatch.setenv("INFMEM_API_BASE", "http://h")
    dataset = _synth(workspace)
    out = workspace[0] / "live.jsonl"
    code = dispatch([
        "run", "--dataset", str(dataset), "--mode", "rag-top6", "--backend", "live",
        "--out", str(out), "--config", str(workspace[3]),
    ])
    assert code == 2
    assert "malformed response body" in capsys.readouterr().err


def test_exit_code_one_on_unknown_config_key(workspace, tmp_path):
    _, qa_path, dist_path, _ = workspace
    for text in ("retreival:\n  k1: 1.5\n", "tokenizer:\n  scheme: bogus\n"):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        code = dispatch([
            "synth", "--source", str(qa_path), "--distractors", str(dist_path),
            "--lengths", "100", "--seed", "1", "--out", str(tmp_path / "x"), "--config", str(bad),
        ])
        assert code == 1


def test_reward_evaluator_uses_config_sampling(tmp_path, monkeypatch):
    golden = Path(__file__).parent / "golden"
    config = tmp_path / "config.yaml"
    config.write_text((golden / "config.yaml").read_text() + "sampling:\n  temperature: 0.25\n  top_p: 0.5\n")
    lines = (golden / "expected_t1.jsonl").read_text().splitlines(keepends=True)
    traj = tmp_path / "traj.jsonl"
    traj.write_text("".join(line * 2 for line in lines))
    ids = [json.loads(line)["instance_id"] for line in lines]
    evaluator = tmp_path / "evaluator.json"
    evaluator.write_text(json.dumps({iid: {"answer": ["no"] * 20} for iid in ids}))
    requests = []
    complete = ScriptedBackend.complete

    def recording(self, request, **kwargs):
        requests.append(request)
        return complete(self, request, **kwargs)

    monkeypatch.setattr(ScriptedBackend, "complete", recording)
    code = dispatch([
        "reward", "--traj", str(traj), "--dataset", str(golden / "dataset_t1.jsonl"), "--group-size", "2",
        "--evaluator-script", str(evaluator), "--out", str(tmp_path / "rewards.jsonl"), "--config", str(config),
    ])
    assert code == 0
    assert requests
    assert {(r.temperature, r.top_p, r.max_new_tokens) for r in requests} == {(0.25, 0.5, 64)}


def test_reward_weights_file_rejects_unknown_keys(tmp_path):
    golden = Path(__file__).parent / "golden"
    traj = tmp_path / "traj.jsonl"
    traj.write_text("".join(line * 2 for line in (golden / "expected_t1.jsonl").read_text().splitlines(keepends=True)))
    weights = tmp_path / "weights.yaml"
    weights.write_text("alpha_gt: 2.0\nalpha_erly: 0.5\n")
    code = dispatch([
        "reward", "--traj", str(traj), "--dataset", str(golden / "dataset_t1.jsonl"), "--group-size", "2",
        "--weights", str(weights), "--out", str(tmp_path / "rewards.jsonl"),
    ])
    assert code == 1
