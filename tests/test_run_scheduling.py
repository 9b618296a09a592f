"""`infmem run` over datasets that list an instance more than once.

Rollouts of one instance share a prepared document (chunks, units, BM25
index) through a one-slot cache per thread, run in input order in one
worker, and a failed episode keeps every finished trajectory on disk.
"""

import dataclasses
import json
import sys
import weakref
from pathlib import Path

import pytest
import yaml

from infmem import protocol
from infmem.backend import ScriptedBackend
from infmem.budget import BYTE_PER_4_COUNTER, WHITESPACE_COUNTER
from infmem.cli import dispatch
from infmem.protocol import dumps_trajectory, run_episode
from infmem.synth import read_instances

from conftest import retrieve_line

GOLDEN = Path(__file__).parent / "golden"
IDS = ("s1-immediate-stop", "s2-read-all", "s3-stop-at-3")
G = 4
ADJACENT = [iid for iid in IDS for _ in range(G)]
MIXED = [IDS[i] for i in (0, 0, 1, 0, 2, 1, 1, 2, 0, 2, 2, 1)]
CONFIG_VARIANTS = {"base": {}, "unit_tokens": {"unit_tokens": 4}, "k1": {"k1": 2.0}}


def _golden_lines() -> dict[str, str]:
    lines = (GOLDEN / "dataset_t1.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    return {json.loads(line)["instance_id"]: line for line in lines}


def _write_dataset(tmp_path: Path, order: list[str]) -> Path:
    lines = _golden_lines()
    path = tmp_path / "rollouts.jsonl"
    path.write_text("".join(lines[iid] for iid in order), encoding="utf-8")
    return path


def _write_script(tmp_path: Path) -> Path:
    """Rollout r of each instance retrieves r times, then stops; every response names its rollout."""
    docs = {inst.instance_id: inst.long_text.split() for inst in read_instances(GOLDEN / "dataset_t1.jsonl")}
    script = {}
    for iid in IDS:
        entry = {"prethink": [], "write": [], "answer": []}
        for r in range(G):
            for t in range(r):
                entry["prethink"].append(retrieve_line(docs[iid][7 * r + 3 * t + 2], top_k=r + 1))
                entry["write"].append(f"Updated memory:\n{iid} rollout {r} note {t}")
            entry["prethink"].append("STOP")
            entry["answer"].append(f"{iid} answer {r}")
        script[iid] = entry
    path = tmp_path / "rollouts_script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    return path


def _write_config(tmp_path: Path, scheme: str = "whitespace-approx", retrieval: dict | None = None) -> Path:
    data = yaml.safe_load((GOLDEN / "config.yaml").read_text(encoding="utf-8"))
    data["retrieval"].update(retrieval or {})
    data["tokenizer"] = {"scheme": scheme}
    path = tmp_path / "run_config.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def _run(dataset: Path, script: Path, config: Path, out: Path, parallel: int = 1) -> int:
    return dispatch([
        "run", "--dataset", str(dataset), "--mode", "infmem", "--backend", "scripted",
        "--script", str(script), "--parallel", str(parallel), "--out", str(out), "--config", str(config),
    ])


def _count_preparations(monkeypatch) -> list[str]:
    texts: list[str] = []
    original = protocol.prepare_runtime

    def counting(long_text, *args, **kwargs):
        texts.append(long_text)
        return original(long_text, *args, **kwargs)

    monkeypatch.setattr(protocol, "prepare_runtime", counting)
    return texts


# ------------------------------------------------------------ scheduling


@pytest.mark.parametrize("order", [ADJACENT, MIXED], ids=["adjacent", "mixed"])
def test_parallel_rollouts_are_byte_identical(tmp_path, order):
    dataset = _write_dataset(tmp_path, order)
    script = _write_script(tmp_path)
    config = _write_config(tmp_path)
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so rollouts that share a worker pool interleave
    try:
        for parallel in (1, 2, 4):
            out = tmp_path / f"p{parallel}.jsonl"
            assert _run(dataset, script, config, out, parallel) == 0  # no ScriptExhaustedError
            outputs.append(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0] == outputs[1] == outputs[2]
    records = [json.loads(line) for line in outputs[0].decode("utf-8").splitlines()]
    assert [r["instance_id"] for r in records] == sorted(order)
    # Each id's rollouts keep their input order and their own responses.
    for iid in IDS:
        mine = [r for r in records if r["instance_id"] == iid]
        assert [r["answer"] for r in mine] == [f"{iid} answer {k}" for k in range(G)]
        assert [len(r["steps"]) for r in mine] == [k + 1 for k in range(G)]


# ------------------------------------------------------------ runtime cache


@pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
@pytest.mark.parametrize("scheme", ["whitespace-approx", "byte-per-4-approx"])
def test_cached_run_equals_fresh_preparation(tmp_path, monkeypatch, scheme, variant):
    dataset = _write_dataset(tmp_path, MIXED)
    script = _write_script(tmp_path)
    config = _write_config(tmp_path, scheme, CONFIG_VARIANTS[variant])
    cached = tmp_path / "cached.jsonl"
    assert _run(dataset, script, config, cached) == 0
    with monkeypatch.context() as m:
        m.setattr(protocol, "_episode_runtime", protocol.prepare_runtime)
        fresh = tmp_path / "fresh.jsonl"
        assert _run(dataset, script, config, fresh) == 0
    assert cached.read_bytes() == fresh.read_bytes()


def test_config_change_misses(monkeypatch, small_budgets):
    instances = {inst.instance_id: inst for inst in read_instances(GOLDEN / "dataset_t1.jsonl")}
    s2, s4 = instances["s2-read-all"], instances["s4-read-all-fallback"]
    s2_copy = dataclasses.replace(s2, long_text="".join(list(s2.long_text)))
    assert s2_copy.long_text is not s2.long_text
    runs = [  # instance, counter, unit_tokens, k1, expect a preparation
        (s2, WHITESPACE_COUNTER, None, None, True),
        (s2_copy, WHITESPACE_COUNTER, None, None, False),  # the key compares the text with ==
        (s2, WHITESPACE_COUNTER, 6, 1.2, False),  # the same settings, given explicitly
        (s2, WHITESPACE_COUNTER, 4, None, True),
        (s2, WHITESPACE_COUNTER, 4, 2.0, True),
        (s2, BYTE_PER_4_COUNTER, 4, 2.0, True),
        (s4, BYTE_PER_4_COUNTER, 4, 2.0, True),
        (s2, BYTE_PER_4_COUNTER, 4, 2.0, True),  # the slot holds one document
    ]
    script = {
        inst.instance_id: {
            "prethink": [retrieve_line(w, top_k=2) for w in inst.long_text.split()[3:9:3]] + ["STOP"],
            "write": ["Updated memory:\nfirst note", "Updated memory:\nsecond note"],
            "answer": ["done"],
        }
        for inst in (s2, s4)
    }
    original = protocol.prepare_runtime
    prepared = _count_preparations(monkeypatch)
    for instance, counter, unit_tokens, k1, miss in runs:
        kwargs = dict(counter=counter, unit_tokens=unit_tokens, k1=k1)
        before = len(prepared)
        cached = run_episode(instance, ScriptedBackend(script), small_budgets, **kwargs)
        assert len(prepared) - before == int(miss)
        with monkeypatch.context() as m:
            m.setattr(protocol, "_episode_runtime", original)
            fresh = run_episode(instance, ScriptedBackend(script), small_budgets, **kwargs)
        assert len(cached.steps) == 3
        assert dumps_trajectory(cached) == dumps_trajectory(fresh)
    protocol.release_runtime()


@pytest.mark.parametrize("parallel", [1, 2])
def test_prepare_runtime_once_per_document_per_worker(tmp_path, monkeypatch, parallel):
    dataset = _write_dataset(tmp_path, MIXED)
    prepared = _count_preparations(monkeypatch)
    assert _run(dataset, _write_script(tmp_path), _write_config(tmp_path), tmp_path / "t.jsonl", parallel) == 0
    assert len(prepared) == len(IDS)
    assert len(set(prepared)) == len(IDS)


def test_previous_runtime_is_dead_before_the_next_is_built(tmp_path, monkeypatch):
    dataset = _write_dataset(tmp_path, MIXED)
    refs: list[weakref.ref] = []
    original = protocol.prepare_runtime

    def checking(*args, **kwargs):
        assert all(ref() is None for ref in refs), "the previous document's runtime is still alive"
        runtime = original(*args, **kwargs)
        refs.append(weakref.ref(runtime))
        return runtime

    monkeypatch.setattr(protocol, "prepare_runtime", checking)
    assert _run(dataset, _write_script(tmp_path), _write_config(tmp_path), tmp_path / "t.jsonl") == 0
    assert len(refs) == len(IDS)
    assert all(ref() is None for ref in refs)  # released when cmd_run returned


def test_worker_slots_are_released_with_the_pool(tmp_path, monkeypatch):
    refs: list[weakref.ref] = []
    original = protocol.prepare_runtime

    def recording(*args, **kwargs):
        runtime = original(*args, **kwargs)
        refs.append(weakref.ref(runtime))
        return runtime

    monkeypatch.setattr(protocol, "prepare_runtime", recording)
    dataset = _write_dataset(tmp_path, MIXED)
    assert _run(dataset, _write_script(tmp_path), _write_config(tmp_path), tmp_path / "t.jsonl", parallel=2) == 0
    assert len(refs) == len(IDS)
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("fails", [False, True])
def test_slot_is_empty_after_cmd_run(tmp_path, fails):
    script = _write_script(tmp_path)
    if fails:
        script.write_text("{}")  # every group fails at its first call, after preparing its document
    code = _run(_write_dataset(tmp_path, MIXED), script, _write_config(tmp_path), tmp_path / "t.jsonl")
    assert code == (2 if fails else 0)
    assert getattr(protocol._runtime_slot, "entry", None) is None


# ------------------------------------------------------------ failed episodes


@pytest.mark.parametrize("parallel", [1, 4])
def test_failed_episode_keeps_finished_trajectories(tmp_path, capsys, parallel):
    script = json.loads((GOLDEN / "script_t1.json").read_text(encoding="utf-8"))
    del script["s3-stop-at-3"]
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "traj.jsonl"
    code = dispatch([
        "run", "--dataset", str(GOLDEN / "dataset_t1.jsonl"), "--mode", "infmem", "--stop-threshold", "1",
        "--backend", "scripted", "--script", str(script_path), "--parallel", str(parallel),
        "--out", str(out), "--config", str(GOLDEN / "config.yaml"),
    ])
    assert code == 2
    assert not out.exists()
    expected = (GOLDEN / "expected_t1.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    finished = [line for line in expected if json.loads(line)["instance_id"] != "s3-stop-at-3"]
    assert len(finished) == 3
    assert (tmp_path / "traj.jsonl.partial").read_text(encoding="utf-8") == "".join(finished)
    assert (tmp_path / "traj.jsonl.partial.manifest.json").exists()
    failures = [json.loads(line) for line in (tmp_path / "traj.jsonl.failures.jsonl").read_text().splitlines()]
    assert len(failures) == 1
    failure = failures[0]
    assert failure["instance_id"] == "s3-stop-at-3"
    assert "prethink call failed at step 1" in failure["message"]
    assert failure["cause"].startswith("ScriptExhaustedError:")
    assert failure["trajectory"]["instance_id"] == "s3-stop-at-3"
    assert failure["trajectory"]["steps"] == []
    assert "s3-stop-at-3" in capsys.readouterr().err


def test_group_stops_at_its_first_failure(tmp_path):
    dataset = _write_dataset(tmp_path, ADJACENT)
    script = json.loads(_write_script(tmp_path).read_text(encoding="utf-8"))
    script["s2-read-all"]["answer"] = script["s2-read-all"]["answer"][:2]  # rollout 2 cannot answer
    script_path = tmp_path / "short.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "t.jsonl"
    assert _run(dataset, script_path, _write_config(tmp_path), out) == 2
    kept = [json.loads(line)["instance_id"] for line in (tmp_path / "t.jsonl.partial").read_text().splitlines()]
    assert kept == [IDS[0]] * G + [IDS[1]] * 2 + [IDS[2]] * G
    (failure,) = [json.loads(line) for line in (tmp_path / "t.jsonl.failures.jsonl").read_text().splitlines()]
    assert failure["message"] == "answer call failed"
    assert len(failure["trajectory"]["steps"]) == 3


def test_success_removes_stale_partial_files(tmp_path):
    dataset = _write_dataset(tmp_path, ADJACENT)
    out = tmp_path / "t.jsonl"
    stale = [tmp_path / name for name in ("t.jsonl.partial", "t.jsonl.failures.jsonl", "t.jsonl.partial.manifest.json")]
    for path in stale:
        path.write_text("old\n")
    assert _run(dataset, _write_script(tmp_path), _write_config(tmp_path), out) == 0
    assert out.exists()
    assert not any(path.exists() for path in stale)
