"""Config loading, precedence, and fail-fast budget validation."""

import pytest

from infmem.budget import BudgetError
from infmem.config import config_snapshot, load_config


def test_defaults_without_file():
    config = load_config(None)
    assert config.budgets.input_total == 10000
    assert config.budgets.query == 1000
    assert config.retrieval.unit_tokens == 500
    assert config.rag.top_k == 6
    assert config.weights.gamma == 0.9
    assert config.sampling.temperature == 1.0
    assert config.stop_threshold == 1
    assert config.counter.scheme == "whitespace-approx"


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "budget: {query: 500, retrieved: 1000, recurrent: 2000, memory: 400, reserve: 100}\n"
        "total_input_budget: 4000\n"
        "tokenizer: {scheme: byte-per-4-approx}\n"
        "retrieval: {scope: prefix, k1: 1.5}\n"
        "protocol: {stop_threshold: 3}\n"
    )
    config = load_config(path)
    assert config.budgets.recurrent == 2000
    assert config.tokenizer_scheme == "byte-per-4-approx"
    assert config.retrieval.scope == "prefix"
    assert config.retrieval.k1 == 1.5
    assert config.stop_policy.threshold == 3


def test_unit_tokens_follows_budget_retrieval_unit(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "budget: {query: 100, retrieved: 100, recurrent: 100, memory: 100, reserve: 100, retrieval_unit: 250}\n"
        "total_input_budget: 500\n"
    )
    config = load_config(path)
    assert config.retrieval.unit_tokens == 250
    path.write_text(
        "budget: {query: 100, retrieved: 100, recurrent: 100, memory: 100, reserve: 100, retrieval_unit: 250}\n"
        "total_input_budget: 500\n"
        "retrieval: {unit_tokens: 125}\n"
    )
    assert load_config(path).retrieval.unit_tokens == 125


def test_budget_validation_fails_fast(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("budget: {query: 10}\ntotal_input_budget: 5\n")
    with pytest.raises(BudgetError):
        load_config(path)


def test_invalid_scope_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("retrieval: {scope: sideways}\n")
    with pytest.raises(ValueError, match="scope"):
        load_config(path)


def test_snapshot_is_complete_and_plain(tmp_path):
    config = load_config(None)
    snap = config_snapshot(config)
    assert snap["budget"]["query"] == 1000
    assert snap["retrieval"]["scope"] == "full"
    assert snap["rewards"]["alpha_gt"] == 1.0
    assert snap["protocol"]["k_max"] == 10
    # Everything JSON-serializable for the run manifest.
    import json

    json.dumps(snap)


@pytest.mark.parametrize(
    "text, where",
    [
        ("retreival: {k1: 1.5}\n", "retreival"),
        ("budget: {qurey: 5}\n", "qurey"),
        ("retrieval: {k_1: 1.5}\n", "k_1"),
        ("rag: {topk: 3}\n", "topk"),
        ("rewards: {alpha: 1.0}\n", "alpha"),
        ("sampling: {temp: 0.1}\n", "temp"),
        ("tokenizer: {schema: whitespace-approx}\n", "schema"),
        ("protocol: {stop_treshold: 2}\n", "stop_treshold"),
    ],
)
def test_unknown_keys_rejected(tmp_path, text, where):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"unknown key.*{where}"):
        load_config(path)


@pytest.mark.parametrize("scheme", ["whitespace", "external-vocab"])
def test_invalid_tokenizer_scheme_rejected_at_load(tmp_path, scheme):
    path = tmp_path / "c.yaml"
    path.write_text(f"tokenizer: {{scheme: {scheme}}}\n")
    with pytest.raises(ValueError, match="scheme"):
        load_config(path)


@pytest.mark.parametrize("text", ["budget: [1, 2]\n", "- a list\n"])
def test_non_mapping_rejected(tmp_path, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match="mapping"):
        load_config(path)


def test_snapshot_loads_back_to_the_same_config(tmp_path):
    # Every key the snapshot writes is one load_config accepts, and it restores every field.
    import yaml

    path = tmp_path / "c.yaml"
    path.write_text(
        "budget: {query: 500, retrieved: 1000, recurrent: 2000, memory: 400, reserve: 100, max_generation: 99}\n"
        "total_input_budget: 4000\n"
        "tokenizer: {scheme: byte-per-4-approx}\n"
        "retrieval: {scope: prefix, k1: 1.5, b: 0.5}\n"
        "rag: {top_k: 3}\n"
        "rewards: {gamma: 0.5}\n"
        "sampling: {temperature: 0.2}\n"
        "protocol: {stop_threshold: 3, k_max: 7}\n"
    )
    config = load_config(path)
    again = tmp_path / "snapshot.yaml"
    again.write_text(yaml.safe_dump(config_snapshot(config)))
    assert load_config(again) == config
