"""Run configuration: one structured YAML file, overridable by CLI flags.

Precedence is reproducibility-first: config file beats built-in defaults,
CLI flags beat the config file, and environment variables configure nothing
except live-endpoint auth. Budget validation runs on every load so a bad
split fails before any work starts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import yaml

from .baselines import RagConfig
from .budget import BudgetConfig, TokenCounter, counter_from_scheme, validate_budget
from .protocol import K_MAX_DEFAULT, SamplingConfig, StopPolicy
from .retrieval import DEFAULT_B, DEFAULT_K1, DEFAULT_UNIT_TOKENS
from .rewards import RewardWeights


@dataclass(frozen=True)
class RetrievalConfig:
    unit_tokens: int = DEFAULT_UNIT_TOKENS
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    scope: str = "full"  # full | prefix

    def __post_init__(self) -> None:
        if self.scope not in ("full", "prefix"):
            raise ValueError(f"retrieval.scope must be 'full' or 'prefix', got {self.scope!r}")


@dataclass(frozen=True)
class RunConfig:
    budgets: BudgetConfig = BudgetConfig(query=1000, retrieved=2000, recurrent=5000, memory=1000, reserve=1000)
    total_input_budget: int = 10000
    tokenizer_scheme: str = "whitespace-approx"
    retrieval: RetrievalConfig = RetrievalConfig()
    rag: RagConfig = RagConfig()
    weights: RewardWeights = RewardWeights()
    sampling: SamplingConfig = SamplingConfig()
    stop_threshold: int = 1
    k_max: int = K_MAX_DEFAULT

    def __post_init__(self) -> None:
        counter_from_scheme(self.tokenizer_scheme)  # fail on an unknown scheme now, not at first use

    @property
    def counter(self) -> TokenCounter:
        return counter_from_scheme(self.tokenizer_scheme)

    @property
    def stop_policy(self) -> StopPolicy:
        return StopPolicy(self.stop_threshold)


# YAML section -> the RunConfig field holding the dataclass that section fills.
_SECTIONS = {"budget": "budgets", "retrieval": "retrieval", "rag": "rag", "rewards": "weights", "sampling": "sampling"}
# YAML section -> {key: RunConfig field} for settings held on RunConfig itself.
_FLAT_SECTIONS = {
    "tokenizer": {"scheme": "tokenizer_scheme"},
    "protocol": {"stop_threshold": "stop_threshold", "k_max": "k_max"},
}


def _reject_unknown(values: dict, allowed, where: str) -> None:
    if not isinstance(values, dict):
        raise ValueError(f"{where} must be a mapping")
    unknown = sorted(str(key) for key in values if key not in allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)} in {where}; allowed: {', '.join(sorted(allowed))}")


def override(base, values: dict, where: str):
    """``base`` with its fields replaced by ``values``; a key that is not a field is an error."""
    _reject_unknown(values, {f.name for f in fields(base)}, where)
    return replace(base, **values)


def _section(data: dict, name: str) -> dict:
    value = data.get(name)
    return {} if value is None else value


def load_config(path: str | Path | None = None) -> RunConfig:
    """Build a validated RunConfig from a YAML file (defaults when path is None).

    Each section may set only the fields of what it fills; any other key,
    like a misspelt section name, fails the load.
    """
    data: dict = {}
    if path is not None:
        with Path(path).open("r", encoding="utf-8") as f:
            data = yaml.safe_load(f) or {}
    _reject_unknown(data, {*_SECTIONS, *_FLAT_SECTIONS, "total_input_budget"}, "config")

    defaults = RunConfig()
    budgets = override(defaults.budgets, _section(data, "budget"), "budget")
    total = data.get("total_input_budget", budgets.input_total)
    validate_budget(budgets, total)

    values: dict = {"budgets": budgets, "total_input_budget": total}
    # retrieval.unit_tokens defaults to budget.retrieval_unit.
    defaults = replace(defaults, retrieval=replace(defaults.retrieval, unit_tokens=budgets.retrieval_unit))
    for name, attr in _SECTIONS.items():
        if attr not in values:
            values[attr] = override(getattr(defaults, attr), _section(data, name), name)
    for name, keys in _FLAT_SECTIONS.items():
        section = _section(data, name)
        _reject_unknown(section, keys, name)
        values.update((keys[key], value) for key, value in section.items())
    return RunConfig(**values)


def config_snapshot(config: RunConfig) -> dict:
    """Complete, environment-independent dump for run manifests, in the YAML layout."""
    snapshot = {name: asdict(getattr(config, attr)) for name, attr in _SECTIONS.items()}
    for name, keys in _FLAT_SECTIONS.items():
        snapshot[name] = {key: getattr(config, attr) for key, attr in keys.items()}
    snapshot["total_input_budget"] = config.total_input_budget
    return snapshot
