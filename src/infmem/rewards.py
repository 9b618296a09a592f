"""Rollout-level reward computation and SFT trajectory export.

Everything here is a pure function over (serialized) trajectories, so
rewards can be recomputed offline and must agree with the flags recorded at
run time. The gradient step itself lives in an external trainer; this module
stops at rewards, group-relative advantages, and masked dialogue export.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .backend import Backend
from .budget import TokenCounter, WHITESPACE_COUNTER, count_tokens
from .metrics import exact_match
from .protocol import SamplingConfig, Trajectory, answer_call

REWARD_COMPONENTS = ("gt", "early", "call", "mem")


@dataclass(frozen=True)
class RewardWeights:
    """Component weights for the combined outcome reward.

    The coefficients are conventions of this artifact (no canonical values
    exist); they live in config, never hard-coded in reward logic.
    """

    alpha_gt: float = 1.0
    alpha_early: float = 0.2
    alpha_call: float = 0.1
    alpha_mem: float = 0.1
    gamma: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be strictly inside (0, 1), got {self.gamma}")
        alphas = (self.alpha_gt, self.alpha_early, self.alpha_call, self.alpha_mem)
        if any(a < 0 for a in alphas):
            raise ValueError("alpha weights must be >= 0")
        if all(a == 0 for a in alphas):
            raise ValueError("at least one alpha weight must be > 0")


@dataclass(frozen=True)
class RewardBreakdown:
    r_gt: int
    r_early: float
    r_call: int
    r_mem: int
    t_first: int | None
    t_stop: int | None
    total: float


@dataclass(frozen=True)
class GroupAdvantage:
    rewards: tuple[float, ...]
    mean: float
    advantages: tuple[float, ...]


@dataclass(frozen=True)
class SftDialogue:
    turns: tuple[tuple[str, str], ...]
    response_turn_indices: tuple[int, ...]
    instance_id: str
    em: int


@dataclass(frozen=True)
class SftFilters:
    require_em: bool = True
    max_dialogue_tokens: int | None = None
    leak_patterns: tuple[str, ...] = ()


def verify_calls(trajectory: Trajectory) -> int:
    """1 iff every step's function call parsed cleanly (vacuously 1 on no steps)."""
    return int(all(step.call_ok for step in trajectory.steps))


def verify_memory(trajectory: Trajectory, memory_budget: int, counter: TokenCounter = WHITESPACE_COUNTER) -> int:
    """1 iff every write produced a complete update within the memory budget.

    Memory texts are recounted rather than trusting stored counts, so the
    verifier holds against serialized trajectories.
    """
    for step in trajectory.steps:
        if step.write_generation is None:
            continue
        if not step.memory_ok:
            return 0
        if count_tokens(step.memory_after.text, counter) > memory_budget:
            return 0
    return 1


def first_sufficient_step(
    trajectory: Trajectory,
    evaluator: Backend,
    golds: Sequence[str],
    *,
    max_new_tokens: int = 1536,
    sampling: SamplingConfig = SamplingConfig(),
) -> int | None:
    """Earliest step whose memory alone lets a frozen evaluator answer correctly.

    Probes the steps in order and returns at the first sufficient one; None
    when no step suffices.
    """
    for step in trajectory.steps:
        prediction, _, _ = answer_call(
            trajectory.question,
            step.memory_after,
            evaluator,
            episode_id=trajectory.instance_id,
            max_new_tokens=max_new_tokens,
            sampling=sampling,
        )
        if exact_match(prediction, golds) == 1:
            return step.step_index
    return None


def early_stop_reward(t_stop: int | None, t_first: int | None, gamma: float) -> float:
    """gamma ** (d - 1) with d = t_stop - t_first; 1.0 exactly at d = 1.

    Zero when the episode never stopped, never became sufficient, or stopped
    at or before sufficiency (d <= 0); only d >= 1 is rewarded.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be strictly inside (0, 1), got {gamma}")
    if t_stop is None or t_first is None:
        return 0.0
    d = t_stop - t_first
    if d < 1:
        return 0.0
    return gamma ** (d - 1)


def outcome_reward(
    r_gt: int,
    r_early: float,
    r_call: int,
    r_mem: int,
    weights: RewardWeights,
    t_first: int | None = None,
    t_stop: int | None = None,
) -> RewardBreakdown:
    for name, value in (("r_gt", r_gt), ("r_call", r_call), ("r_mem", r_mem)):
        if value not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {value}")
    if not 0.0 <= r_early <= 1.0:
        raise ValueError(f"r_early must be in [0, 1], got {r_early}")
    total = (
        weights.alpha_gt * r_gt
        + weights.alpha_early * r_early
        + weights.alpha_call * r_call
        + weights.alpha_mem * r_mem
    )
    return RewardBreakdown(
        r_gt=r_gt, r_early=r_early, r_call=r_call, r_mem=r_mem, t_first=t_first, t_stop=t_stop, total=total
    )


def compute_reward(
    trajectory: Trajectory,
    golds: Sequence[str],
    weights: RewardWeights,
    memory_budget: int,
    *,
    evaluator: Backend | None = None,
    counter: TokenCounter = WHITESPACE_COUNTER,
    max_new_tokens: int = 1536,
    sampling: SamplingConfig = SamplingConfig(),
) -> RewardBreakdown:
    """Full breakdown for one rollout; early-stop shaping needs an evaluator.

    The evaluator is asked with ``sampling`` and ``max_new_tokens``, which
    the CLI takes from the run config.
    """
    r_gt = exact_match(trajectory.answer, golds)
    r_call = verify_calls(trajectory)
    r_mem = verify_memory(trajectory, memory_budget, counter)
    t_first = None
    if evaluator is not None:
        t_first = first_sufficient_step(
            trajectory, evaluator, golds, max_new_tokens=max_new_tokens, sampling=sampling
        )
    r_early = early_stop_reward(trajectory.stop_step, t_first, weights.gamma)
    return outcome_reward(
        r_gt, r_early, r_call, r_mem, weights, t_first=t_first, t_stop=trajectory.stop_step
    )


def group_advantages(rewards: Sequence[float]) -> GroupAdvantage:
    """Group-relative advantages: reward minus group mean, no std scaling."""
    if len(rewards) < 2:
        raise ValueError(f"a reward group needs at least 2 rollouts, got {len(rewards)}")
    mean = sum(rewards) / len(rewards)
    return GroupAdvantage(
        rewards=tuple(float(r) for r in rewards),
        mean=mean,
        advantages=tuple(float(r) - mean for r in rewards),
    )


def dialogue_turns(trajectory: Trajectory) -> list[tuple[str, str]]:
    """Serialize a trajectory into (role, text) turns in execution order."""
    turns: list[tuple[str, str]] = []
    for step in trajectory.steps:
        if step.prethink_prompt is not None:
            turns.append(("user", step.prethink_prompt))
            turns.append(("assistant", step.prethink_generation or ""))
        if step.write_prompt is not None:
            turns.append(("user", step.write_prompt))
            turns.append(("assistant", step.write_generation or ""))
    turns.append(("user", trajectory.answer_prompt))
    turns.append(("assistant", trajectory.answer_generation))
    return turns


def export_sft(
    trajectories: Sequence[Trajectory],
    golds_by_instance: Mapping[str, Sequence[str]],
    filters: SftFilters = SftFilters(),
    counter: TokenCounter = WHITESPACE_COUNTER,
) -> tuple[list[SftDialogue], list[dict]]:
    """Convert trajectories into masked dialogues, dropping unusable ones.

    Drops: final answer not exactly correct (when ``require_em``), dialogues
    over the token cap, and dialogues whose prompt turns match any leak
    pattern. Returns the kept dialogues plus a per-trajectory filter report.
    """
    kept: list[SftDialogue] = []
    report: list[dict] = []
    leak_res = [re.compile(p) for p in filters.leak_patterns]
    for traj in trajectories:
        golds = golds_by_instance.get(traj.instance_id)
        if golds is None:
            report.append({"instance_id": traj.instance_id, "kept": False, "reason": "no-golds"})
            continue
        em = exact_match(traj.answer, golds)
        if filters.require_em and em != 1:
            report.append({"instance_id": traj.instance_id, "kept": False, "reason": "em"})
            continue
        turns = dialogue_turns(traj)
        if filters.max_dialogue_tokens is not None:
            total = sum(count_tokens(text, counter) for _, text in turns)
            if total > filters.max_dialogue_tokens:
                report.append({"instance_id": traj.instance_id, "kept": False, "reason": "length"})
                continue
        if any(rx.search(text) for rx in leak_res for role, text in turns if role != "assistant"):
            report.append({"instance_id": traj.instance_id, "kept": False, "reason": "leak"})
            continue
        kept.append(
            SftDialogue(
                turns=tuple(turns),
                response_turn_indices=tuple(i for i, (role, _) in enumerate(turns) if role == "assistant"),
                instance_id=traj.instance_id,
                em=em,
            )
        )
        report.append({"instance_id": traj.instance_id, "kept": True, "reason": None})
    return kept, report


def sft_dialogue_to_dict(dialogue: SftDialogue) -> dict:
    return {
        "dialogue": [{"role": role, "content": text} for role, text in dialogue.turns],
        "mask_roles": ["assistant"],
        "response_turn_indices": list(dialogue.response_turn_indices),
        "meta": {"instance_id": dialogue.instance_id, "em": dialogue.em},
    }
