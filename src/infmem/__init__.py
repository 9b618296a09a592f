"""Bounded-memory long-context QA agent runtime and experiment harness."""

__version__ = "0.1.0"

from .backend import (
    BackendError,
    GenerationRequest,
    GenerationResult,
    LiveBackend,
    ScriptedBackend,
    ScriptExhaustedError,
    strip_thinking,
)
from .baselines import RagConfig, run_memagent, run_rag_top6
from .budget import (
    BUDGET_PROFILES,
    BYTE_PER_4_COUNTER,
    BudgetConfig,
    BudgetError,
    TokenCounter,
    WHITESPACE_COUNTER,
    count_tokens,
    truncate_to_budget,
    validate_budget,
)
from .config import RetrievalConfig, RunConfig, load_config
from .metrics import (
    EvalResult,
    aggregate,
    evaluate_trajectory,
    exact_match,
    f1,
    memory_dynamics,
    normalize_answer,
)
from .protocol import (
    ControlParseError,
    ControlRecord,
    EpisodeError,
    MemoryState,
    SamplingConfig,
    StepRecord,
    StopPolicy,
    Trajectory,
    dumps_trajectory,
    extract_memory_update,
    loads_trajectory,
    parse_control_record,
    render_prethink_prompt,
    render_write_prompt,
    run_episode,
)
from .retrieval import (
    Bm25Index,
    RetrievalUnit,
    ScoredUnit,
    StreamChunk,
    build_index,
    build_units,
    concat_retrieved,
    query_index,
    segment_stream,
)
from .rewards import (
    GroupAdvantage,
    RewardBreakdown,
    RewardWeights,
    SftDialogue,
    SftFilters,
    compute_reward,
    early_stop_reward,
    export_sft,
    first_sufficient_step,
    group_advantages,
    outcome_reward,
    verify_calls,
    verify_memory,
)
from .synth import (
    Document,
    InsertionPlan,
    LongContextInstance,
    QaRecord,
    SynthError,
    build_instance,
    make_document,
    plan_insertion,
    synthesize_suite,
)
