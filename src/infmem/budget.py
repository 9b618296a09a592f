"""Token counting and budget arithmetic shared by every pipeline stage.

Counts are approximate by design: the runtime needs a deterministic,
platform-independent token unit for chunk sizes, memory caps, and prompt
assembly. Exact model vocabularies can be plugged in through the
``external-vocab`` scheme when fidelity matters more than portability.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

_WORD_RE = re.compile(r"\S+")
_THROUGH_LAST_SPACE_RE = re.compile(r"(?s).*\s")

SCHEMES = ("whitespace-approx", "byte-per-4-approx", "external-vocab")


class BudgetError(ValueError):
    """A budget configuration violates positivity or the sum identity."""


@dataclass(frozen=True)
class TokenCounter:
    """A deterministic token-counting scheme.

    ``whitespace-approx``: count = number of whitespace-separated words.
    ``byte-per-4-approx``: count = ceil(utf-8 bytes / 4).
    ``external-vocab``: count = len(encode(text)) for an injected encoder.
    """

    scheme: str
    description: str = ""
    encode: Callable[[str], list] | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown token counting scheme: {self.scheme!r}")
        if self.scheme == "external-vocab" and self.encode is None:
            raise ValueError("external-vocab counter requires an encode callable")


WHITESPACE_COUNTER = TokenCounter(
    scheme="whitespace-approx",
    description="count = number of whitespace-separated words",
)

BYTE_PER_4_COUNTER = TokenCounter(
    scheme="byte-per-4-approx",
    description="count = ceil(utf-8 byte length / 4)",
)


def external_vocab_counter(encode: Callable[[str], list], description: str = "") -> TokenCounter:
    """Adapter for an exact model tokenizer; ``encode`` maps text to token ids."""
    return TokenCounter(scheme="external-vocab", description=description, encode=encode)


def counter_from_scheme(scheme: str) -> TokenCounter:
    if scheme == "whitespace-approx":
        return WHITESPACE_COUNTER
    if scheme == "byte-per-4-approx":
        return BYTE_PER_4_COUNTER
    raise ValueError(f"no built-in counter for scheme {scheme!r}")


def count_tokens(text: str, counter: TokenCounter) -> int:
    """Deterministic non-negative token count of ``text`` under ``counter``."""
    if not text:
        return 0
    if counter.scheme == "whitespace-approx":
        return len(text.split())
    if counter.scheme == "byte-per-4-approx":
        n = len(text.encode("utf-8"))
        return (n + 3) // 4
    assert counter.encode is not None
    return len(counter.encode(text))


def word_run_re(max_words: int) -> re.Pattern[str]:
    """Leading whitespace, then 1 to ``max_words`` words, each with the whitespace after it.

    A match ends on the next word start or at the end of the text, so
    ``finditer`` tiles a text into runs of ``max_words`` words. Words are
    ``\\S+`` runs, the same words ``str.split`` counts.
    """
    return re.compile(r"\s*(?:\S+(?:\s+|\Z)){1,%d}" % max_words)


def utf8_prefix_end(text: str, start: int, max_bytes: int) -> int:
    """Largest ``end`` such that ``text[start:end]`` is at most ``max_bytes`` UTF-8 bytes."""
    head = text[start : start + max_bytes].encode("utf-8")[:max_bytes]
    return start + len(head.decode("utf-8", "ignore"))


def _largest_cut(text: str, cuts: list[int], budget: int, counter: TokenCounter) -> int:
    """Largest cut position whose prefix stays within budget (0 if none).

    Prefix counts are nondecreasing along cut positions for every scheme,
    so binary search is valid.
    """
    lo, hi, best = 0, len(cuts) - 1, 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if count_tokens(text[: cuts[mid]], counter) <= budget:
            best = cuts[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def truncate_to_budget(
    text: str,
    budget: int,
    counter: TokenCounter,
    boundary: str = "word",
) -> str:
    """Longest prefix of ``text`` at the chosen boundary within ``budget`` tokens.

    Returns ``text`` unchanged when it already fits; budget 0 yields "".
    The built-in schemes find the cut directly: under ``whitespace-approx``
    the char cut is the start of word ``budget + 1``, under
    ``byte-per-4-approx`` it is the longest prefix of ``4 * budget`` bytes;
    the word cut is the last word end at or before the char cut.
    ``external-vocab`` binary-searches the cut with ``count_tokens``.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if boundary not in ("word", "char"):
        raise ValueError(f"boundary must be 'word' or 'char', got {boundary!r}")
    if budget == 0 or not text:
        return ""
    if count_tokens(text, counter) <= budget:
        return text
    if counter.scheme == "whitespace-approx":
        # The text has more than ``budget`` words, so the run ends on word ``budget + 1``.
        head = word_run_re(budget).match(text).group()
        return head if boundary == "char" else head.rstrip()
    if counter.scheme == "byte-per-4-approx":
        end = utf8_prefix_end(text, 0, 4 * budget)
        if boundary == "char":
            return text[:end]
        if not text[end].isspace():
            # Drop the word cut at ``end``: keep up to the last whitespace before it.
            last_space = _THROUGH_LAST_SPACE_RE.match(text, 0, end)
            end = last_space.end() if last_space else 0
        return text[:end].rstrip()
    if boundary == "char":
        cuts = list(range(1, len(text) + 1))
    else:
        cuts = [m.end() for m in _WORD_RE.finditer(text)]
    if not cuts:
        return ""
    return text[: _largest_cut(text, cuts, budget, counter)]


@dataclass(frozen=True)
class BudgetConfig:
    """Per-field input token budgets plus decode-side knobs.

    ``query + retrieved + recurrent + memory + reserve`` must equal the
    declared total input budget; ``max_generation`` and ``retrieval_unit``
    sit outside the sum (decode budget and index granularity).
    """

    query: int
    retrieved: int
    recurrent: int
    memory: int
    reserve: int
    max_generation: int = 1536
    retrieval_unit: int = 500

    @property
    def input_total(self) -> int:
        return self.query + self.retrieved + self.recurrent + self.memory + self.reserve


def validate_budget(config: BudgetConfig, declared_total: int) -> BudgetConfig:
    """Return ``config`` iff all fields are positive and the sum identity holds."""
    bad = [
        name
        for name in ("query", "retrieved", "recurrent", "memory", "reserve", "max_generation", "retrieval_unit")
        if getattr(config, name) <= 0
    ]
    if bad:
        raise BudgetError(f"budget fields must be > 0: {', '.join(bad)}")
    total = config.input_total
    if total != declared_total:
        raise BudgetError(
            "budget sum mismatch: "
            f"query {config.query} + retrieved {config.retrieved} + recurrent {config.recurrent} "
            f"+ memory {config.memory} + reserve {config.reserve} = {total}, "
            f"declared total {declared_total}"
        )
    return config


# Named profiles: the 10K default splits 1K query / 2K retrieved / 5K recurrent /
# 1K memory / 1K reserve; the wide-retrieval variant raises the per-step
# retrieved cap to 4K (declared total grows accordingly).
BUDGET_PROFILES: dict[str, BudgetConfig] = {
    "default-10k": BudgetConfig(query=1000, retrieved=2000, recurrent=5000, memory=1000, reserve=1000),
    "retrieval-4k": BudgetConfig(query=1000, retrieved=4000, recurrent=5000, memory=1000, reserve=1000),
}
