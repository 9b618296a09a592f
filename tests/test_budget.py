"""Token counting and budget arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infmem.budget import (
    BUDGET_PROFILES,
    BYTE_PER_4_COUNTER,
    BudgetConfig,
    BudgetError,
    WHITESPACE_COUNTER,
    count_tokens,
    external_vocab_counter,
    truncate_to_budget,
    validate_budget,
)

texts = st.text(alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=300)
words_texts = st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=8), max_size=60).map(" ".join)


def test_count_empty_is_zero():
    for counter in (WHITESPACE_COUNTER, BYTE_PER_4_COUNTER):
        assert count_tokens("", counter) == 0


def test_whitespace_scheme_counts_words():
    assert count_tokens("a b c", WHITESPACE_COUNTER) == 3
    assert count_tokens("  a\t b \n c  ", WHITESPACE_COUNTER) == 3


def test_byte_per_4_on_long_text():
    # Oracle: ceil(len/4) on a 20,000-char ascii text.
    lorem = ("lorem ipsum dolor sit amet " * 800)[:20000]
    assert len(lorem) == 20000
    assert count_tokens(lorem, BYTE_PER_4_COUNTER) == 5000


def test_external_vocab_adapter():
    counter = external_vocab_counter(lambda t: t.split(","), "comma vocab")
    assert count_tokens("a,b,c", counter) == 3
    assert count_tokens("", counter) == 0


@given(a=texts, b=texts)
def test_count_monotone_under_concatenation(a, b):
    for counter in (WHITESPACE_COUNTER, BYTE_PER_4_COUNTER):
        assert count_tokens(a + b, counter) >= max(count_tokens(a, counter), count_tokens(b, counter))


@given(t=texts)
def test_count_deterministic(t):
    for counter in (WHITESPACE_COUNTER, BYTE_PER_4_COUNTER):
        assert count_tokens(t, counter) == count_tokens(t, counter)


def test_truncate_word_boundary_prefix():
    assert truncate_to_budget("alpha beta gamma", 2, WHITESPACE_COUNTER, "word") == "alpha beta"


def test_truncate_noop_within_budget():
    text = "already short"
    assert truncate_to_budget(text, 10, WHITESPACE_COUNTER) == text


def test_truncate_budget_zero_gives_empty():
    assert truncate_to_budget("anything at all", 0, WHITESPACE_COUNTER) == ""


def test_truncate_negative_budget_rejected():
    with pytest.raises(ValueError):
        truncate_to_budget("x", -1, WHITESPACE_COUNTER)


def test_truncate_long_draft_recount():
    # Recount oracle: a 1500-word draft cut to 1024 must recount to <= 1024
    # and be a prefix; with the whitespace scheme the cut is exact.
    draft = " ".join(f"tok{i}" for i in range(1500))
    out = truncate_to_budget(draft, 1024, WHITESPACE_COUNTER, "word")
    assert count_tokens(out, WHITESPACE_COUNTER) == 1024
    assert draft.startswith(out)


@given(t=words_texts, budget=st.integers(min_value=0, max_value=40))
def test_truncate_properties_word(t, budget):
    out = truncate_to_budget(t, budget, WHITESPACE_COUNTER, "word")
    assert count_tokens(out, WHITESPACE_COUNTER) <= budget
    assert t.startswith(out)
    assert truncate_to_budget(out, budget, WHITESPACE_COUNTER, "word") == out


@given(t=texts, budget=st.integers(min_value=0, max_value=40))
def test_truncate_properties_char(t, budget):
    out = truncate_to_budget(t, budget, BYTE_PER_4_COUNTER, "char")
    assert count_tokens(out, BYTE_PER_4_COUNTER) <= budget
    assert t.startswith(out)
    assert truncate_to_budget(out, budget, BYTE_PER_4_COUNTER, "char") == out


def test_default_profile_validates():
    config = BUDGET_PROFILES["default-10k"]
    assert validate_budget(config, 10000) is config
    assert (config.query, config.retrieved, config.recurrent, config.memory, config.reserve) == (
        1000, 2000, 5000, 1000, 1000,
    )


def test_wide_retrieval_profile_validates():
    config = BUDGET_PROFILES["retrieval-4k"]
    assert config.retrieved == 4000
    assert validate_budget(config, 12000) is config


def test_zero_field_rejected():
    with pytest.raises(BudgetError, match="recurrent"):
        validate_budget(BudgetConfig(query=1, retrieved=1, recurrent=0, memory=1, reserve=1), 4)


def test_sum_mismatch_lists_sums():
    config = BudgetConfig(query=1000, retrieved=2000, recurrent=5000, memory=1000, reserve=1000)
    with pytest.raises(BudgetError, match="10000"):
        validate_budget(config, 9000)


# The built-in schemes cut directly; an external-vocab counter with the same
# counts takes the binary search over cuts, which is the oracle.
SEARCH_ORACLES = [
    (WHITESPACE_COUNTER, external_vocab_counter(str.split)),
    (BYTE_PER_4_COUNTER, external_vocab_counter(lambda t: [0] * ((len(t.encode("utf-8")) + 3) // 4))),
]
_spaces = st.sampled_from([" ", "  ", "\t", "\n", " \n ", "　", "\xa0", "\x85", "\x1c"])
_words = st.text(alphabet="abcxyzé中\U0001f600-.", min_size=1, max_size=30)
truncation_texts = st.one_of(st.lists(st.one_of(_words, _spaces), max_size=50).map("".join), texts)


@given(text=truncation_texts, budget=st.integers(min_value=0, max_value=40), boundary=st.sampled_from(["word", "char"]))
@settings(max_examples=200, deadline=None)
def test_direct_truncation_matches_search(text, budget, boundary):
    for counter, oracle in SEARCH_ORACLES:
        assert truncate_to_budget(text, budget, counter, boundary) == truncate_to_budget(text, budget, oracle, boundary)
