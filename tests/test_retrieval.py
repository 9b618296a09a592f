"""Tiling invariants and BM25 oracle equivalence."""

import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infmem.budget import BYTE_PER_4_COUNTER, WHITESPACE_COUNTER, count_tokens, external_vocab_counter
from infmem.retrieval import (
    ScoredUnit,
    _tile_spans,
    build_index,
    build_units,
    concat_retrieved,
    index_tokens,
    query_index,
    segment_stream,
)

C = WHITESPACE_COUNTER

word_lists = st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=7), min_size=0, max_size=120)


def brute_force_bm25(unit_texts: list[str], query: str, k1: float = 1.2, b: float = 0.75) -> list[tuple[int, float]]:
    """Independent scorer: recomputes every statistic directly from the texts."""
    token_re = re.compile(r"[a-z0-9]+")
    docs = [token_re.findall(t.lower()) for t in unit_texts]
    n = len(docs)
    avg = sum(len(d) for d in docs) / n
    q_tokens = token_re.findall(query.lower())
    results = []
    for i, doc in enumerate(docs):
        counts = Counter(doc)
        score = 0.0
        for term in q_tokens:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for d in docs if term in d)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1)
            score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(doc) / avg))
        if score > 0:
            results.append((i, score))
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results


def test_segment_three_chunks_arithmetic():
    text = " ".join(f"t{i}" for i in range(12000))
    chunks = segment_stream(text, 5000, C)
    assert [c.token_count for c in chunks] == [5000, 5000, 2000]
    assert [c.index for c in chunks] == [0, 1, 2]


def test_segment_concat_reproduces_text():
    text = "  leading ws " + " ".join(f"t{i}" for i in range(57)) + "   "
    chunks = segment_stream(text, 10, C)
    assert "".join(c.text for c in chunks) == text


def test_segment_boundaries_fall_on_whitespace():
    text = " ".join(f"t{i}" for i in range(500))
    chunks = segment_stream(text, 37, C)
    for chunk in chunks[1:]:
        assert text[chunk.start - 1].isspace()


def test_segment_empty_text():
    assert segment_stream("", 10, C) == []


def test_build_units_arithmetic():
    text = " ".join(f"u{i}" for i in range(2000))
    units = build_units(text, 500, C)
    assert len(units) == 4
    assert units[0].start == 0 and units[-1].end == len(text)
    for prev, nxt in zip(units, units[1:]):
        assert prev.end == nxt.start
    wide = build_units(text, 1000, C)
    assert abs(len(units) - 2 * len(wide)) <= 1


@given(words=word_lists, budget=st.integers(min_value=1, max_value=25))
@settings(max_examples=60)
def test_tiling_properties(words, budget):
    text = " ".join(words)
    for fn in (segment_stream, build_units):
        parts = fn(text, budget, C)
        assert "".join(p.text for p in parts) == text
        for part in parts:
            assert part.token_count <= budget
            assert count_tokens(part.text, C) == part.token_count
        for prev, nxt in zip(parts, parts[1:]):
            assert prev.end == nxt.start


def test_tiling_with_byte_counter_respects_budget():
    text = "x" * 100 + " " + "y z " * 50
    units = build_units(text, 5, BYTE_PER_4_COUNTER)
    assert "".join(u.text for u in units) == text
    assert all(u.token_count <= 5 for u in units)


def _units_from_texts(texts):
    joined = " \n".join(texts)
    units, pos = [], 0
    from infmem.retrieval import RetrievalUnit

    out = []
    for i, t in enumerate(texts):
        start = joined.index(t, pos)
        out.append(RetrievalUnit(unit_id=i, text=t, start=start, end=start + len(t), token_count=count_tokens(t, C)))
        pos = start + len(t)
    return out


def test_index_statistics_counting():
    units = _units_from_texts(["toronto is a city", "paris is a city", "berlin has a wall"])
    index = build_index(units)
    assert index.doc_freq["toronto"] == 1
    assert index.doc_freq["city"] == 2
    assert index.avg_length == (4 + 4 + 4) / 3
    assert index.unit_count == 3


def test_index_statistics_match_naive_recount():
    rng = random.Random(5)
    texts = [" ".join(rng.choice("alpha beta gamma delta".split()) for _ in range(rng.randint(1, 12))) for _ in range(9)]
    index = build_index(_units_from_texts(texts))
    token_re = re.compile(r"[a-z0-9]+")
    docs = [token_re.findall(t.lower()) for t in texts]
    assert index.lengths == [len(d) for d in docs]
    assert index.avg_length == sum(len(d) for d in docs) / len(docs)
    for term in {t for d in docs for t in d}:
        assert index.doc_freq[term] == sum(1 for d in docs if term in d)
    term_freqs: list[dict[str, int]] = [{} for _ in docs]
    for term, (unit_ids, freqs) in index.postings.items():
        assert unit_ids == sorted(unit_ids)
        for unit_id, freq in zip(unit_ids, freqs):
            term_freqs[unit_id][term] = freq
    for i, d in enumerate(docs):
        assert term_freqs[i] == dict(Counter(d))


def test_empty_unit_list_rejected():
    with pytest.raises(ValueError):
        build_index([])


def test_query_single_match_ranks_first():
    texts = ["nothing here", "still nothing", "the toronto team plays"]
    units = _units_from_texts(texts)
    hits = query_index(build_index(units), "toronto", 3)
    assert [h.unit_id for h in hits] == [2]
    oracle = brute_force_bm25(texts, "toronto")
    assert [(h.unit_id, pytest.approx(h.score, abs=1e-9)) for h in hits] == [
        (i, pytest.approx(s, abs=1e-9)) for i, s in oracle
    ]


def test_query_exclusion_drops_overlapping_unit():
    units = _units_from_texts(["toronto one", "toronto two", "toronto three"])
    index = build_index(units)
    target = units[1]
    hits = query_index(index, "toronto", 3, exclude_span=(target.start, target.end))
    assert 1 not in [h.unit_id for h in hits]
    assert all(not (units[h.unit_id].start < target.end and target.start < units[h.unit_id].end) for h in hits)


def test_query_out_of_vocabulary_returns_empty():
    units = _units_from_texts(["alpha beta", "gamma delta"])
    assert query_index(build_index(units), "zzz qqq", 5) == []


def test_query_scope_end_restricts_to_prefix():
    units = _units_from_texts(["toronto early", "middle words", "toronto late"])
    index = build_index(units)
    hits = query_index(index, "toronto", 5, scope_end=units[1].start)
    assert [h.unit_id for h in hits] == [0]


def test_bm25_oracle_equivalence_random():
    rng = random.Random(77)
    vocab = [f"v{i}" for i in range(40)]
    for _ in range(40):
        n_units = rng.randint(1, 20)
        texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 30))) for _ in range(n_units)]
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        units = _units_from_texts(texts)
        hits = query_index(build_index(units), query, n_units)
        oracle = brute_force_bm25(texts, query)
        assert [h.unit_id for h in hits] == [i for i, _ in oracle]
        for hit, (_, score) in zip(hits, oracle):
            assert hit.score == pytest.approx(score, abs=1e-9)


def test_topk_prefix_property():
    rng = random.Random(3)
    texts = [" ".join(rng.choice("a b c d e".split()) for _ in range(rng.randint(1, 10))) for _ in range(12)]
    index = build_index(_units_from_texts(texts))
    for k in range(1, 12):
        small = query_index(index, "a b c", k)
        big = query_index(index, "a b c", k + 1)
        assert [h.unit_id for h in small] == [h.unit_id for h in big][: len(small)]


def test_concat_two_hits_with_headers_in_score_order():
    units = _units_from_texts(["first unit words", "second unit words"])
    hits = [ScoredUnit(1, 2.0), ScoredUnit(0, 1.0)]
    out = concat_retrieved(hits, units, cap=50, counter=C)
    assert out.index("[Unit 1]") < out.index("[Unit 0]")
    assert "first unit words" in out and "second unit words" in out


def test_concat_truncates_oversized_first_unit():
    units = _units_from_texts([" ".join(f"w{i}" for i in range(40)), "tail"])
    out = concat_retrieved([ScoredUnit(0, 1.0)], units, cap=10, counter=C)
    assert count_tokens(out, C) <= 10
    assert out.startswith("[Unit 0]")


def test_concat_drops_whole_trailing_units():
    units = _units_from_texts(["aa bb cc", "dd ee ff", "gg hh ii"])
    hits = [ScoredUnit(0, 3.0), ScoredUnit(1, 2.0), ScoredUnit(2, 1.0)]
    out = concat_retrieved(hits, units, cap=10, counter=C)  # each block is 5 tokens
    assert "[Unit 0]" in out and "[Unit 1]" in out and "[Unit 2]" not in out
    assert count_tokens(out, C) <= 10


def test_concat_empty_hits():
    assert concat_retrieved([], [], cap=10, counter=C) == ""


def test_tiling_splits_oversized_single_word():
    # A word larger than the budget is split at char granularity; the
    # token bound must hold on every piece and concatenation still round-trips.
    text = "tiny " + "x" * 300 + " tail"
    units = build_units(text, 5, BYTE_PER_4_COUNTER)
    assert "".join(u.text for u in units) == text
    assert all(u.token_count <= 5 for u in units)
    assert len(units) > 3


def test_concat_unknown_unit_id_raises():
    units = _units_from_texts(["only one"])
    with pytest.raises(KeyError, match="99"):
        concat_retrieved([ScoredUnit(99, 1.0)], units, cap=10, counter=C)


# --- One-pass paths against the search paths they replace -------------------
# An external-vocab counter whose encoder reproduces a built-in count takes the
# search path (gallop/bisect tiling, recounting concat) with the same counts, so
# it is the oracle for the built-in scheme's direct path.

WS_ORACLE = external_vocab_counter(str.split, "whitespace-approx by search")
B4_ORACLE = external_vocab_counter(lambda t: [0] * ((len(t.encode("utf-8")) + 3) // 4), "byte-per-4-approx by search")
ORACLES = [(C, WS_ORACLE), (BYTE_PER_4_COUNTER, B4_ORACLE)]

_spaces = st.sampled_from([" ", "  ", "\t", "\n", "\n\n", " \n ", "　", "\xa0", "\x85", "\x1c"])
_words = st.text(alphabet="abcxyzé中😀-.", min_size=1, max_size=40)
# Leading and trailing whitespace, whitespace runs, non-ASCII words and spaces,
# and words far larger than small byte budgets.
tiling_texts = st.one_of(
    st.lists(st.one_of(_words, _spaces), max_size=60).map("".join),
    st.text(alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=200),
)


@given(text=tiling_texts, budget=st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_one_pass_tiling_matches_search(text, budget):
    for counter, _ in ORACLES:
        expected = [(s, e, count_tokens(text[s:e], counter)) for s, e in _tile_spans(text, budget, counter)]
        for fn in (segment_stream, build_units):
            assert [(p.start, p.end, p.token_count) for p in fn(text, budget, counter)] == expected


def test_one_pass_tiling_matches_search_at_chunk_scale():
    rng = random.Random(11)
    vocab = ["alpha", "beta", "gamma", "délta", "x" * 70]
    text = " ".join(rng.choice(vocab) + rng.choice(["", "\n"]) for _ in range(6000))
    for counter, oracle in ORACLES:
        for budget in (1, 7, 500, 5000):
            got = [(c.start, c.end, c.token_count) for c in segment_stream(text, budget, counter)]
            assert got == [(c.start, c.end, c.token_count) for c in segment_stream(text, budget, oracle)]


def brute_force_bm25_filtered(texts, units, query, exclude_span, scope_end, b):
    return [
        (i, score)
        for i, score in brute_force_bm25(texts, query, b=b)
        if not (exclude_span is not None and units[i].start < exclude_span[1] and exclude_span[0] < units[i].end)
        and not (scope_end is not None and units[i].end > scope_end)
    ]


@given(
    texts=st.lists(
        st.lists(st.sampled_from("v0 v1 v2 v3 v4 v5 -- Q".split()), max_size=12).map(" ".join), min_size=1, max_size=14
    ),
    query=st.lists(st.sampled_from("v0 v1 v2 v5 v9 q".split()), max_size=7).map(" ".join),
    k=st.integers(min_value=1, max_value=16),
    b=st.sampled_from([0.01, 0.75, 1.0]),
    window=st.one_of(st.none(), st.tuples(st.integers(0, 80), st.integers(0, 30))),
    scope=st.one_of(st.none(), st.integers(0, 120)),
)
@settings(max_examples=200, deadline=None)
def test_postings_query_equals_brute_force_exactly(texts, query, k, b, window, scope):
    # Small vocabularies give repeated query terms, equal-score ties and empty units.
    units = _units_from_texts(texts)
    exclude = None if window is None else (window[0], window[0] + window[1])
    hits = query_index(build_index(units, b=b), query, k, exclude_span=exclude, scope_end=scope)
    expected = brute_force_bm25_filtered(texts, units, query, exclude, scope, b)
    assert [(h.unit_id, h.score) for h in hits] == expected[:k]


@given(
    texts=st.lists(tiling_texts, min_size=1, max_size=8),
    picks=st.lists(st.integers(min_value=0, max_value=7), max_size=8),
    cap=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=200, deadline=None)
def test_running_count_concat_matches_recount(texts, picks, cap):
    units = _units_from_texts(texts)
    hits = [ScoredUnit(unit_id=i % len(units), score=1.0) for i in picks]
    for counter, oracle in ORACLES:
        assert concat_retrieved(hits, units, cap, counter) == concat_retrieved(hits, units, cap, oracle)


@given(
    text=st.text(alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=200)
    | st.text(alphabet="aZ9 -_.é\u212a\u0130", max_size=60)
)
@settings(max_examples=200, deadline=None)
def test_index_tokens_are_lowercased_alphanumeric_runs(text):
    # U+212A (Kelvin sign) and U+0130 lower-case to ASCII letters.
    assert index_tokens(text) == re.findall(r"[a-z0-9]+", text.lower())
