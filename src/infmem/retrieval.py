"""Streaming chunker (reading view) and BM25 index over retrieval units.

The same document is tiled twice: coarse streaming chunks drive sequential
reading, fine retrieval units back an Okapi BM25 index for global in-document
lookup. Both tilings are exact: concatenating segment texts in order
reproduces the document byte for byte.

Tiling is linear for the built-in token counters, whose counts add up over
words: one regex pass cuts every ``budget`` words (``whitespace-approx``) or at
the last word start within ``4 * budget`` UTF-8 bytes (``byte-per-4-approx``),
and each piece's count comes from the same cut. ``external-vocab`` counts do
not add up, so it searches for each cut with ``count_tokens``; that search is
also the reference the one-pass cuts are tested against.

The index stores postings, term -> (unit ids, term frequencies), and each
unit's length norm, so a query scores only the units that contain its terms
(Robertson & Zaragoza, "The Probabilistic Relevance Framework: BM25 and
Beyond", 2009).

Index tokenization (lowercase, split on non-alphanumeric) is deliberately
independent of the budget TokenCounter so retrieval quality does not depend
on how budgets are approximated.
"""

from __future__ import annotations

import bisect
import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .budget import TokenCounter, count_tokens, truncate_to_budget, utf8_prefix_end, word_run_re

_WORD_RE = re.compile(r"\S+")
# Every byte but an ASCII digit or lowercase letter becomes a separator.
_NON_TERM_BYTES_TO_SPACE = bytes(c if 48 <= c <= 57 or 97 <= c <= 122 else 32 for c in range(256))
_THROUGH_LAST_WORD_START_RE = re.compile(r"(?s).+(?<=\s)(?=\S)")

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_UNIT_TOKENS = 500


@dataclass(frozen=True)
class StreamChunk:
    index: int
    text: str
    start: int
    end: int
    token_count: int


@dataclass(frozen=True)
class RetrievalUnit:
    unit_id: int
    text: str
    start: int
    end: int
    token_count: int


@dataclass(frozen=True)
class ScoredUnit:
    unit_id: int
    score: float


def index_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric terms, the ``[a-z0-9]+`` runs of ``text.lower()``; the index-side tokenization.

    Non-ASCII characters are encoded as ``?`` and so separate terms like any
    other non-term character; a byte translation then splits in C.
    """
    ascii_text = text.lower().encode("ascii", "replace")
    return ascii_text.translate(_NON_TERM_BYTES_TO_SPACE).decode("ascii").split()


def _tile_spans(text: str, budget: int, counter: TokenCounter) -> list[tuple[int, int]]:
    """Non-overlapping spans covering [0, len(text)), each within ``budget`` tokens.

    Cut points fall on word starts so inter-word whitespace stays with the
    preceding segment; a single word larger than the budget is split at char
    granularity (the only case where a boundary is not on whitespace).
    Each cut is searched with ``count_tokens``, which works for any counter:
    ``external-vocab`` tiles this way, and it is the reference ``_tile``'s
    one-pass cuts are tested against.
    """
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    if not text:
        return []
    word_starts = [m.start() for m in _WORD_RE.finditer(text)]
    spans: list[tuple[int, int]] = []
    pos = 0
    while pos < len(text):
        first = bisect.bisect_right(word_starts, pos)
        n_cuts = len(word_starts) - first + 1

        def cut_at(i: int) -> int:
            return word_starts[first + i] if first + i < len(word_starts) else len(text)

        def fits(i: int) -> bool:
            return count_tokens(text[pos : cut_at(i)], counter) <= budget

        if not fits(0):
            # Oversized head word (or whitespace run): char-level split.
            limit = cut_at(0)
            lo, hi, best = pos + 1, limit, pos + 1
            while lo <= hi:
                mid = (lo + hi) // 2
                if count_tokens(text[pos:mid], counter) <= budget:
                    best = mid
                    lo = mid + 1
                else:
                    hi = mid - 1
        else:
            # Gallop then bisect; probe cost stays proportional to chunk size.
            lo, hi = 0, 1
            while True:
                idx = min(hi, n_cuts - 1)
                if fits(idx):
                    lo = idx
                    if idx == n_cuts - 1:
                        break
                    hi *= 2
                else:
                    hi = idx
                    break
            if lo < n_cuts - 1:
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if fits(mid):
                        lo = mid
                    else:
                        hi = mid
            best = cut_at(lo)
        spans.append((pos, best))
        pos = best
    return spans


def _tile(text: str, budget: int, counter: TokenCounter) -> list[tuple[int, int, int]]:
    """``(start, end, token_count)`` for each span of ``_tile_spans``.

    The built-in schemes have additive counts, so they cut in one pass.
    ``whitespace-approx`` cuts at every ``budget``-th word start.
    ``byte-per-4-approx`` cuts at the last word start within ``4 * budget``
    bytes of the span start, or splits a longer word at the byte limit.
    ``external-vocab`` counts are not additive: it keeps the search.
    """
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    if not text:
        return []
    if counter.scheme == "whitespace-approx":
        if text.isspace():
            return [(0, len(text), 0)]
        spans = [m.span() for m in word_run_re(min(budget, len(text))).finditer(text)]
        last_start, last_end = spans[-1]
        last = (last_start, last_end, count_tokens(text[last_start:last_end], counter))
        return [(s, e, budget) for s, e in spans[:-1]] + [last]
    if counter.scheme == "byte-per-4-approx":
        pieces = []
        pos = 0
        while pos < len(text):
            end = utf8_prefix_end(text, pos, 4 * budget)
            if end < len(text):
                # endpos ``end + 1`` lets the lookahead see ``text[end]``, so ``end`` can be a word start.
                word_start = _THROUGH_LAST_WORD_START_RE.match(text, pos, end + 1)
                if word_start:
                    end = word_start.end()
            pieces.append((pos, end, count_tokens(text[pos:end], counter)))
            pos = end
        return pieces
    return [(s, e, count_tokens(text[s:e], counter)) for s, e in _tile_spans(text, budget, counter)]


def segment_stream(long_text: str, chunk_budget: int, counter: TokenCounter) -> list[StreamChunk]:
    """Coarse sequential reading view; default budget is the recurrent chunk size."""
    return [
        StreamChunk(index=i, text=long_text[s:e], start=s, end=e, token_count=n)
        for i, (s, e, n) in enumerate(_tile(long_text, chunk_budget, counter))
    ]


def build_units(long_text: str, unit_budget: int, counter: TokenCounter) -> list[RetrievalUnit]:
    """Fine-grained retrieval view; default budget 500 tokens."""
    return [
        RetrievalUnit(unit_id=i, text=long_text[s:e], start=s, end=e, token_count=n)
        for i, (s, e, n) in enumerate(_tile(long_text, unit_budget, counter))
    ]


@dataclass
class Bm25Index:
    """Postings BM25 index: ``postings[term]`` is ``(unit ids ascending, term freqs)``.

    ``norms[u]`` is unit ``u``'s length norm ``k1 * (1 - b + b * len / avg)``.
    """

    unit_count: int
    doc_freq: dict[str, int]
    postings: dict[str, tuple[list[int], list[int]]]
    lengths: list[int]
    norms: list[float]
    spans: list[tuple[int, int]]
    avg_length: float
    k1: float
    b: float


def build_index(units: Sequence[RetrievalUnit], k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Bm25Index:
    """Okapi BM25 statistics over the units' index-tokenized texts."""
    if not units:
        raise ValueError("cannot build an index over zero units")
    if k1 <= 0 or b <= 0:
        raise ValueError(f"k1 and b must be > 0, got k1={k1}, b={b}")
    postings: dict[str, tuple[list[int], list[int]]] = {}
    lengths: list[int] = []
    for unit_id, unit in enumerate(units):
        tokens = index_tokens(unit.text)
        for term, freq in Counter(tokens).items():
            posting = postings.get(term)
            if posting is None:
                posting = postings[term] = ([], [])
            posting[0].append(unit_id)
            posting[1].append(freq)
        lengths.append(len(tokens))
    avg_length = sum(lengths) / len(units)
    return Bm25Index(
        unit_count=len(units),
        doc_freq={term: len(ids) for term, (ids, _) in postings.items()},
        postings=postings,
        lengths=lengths,
        norms=[k1 * (1 - b + b * n / avg_length) for n in lengths] if avg_length else [],
        spans=[(u.start, u.end) for u in units],
        avg_length=avg_length,
        k1=k1,
        b=b,
    )


def _spans_intersect(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def query_index(
    index: Bm25Index,
    query: str,
    k: int,
    exclude_span: tuple[int, int] | None = None,
    scope_end: int | None = None,
) -> list[ScoredUnit]:
    """Top-k units by Okapi BM25 score, ties broken by ascending unit id.

    idf = ln((N - df + 0.5) / (df + 0.5) + 1), summed per query token
    occurrence. Units whose char span intersects ``exclude_span`` are
    skipped, as are units past ``scope_end`` when retrieval is restricted
    to the already-streamed prefix. Zero-score units are never returned.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = index_tokens(query)
    if not terms or index.avg_length == 0:
        return []
    k1_plus_1 = index.k1 + 1
    norms = index.norms
    scores = [0.0] * index.unit_count
    for term in terms:
        posting = index.postings.get(term)
        if posting is None:
            continue
        df = index.doc_freq[term]
        idf = math.log((index.unit_count - df + 0.5) / (df + 0.5) + 1)
        for unit_id, freq in zip(*posting):
            scores[unit_id] += idf * freq * k1_plus_1 / (freq + norms[unit_id])
    # Pop in (-score, unit_id) order and filter lazily: only the popped units are checked.
    ranked = [(-score, unit_id) for unit_id, score in enumerate(scores) if score > 0.0]
    heapq.heapify(ranked)
    hits: list[ScoredUnit] = []
    while ranked and len(hits) < k:
        neg_score, unit_id = heapq.heappop(ranked)
        span = index.spans[unit_id]
        if exclude_span is not None and _spans_intersect(span, exclude_span):
            continue
        if scope_end is not None and span[1] > scope_end:
            continue
        hits.append(ScoredUnit(unit_id=unit_id, score=-neg_score))
    return hits


def concat_retrieved(
    hits: Sequence[ScoredUnit],
    units: Mapping[int, RetrievalUnit] | Sequence[RetrievalUnit],
    cap: int,
    counter: TokenCounter,
) -> str:
    """Join hit units in score order under ``cap`` tokens, keeping provenance.

    Whole trailing units are dropped to fit; if even the first unit exceeds
    the cap it is truncated at a word boundary.
    """
    if not hits:
        return ""
    by_id = units if isinstance(units, Mapping) else {u.unit_id: u for u in units}
    blocks: list[str] = []
    used = 0  # whitespace-approx: words so far; byte-per-4-approx: UTF-8 bytes so far
    for hit in hits:
        if hit.unit_id not in by_id:
            raise KeyError(f"hit references unknown unit id {hit.unit_id}")
        block = f"[Unit {hit.unit_id}]\n{by_id[hit.unit_id].text}"
        # Running count of "\n\n".join(blocks + [block]): the separator adds no word and 2 bytes.
        if counter.scheme == "whitespace-approx":
            total = used + count_tokens(block, counter)
            fits = total <= cap
        elif counter.scheme == "byte-per-4-approx":
            total = used + len(block.encode("utf-8")) + (2 if blocks else 0)
            fits = (total + 3) // 4 <= cap
        else:
            total = 0
            fits = count_tokens("\n\n".join(blocks + [block]), counter) <= cap
        if fits:
            blocks.append(block)
            used = total
        elif not blocks:
            return truncate_to_budget(block, cap, counter, boundary="word")
        else:
            break
    return "\n\n".join(blocks)
