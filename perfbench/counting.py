"""The benchmark's own token counting, tiling, BM25 and answer normalization.

Written apart from the program so its outputs can be checked against an
independent computation: the definitions match the documented ones
(whitespace words; ceil(utf-8 bytes / 4); Okapi BM25 with ties by unit id),
the algorithms do not (tiling is one linear scan, not a search over cuts).
"""

from __future__ import annotations

import bisect
import collections
import math
import re
import string

_WORD = re.compile(r"\S+")
_WORD_START = re.compile(r"(?<=\s)\S")
_TERM = re.compile(r"[a-z0-9]+")
_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = str.maketrans("", "", string.punctuation)


def count(text: str, scheme: str) -> int:
    if scheme == "whitespace-approx":
        return len(text.split())
    if scheme == "byte-per-4-approx":
        return (len(text.encode("utf-8")) + 3) // 4
    raise ValueError(f"unsupported scheme {scheme!r}")


def _last_word_start(text: str, lo: int, hi: int) -> int:
    """Largest word start c with lo < c <= hi, or -1; scans back from hi in small windows."""
    a = hi
    while a > lo + 1:
        a = max(lo + 1, a - 64)
        starts = [m.start() for m in _WORD_START.finditer(text, a, hi + 1)]
        if starts:
            return starts[-1]
    return -1


def tile(text: str, budget: int, scheme: str) -> list[tuple[int, int]]:
    """Greedy maximal tiling at word starts: each piece is the longest run of
    whole words (with trailing whitespace) within ``budget`` tokens.

    Assumes no single word exceeds the budget and, under byte-per-4, ASCII
    text (true of every generated input).
    """
    if not text:
        return []
    if text[0].isspace():
        raise ValueError("generated documents start with a word")
    if scheme == "whitespace-approx":
        return [m.span() for m in re.finditer(r"(?:\S+\s*){1,%d}" % budget, text)]
    _need_ascii(text)
    # ceil(bytes / 4) <= budget  <=>  bytes <= 4 * budget
    cap = 4 * budget
    spans, pos = [], 0
    while len(text) - pos > cap:
        cut = _last_word_start(text, pos, pos + cap)
        if cut == -1:
            raise ValueError("a word exceeds the budget")
        spans.append((pos, cut))
        pos = cut
    return spans + [(pos, len(text))]


def _need_ascii(text: str) -> None:
    # One char is one UTF-8 byte, so char offsets count bytes.
    if not text.isascii():
        raise ValueError("byte-per-4 counting here assumes ASCII text, as generated")


def truncate(text: str, budget: int, scheme: str) -> str:
    """Longest prefix ending at a word end within ``budget`` tokens."""
    if count(text, scheme) <= budget:
        return text
    ends = [m.end() for m in _WORD.finditer(text)]
    if scheme == "whitespace-approx":
        return text[: ends[budget - 1]] if budget > 0 else ""
    _need_ascii(text)
    j = bisect.bisect_right(ends, 4 * budget) - 1
    return text[: ends[j]] if j >= 0 else ""


def strip_thinking(text: str) -> str:
    out, pos = [], 0
    while True:
        i = text.find("<think>", pos)
        if i == -1:
            return "".join(out) + text[pos:]
        out.append(text[pos:i])
        j = text.find("</think>", i)
        if j == -1:
            return "".join(out)
        pos = j + len("</think>")


def overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Two half-open char spans share at least one char."""
    return a[0] < b[1] and b[0] < a[1]


def normalize(text: str) -> str:
    text = text.lower().translate(_PUNCT)
    return " ".join(_ARTICLES.sub(" ", text).split())


def terms(text: str) -> list[str]:
    return _TERM.findall(text.lower())


class Bm25:
    """Okapi BM25 over unit texts, scored unit by unit as documented."""

    def __init__(self, texts: list[str], k1: float, b: float):
        self.k1, self.b = k1, b
        self.tfs = [collections.Counter(terms(text)) for text in texts]
        self.lengths = [sum(tf.values()) for tf in self.tfs]
        self.avg = sum(self.lengths) / len(texts)
        self._df: dict[str, int] = {}

    def df(self, term: str) -> int:
        if term not in self._df:
            self._df[term] = sum(1 for tf in self.tfs if term in tf)
        return self._df[term]

    def query(self, query: str, k: int, exclude: tuple[int, int] | None, spans: list[tuple[int, int]]) -> list[int]:
        n = len(self.tfs)
        q = terms(query)
        idf = {t: math.log((n - self.df(t) + 0.5) / (self.df(t) + 0.5) + 1) for t in q}
        scores: dict[int, float] = {}
        for uid, tf in enumerate(self.tfs):
            if exclude and overlaps(spans[uid], exclude):
                continue
            norm = self.k1 * (1 - self.b + self.b * self.lengths[uid] / self.avg)
            score = 0.0
            for t in q:
                f = tf.get(t, 0)
                if f:
                    score += idf[t] * f * (self.k1 + 1) / (f + norm)
            if score > 0.0:
                scores[uid] = score
        return sorted(scores, key=lambda uid: (-scores[uid], uid))[:k]


def concat(unit_ids: list[int], unit_texts: list[str], cap: int, scheme: str) -> str:
    """Hit units in order as "[Unit i]" blocks, whole units only, under ``cap``."""
    blocks: list[str] = []
    for uid in unit_ids:
        block = f"[Unit {uid}]\n{unit_texts[uid]}"
        if count("\n\n".join(blocks + [block]), scheme) <= cap:
            blocks.append(block)
        elif not blocks:
            return truncate(block, cap, scheme)
        else:
            break
    return "\n\n".join(blocks)
