"""Deterministic input generation for the benchmark workloads.

Everything a run feeds the program is made here from the run seed: a
Zipf-weighted synthetic vocabulary, a distractor pool, QA records whose
single gold document carries a needle sentence, the run config, and the
scripted-backend (and scripted-evaluator) response files. Nothing is
downloaded. The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from counting import count

# Corpus words use these letters only; needle words start with "xq"/"qx",
# so no distractor can ever contain a needle term.
_CONSONANTS = "bdfghklmnprstvw"
_VOWELS = "aeiou"
VOCAB_SIZE = 6000
ZIPF_EXPONENT = 1.07
COMMON_WORDS = 40  # query filler and memory text come from the head of the vocabulary

ATTRIBUTES = ("harbor code", "founding year", "archive number", "river name", "signal word", "guild motto")

STOP_VARIANTS = ("STOP", "stop", "<think>memory holds the answer</think>\nSTOP")
MEMORY_FRACTIONS = (0.12, 0.48, 0.9, 1.25)  # of budget.memory; the last one is over budget


@dataclass(frozen=True)
class Scale:
    """Document size, budgets and question count for one workload at one scale."""

    target: int
    questions: int
    config: dict


FULL_CONFIG = {
    "budget": {"query": 1000, "retrieved": 2000, "recurrent": 5000, "memory": 1000, "reserve": 1000,
               "max_generation": 1536, "retrieval_unit": 500},
    "total_input_budget": 10000,
    "retrieval": {"unit_tokens": 500, "k1": 1.2, "b": 0.75, "scope": "full"},
    "rag": {"unit_tokens": 1000, "top_k": 6, "context_cap": 8000},
    "rewards": {"alpha_gt": 1.0, "alpha_early": 0.2, "alpha_call": 0.1, "alpha_mem": 0.1, "gamma": 0.9},
}

# Same code paths at a few thousand tokens: budgets shrink with the documents.
SMALL_CONFIG = {
    "budget": {"query": 64, "retrieved": 96, "recurrent": 160, "memory": 48, "reserve": 32,
               "max_generation": 64, "retrieval_unit": 24},
    "total_input_budget": 400,
    "retrieval": {"unit_tokens": 24, "k1": 1.2, "b": 0.75, "scope": "full"},
    "rag": {"unit_tokens": 48, "top_k": 6, "context_cap": 320},
    "rewards": dict(FULL_CONFIG["rewards"]),
}


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    full: Scale
    small: Scale
    group_size: int = 1
    stop_threshold: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fullread-1m", "whitespace-approx",
                 full=Scale(1_048_576, 1, FULL_CONFIG), small=Scale(8192, 1, SMALL_CONFIG)),
        Workload("rollouts-128k", "whitespace-approx",
                 full=Scale(131_072, 3, FULL_CONFIG), small=Scale(2048, 2, SMALL_CONFIG), group_size=4, stop_threshold=3),
        Workload("baselines-b4-128k", "byte-per-4-approx",
                 full=Scale(131_072, 12, FULL_CONFIG), small=Scale(2048, 2, SMALL_CONFIG)),
    )
}


@dataclass
class Corpus:
    """Generated documents plus what the scripts and checks need to know."""

    docs: dict[str, tuple[str, str]] = field(default_factory=dict)  # id -> (title, body)
    tokens: dict[str, int] = field(default_factory=dict)  # distractor id -> body tokens
    qa: list[dict] = field(default_factory=list)  # id, question, answer, subject, needle, gold_doc


def _vocabulary(rng: random.Random) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words: set[str] = set()
    out: list[str] = []
    while len(out) < VOCAB_SIZE:
        w = "".join(rng.choice(syllables) for _ in range(rng.choice((1, 2, 2, 3, 3, 4))))
        if w not in words and w not in ("a", "an", "the"):
            words.add(w)
            out.append(w)
    return out


def _needle_word(rng: random.Random, prefix: str) -> str:
    return prefix + "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))


class TextSource:
    """Zipf-distributed sentences over the generated vocabulary."""

    def __init__(self, label: str):
        self.rng = random.Random(label)
        # One vocabulary for every seed, so text sizes per word do not vary
        # with the seed; the seed picks the draws, documents and needles.
        self.vocab = _vocabulary(random.Random("infmem-bench:vocabulary"))
        # Word draws are the bulk of the input; numpy makes them in C.
        self.draw = np.random.default_rng(int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big"))
        cum = np.cumsum(1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT)
        self.cdf = cum / cum[-1]
        self.common = self.vocab[:COMMON_WORDS]

    def sentences(self, n_words: int) -> list[str]:
        idx = np.minimum(np.searchsorted(self.cdf, self.draw.random(n_words), side="right"), VOCAB_SIZE - 1)
        vocab = self.vocab
        words = [vocab[i] for i in idx.tolist()]
        out, i = [], 0
        while i < n_words:
            n = min(self.rng.randint(8, 20), n_words - i)
            out.append(" ".join(words[i : i + n]) + ".")
            i += n
        return out

    def body(self, n_words: int) -> str:
        sents = self.sentences(n_words)
        # A paragraph break every few sentences keeps newlines in the text.
        return " ".join(s + ("\n" if k % 5 == 4 else "") for k, s in enumerate(sents)).replace("\n ", "\n")


def make_corpus(src: TextSource, scale: Scale, scheme: str) -> Corpus:
    """QA records with one needle-bearing gold document each, and a distractor pool.

    The pool holds 1.15x the target in tokens, so each synthesized document is
    filled to within a few hundred tokens of its target.
    """
    rng = src.rng
    corpus = Corpus()
    small = scale.target < 100_000
    lo, hi = (20, 80) if small else (150, 600)
    for i in range(scale.questions):
        subject, answer = _needle_word(rng, "xq"), _needle_word(rng, "qx")
        attr = ATTRIBUTES[rng.randrange(len(ATTRIBUTES))]
        needle = f"The {attr} of {subject} is {answer}."
        sents = src.sentences(rng.randint(lo, hi))
        sents.insert(rng.randint(1, len(sents) - 1), needle)
        doc_id = f"gold{i:03d}"
        corpus.docs[doc_id] = (" ".join(rng.sample(src.vocab[:500], 2)), " ".join(sents))
        corpus.qa.append({
            "id": f"q{i:03d}", "question": f"What is the {attr} of {subject}?", "answer": answer,
            "subject": subject, "attr": attr, "needle": needle, "gold_doc": doc_id,
        })
    total, k = 0, 0
    while total < scale.target * 1.15:
        body = src.body(rng.randint(lo, hi))
        corpus.docs[f"d{k:05d}"] = (" ".join(rng.sample(src.vocab[:500], 2)), body)
        corpus.tokens[f"d{k:05d}"] = count(body, scheme)
        total += corpus.tokens[f"d{k:05d}"]
        k += 1
    return corpus


def _retrieve(query: str, top_k: int, think: bool) -> str:
    call = f"FUNCTION: retrievesearch\nARGS: {json.dumps({'query': query, 'top_k': top_k})}"
    return f"<think>look for {query.split()[0]}</think>\n{call}" if think else call


def _memory_text(src: TextSource, tokens: int, scheme: str, answer: str | None) -> str:
    """Frequent words (the answer first, if given) until ``tokens`` tokens under ``scheme``."""
    words = [answer] if answer else []
    size = len(answer) if answer else -1  # characters of " ".join(words); ASCII, so bytes too
    while (len(words) if scheme == "whitespace-approx" else (size + 3) // 4) < tokens:
        words.append(src.rng.choice(src.common))
        size += 1 + len(words[-1])
    return " ".join(words)


def _write(src: TextSource, memory_budget: int, step: int, scheme: str, answer: str | None) -> tuple[str, str]:
    """(scripted write generation, the memory body it carries)."""
    frac = MEMORY_FRACTIONS[step % len(MEMORY_FRACTIONS)]
    body = _memory_text(src, max(1, int(frac * memory_budget)), scheme, answer)
    prefix = "<think>fuse chunk and memory</think>\n" if step % 5 == 0 else ""
    return f"{prefix}Updated memory:\n{body}", body


def _answer(text: str) -> str:
    return f"<think>read memory</think>\n{text}"


def _query(src: TextSource, qa: dict) -> str:
    """Needle terms (the attribute words and the subject) mixed with frequent corpus words."""
    words = qa["attr"].split() + [qa["subject"]] + src.rng.sample(src.common[:10], src.rng.randint(1, 3))
    src.rng.shuffle(words)
    return " ".join(words)


def make_scripts(src: TextSource, corpus: Corpus, workload: Workload, scale: Scale, length: int) -> dict:
    """Scripted-backend files and the expectations the checks need.

    Returns {"scripts": {name: script}, "expect": {instance_id: {...}}}.
    """
    cfg = scale.config["budget"]
    mem_budget = cfg["memory"]
    scheme = workload.scheme
    scripts: dict[str, dict] = {}
    expect: dict[str, dict] = {}
    # The document is target/recurrent chunks plus the "Document i: title"
    # headers; 1.1x with a margin covers every seed.
    t_max = int(length * 1.1 / cfg["recurrent"]) + 8
    for i, qa in enumerate(corpus.qa):
        iid = f"{qa['id']}__L{length}"
        gold, wrong = qa["answer"], f"qxnone{i}"
        if workload.name == "fullread-1m":
            prethink, write, steps = [], [], []
            for t in range(1, t_max + 1):
                q, k = _query(src, qa), (6 if t % 2 else 10)
                prethink.append(_retrieve(q, k, think=t % 7 == 0))
                gen, body = _write(src, mem_budget, t, scheme, gold if t >= 3 else None)
                write.append(gen)
                steps.append({"query": q, "top_k": k, "memory": body})
            scripts.setdefault("run", {})[iid] = {"prethink": prethink, "write": write, "answer": [_answer(gold)]}
            expect[iid] = {"rollouts": [{"steps": steps, "answer": gold}]}
        elif workload.name == "rollouts-128k":
            entry = {"prethink": [], "write": [], "answer": []}
            evaluator: list[str] = []
            rollouts = []
            for r in range(workload.group_size):
                g_first = r + 1 if r % 2 == 0 else 1  # first step whose memory holds the gold
                steps = []
                for t in range(1, r + 2):
                    q = _query(src, qa)
                    entry["prethink"].append(_retrieve(q, 4 + t % 5, think=False))
                    steps.append({"query": q, "top_k": 4 + t % 5})
                entry["prethink"].extend(STOP_VARIANTS)
                steps.extend({"query": None, "top_k": None} for _ in range(2))
                for t, st in enumerate(steps, start=1):
                    gen, st["memory"] = _write(src, mem_budget, t + r, scheme, gold if t >= g_first else None)
                    entry["write"].append(gen)
                ans = gold if (r + i) % 4 != 2 else wrong
                entry["answer"].append(_answer(ans))
                evaluator.extend([_answer(wrong)] * (g_first - 1) + [_answer(gold)])
                rollouts.append({"steps": steps, "answer": ans, "stop_step": r + 4})
            scripts.setdefault("run", {})[iid] = entry
            scripts.setdefault("evaluator", {})[iid] = {"answer": evaluator}
            expect[iid] = {"rollouts": rollouts}
        else:  # baselines-b4-128k: memagent, then rag-top6
            writes, steps = [], []
            for t in range(1, t_max + 1):
                gen, body = _write(src, mem_budget, t, scheme, gold if t >= 2 + i else None)
                writes.append(gen)
                steps.append({"query": None, "top_k": None, "memory": body})
            mem_ans = gold if i % 3 != 1 else wrong
            rag_ans = gold if i % 3 != 2 else wrong
            scripts.setdefault("memagent", {})[iid] = {"write": writes, "answer": [_answer(mem_ans)]}
            scripts.setdefault("rag", {})[iid] = {"answer": [_answer(rag_ans)]}
            expect[iid] = {"rollouts": [{"steps": steps, "answer": mem_ans}], "rag_answer": rag_ans}
        expect[iid].update(answer=gold, subject=qa["subject"], needle=qa["needle"], gold_doc=qa["gold_doc"])
    return {"scripts": scripts, "expect": expect}


def _config_yaml(config: dict, scheme: str) -> str:
    lines = []
    for section, values in config.items():
        if isinstance(values, dict):
            lines.append(f"{section}:")
            lines.extend(f"  {k}: {v}" for k, v in values.items())
        else:
            lines.append(f"{section}: {values}")
    lines += ["tokenizer:", f"  scheme: {scheme}"]
    return "\n".join(lines) + "\n"


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def make_inputs(workload_name: str, seed: int, small: bool, workdir: Path) -> tuple[dict, Corpus]:
    """Write every input file of one run into ``workdir``; return (plan, corpus)."""
    workload = WORKLOADS[workload_name]
    scale = workload.small if small else workload.full
    src = TextSource(f"infmem-bench:{workload_name}:{seed}")
    corpus = make_corpus(src, scale, workload.scheme)
    made = make_scripts(src, corpus, workload, scale, scale.target)
    workdir.mkdir(parents=True, exist_ok=True)
    gold_ids = {qa["gold_doc"] for qa in corpus.qa}
    _write_jsonl(workdir / "qa.jsonl", (
        {"id": qa["id"], "question": qa["question"], "answers": [qa["answer"]], "source": "other",
         "gold_docs": [{"id": qa["gold_doc"], "title": corpus.docs[qa["gold_doc"]][0],
                        "text": corpus.docs[qa["gold_doc"]][1]}]}
        for qa in corpus.qa
    ))
    _write_jsonl(workdir / "distractors.jsonl", (
        {"id": doc_id, "title": title, "text": body}
        for doc_id, (title, body) in corpus.docs.items() if doc_id not in gold_ids
    ))
    (workdir / "config.yaml").write_text(_config_yaml(scale.config, workload.scheme), encoding="utf-8")
    script_paths = {}
    for name, script in made["scripts"].items():
        path = workdir / f"script_{name}.json"
        path.write_text(json.dumps(script, ensure_ascii=False, sort_keys=True), encoding="utf-8")
        script_paths[name] = str(path)
    plan = {
        "workload": workload_name,
        "seed": seed,
        "small": small,
        "scheme": workload.scheme,
        "target": scale.target,
        "questions": scale.questions,
        "group_size": workload.group_size,
        "stop_threshold": workload.stop_threshold,
        "config": scale.config,
        "scripts": script_paths,
        "expect": made["expect"],
    }
    (workdir / "plan.json").write_text(json.dumps(plan, ensure_ascii=False, sort_keys=True), encoding="utf-8")
    return plan, corpus
