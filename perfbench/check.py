"""Correctness checks over one round's outputs, plus the counts the metrics need.

Every check compares the program's files with the benchmark's own
computation (counting.py) or with a property the method must have; none
compares with a stored copy of earlier output. A failed check raises
CheckError naming the instance, step and property.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import counting
from counting import count, overlaps

_WORD_AND_SPACE = re.compile(r"\S+\s*")
_TRAILING_WORD = re.compile(r"\S+\s*$")
_UNIT_HEADER = re.compile(r"^\[Unit (\d+)\]$", re.MULTILINE)


class CheckError(AssertionError):
    """An output of the program is wrong."""


def need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


@dataclass
class Totals:
    episodes: int = 0
    calls: int = 0
    prompt_tokens: int = 0
    traj_bytes: int = 0

    def add(self, other: "Totals") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class DocView:
    """The benchmark's own tilings and index of one synthesized document."""

    def __init__(self, text: str, plan: dict, needle: str, subject: str):
        self.text = text
        scheme, retrieval = plan["scheme"], plan["config"]["retrieval"]
        self.chunks = counting.tile(text, plan["config"]["budget"]["recurrent"], scheme)
        # Retrieval units exist only where the planner retrieves.
        self.unit_spans = counting.tile(text, retrieval["unit_tokens"], scheme) if "run" in plan["scripts"] else []
        self.units = [text[s:e] for s, e in self.unit_spans]
        self.k1, self.b = retrieval["k1"], retrieval["b"]
        self._bm25: counting.Bm25 | None = None
        at = text.find(needle)
        need(at >= 0 and text.find(needle, at + 1) == -1, "needle sentence must occur exactly once")
        self.needle_span = (at, at + len(needle))
        # The needle unit: the one holding the needle's subject, which every needle query names.
        subject_at = at + needle.index(subject)
        self.needle_unit = next((i for i, (s, e) in enumerate(self.unit_spans) if s <= subject_at < e), None)

    @property
    def bm25(self) -> counting.Bm25:
        if self._bm25 is None:
            self._bm25 = counting.Bm25(self.units, self.k1, self.b)
        return self._bm25


def check_tiling(text: str, spans: list[tuple[int, int]], budget: int, scheme: str, what: str) -> None:
    """Pieces concatenate to the text, fit the budget, and are maximal."""
    need("".join(text[s:e] for s, e in spans) == text, f"{what}: pieces do not concatenate to the document")
    need(all(spans[i][1] == spans[i + 1][0] for i in range(len(spans) - 1)), f"{what}: pieces are not contiguous")
    for i, (s, e) in enumerate(spans):
        need(count(text[s:e], scheme) <= budget, f"{what} {i}: over budget")
        if i + 1 < len(spans):
            # The next candidate cut: past the next word and its trailing whitespace.
            grown = _WORD_AND_SPACE.match(text, e).end()
            need(count(text[s:grown], scheme) > budget, f"{what} {i}: the next word would still fit")
    if scheme == "whitespace-approx":
        need(len(spans) == math.ceil(len(text.split()) / budget), f"{what}: count is not ceil(words / budget)")


def check_dataset(plan: dict, corpus, instances: list[dict]) -> dict[str, DocView]:
    """Synth output: every instance is the rendered plan order, gold kept, target met."""
    target = plan["target"]
    expect = plan["expect"]
    need(sorted(i["instance_id"] for i in instances) == sorted(expect), "dataset holds the wrong instance ids")
    views = {}
    for inst in instances:
        iid = inst["instance_id"]
        exp = expect[iid]
        order = inst["plan"]["order"]
        need(len(set(order)) == len(order), f"{iid}: a document appears twice")
        need(order.count(exp["gold_doc"]) == 1, f"{iid}: gold document missing")
        need(all(d in corpus.docs for d in order), f"{iid}: unknown document id")
        rendered = "\n\n".join(f"Document {i}: {corpus.docs[d][0]}\n{corpus.docs[d][1]}" for i, d in enumerate(order))
        need(inst["context"] == rendered, f"{iid}: context is not the rendered plan order")
        planned = sum(count(corpus.docs[d][1], plan["scheme"]) for d in order)
        need(inst["plan"]["planned_tokens"] == planned, f"{iid}: planned_tokens miscounted")
        need(planned <= target, f"{iid}: {planned} body tokens for target {target}")
        # Greedy fill: a distractor was left out only if it no longer fit.
        used = set(order)
        left_out = min((n for d, n in corpus.tokens.items() if d not in used), default=None)
        need(left_out is None or left_out > target - planned, f"{iid}: a left-out distractor would still fit")
        need(inst["actual_tokens"] == count(rendered, plan["scheme"]), f"{iid}: actual_tokens miscounted")
        need(inst["answers"] == [exp["answer"]], f"{iid}: answers changed")
        view = DocView(inst["context"], plan, exp["needle"], exp["subject"])
        budget = plan["config"]["budget"]
        check_tiling(view.text, view.chunks, budget["recurrent"], plan["scheme"], f"{iid} chunk")
        if view.unit_spans:
            check_tiling(view.text, view.unit_spans, plan["config"]["retrieval"]["unit_tokens"], plan["scheme"], f"{iid} unit")
        views[iid] = view
    return views


def _exact_slot(prompt: str, text: str, s: int, e: int, what: str) -> None:
    """text[s:e] sits in ``prompt`` as a whole piece: the neighbouring words of the document do not."""
    piece = text[s:e]
    p = prompt.find(piece)
    need(p >= 0, f"{what}: piece missing from prompt")
    if s > 0:
        before = _TRAILING_WORD.search(text, max(0, s - 256), s).group()
        need(not prompt.endswith(before, 0, p), f"{what}: prompt piece starts early")
    if e < len(text):
        after = _WORD_AND_SPACE.match(text, e).group().rstrip()
        need(not prompt.startswith(after, p + len(piece)), f"{what}: prompt piece ends late")


def _memory(plan: dict, body: str) -> str:
    return counting.truncate(body.strip(), plan["config"]["budget"]["memory"], plan["scheme"])


def _answer_line(text: str) -> str:
    for line in counting.strip_thinking(text).strip().splitlines():
        if line.strip():
            return line.strip()
    return ""


def prompts_of(traj: dict) -> list[str]:
    """Every stored prompt; one per backend call."""
    prompts = [s["prethink_prompt"] for s in traj["steps"]] + [s["write_prompt"] for s in traj["steps"]]
    return [p for p in prompts if p is not None] + [traj["answer_prompt"]]


def trajectory_counts(plan: dict, traj: dict) -> Totals:
    prompts = prompts_of(traj)
    return Totals(episodes=1, calls=len(prompts), prompt_tokens=sum(count(p, plan["scheme"]) for p in prompts))


def check_steps(plan: dict, view: DocView, traj: dict, exp: dict, question: str, oracle_stride: int) -> None:
    """An infmem or memagent trajectory, step by step, against the own tiling and index."""
    iid = traj["instance_id"]
    scheme = plan["scheme"]
    budget = plan["config"]["budget"]
    memory = ""
    for t, (st, es) in enumerate(zip(traj["steps"], exp["steps"]), start=1):
        where = f"{iid} step {t}"
        need(st["step_index"] == t, f"{where}: step index")
        need(st["memory_before"]["text"] == memory, f"{where}: memory_before is not the previous memory")
        need(st["verifier_flags"]["call_ok"], f"{where}: a scripted call failed to parse")
        chunk = view.chunks[t - 1]
        ctrl = st["control"]
        retrieved = ""
        if traj["mode"] == "memagent":
            need(ctrl is None and st["prethink_prompt"] is None, f"{where}: memagent made a planner call")
        elif es["query"] is not None:
            need(ctrl is not None
                 and (ctrl["action"], ctrl["query"], ctrl["top_k"]) == ("RETRIEVE", es["query"], es["top_k"]),
                 f"{where}: control record is not the scripted retrieval")
            need(st["retrieval_entry"] == [es["query"], es["top_k"]], f"{where}: retrieval entry")
            hits = st["retrieved_unit_ids"]
            need(len(hits) == len(set(hits)) and len(hits) <= es["top_k"], f"{where}: hit list size")
            need(all(0 <= h < len(view.units) for h in hits), f"{where}: unknown unit id")
            spans = view.unit_spans
            need(not any(overlaps(spans[h], chunk) for h in hits), f"{where}: a hit overlaps the current chunk")
            if (t - 1) % oracle_stride == 0:
                oracle = view.bm25.query(es["query"], es["top_k"], chunk, spans)
                need(hits == oracle, f"{where}: hits {hits} differ from BM25 {oracle}")
            g = view.needle_unit
            if not overlaps(spans[g], chunk):
                need(g in hits, f"{where}: needle query missed the needle unit")
            retrieved = counting.concat(hits, view.units, budget["retrieved"], scheme)
        else:
            need(ctrl is not None and ctrl["action"] == "STOP", f"{where}: expected a STOP vote")
            need(st["retrieved_unit_ids"] == [] and st["retrieval_entry"] is None, f"{where}: STOP retrieved")
        if st["prethink_prompt"] is not None:
            need(question in st["prethink_prompt"] and memory in st["prethink_prompt"], f"{where}: prethink prompt")
        wp = st["write_prompt"]
        need(wp is not None, f"{where}: no write")
        _exact_slot(wp, view.text, chunk[0], chunk[1], f"{where} chunk")
        if retrieved:
            p = wp.find(retrieved)
            need(p >= 0, f"{where}: retrieved context differs from the own concatenation")
            need(not wp.startswith("\n\n[Unit ", p + len(retrieved)), f"{where}: retrieved context over its cap")
        need(question in wp and memory in wp, f"{where}: write prompt lacks question or memory")
        memory = _memory(plan, es["memory"])
        after = st["memory_after"]
        need(after["text"] == memory, f"{where}: memory_after is not the extracted update")
        need(after["token_count"] == count(memory, scheme) <= budget["memory"], f"{where}: memory over budget")
        need(after["step"] == t and st["verifier_flags"]["memory_ok"], f"{where}: memory flags")


def check_infmem(plan: dict, view: DocView, traj: dict, exp: dict, oracle_stride: int) -> Totals:
    iid = traj["instance_id"]
    question = traj["question"]
    n_chunks = len(view.chunks)
    steps = traj["steps"]
    stop = exp.get("stop_step")
    if stop is None:  # full read
        need(len(steps) == n_chunks and traj["stop_step"] is None, f"{iid}: not a full read of {n_chunks} chunks")
        check_steps(plan, view, traj, exp, question, oracle_stride)
        expected_calls = 2 * n_chunks + 1
    else:
        need(traj["stop_step"] == stop == len(steps), f"{iid}: stop step {traj['stop_step']} != {stop}")
        check_steps(plan, view, {**traj, "steps": steps[:-1]}, exp, question, oracle_stride)
        last = steps[-1]
        need(last["control"]["action"] == "STOP" and last["write_prompt"] is None, f"{iid}: terminal step wrote")
        need(last["memory_after"]["text"] == last["memory_before"]["text"], f"{iid}: terminal step changed memory")
        need(traj["stop_count_at_termination"] == plan["stop_threshold"], f"{iid}: stop votes")
        expected_calls = 2 * stop
    return _final(plan, traj, exp["answer"], expected_calls)


def _final(plan: dict, traj: dict, answer: str, expected_calls: int) -> Totals:
    iid = traj["instance_id"]
    last_memory = traj["steps"][-1]["memory_after"]["text"] if traj["steps"] else traj["final_memory"]["text"]
    need(traj["final_memory"]["text"] == last_memory, f"{iid}: final memory is not the last memory")
    need(traj["question"] in traj["answer_prompt"] and last_memory in traj["answer_prompt"], f"{iid}: answer prompt")
    need(traj["answer"] == answer == _answer_line(traj["answer_generation"]), f"{iid}: answer")
    totals = trajectory_counts(plan, traj)
    need(totals.calls == expected_calls, f"{iid}: {totals.calls} backend calls, expected {expected_calls}")
    return totals


def check_memagent(plan: dict, view: DocView, traj: dict, exp: dict) -> Totals:
    iid = traj["instance_id"]
    n_chunks = len(view.chunks)
    need(traj["mode"] == "memagent" and len(traj["steps"]) == n_chunks, f"{iid}: memagent did not read every chunk")
    check_steps(plan, view, traj, exp, traj["question"], 1)
    return _final(plan, traj, exp["answer"], n_chunks + 1)


def check_rag(plan: dict, view: DocView, traj: dict, answer: str, oracle: bool) -> Totals:
    """rag-top6's context; ranked by the own BM25 when ``oracle``, else the units it names."""
    iid = traj["instance_id"]
    rag = plan["config"]["rag"]
    spans = counting.tile(view.text, rag["unit_tokens"], plan["scheme"])
    check_tiling(view.text, spans, rag["unit_tokens"], plan["scheme"], f"{iid} rag unit")
    units = [view.text[s:e] for s, e in spans]
    if oracle:
        hits = counting.Bm25(units, 1.2, 0.75).query(traj["question"], rag["top_k"], None, spans)
    else:
        hits = [int(u) for u in _UNIT_HEADER.findall(traj["final_memory"]["text"])]
        need(len(hits) == len(set(hits)) <= rag["top_k"] and all(h < len(units) for h in hits), f"{iid}: rag hits")
    gold = {i for i, span in enumerate(spans) if overlaps(span, view.needle_span)}
    need(bool(gold & set(hits)), f"{iid}: the question did not retrieve the needle")
    context = counting.concat(hits, units, rag["context_cap"], plan["scheme"])
    need(traj["steps"] == [] and traj["final_memory"]["text"] == context, f"{iid}: rag context is not the own top-k")
    return _final(plan, traj, answer, 1)


def own_eval(traj: dict, gold: str) -> tuple[int, bool, bool]:
    g = counting.normalize(gold)
    states = [counting.normalize(s["memory_after"]["text"]) for s in traj["steps"]]
    states.append(counting.normalize(traj["final_memory"]["text"]))
    em = int(counting.normalize(traj["answer"]) == g)
    return em, any(g in s for s in states), g in states[-1]


def check_eval(report: dict, trajs: list[dict], golds: dict[str, str], what: str) -> None:
    rows = report["per_instance"]
    need(len(rows) == len(trajs), f"{what}: eval covers {len(rows)} of {len(trajs)} trajectories")
    ems = []
    for row, traj in zip(rows, trajs):
        em, found, preserved = own_eval(traj, golds[traj["instance_id"]])
        ems.append(em)
        need(row["instance_id"] == traj["instance_id"], f"{what}: eval row order")
        need((row["em"], row["found"], row["preserved"]) == (em, found, preserved),
             f"{what} {traj['instance_id']}: eval em/found/preserved {row['em'], row['found'], row['preserved']} "
             f"!= {(em, found, preserved)}")
        need(row["steps_used"] == len(traj["steps"]), f"{what}: steps_used")
    need(abs(report["total"]["avg_em"] - sum(ems) / len(ems)) < 1e-12, f"{what}: total avg_em")


def check_rewards(plan: dict, lines: list[dict], trajs: list[dict], golds: dict[str, str]) -> None:
    w = plan["config"]["rewards"]
    g = plan["group_size"]
    need(len(lines) == len(trajs), "rewards: one record per rollout")
    by_group: dict[str, list[dict]] = {}
    for rec, traj in zip(lines, trajs):
        iid = traj["instance_id"]
        need(rec["instance_id"] == iid, "rewards: record order")
        gold = counting.normalize(golds[iid])
        em, _, _ = own_eval(traj, golds[iid])
        t_first = next((s["step_index"] for s in traj["steps"]
                        if gold in counting.normalize(s["memory_after"]["text"])), None)
        t_stop = traj["stop_step"]
        need(rec["t_first"] == t_first and rec["t_stop"] == t_stop, f"rewards {iid}: t_first/t_stop")
        d = None if t_first is None or t_stop is None else t_stop - t_first
        r_early = w["gamma"] ** (d - 1) if d is not None and d >= 1 else 0.0
        need(abs(rec["r_early"] - r_early) < 1e-12, f"rewards {iid}: r_early {rec['r_early']} != {r_early}")
        need(rec["r_gt"] == em and rec["r_call"] == 1 and rec["r_mem"] == 1, f"rewards {iid}: components")
        total = (w["alpha_gt"] * rec["r_gt"] + w["alpha_early"] * rec["r_early"]
                 + w["alpha_call"] * rec["r_call"] + w["alpha_mem"] * rec["r_mem"])
        need(abs(rec["total"] - total) < 1e-9, f"rewards {iid}: total is not the weighted sum")
        by_group.setdefault(rec["group_id"], []).append(rec)
    for gid, recs in by_group.items():
        need(len(recs) == g, f"rewards {gid}: group of {len(recs)}")
        mean = sum(r["total"] for r in recs) / g
        need(all(abs(r["group_mean"] - mean) < 1e-9 for r in recs), f"rewards {gid}: group mean")
        need(abs(sum(r["advantage"] for r in recs)) < 1e-9, f"rewards {gid}: advantages do not sum to 0")


def check_sft(kept: list[dict], report: list[dict], trajs: list[dict], golds: dict[str, str]) -> None:
    ems = [own_eval(t, golds[t["instance_id"]])[0] for t in trajs]
    need([r["kept"] for r in report] == [bool(e) for e in ems], "export-sft: kept set is not the EM-correct rollouts")
    correct = [t for t, e in zip(trajs, ems) if e]
    need(len(kept) == len(correct), "export-sft: dialogue count")
    for d, t in zip(kept, correct):
        need(d["meta"] == {"instance_id": t["instance_id"], "em": 1}, "export-sft: dialogue meta")
        need(len(d["dialogue"]) == 2 * len(prompts_of(t)), "export-sft: one user and one assistant turn per call")
        need(d["dialogue"][-1]["content"] == t["answer_generation"], "export-sft: last turn is the answer")


def check_round(plan: dict, corpus, rdir: Path) -> Totals:
    """All outputs of one round; returns the counts for the end-to-end metrics."""
    info = json.loads((rdir / "round.json").read_text(encoding="utf-8"))
    instances = read_jsonl(rdir / info["dataset"])
    views = check_dataset(plan, corpus, instances)
    golds = {iid: e["answer"] for iid, e in plan["expect"].items()}
    totals = Totals()
    stride = 1 if plan["small"] else 16
    for name, mode in info["runs"].items():
        path = rdir / f"{name}.jsonl"
        totals.traj_bytes += path.stat().st_size
        trajs = read_jsonl(path)
        ids = [t["instance_id"] for t in trajs]
        need(ids == sorted(ids), f"{name}: trajectories not sorted by instance id")
        per_instance = plan["group_size"] if mode == "infmem" else 1
        need(len(trajs) == per_instance * len(views), f"{name}: {len(trajs)} trajectories")
        for i, traj in enumerate(trajs):
            iid = traj["instance_id"]
            exp = plan["expect"][iid]
            need(traj["mode"] == mode, f"{name} {iid}: mode")
            if mode == "infmem":
                roll = exp["rollouts"][i % per_instance]
                totals.add(check_infmem(plan, views[iid], traj, roll, stride))
            elif mode == "memagent":
                totals.add(check_memagent(plan, views[iid], traj, exp["rollouts"][0]))
            else:
                # The own BM25 ranks every third rag query; the rest are checked against the units they name.
                totals.add(check_rag(plan, views[iid], traj, exp["rag_answer"], i % 3 == 0))
        check_eval(json.loads((rdir / f"{name}_eval.json").read_text(encoding="utf-8")), trajs, golds, name)
        if "rewards" in info:
            check_rewards(plan, read_jsonl(rdir / "rewards.jsonl"), trajs, golds)
            check_sft(read_jsonl(rdir / "sft.jsonl"),
                      json.loads((rdir / "sft.jsonl.report.json").read_text(encoding="utf-8")), trajs, golds)
    return totals
