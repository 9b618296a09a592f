"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ``infmem`` module that holds it by name (``segment_stream``
is bound in ``retrieval``, ``protocol`` and ``baselines``), so calls through
any import are seen; ``backend.complete`` is patched on ``ScriptedBackend``.
Spans (name, start, end, parent, episode) stay in
memory and are written out once, at the end. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

TRACED = (
    ("budget", "count_tokens"), ("budget", "truncate_to_budget"),
    ("retrieval", "segment_stream"), ("retrieval", "build_units"), ("retrieval", "build_index"),
    ("retrieval", "query_index"), ("retrieval", "concat_retrieved"),
    ("protocol", "prepare_runtime"), ("protocol", "run_episode"), ("protocol", "render_prethink_prompt"),
    ("protocol", "render_write_prompt"), ("protocol", "render_answer_prompt"),
    ("protocol", "parse_control_record"), ("protocol", "extract_memory_update"),
    ("protocol", "dumps_trajectory"), ("protocol", "loads_trajectory"),
    ("backend", "complete"),
    ("baselines", "run_memagent"), ("baselines", "run_rag_top6"),
    ("synth", "load_qa_file"), ("synth", "load_distractor_file"), ("synth", "plan_insertion"),
    ("synth", "build_instance"), ("synth", "read_instances"),
    ("metrics", "evaluate_trajectory"), ("metrics", "aggregate"),
    ("rewards", "compute_reward"), ("rewards", "first_sufficient_step"), ("rewards", "export_sft"),
    ("config", "load_config"),
    ("cli", "cmd_synth"), ("cli", "cmd_run"), ("cli", "cmd_eval"), ("cli", "cmd_reward"), ("cli", "cmd_export_sft"),
)
CALL_KINDS = ("prethink", "write", "answer")
ENTRY_POINTS = ("run_episode", "run_memagent", "run_rag_top6")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in order."""
    names = []
    for module, fn in TRACED:
        names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_ms"]
    names += [f"backend.complete.{k}.calls" for k in CALL_KINDS]
    names += ["backend.complete.prompt_tokens", "retrieval.query_index.gold_hit_rate",
              "protocol.prepare_runtime.per_document", "trace.untraced_wall_s", "trace.traced_wall_s",
              "trace.overhead_s"]
    return names


class Tracer:
    def __init__(self, needles: list[str]):
        self.needles = needles
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.calls = [0] * len(TRACED)
        self.self_ns = [0] * len(TRACED)
        self.kind_calls = dict.fromkeys(CALL_KINDS, 0)
        self.prompt_tokens = 0
        self.queries = 0
        self.gold_hits = 0
        self.documents: set[int] = set()
        self.episodes: list[str] = []
        self._episode = -1  # index into episodes while an entry point runs
        self._gold_units: set[int] = set()
        # Span store: parallel arrays, one entry per call.
        self.s_name, self.s_parent, self.s_episode = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("q"), array("q")
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks giving the counts beyond calls and time --------------------------------------
    def _before(self, name: str, args, kwargs) -> None:
        if name in ENTRY_POINTS:
            self._episode = len(self.episodes)
            self.episodes.append(f"{args[0].instance_id}#{self._episode}")
        elif name == "prepare_runtime":
            self.documents.add(hash(args[0]))
        elif name == "complete":
            kind = kwargs.get("call_kind")
            self.kind_calls[kind] = self.kind_calls.get(kind, 0) + 1

    def _after(self, name: str, args, result) -> None:
        if name in ENTRY_POINTS:
            self._episode = -1
        elif name == "build_units":
            text = args[0]
            spans = [(at, at + len(n)) for n in self.needles if (at := text.find(n)) >= 0]
            self._gold_units = {u.unit_id for u in result for s, e in spans if u.start < e and s < u.end}
        elif name == "query_index":
            self.queries += 1
            self.gold_hits += any(h.unit_id in self._gold_units for h in result)
        elif name == "complete":
            self.prompt_tokens += result.prompt_tokens

    def _wrap(self, idx: int, fn):
        name = TRACED[idx][1]
        hooked = name in ENTRY_POINTS or name in ("prepare_runtime", "complete", "build_units", "query_index")
        stack = self._stack

        def traced(*args, **kwargs):
            if hooked:
                self._before(name, args[1:] if name == "complete" else args, kwargs)
            sid = len(self.s_start)
            self.s_name.append(idx)
            self.s_parent.append(stack[-1][0] if stack else -1)
            self.s_episode.append(self._episode)
            self.s_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            self.s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self.s_end[sid] = end
                self.calls[idx] += 1
                self.self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hooked:
                self._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "infmem" or n.startswith("infmem.")}
        for idx, (module, fn_name) in enumerate(TRACED):
            if module == "backend":
                cls = mods["infmem.backend"].ScriptedBackend
                self._patch(cls, "complete", self._wrap(idx, cls.complete))
                continue
            original = getattr(mods.get(f"infmem.{module}"), fn_name, None)
            if original is None:
                print(f"trace: infmem.{module}.{fn_name} not found; reported as 0 calls", file=sys.stderr)
                continue
            wrapper = self._wrap(idx, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per traced round: calls and self time per function, plus the hook counts."""
        out: dict[str, float] = {}
        for name, calls, self_ns in zip(self.names, self.calls, self.self_ns):
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_ms"] = self_ns / 1e6 / rounds
        for kind in CALL_KINDS:
            out[f"backend.complete.{kind}.calls"] = self.kind_calls[kind] / rounds
        out["backend.complete.prompt_tokens"] = self.prompt_tokens / rounds
        out["retrieval.query_index.gold_hit_rate"] = self.gold_hits / self.queries if self.queries else 0.0
        prep = self.calls[self.names.index("protocol.prepare_runtime")]
        out["protocol.prepare_runtime.per_document"] = prep / len(self.documents) if self.documents else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\tname\tepisode\tstart_ns\tend_ns\n")
            for sid in range(len(self.s_start)):
                ep = self.s_episode[sid]
                f.write(f"{sid}\t{self.s_parent[sid]}\t{self.names[self.s_name[sid]]}\t"
                        f"{self.episodes[ep] if ep >= 0 else '-'}\t{self.s_start[sid]}\t{self.s_end[sid]}\n")
