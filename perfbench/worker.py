"""Runs one workload's rounds through the real CLI, in-process, in a fresh process.

Started by run.py with the run's work directory. A round is one ``infmem
synth`` (timed as set-up) followed by the workload's pipeline of ``run``,
``eval``, ``reward`` and ``export-sft`` calls (timed as the round's wall
time). Rounds repeat until the run's seconds are spent. Each round
synthesizes with its own seed, so no two rounds read the same document.
Writes ``worker.json`` into the work directory; never prints a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import infmem  # noqa: E402
import infmem.cli as cli  # noqa: E402

from layers import ENTRY_POINTS, Tracer  # noqa: E402


class EpisodeClock:
    """Times the mode entry functions as the CLI calls them, from outside."""

    def __init__(self):
        self.seconds: list[tuple[str, float]] = []  # (entry point, seconds)
        for name in ENTRY_POINTS:
            setattr(cli, name, self._timed(getattr(cli, name)))

    def _timed(self, fn):
        # Resolved at call time, so a traced wrapper in the defining module is used.
        home, name = sys.modules[fn.__module__], fn.__name__

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = getattr(home, name)(*args, **kwargs)
            self.seconds.append((name, time.perf_counter() - start))
            return result

        return timed


def invoke(argv: list[str]) -> float:
    """One CLI command in-process; returns its wall time. Raises if it fails."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = cli.dispatch(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"infmem {' '.join(argv[:1])} exited {rc}")
    return elapsed


def run_round(plan: dict, work: Path, k: int) -> dict:
    rdir = work / f"round{k}"
    cfg = str(work / "config.yaml")
    data = rdir / "data"
    synth_seed = plan["seed"] * 1000 + k
    setup = invoke(["synth", "--source", str(work / "qa.jsonl"), "--distractors", str(work / "distractors.jsonl"),
                    "--lengths", str(plan["target"]), "--seed", str(synth_seed),
                    "--per-length-count", str(plan["questions"]), "--out", str(data), "--config", cfg])
    dataset = data / f"instances_{plan['target']}.jsonl"
    info = {"dataset": str(dataset.relative_to(rdir)), "synth_seed": synth_seed, "setup_s": setup}
    run_ds = dataset
    if plan["group_size"] > 1:
        # G rollouts of an instance: the instance listed G times in a row.
        run_ds = data / "rollouts.jsonl"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        run_ds.write_text("".join(line * plan["group_size"] for line in lines), encoding="utf-8")

    scripts = plan["scripts"]
    base = ["--backend", "scripted", "--parallel", "1", "--config", cfg]
    run_s = wall = 0.0
    runs = {"run": "infmem"} if "run" in scripts else {"memagent": "memagent", "rag": "rag-top6"}
    for name, mode in runs.items():
        out = str(rdir / f"{name}.jsonl")
        argv = ["run", "--dataset", str(run_ds), "--mode", mode, "--script", scripts[name], "--out", out] + base
        if mode == "infmem":
            argv += ["--stop-threshold", str(plan["stop_threshold"])]
        t = invoke(argv)
        run_s += t
        wall += t
        wall += invoke(["eval", "--traj", out, "--dataset", str(run_ds), "--group", "task,length",
                        "--out", str(rdir / f"{name}_eval.json"), "--config", cfg])
    if "evaluator" in scripts:
        traj = str(rdir / "run.jsonl")
        wall += invoke(["reward", "--traj", traj, "--dataset", str(run_ds), "--group-size", str(plan["group_size"]),
                        "--evaluator-script", scripts["evaluator"], "--out", str(rdir / "rewards.jsonl"),
                        "--config", cfg])
        wall += invoke(["export-sft", "--traj", traj, "--dataset", str(run_ds), "--out", str(rdir / "sft.jsonl"),
                        "--config", cfg])
        info["rewards"] = True
    info.update(runs=runs, run_s=run_s, wall_s=wall)
    (rdir / "round.json").write_text(json.dumps(info), encoding="utf-8")
    return info


def main() -> int:
    work = Path(sys.argv[1])
    seconds, trace = float(sys.argv[2]), sys.argv[3] == "1"
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    src = (ROOT / "src").resolve()
    if src not in Path(infmem.__file__).resolve().parents:
        raise SystemExit(f"imported infmem from {infmem.__file__}, not from {src}")
    clock = EpisodeClock()
    tracer = Tracer([e["needle"] for e in plan["expect"].values()]) if trace else None
    rounds = []
    # Untraced rounds give the end-to-end figures; a traced run alternates
    # untraced and traced rounds so the overhead is measured on like rounds.
    # Past the minimum, a round starts only if a round of the mean length so
    # far still ends within the run's seconds.
    min_rounds = 2 if plan["small"] or trace else 3
    start = time.perf_counter()

    def another_fits() -> bool:
        elapsed = time.perf_counter() - start
        return not plan["small"] and elapsed * (len(rounds) + 1) / len(rounds) <= seconds

    while len(rounds) < min_rounds or another_fits():
        traced = trace and len(rounds) % 2 == 1
        n_before = len(clock.seconds)
        if traced:
            tracer.install()
        try:
            info = run_round(plan, work, len(rounds))
        finally:
            if traced:
                tracer.uninstall()
        info["traced"] = traced
        info["episode_s"] = clock.seconds[n_before:]
        info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append(info)
    result = {"rounds": rounds}
    if tracer is not None:
        n_traced = sum(r["traced"] for r in rounds)
        result["layers"] = tracer.metrics(n_traced)
        tracer.write_spans(HERE / "_work" / f"spans-{plan['workload']}.tsv")
    (work / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
