"""Benchmark of the infmem harness with the scripted backend, end to end and per layer.

    python3 perfbench/run.py --workload fullread-1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload rollouts-128k --seed 1 --trace 1   # per-layer run
    python3 perfbench/run.py --workload baselines-b4-128k --seed 1 --small  # seconds-scale check

Run from the repository root. This process generates the inputs from the
seed, starts worker.py in a fresh process to drive the CLI, then checks
every output of every round and prints one JSON result as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Exits 1 when an output is wrong, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from check import CheckError, Totals, check_round  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402
from layers import metric_names  # noqa: E402

TIME_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "backend_calls_per_episode": "calls",
    "prompt_tokens_per_episode": "tokens",
    "trajectory_kb_per_episode": "KB",
}


def calibration_s(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop; tells a slow machine from a slow program."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "loadavg": list(os.getloadavg()),
            "steal_ticks": steal_ticks(), "calibration_s": calibration_s()}


def run_worker(work: Path, seconds: int, trace: int, deadline: float) -> dict:
    # glibc raises its mmap threshold each time a large block is freed, so the
    # same allocations peak at two RSS levels ~10 MB apart from run to run.
    # Pinning the threshold at its initial 128 KiB makes peak RSS repeat.
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work), str(seconds), str(trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((work / "worker.json").read_text(encoding="utf-8"))


def end_to_end(worker: dict, totals: Totals) -> dict[str, float]:
    rounds = worker["rounds"]
    by_mode: dict[str, list[float]] = {}
    for r in rounds:
        for mode, s in r["episode_s"]:
            by_mode.setdefault(mode, []).append(s)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "episodes_per_s": statistics.median(len(r["episode_s"]) / r["run_s"] for r in rounds),
        # Per mode, so the two baselines' different episode costs do not make a bimodal median.
        "episode_ms.p50": statistics.fmean(statistics.median(v) for v in by_mode.values()) * 1000,
        # The process's peak over its first round: later rounds repeat the same
        # work, and how far the allocator's high-water mark creeps over them
        # depends on how many rounds fit, not on the program.
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
        "backend_calls_per_episode": totals.calls / totals.episodes,
        "prompt_tokens_per_episode": totals.prompt_tokens / totals.episodes,
        "trajectory_kb_per_episode": totals.traj_bytes / 1024 / totals.episodes,
    }


def per_layer(worker: dict) -> dict[str, float]:
    rounds = worker["rounds"]
    plain = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in rounds if r["traced"])
    out = dict(worker["layers"])
    out.update({"trace.untraced_wall_s": plain, "trace.traced_wall_s": traced, "trace.overhead_s": traced - plain})
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gold_hit_rate") or name.endswith("per_document"):
        return "ratio"
    return "tokens" if name.endswith("prompt_tokens") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="same workload and checks at a few thousand tokens")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "infmem" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'infmem'}; run from a checkout", file=sys.stderr)
        return 2

    before = machine_facts()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}{'-small' if args.small else ''}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan, corpus = make_inputs(args.workload, args.seed, args.small, work)
        try:
            worker = run_worker(work, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"error: the program failed: {exc}", file=sys.stderr)
            return 2
        totals, correct, problem = Totals(), True, None
        for k in range(len(worker["rounds"])):
            try:
                totals.add(check_round(plan, corpus, work / f"round{k}"))
            except CheckError as exc:
                correct, problem = False, f"round {k}: {exc}"
                print(f"check failed: {problem}", file=sys.stderr)
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = end_to_end(worker, totals) if args.trace == 0 and correct else {}
    if args.trace == 1:
        values = per_layer(worker)
        values = {name: values.get(name, 0.0) for name in metric_names()}
    after = machine_facts()
    machine = {**after, "loadavg_before": before["loadavg"], "steal_ticks_before": before["steal_ticks"],
               "calibration_s_before": before["calibration_s"]}
    attempted = sum(len(r["episode_s"]) for r in worker["rounds"])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "small": args.small, "machine": machine, "rounds": worker["rounds"], "problem": problem,
              "result": result}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
