"""Command-line harness: synth, run, eval, reward, export-sft, report, index.

Every invocation that produces files also writes a run manifest next to the
outputs (config snapshot, input checksums, template hashes, timestamps) so
any output can be re-derived from its manifest plus inputs. Exit codes:
0 success, 1 validation/usage error, 2 backend failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import yaml

from . import __version__
from .backend import Backend, BackendError, LiveBackend, ScriptedBackend
from .baselines import MEMAGENT_PROMPT_NOTE, run_memagent, run_rag_top6
from .budget import BudgetError
from .config import RunConfig, config_snapshot, load_config, override
from .metrics import aggregate, evaluate_trajectory, report_table
from .protocol import (
    MODES,
    TEMPLATE_FILES,
    TRAJECTORY_SCHEMA_VERSION,
    EpisodeError,
    StopPolicy,
    Trajectory,
    dumps_trajectory,
    load_template,
    loads_trajectory,
    release_runtime,
    run_episode,
    trajectory_to_dict,
)
from .retrieval import build_index, build_units, query_index
from .rewards import (
    RewardWeights,
    SftFilters,
    compute_reward,
    export_sft,
    group_advantages,
    sft_dialogue_to_dict,
)
from .synth import SynthError, load_distractor_file, load_qa_file, read_instances, synthesize_suite

SCHEMA_VERSIONS = {
    "trajectory": TRAJECTORY_SCHEMA_VERSION,
    "instance": "1",
    "suite-manifest": "1",
    "eval-report": "1",
    "rewards": "1",
    "sft": "1",
    "run-manifest": "1",
}


class CliError(ValueError):
    """Usage or validation problem; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(message)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _template_hashes() -> dict[str, str]:
    return {
        name: hashlib.sha256(load_template(name).encode("utf-8")).hexdigest()
        for name in TEMPLATE_FILES
    }


def _write_manifest(
    out_target: Path,
    command: str,
    config: RunConfig | None,
    inputs: dict[str, Path],
    started_at: float,
    mode: str | None = None,
    seed: int | None = None,
    notes: dict[str, str] | None = None,
) -> None:
    manifest = {
        "run_id": uuid.uuid4().hex,
        "command": command,
        "mode": mode,
        "seed": seed,
        "notes": notes or {},
        "config_snapshot": config_snapshot(config) if config is not None else None,
        "dataset_checksums": {name: _sha256_file(p) for name, p in inputs.items() if p.exists()},
        "template_hashes": _template_hashes(),
        "schema_versions": SCHEMA_VERSIONS,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started_at)),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if out_target.is_dir():
        path = out_target / "run_manifest.json"
    else:
        path = out_target.with_name(out_target.name + ".manifest.json")
    path.write_text(json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _make_backend(args, config: RunConfig) -> Backend:
    if args.backend == "scripted":
        if not args.script:
            raise CliError("--backend scripted requires --script")
        return ScriptedBackend.from_file(args.script, counter=config.counter)
    return LiveBackend.from_env(counter=config.counter)


def _write_report_csv(report: dict, group_keys: list[str], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            list(group_keys) + ["n", "avg_em", "avg_f1", "found_rate", "preserved_rate", "mean_steps", "mean_wall_ms"]
        )
        for g in report.get("groups", []):
            writer.writerow(
                [g["key"].get(k, "") for k in group_keys]
                + [g["n"], g["avg_em"], g["avg_f1"], g["found_rate"], g["preserved_rate"], g["mean_steps"], g["mean_wall_ms"]]
            )


def _load_dataset_answers(path: Path) -> dict[str, dict]:
    by_id: dict[str, dict] = {}
    with path.open("r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            by_id[rec["instance_id"]] = rec
    return by_id


def _read_trajectories(path: Path) -> list[Trajectory]:
    out = []
    with path.open("r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(loads_trajectory(line))
    return out


def cmd_synth(args) -> int:
    config = load_config(args.config)
    counter = config.counter
    records, documents = load_qa_file(args.source, counter)
    distractors = load_distractor_file(args.distractors, counter)
    lengths = [int(x) for x in args.lengths.split(",") if x]
    started = time.time()
    out_dir = Path(args.out)
    manifest = synthesize_suite(
        records,
        documents,
        distractors,
        lengths,
        seed=args.seed,
        per_length_count=args.per_length_count,
        counter=counter,
        out_dir=out_dir,
        max_docs=args.max_docs,
    )
    _write_manifest(
        out_dir, "synth", config,
        {"source": Path(args.source), "distractors": Path(args.distractors)},
        started, seed=args.seed,
    )
    print(f"wrote {len(manifest['files'])} length variants x {len(manifest['qa_ids'])} questions -> {out_dir}")
    return 0


def _run_one(instance, mode: str, backend: Backend, config: RunConfig, stop_policy: StopPolicy) -> Trajectory:
    if mode == "infmem":
        return run_episode(
            instance,
            backend,
            config.budgets,
            stop_policy,
            config.k_max,
            counter=config.counter,
            sampling=config.sampling,
            retrieval_scope=config.retrieval.scope,
            unit_tokens=config.retrieval.unit_tokens,
            k1=config.retrieval.k1,
            b=config.retrieval.b,
        )
    if mode == "memagent":
        return run_memagent(instance, backend, config.budgets, counter=config.counter, sampling=config.sampling)
    if mode == "rag-top6":
        return run_rag_top6(
            instance,
            backend,
            config.rag,
            counter=config.counter,
            sampling=config.sampling,
            k1=config.retrieval.k1,
            b=config.retrieval.b,
        )
    raise CliError(f"unknown mode {mode!r}")


def _failure_record(instance_id: str, exc: BackendError | EpisodeError) -> dict:
    partial = exc.trajectory if isinstance(exc, EpisodeError) else None
    cause = exc.cause if isinstance(exc, EpisodeError) else exc
    return {
        "instance_id": instance_id,
        "message": str(exc),
        "cause": f"{type(cause).__name__}: {cause}",
        "trajectory": None if partial is None else trajectory_to_dict(partial),
    }


def cmd_run(args) -> int:
    config = load_config(args.config)  # fail-fast budget validation
    if args.stop_threshold is not None:
        config = dataclasses.replace(config, stop_threshold=args.stop_threshold)
    stop_policy = config.stop_policy
    backend = _make_backend(args, config)
    instances = read_instances(args.dataset)
    if args.limit is not None:
        instances = instances[: args.limit]
    started = time.time()

    # Every episode of one instance id runs in input order in one worker: its
    # rollouts then reuse one prepared document, and the scripted backend
    # hands out each id's responses in the serial order.
    groups: dict[str, list] = {}
    for instance in instances:
        groups.setdefault(instance.instance_id, []).append(instance)

    def run_group(group: list) -> tuple[list[Trajectory], dict | None]:
        done = []
        for instance in group:
            try:
                done.append(_run_one(instance, args.mode, backend, config, stop_policy))
            except (EpisodeError, BackendError) as exc:
                return done, _failure_record(instance.instance_id, exc)
        return done, None

    try:
        if args.parallel > 1:
            with ThreadPoolExecutor(max_workers=args.parallel) as pool:
                outcomes = list(pool.map(run_group, groups.values()))
        else:
            outcomes = [run_group(group) for group in groups.values()]
    finally:
        release_runtime()

    trajectories = sorted((traj for done, _ in outcomes for traj in done), key=lambda traj: traj.instance_id)
    failures = [failure for _, failure in outcomes if failure is not None]
    lines = "".join(dumps_trajectory(traj) + "\n" for traj in trajectories)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    partial_path = out.with_name(out.name + ".partial")
    failures_path = out.with_name(out.name + ".failures.jsonl")
    notes = {"memagent_prompt": MEMAGENT_PROMPT_NOTE} if args.mode == "memagent" else None
    if failures:
        _atomic_write_text(partial_path, lines)
        _atomic_write_text(
            failures_path,
            "".join(json.dumps(f, ensure_ascii=False, sort_keys=True) + "\n" for f in failures),
        )
        _write_manifest(
            partial_path, "run", config, {"dataset": Path(args.dataset)}, started, mode=args.mode, notes=notes
        )
        for f in failures:
            print(f"backend failure: {f['instance_id']}: {f['message']} (cause: {f['cause']})", file=sys.stderr)
        print(f"wrote {len(trajectories)} finished trajectories -> {partial_path}, failures -> {failures_path}")
        return 2
    _atomic_write_text(out, lines)
    for stale in (partial_path, failures_path, partial_path.with_name(partial_path.name + ".manifest.json")):
        stale.unlink(missing_ok=True)
    _write_manifest(out, "run", config, {"dataset": Path(args.dataset)}, started, mode=args.mode, notes=notes)
    print(f"wrote {len(trajectories)} trajectories -> {out}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    dataset = _load_dataset_answers(Path(args.dataset))
    trajectories = _read_trajectories(Path(args.traj))
    group_keys = [k for k in (args.group or "").split(",") if k]
    started = time.time()
    results = []
    for traj in trajectories:
        rec = dataset.get(traj.instance_id)
        if rec is None:
            raise CliError(f"trajectory {traj.instance_id!r} not present in dataset")
        meta = {"task": rec.get("source", "other"), "length": rec.get("target_tokens")}
        results.append(evaluate_trajectory(traj, rec["answers"], meta=meta))
    report = aggregate(results, group_keys)
    report["per_instance"] = [
        {
            "instance_id": r.instance_id,
            "em": r.em,
            "f1": r.f1,
            "found": r.found,
            "preserved": r.preserved,
            "steps_used": r.steps_used,
            "stop_step": r.stop_step,
            "wall_ms": r.wall_ms,
            "meta": r.meta,
        }
        for r in results
    ]
    report["group_keys"] = group_keys
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out, json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    table = report_table(report, group_keys)
    out.with_suffix(".txt").write_text(table + "\n", encoding="utf-8")
    _write_report_csv(report, group_keys, out.with_suffix(".csv"))
    _write_manifest(out, "eval", config, {"traj": Path(args.traj), "dataset": Path(args.dataset)}, started)
    print(table)
    return 0


def _load_weights(path: str | None, config: RunConfig) -> RewardWeights:
    if path is None:
        return config.weights
    with Path(path).open("r", encoding="utf-8") as f:
        data = yaml.safe_load(f) or {}
    return override(config.weights, data, "weights file")


def cmd_reward(args) -> int:
    config = load_config(args.config)
    weights = _load_weights(args.weights, config)
    dataset = _load_dataset_answers(Path(args.dataset))
    trajectories = _read_trajectories(Path(args.traj))
    evaluator = None
    if args.evaluator_script:
        evaluator = ScriptedBackend.from_file(args.evaluator_script, counter=config.counter)
    started = time.time()

    groups: dict[str, list[Trajectory]] = {}
    for traj in trajectories:
        groups.setdefault(traj.instance_id, []).append(traj)

    lines = []
    for instance_id in sorted(groups):
        rollouts = groups[instance_id]
        if len(rollouts) != args.group_size:
            raise CliError(
                f"instance {instance_id!r} has {len(rollouts)} rollouts, expected --group-size {args.group_size}"
            )
        rec = dataset.get(instance_id)
        if rec is None:
            raise CliError(f"trajectory {instance_id!r} not present in dataset")
        breakdowns = [
            compute_reward(
                traj, rec["answers"], weights, config.budgets.memory,
                evaluator=evaluator, counter=config.counter,
                max_new_tokens=config.budgets.max_generation, sampling=config.sampling,
            )
            for traj in rollouts
        ]
        adv = group_advantages([b.total for b in breakdowns])
        for i, (traj, b) in enumerate(zip(rollouts, breakdowns)):
            lines.append(
                json.dumps(
                    {
                        "instance_id": instance_id,
                        "group_id": instance_id,
                        "rollout_index": i,
                        "r_gt": b.r_gt,
                        "r_early": b.r_early,
                        "r_call": b.r_call,
                        "r_mem": b.r_mem,
                        "t_first": b.t_first,
                        "t_stop": b.t_stop,
                        "total": b.total,
                        "group_mean": adv.mean,
                        "advantage": adv.advantages[i],
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
            )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out, "".join(line + "\n" for line in lines))
    _write_manifest(out, "reward", config, {"traj": Path(args.traj), "dataset": Path(args.dataset)}, started)
    print(f"wrote {len(lines)} reward records -> {out}")
    return 0


def cmd_export_sft(args) -> int:
    config = load_config(args.config)
    dataset = _load_dataset_answers(Path(args.dataset))
    trajectories = _read_trajectories(Path(args.traj))
    filters = SftFilters(
        require_em=not args.no_require_em,
        max_dialogue_tokens=args.max_dialogue_tokens,
        leak_patterns=tuple(args.leak_pattern or ()),
    )
    started = time.time()
    golds = {iid: rec["answers"] for iid, rec in dataset.items()}
    kept, report = export_sft(trajectories, golds, filters, counter=config.counter)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(
        out, "".join(json.dumps(sft_dialogue_to_dict(d), ensure_ascii=False, sort_keys=True) + "\n" for d in kept)
    )
    report_path = out.with_name(out.name + ".report.json")
    report_path.write_text(json.dumps(report, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    _write_manifest(out, "export-sft", config, {"traj": Path(args.traj), "dataset": Path(args.dataset)}, started)
    dropped = sum(1 for r in report if not r["kept"])
    print(f"kept {len(kept)} dialogues, dropped {dropped} -> {out}")
    return 0


def cmd_report(args) -> int:
    report = json.loads(Path(args.eval).read_text(encoding="utf-8"))
    group_keys = report.get("group_keys", [])
    print(report_table(report, group_keys))
    if args.plot:
        plot_path = Path(args.plot)
        _write_report_csv(report, group_keys, plot_path)
        print(f"wrote plot data -> {plot_path}")
    return 0


def cmd_index(args) -> int:
    if args.action != "query":
        raise CliError(f"unknown index action {args.action!r}")
    config = load_config(args.config)
    counter = config.counter
    instances = read_instances(args.dataset)
    instance = next((i for i in instances if i.instance_id == args.instance), None)
    if instance is None:
        raise CliError(f"instance {args.instance!r} not found in {args.dataset}")
    units = build_units(instance.long_text, args.unit_tokens or config.retrieval.unit_tokens, counter)
    index = build_index(units, config.retrieval.k1, config.retrieval.b)
    hits = query_index(index, args.q, args.k)
    for hit in hits:
        unit = units[hit.unit_id]
        preview = " ".join(unit.text.split())[:100]
        print(f"unit {hit.unit_id}  score {hit.score:.6f}  span [{unit.start}, {unit.end})  {preview}")
    if not hits:
        print("no matching units")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="infmem", description="Bounded-memory long-context QA agent harness")
    parser.add_argument("--version", action="store_true", help="print package and artifact schema versions")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="synthesize long-context QA instances")
    p.add_argument("--source", required=True, help="QA JSONL: {id, question, answers[], gold_docs[], source}")
    p.add_argument("--distractors", required=True, help="distractor JSONL: {id, title, text}")
    p.add_argument("--lengths", required=True, help="comma-separated target token lengths, ascending")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--per-length-count", type=int, default=128)
    p.add_argument("--max-docs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run episodes over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=list(MODES), default="infmem")
    p.add_argument("--stop-threshold", type=int, default=None)
    p.add_argument("--backend", choices=["scripted", "live"], default="live")
    p.add_argument("--script", default=None, help="scripted-backend response file")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score trajectories against a dataset")
    p.add_argument("--traj", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--group", default="", help="comma-separated group keys, e.g. task,length")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reward", help="compute rewards and group advantages")
    p.add_argument("--traj", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--weights", default=None, help="YAML reward weights")
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--evaluator-script", default=None, help="scripted evaluator for early-stop shaping")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("export-sft", help="export masked dialogues for supervised training")
    p.add_argument("--traj", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--max-dialogue-tokens", type=int, default=None)
    p.add_argument("--leak-pattern", action="append", default=None)
    p.add_argument("--no-require-em", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_export_sft)

    p = sub.add_parser("report", help="emit plain-text table and CSV from an eval report")
    p.add_argument("--eval", required=True)
    p.add_argument("--plot", default=None, help="CSV output path for plotting")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("index", help="debug the retrieval index")
    p.add_argument("action", choices=["query"])
    p.add_argument("--dataset", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--unit-tokens", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_index)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.version:
            print(f"infmem {__version__}")
            for kind, version in SCHEMA_VERSIONS.items():
                print(f"schema {kind}: {version}")
            return 0
        if not args.command:
            parser.print_usage()
            return 1
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, SynthError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EpisodeError as exc:
        print(f"backend failure: {exc} (cause: {exc.cause})", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
