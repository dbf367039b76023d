"""Command-line entry point for ingestion, generation, evaluation runs,
parameter sweeps, and feature selection."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .domain import Scenario
from .evaluation import (
    STANDARD_SEED,
    EvalReport,
    generate_synthetic,
    prequential,
    run_batch_offline,
    run_online,
    standard_corpus_config,
)
from .forecaster import TrainingDivergedError
from .pipeline import (ALL_METRICS, PipelineConfig, Registry, index_path, replace_file,
                       temp_path, trev_comoments)
from .store import RecordLog

SWEEP_TAUS = (1, 5, 10, 15, 30)
SWEEP_LAGS = (2, 3)


def _write_report(report: EvalReport, paths: list) -> None:
    for path, text in zip(paths, (report.to_json() + "\n", report.to_text()), strict=True):
        replace_file(path, [text])


def _refuse_writes(log: str, flag: str, value, *suffixes: str, spell=Path) -> list:
    """The paths the command writes for flag, each spell(value) then a suffix;
    none for a flag not given. ValueError naming flag where value is empty, or
    a path is the --log, is or has at its temp_path a directory, or lies under
    a file. Run before the first record is read, a refusal does no work."""
    if value == "":
        raise ValueError(f"{flag} is empty; give a path")
    paths = [Path(f"{spell(value)}{s}") for s in suffixes if value is not None]
    for path in paths:
        if path.resolve() == Path(log).resolve():
            raise ValueError(f"{flag} {value} would overwrite the --log file; choose another path")
        for p in (path, temp_path(path)):
            if p.is_dir():
                raise ValueError(f"{flag} {value}: {p} is an existing directory")
        if not next(p for p in path.absolute().parents if p.exists()).is_dir():
            raise ValueError(f"{flag} {value} is, or lies under, a file that is not a directory")
    return paths


def _add_common_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log", required=True, help="record log")
    p.add_argument("--scenario", choices=[s.value for s in Scenario], default="time_series")
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--lag", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--window-capacity", type=int, default=None)
    p.add_argument("--epochs-per-update", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def _overrides(args) -> dict:
    return {
        "k": args.k,
        "window_capacity": args.window_capacity,
        "epochs_per_update": args.epochs_per_update,
    }


def cmd_ingest(args) -> int:
    # every input record decodes before any is appended: a corrupt entry appends nothing
    n = RecordLog(args.log).extend(RecordLog(args.input).read_all())
    print(f"ingested {n} records into {args.log}")
    return 0


def cmd_generate(args) -> int:
    if args.records < 1:
        raise ValueError(f"--records must be >= 1, got {args.records}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    cfg = standard_corpus_config(n_records=args.records)
    generate_synthetic(cfg, seed=args.seed, path=out)
    print(f"generated {cfg.n_records} records into {out}")
    return 0


def cmd_replay_predict(args) -> int:
    out = _refuse_writes(args.log, "--out", args.out, "")
    _refuse_writes(args.log, "--registry-dir", args.registry_dir, "", spell=index_path)
    log = RecordLog(args.log)
    registry = Registry(
        storage_dir=args.registry_dir,
        config=PipelineConfig(
            target_tau=args.tau, trev_lag=args.lag, seed=args.seed, **_overrides(args)
        ),
    )
    lines = (
        json.dumps({"task_name": rec.features.task_name, "predicted": pred.runtime_seconds,
                    "actual": rec.runtime_seconds}) + "\n"
        for rec, pred in prequential(registry, log.records(), Scenario(args.scenario))
    )
    if out:
        replace_file(out[0], lines)
    else:
        sys.stdout.writelines(lines)
    if args.registry_dir:
        registry.save()
    return 0


def cmd_eval_online(args) -> int:
    paths = _refuse_writes(args.log, "--out", args.out, ".json", ".txt")
    report = run_online(
        RecordLog(args.log),
        Scenario(args.scenario),
        tau=args.tau,
        lag=args.lag,
        seed=args.seed,
        skip_first=args.skip_first,
        **_overrides(args),
    )
    _write_report(report, paths)
    print(f"online rae {report.rae!r} over {report.n_predictions} predictions")
    return 0


def cmd_eval_batch(args) -> int:
    paths = _refuse_writes(args.log, "--out", args.out, ".json", ".txt")
    report = run_batch_offline(
        RecordLog(args.log),
        Scenario(args.scenario),
        d=args.d,
        tau=args.tau,
        lag=args.lag,
        seed=args.seed,
        **_overrides(args),
    )
    _write_report(report, paths)
    print(f"batch(d={args.d}) rae {report.rae!r} over {report.n_predictions} predictions")
    return 0


def cmd_sweep(args) -> int:
    log = RecordLog(args.log)
    taus = args.taus or list(SWEEP_TAUS)
    lags = args.lags or list(SWEEP_LAGS)
    if any(t < 1 for t in taus) or any(l < 1 for l in lags):
        raise ValueError("sweep taus and lags must be >= 1")
    grid = list(itertools.product(map(Scenario, args.scenarios), taus, lags))
    paths = _refuse_writes(args.log, "--out-dir", args.out_dir, *(
        f"/{s.value}_tau{t}_lag{l}{ext}" for s, t, l in grid for ext in (".json", ".txt")))
    for i, (scenario, tau, lag) in enumerate(grid):
        report = run_online(log, scenario, tau=tau, lag=lag, seed=args.seed)
        _write_report(report, paths[2 * i:2 * i + 2])
    print(f"wrote {len(grid)} reports to {Path(args.out_dir)}")
    return 0


def cmd_select_features(args) -> int:
    out = _refuse_writes(args.log, "--out", args.out, "")
    if not (0.0 <= args.threshold <= 1.0):
        raise ValueError(f"--threshold must be in [0, 1], got {args.threshold}")
    if args.tau < 1 or args.lag < 1:
        raise ValueError("--tau and --lag must be >= 1")
    per_task = trev_comoments(RecordLog(args.log).records(), args.tau, args.lag)
    result = {}
    for task, acc in sorted(per_task.items()):
        if acc.n < 2:
            continue
        rho = {m.value: r for m, r in zip(ALL_METRICS, acc.rho().tolist())}
        selected = sorted(m.value for m in acc.selected(args.threshold))
        result[task] = {"rho": rho, "selected": selected}
        print(f"{task}: selected {selected}")
    if out:
        replace_file(out[0], [json.dumps(result, indent=2) + "\n"])
    return 0


def cmd_registry(args) -> int:
    registry = Registry.load(args.dir)
    for (task, scenario), bundle in sorted(registry.bundles.items()):
        print(
            f"{task} {scenario.value}: {len(bundle.regressor)} instances, "
            f"{bundle.forecaster.n_metrics if bundle.forecaster else 0} forecasters, "
            f"{bundle.runtime_count} completions"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfpredict", description="online incremental task-runtime prediction"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "ingest", help="check every record of one log, then append them all to another"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("generate", help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--records", type=int, default=2000)
    p.add_argument("--seed", type=int, default=STANDARD_SEED)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("replay-predict", help="stream predictions over a log (test-then-train)")
    _add_common_eval_flags(p)
    p.add_argument("--out", default=None, help="predictions JSONL (default: stdout)")
    p.add_argument("--registry-dir", default=None, help="save the registry here afterwards")
    p.set_defaults(func=cmd_replay_predict)

    p = sub.add_parser("eval-online", help="online incremental evaluation")
    _add_common_eval_flags(p)
    p.add_argument("--skip-first", type=int, default=0)
    p.add_argument("--out", required=True, help="report path prefix (.json/.txt appended)")
    p.set_defaults(func=cmd_eval_online)

    p = sub.add_parser("eval-batch", help="batch offline evaluation")
    _add_common_eval_flags(p)
    p.add_argument("--d", type=float, required=True, help="training fraction in (0,1)")
    p.add_argument("--out", required=True, help="report path prefix (.json/.txt appended)")
    p.set_defaults(func=cmd_eval_batch)

    p = sub.add_parser("sweep", help="online runs over a tau x lag x scenario grid")
    p.add_argument("--log", required=True)
    p.add_argument(
        "--scenarios",
        nargs="+",
        choices=[s.value for s in Scenario],
        default=[Scenario.time_series.value],
    )
    p.add_argument("--taus", nargs="+", type=int, default=None)
    p.add_argument("--lags", nargs="+", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("select-features", help="per-task Pearson feature selection report")
    p.add_argument("--log", required=True)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--lag", type=int, default=2)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_select_features)

    p = sub.add_parser("registry", help="inspect a saved registry")
    p.add_argument("action", choices=["list"])
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_registry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
