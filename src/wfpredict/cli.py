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
from .pipeline import ALL_METRICS, PipelineConfig, Registry, replace_file, trev_comoments
from .store import RecordLog

SWEEP_TAUS = (1, 5, 10, 15, 30)
SWEEP_LAGS = (2, 3)


def _write_report(report: EvalReport, out_prefix: Path) -> None:
    replace_file(f"{out_prefix}.json", [report.to_json() + "\n"])
    replace_file(f"{out_prefix}.txt", [report.to_text()])


def _refuse_out_on_log(args) -> None:
    if args.out and Path(args.out).resolve() == Path(args.log).resolve():
        raise ValueError(f"--out {args.out} is the --log file; choose another path")


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
    _refuse_out_on_log(args)
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
    if args.out:
        replace_file(args.out, lines)
    else:
        sys.stdout.writelines(lines)
    if args.registry_dir:
        registry.save()
    return 0


def cmd_eval_online(args) -> int:
    report = run_online(
        RecordLog(args.log),
        Scenario(args.scenario),
        tau=args.tau,
        lag=args.lag,
        seed=args.seed,
        skip_first=args.skip_first,
        **_overrides(args),
    )
    _write_report(report, Path(args.out))
    print(f"online rae {report.rae!r} over {report.n_predictions} predictions")
    return 0


def cmd_eval_batch(args) -> int:
    report = run_batch_offline(
        RecordLog(args.log),
        Scenario(args.scenario),
        d=args.d,
        tau=args.tau,
        lag=args.lag,
        seed=args.seed,
        **_overrides(args),
    )
    _write_report(report, Path(args.out))
    print(f"batch(d={args.d}) rae {report.rae!r} over {report.n_predictions} predictions")
    return 0


def cmd_sweep(args) -> int:
    log = RecordLog(args.log)
    scenarios = [Scenario(s) for s in args.scenarios]
    taus = args.taus or list(SWEEP_TAUS)
    lags = args.lags or list(SWEEP_LAGS)
    if any(t < 1 for t in taus) or any(l < 1 for l in lags):
        raise ValueError("sweep taus and lags must be >= 1")
    out_dir = Path(args.out_dir)
    if not next(p for p in (out_dir, *out_dir.absolute().parents) if p.exists()).is_dir():
        raise ValueError(f"--out-dir {out_dir} is, or lies under, a file that is not a directory")
    n = 0
    for scenario, tau, lag in itertools.product(scenarios, taus, lags):
        report = run_online(log, scenario, tau=tau, lag=lag, seed=args.seed)
        _write_report(report, out_dir / f"{scenario.value}_tau{tau}_lag{lag}")
        n += 1
    print(f"wrote {n} reports to {out_dir}")
    return 0


def cmd_select_features(args) -> int:
    _refuse_out_on_log(args)
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
    if args.out:
        replace_file(args.out, [json.dumps(result, indent=2) + "\n"])
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
