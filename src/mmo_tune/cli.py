"""Command-line surface: tune, campaign, sweep-weights, select-weight, stats, gen-landscape.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
The environment variable MMO_TUNE_SEED overrides the master seed when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .harness import (
    ALL_MODELS,
    DEFAULT_WEIGHTS,
    MMO_MODELS,
    PRESETS,
    SEED_ENV_VAR,
    ExperimentPlan,
    best_weight_groups,
    build_oracle,
    data_driven_weight_selection,
    emit_trace,
    execute_run,
    preliminary_weight_selection,
    recompute_report,
    weight_token,
    write_campaign,
    write_report,
)
from .measurement import SyntheticOracle
from .models import DIRECTIONS
from .space import load_space

# Guard for table emission: enumerating beyond this is a mistake, not a use case.
MAX_TABLE_ROWS = 1_000_000


class _UsageError(Exception):
    """A usage error; ``usage`` is the usage line to print with it, if any."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        # The raising parser's own usage: a subcommand's error shows its flags.
        raise _UsageError(message, self.format_usage())


def _comma_list(convert: type, what: str):
    """An argparse type: the comma-separated values of a flag, each read by
    ``convert``; empty ones are skipped."""

    def parse(text: str) -> list:
        try:
            return [convert(v) for v in text.split(",") if v]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


def _add_landscape_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--landscape-seed", type=int, default=0)
    parser.add_argument("--density", type=float, default=0.05)
    parser.add_argument("--ruggedness", type=float, default=0.3)
    parser.add_argument("--correlation", type=float, default=0.0)
    parser.add_argument("--planted", type=_comma_list(int, "integers"),
                        help="comma-separated planted optimum values")


def _add_oracle_args(parser: argparse.ArgumentParser) -> None:
    oracle = parser.add_mutually_exclusive_group(required=True)
    oracle.add_argument("--table", help="CSV of pre-measured configurations")
    oracle.add_argument("--command", help="external measurement command")
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--timeout", type=float, default=60.0)
    _add_landscape_args(parser)
    oracle.add_argument(
        "--synthetic", action="store_true", help="use the synthetic landscape oracle"
    )


def _add_run_args(parser: argparse.ArgumentParser, budget_required: bool) -> None:
    """Flags of one tuning run: space, oracle, budget, population, seed, directions."""
    parser.add_argument("--space", required=True, help="space definition file")
    _add_oracle_args(parser)
    parser.add_argument("--budget", type=int, required=budget_required)
    parser.add_argument("--pop", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    for objective in ("target", "auxiliary"):
        parser.add_argument(f"--{objective}-direction", choices=DIRECTIONS,
                            default="minimize")


def _add_plan_args(parser: argparse.ArgumentParser) -> None:
    _add_run_args(parser, budget_required=False)
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--models", type=_comma_list(str, "model names"),
                        default=",".join(ALL_MODELS))
    parser.add_argument(
        "--weights", type=_comma_list(float, "numbers"),
        default=",".join(weight_token(w) for w in DEFAULT_WEIGHTS),
    )
    parser.add_argument("--jobs", type=int, default=1)


def _oracle_spec(args: argparse.Namespace) -> dict:
    if args.table is not None:
        return {"kind": "table", "path": args.table}
    if args.command is not None:
        return {
            "kind": "command",
            "command": args.command,
            "samples": args.samples,
            "timeout": args.timeout,
        }
    return {"kind": "synthetic", **_landscape_fields(args)}


def _landscape_fields(args: argparse.Namespace) -> dict:
    """``SyntheticOracle``'s arguments other than the space, from the flags."""
    fields: dict = {
        "seed": args.landscape_seed,
        "density": args.density,
        "ruggedness": args.ruggedness,
        "correlation": args.correlation,
    }
    if args.planted:
        fields["planted"] = args.planted
    return fields


def _master_seed(args: argparse.Namespace) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _run_plan(args: argparse.Namespace, **fields) -> ExperimentPlan:
    """The plan of the run flags every subcommand shares (space, oracle,
    seed, directions), with ``fields`` for the rest."""
    return ExperimentPlan(
        space=load_space(args.space),
        oracle_spec=_oracle_spec(args),
        master_seed=_master_seed(args),
        target_direction=args.target_direction,
        auxiliary_direction=args.auxiliary_direction,
        **fields,
    )


def _plan_from_args(args: argparse.Namespace) -> ExperimentPlan:
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    budget, population = args.budget, args.pop
    if args.preset:
        population, budget = PRESETS[args.preset]
    if budget is None:
        raise _UsageError("--budget is required (or use --preset)")
    return _run_plan(
        args,
        budget=budget,
        population_size=population,
        repeats=args.repeats,
        models=args.models,
        weights=args.weights,
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    plan = _run_plan(
        args,
        budget=args.budget,
        population_size=args.pop,
        repeats=1,
        models=(args.model,),
        weights=(args.weight,) if args.weight is not None else DEFAULT_WEIGHTS,
    )
    # The one run of the plan: a meta model runs at --weight, the others
    # without one, seeded as a campaign seeds them, whatever --weight says.
    model, weight, _ = key = plan.run_keys()[0]
    if model in MMO_MODELS and args.weight is None:
        raise _UsageError(f"model {model} needs --weight")
    seed = plan.run_seed(*key)
    oracle = build_oracle(plan)
    trace = execute_run(
        plan.space, oracle, plan.budget, plan.population_size, model, weight, seed,
        plan.directions,
    )
    emit_trace(trace, args.out)
    print(
        json.dumps(
            {
                "model": model,
                "weight": weight,
                "seed": seed,
                "measurements": len(trace.rows),
                "best_target": trace.summary().best_target,
                "trace": args.out,
            }
        )
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    plan = _plan_from_args(args)
    report = write_campaign(plan, args.out, jobs=args.jobs)
    print(
        json.dumps(
            {
                "out": args.out,
                "plan_hash": report["plan_hash"],
                "best_counterpart": report["best_counterpart"],
                "groups": len(report["groups"]),
            }
        )
    )
    return 0


def _cmd_sweep_weights(args: argparse.Namespace) -> int:
    plan = _plan_from_args(args)
    if not plan.mmo_models():
        raise _UsageError("sweep-weights needs at least one mmo:* model")
    report = write_campaign(plan, args.out, jobs=args.jobs)
    sweep_path = os.path.join(args.out, "sweep.csv")
    groups = [g for g in report["groups"] if g["model"] in MMO_MODELS]
    best = best_weight_groups(report)
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["model", "weight", "mean", "sk_rank", "a12", "wilcoxon_p",
             "significant", "best_weight"]
        )
        for g in groups:
            writer.writerow(
                [
                    g["model"],
                    weight_token(g["weight"]),
                    repr(g["mean"]),
                    g["sk_rank"],
                    "" if g["a12"] is None else repr(g["a12"]),
                    "" if g["wilcoxon_p"] is None else repr(g["wilcoxon_p"]),
                    "" if g["significant"] is None else int(g["significant"]),
                    int(best[g["model"]] is g),
                ]
            )
    print(json.dumps({"out": args.out, "sweep": sweep_path}))
    return 0


def _cmd_select_weight(args: argparse.Namespace) -> int:
    if args.scale == "full" and args.method != "data-driven":
        raise _UsageError("--scale full needs --method data-driven")
    plan = _plan_from_args(args)
    if args.method == "preliminary":
        chosen = preliminary_weight_selection(plan)
        print(json.dumps({"method": "preliminary", "weights": chosen}, sort_keys=True))
        return 0
    if args.table is None:
        raise _UsageError("data-driven selection needs --table")
    chosen, elapsed = data_driven_weight_selection(
        build_oracle(plan), plan, mode=args.scale, jobs=args.jobs
    )
    print(
        json.dumps(
            {
                "method": "data-driven",
                "scale": args.scale,
                "weights": chosen,
                "elapsed_seconds": elapsed,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    report = recompute_report(args.dir)
    path = write_report(report, args.dir)
    print(json.dumps({"report": path, "plan_hash": report["plan_hash"]}))
    return 0


def _cmd_gen_landscape(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    if space.size() > MAX_TABLE_ROWS:
        raise ValueError(
            f"space has {space.size()} configurations; refusing to enumerate "
            f"more than {MAX_TABLE_ROWS}"
        )
    oracle = SyntheticOracle(space, **_landscape_fields(args))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*space.names, "target", "auxiliary"])
        for config in space.enumerate_all():
            record = oracle.measure(config)
            writer.writerow(
                [*config, f"{record.target_raw:.2f}", f"{record.auxiliary_raw:.2f}"]
            )
    print(
        json.dumps(
            {
                "out": args.out,
                "rows": space.size(),
                "planted": oracle.planted,
            }
        )
    )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mmo-tune", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    tune = sub.add_parser("tune", help="one tuning run")
    _add_run_args(tune, budget_required=True)
    tune.add_argument("--model", required=True)
    tune.add_argument("--weight", type=float)
    tune.add_argument("--out", default="trace.csv")
    tune.set_defaults(func=_cmd_tune)

    campaign = sub.add_parser("campaign", help="full multi-run experiment")
    _add_plan_args(campaign)
    campaign.add_argument("--out", required=True)
    campaign.set_defaults(func=_cmd_campaign)

    sweep = sub.add_parser("sweep-weights", help="weight sensitivity grid")
    _add_plan_args(sweep)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep_weights)

    select = sub.add_parser("select-weight", help="pick weights per meta instance")
    _add_plan_args(select)
    select.add_argument(
        "--method", choices=("preliminary", "data-driven"), default="preliminary"
    )
    select.add_argument("--scale", choices=("preliminary", "full"),
                        default="preliminary")
    select.set_defaults(func=_cmd_select_weight)

    stats = sub.add_parser("stats", help="recompute a report from stored traces")
    stats.add_argument("--dir", required=True)
    stats.set_defaults(func=_cmd_stats)

    gen = sub.add_parser("gen-landscape", help="emit a synthetic table as CSV")
    gen.add_argument("--space", required=True)
    _add_landscape_args(gen)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_landscape)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(exc.usage)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
