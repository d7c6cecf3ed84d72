"""Command-line front end: run and validate experiment configs.

Usage:
    aqtrain run <config.json> [--out DIR] [--seed N] [--band-prob min|max]
    aqtrain validate <config.json> [--seed N] [--band-prob min|max]
    aqtrain list-experiments
"""

import argparse
import json
from pathlib import Path

from .experiments import (
    DESCRIPTIONS,
    EXPERIMENT_KINDS,
    SCHEMAS,
    config_hash,
    run_experiment,
    validate_config,
)

#: which config field `--seed` overrides, per kind (per model for enumerate)
SEED_FIELDS = {
    "nn-toy": "seed",
    "nn-binary": "split_seed",
    "classical-pool": "first_seed",
    "accuracy-curves": "seed",
    "enumerate toy": "seed",
    "enumerate binary": "split_seed",
}

#: kinds whose dataset labeling honours `--band-prob`
BAND_FIELDS = {"nn-toy": "band_rule", "enumerate toy": "band_rule"}


def _apply_overrides(config: dict, args) -> list:
    """Fold command-line overrides into the config; returns warning lines."""
    if not isinstance(config, dict):
        return []  # validate_config reports it
    warnings = []
    kind = config.get("kind")
    key, target = (kind if isinstance(kind, str) else None), f"kind {kind!r}"
    if kind == "enumerate":
        model = config.get("model", SCHEMAS[kind]["model"])
        key, target = f"{kind} {model}", f"{target} with model {model!r}"
    for flag, value, fields in (
        ("--seed", args.seed, SEED_FIELDS),
        ("--band-prob", args.band_prob, BAND_FIELDS),
    ):
        if value is None:
            continue
        field = fields.get(key)
        if field is None:
            warnings.append(f"{flag} has no effect for {target}")
        else:
            config[field] = value
    return warnings


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle), None
    except OSError as exc:
        return None, f"cannot read config: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"config is not valid JSON: {exc}"
    except ValueError as exc:  # an integer past the interpreter's digit limit
        return None, f"cannot read config: {exc}"


def _print_effective(effective: dict):
    width = max(len(name) for name in effective)
    for name in sorted(effective):
        print(f"  {name:<{width}} = {effective[name]!r}")


def cmd_validate(args) -> int:
    config, problem = _load_config(args.config)
    if problem:
        print(f"error: {problem}")
        return 2
    for line in _apply_overrides(config, args):
        print(f"warning: {line}")
    report = validate_config(config)
    for line in report.notes:
        print(f"note: {line}")
    for line in report.errors:
        print(f"error: {line}")
    if report.effective:
        print("effective config:")
        _print_effective(report.effective)
    if not report.ok:
        return 2
    print(f"config_hash = {config_hash(report.effective)}")
    return 0


def cmd_run(args) -> int:
    config, problem = _load_config(args.config)
    if problem:
        print(f"error: {problem}")
        return 2
    for line in _apply_overrides(config, args):
        print(f"warning: {line}")
    report = validate_config(config)
    for line in report.errors:
        print(f"error: {line}")
    if not report.ok:
        return 2
    out = Path(args.out) if args.out else Path("runs") / Path(args.config).stem
    print(f"running {report.effective['kind']} -> {out}")
    try:
        result = run_experiment(config, out)
    except (ValueError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}")
        return 1
    for name in sorted(result.summary["headline"]):
        print(f"  {name} = {result.summary['headline'][name]}")
    print(f"wrote {', '.join(result.files)} in {out}")
    return 0


def cmd_list(_args) -> int:
    for kind in EXPERIMENT_KINDS:
        print(f"{kind}: {DESCRIPTIONS[kind]}")
        schema = SCHEMAS[kind]
        width = max(len(name) for name in schema)
        for name, default in schema.items():
            print(f"  {name:<{width}} = {default!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aqtrain",
        description="Run adiabatic-training experiments from JSON configs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run a config and write its output files")
    validate_parser = commands.add_parser(
        "validate", help="check a config and print the effective parameters"
    )
    for sub in (run_parser, validate_parser):
        sub.add_argument("config", help="path to a JSON experiment config")
        sub.add_argument(
            "--seed", type=int, default=None, help="override the config's primary seed"
        )
        sub.add_argument(
            "--band-prob",
            choices=("min", "max"),
            default=None,
            help="band dataset labeling rule (clipped (x+y)^2 probability vs. always-signal)",
        )
    run_parser.add_argument(
        "--out", default=None, help="output directory (default: runs/<config stem>)"
    )
    run_parser.set_defaults(handler=cmd_run)
    validate_parser.set_defaults(handler=cmd_validate)

    list_parser = commands.add_parser(
        "list-experiments", help="list experiment kinds and their parameter defaults"
    )
    list_parser.set_defaults(handler=cmd_list)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
