"""Command-line interface: run, verify, sweep.

Config files are INI-style key-value text with nested sections:

    [run]
    method = routed_fkl_key
    regime = under_allocated
    seed = 0
    steps = 120
    group_size = 8
    learning_rate = 0.5

    [routing]
    w0 = 2.0
    t_start = 10
    t_decay = 50
    tau = 10.0

    [clip]
    eps_low = 0.2
    eps_high = 0.28

    [task]
    vocab = 8
    horizon = 3
    p_star = 0.005

    [sweep]
    method = routed_fkl_key, grpo_only
    seed = 0, 1, 2

Every float must be finite. A run writes its files under the stem
``{method}_{regime}_seed{seed}``, so a sweep whose axes would give two runs
one stem is refused before anything runs, and a run never replaces a
summary written by a different config.

Exit codes: 0 success, 2 config error, 3 numeric failure (including an
exceeded enumeration budget), 4 invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import sys

from .errors import (
    ConfigError,
    EnumerationBudgetError,
    InternalConsistencyError,
    NumericFailureError,
    RoutedKlError,
)
from .grpo import ClipConfig
from .routing import RoutingConfig
from .runner import RunConfig, output_stem, run_experiment
from .tasks import TaskParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

_RUN_KEYS = {
    "method": str,
    "regime": str,
    "seed": int,
    "steps": int,
    "group_size": int,
    "learning_rate": float,
    "annotator_precision": float,
    "teacher_sync": str,
    "rlsd_eps_w": float,
    "out_dir": str,
    "emit_plot_data": lambda s: s.lower() in ("1", "true", "yes"),
    "task_seed": int,
}


def _typed_section(parser: configparser.ConfigParser, name: str, fields) -> dict:
    if name not in parser:
        return {}
    out = {}
    types = {f.name: f.type for f in dataclasses.fields(fields)}
    for key, raw in parser[name].items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
        target = types[key]
        try:
            if target in ("int", int):
                out[key] = int(raw)
            elif target in ("float", float):
                out[key] = float(raw)
            elif target in ("bool", bool):
                out[key] = raw.lower() in ("1", "true", "yes")
            elif target in ("int | None",):
                out[key] = None if raw.lower() in ("none", "") else int(raw)
            else:
                out[key] = raw
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{name}]: {raw!r}") from exc
    return out


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    run_kwargs: dict = {}
    if "run" in parser:
        for key, raw in parser["run"].items():
            if key not in _RUN_KEYS:
                raise ConfigError(f"unknown key {key!r} in [run]")
            try:
                run_kwargs[key] = _RUN_KEYS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    routing_kwargs = _typed_section(parser, "routing", RoutingConfig)
    clip_kwargs = _typed_section(parser, "clip", ClipConfig)
    task_kwargs = _typed_section(parser, "task", TaskParams)
    if overrides:
        run_kwargs.update(overrides)
    try:
        cfg = RunConfig(
            routing=RoutingConfig(**routing_kwargs),
            clip=ClipConfig(**clip_kwargs),
            task_params=TaskParams(**task_kwargs) if task_kwargs else None,
            **run_kwargs,
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_sweep(path: str) -> list[dict]:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    if "sweep" not in parser:
        return [{}]
    axes = {}
    for key, raw in parser["sweep"].items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown sweep key {key!r}")
        axes[key] = [_RUN_KEYS[key](v.strip()) for v in raw.split(",") if v.strip()]
    keys = sorted(axes)
    combos = []
    for values in itertools.product(*(axes[k] for k in keys)):
        combos.append(dict(zip(keys, values)))
    return combos


def _check_distinct_stems(combos: list[dict], cfgs: list[RunConfig]) -> None:
    """Refuse a sweep in which two runs would write one output stem."""
    seen: dict = {}
    for combo, cfg in zip(combos, cfgs):
        stem = output_stem(cfg)
        where = (cfg.out_dir, stem)
        if where in seen:
            axes = sorted(key for key in combo if combo[key] != seen[where][key])
            raise ConfigError(
                f"sweep axis {', '.join(axes) or '(repeated value)'} is not part of the "
                f"output stem {{method}}_{{regime}}_seed{{seed}}: two runs would write {stem!r}"
            )
        seen[where] = combo


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="routedkl", description="Span-routed distillation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=str, default=None)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--fast", action="store_true")

    p_sweep = sub.add_parser("sweep", help="cartesian sweep over config lists")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", type=str, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            overrides = {}
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.out is not None:
                overrides["out_dir"] = args.out
            cfg = load_config(args.config, overrides)
            log, _ = run_experiment(cfg)
            print(
                f"method={cfg.method} regime={cfg.regime} seed={cfg.seed} "
                f"final_reward={float(log.summary['final_validation_reward'])!r} "
                f"hash={log.summary['config_hash']}"
            )
            return EXIT_OK
        if args.command == "verify":
            from .checks import run_checks

            failures = run_checks(fast=args.fast)
            return EXIT_OK if failures == 0 else EXIT_INVARIANT
        if args.command == "sweep":
            combos = load_sweep(args.config)
            out = {} if args.out is None else {"out_dir": args.out}
            cfgs = [load_config(args.config, {**combo, **out}) for combo in combos]
            _check_distinct_stems(combos, cfgs)
            for cfg in cfgs:
                log, _ = run_experiment(cfg)
                print(
                    f"method={cfg.method} regime={cfg.regime} seed={cfg.seed} "
                    f"final_reward={float(log.summary['final_validation_reward'])!r}"
                )
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericFailureError, EnumerationBudgetError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InternalConsistencyError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RoutedKlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
