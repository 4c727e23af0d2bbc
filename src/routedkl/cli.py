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

    [task]
    vocab = 8
    horizon = 3
    p_star = 0.005

    [sweep]
    method = routed_fkl_key, grpo_only
    seed = 0, 1, 2

The keys of a section are the fields of its config dataclass, typed by
their annotations: ``[run]`` takes the scalar fields of ``RunConfig``,
``[routing]`` those of ``RoutingConfig`` and ``[task]`` those of
``TaskParams``; each ``[sweep]`` key is a ``[run]`` field with a
comma-separated list of values. There is no ratio clip section: the GRPO
term is on-policy (one update per sampled group), so clip bounds would
change no run, and ``[clip]`` is refused as an unknown section. No key
picks the span branches that carry KL: the method does
(``runner.KL_BRANCHES``). A bool is one of ``1/true/yes/0/false/no``, and
``none`` or an empty value sets an optional field to None. Any other key,
section or value, a malformed file, and every value its dataclass rejects
(every float must be finite) is a config error that names the key,
section or line. A run writes the files of ``artifacts.ARTIFACTS`` under
the stem ``{method}_{regime}_seed{seed}``; a sweep whose axes give two
runs one stem, or a run that would replace another config's files, is
refused before the first run starts.

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
from .routing import RoutingConfig
from .runner import RunConfig, output_stem, refuse_overwrite, run_experiment
from .tasks import TaskParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

# Section -> (RunConfig field, config dataclass) of the nested configs.
_NESTED = {
    "routing": ("routing", RoutingConfig),
    "task": ("task_params", TaskParams),
}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _field_types(cls) -> dict:
    """Field name -> annotation string, without RunConfig's nested configs."""
    nested = {name for name, _ in _NESTED.values()}
    return {f.name: f.type for f in dataclasses.fields(cls) if f.name not in nested}


def _typed_value(section: str, key: str, raw: str, annotation: str):
    base, _, optional = annotation.partition(" | ")
    text = raw.strip().lower()
    try:
        if optional and text in ("", "none"):
            return None
        if base == "int":
            return int(raw)
        if base == "float":
            return float(raw)
        if base == "bool":
            return _BOOLS[text]
        return raw
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc


def _typed_section(sections: dict, name: str, cls) -> dict:
    types = _field_types(cls)
    out = {}
    for key, raw in sections.get(name, {}).items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
        out[key] = _typed_value(name, key, raw, types[key])
    return out


def _read(path: str) -> dict:
    """Section name -> {key: raw value} of the INI file at ``path``."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path!r}")
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    unknown = sorted(set(sections) - {"run", "sweep", *_NESTED})
    if unknown:
        raise ConfigError(f"unknown section [{unknown[0]}]")
    return sections


def _run_config(sections: dict, overrides: dict) -> RunConfig:
    kwargs = {**_typed_section(sections, "run", RunConfig), **overrides}
    for section, (name, cls) in _NESTED.items():
        kwargs[name] = cls(**_typed_section(sections, section, cls))
    return RunConfig(**kwargs)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """The run config of the INI file at ``path``, with ``overrides``
    (typed ``RunConfig`` fields) replacing its ``[run]`` values."""
    return _run_config(_read(path), overrides or {})


def load_sweep(path: str, overrides: dict | None = None) -> list[tuple[dict, RunConfig]]:
    """(axis values, run config) of every combination of the ``[sweep]``
    axes of the INI file at ``path``, read once; one run without axes."""
    sections = _read(path)
    types = _field_types(RunConfig)
    axes = {}
    for key, raw in sections.get("sweep", {}).items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in [sweep]")
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"sweep axis {key!r} has no values")
        axes[key] = [_typed_value("sweep", key, v, types[key]) for v in values]
    keys = sorted(axes)
    combos = [dict(zip(keys, values)) for values in itertools.product(*(axes[k] for k in keys))]
    return [(combo, _run_config(sections, {**combo, **(overrides or {})})) for combo in combos]


def _check_outputs(runs: list[tuple[dict, RunConfig]]) -> None:
    """Refuse a sweep in which two runs would write one output stem, or
    one run would replace another config's outputs."""
    seen: dict = {}
    for combo, cfg in runs:
        refuse_overwrite(cfg)
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
            runs = load_sweep(args.config, {} if args.out is None else {"out_dir": args.out})
            _check_outputs(runs)
            for _, cfg in runs:
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
