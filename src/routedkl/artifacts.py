"""The files a run writes: ``ARTIFACTS`` maps each suffix of a run's output
stem to what the file holds and its fields in order, ``(name, type, unit,
meaning)``; a type ending in ``?`` may be an empty cell or null."""

import json
from collections import namedtuple
from pathlib import Path

# What a file holds and when a run writes it, its fields, and the text after a JSON object.
Artifact = namedtuple("Artifact", "about fields end", defaults=("\n",))


ARTIFACTS = {
    ".csv": Artifact("One row per training step; always written.", (
        ("step", "int", "step", "step index k, from 0"),
        ("train_reward", "float", "reward", "mean verifier outcome of the step's sampled group"),
        ("validation_reward", "float", "reward", "exact expected reward E[R] after the step's update"),
        ("entropy", "float", "nat", "mean student entropy at the group's sampled positions, before the update"),
        ("lambda", "float", "weight", "KL weight of the step; 0 for methods without KL, w0 at every step for alltoken_kl_persistent"),
        ("rho", "float", "weight", "GRPO weight on span tokens, 1 - lambda / w0"),
        ("exposure", "float", "exposure", "cumulative privileged exposure: sum of lambda^2 times the mean squared gradient deviation"),
        ("delta_lift", "float?", "nat", "mean log-probability change of the lift-evaluation tokens over the update; empty if there are none"),
        ("response_length", "float", "token", "always the horizon T, as every rollout runs to it; kept so the files keep their bytes"),
    )),
    "_long.csv": Artifact("The step CSV in long form, for plotting; written with `emit_plot_data`.", (
        ("step", "int", "step", "step index k"),
        ("series", "str", "-", "a step-CSV column other than step, in column order"),
        ("value", "float", "-", "that column's value at the step; an empty value has no row"),
    )),
    "_ledger.csv": Artifact("One row per step with the KL channel open; written when there is one.", (
        ("step", "int", "step", "step index k"),
        ("lambda", "float", "weight", "KL weight of the step"),
        ("masked_variance", "float", "prob^2", "group mean of the span-summed context variance V_t over T"),
        ("exposure_lhs", "float", "exposure", "cumulative privileged exposure"),
        ("bound_rhs", "float", "exposure", "its cumulative bound, the sum of lambda^2 masked_variance (C_s = 1)"),
    )),
    "_summary.json": Artifact("The run's summary; always written.", (
        ("method", "str", "-", "training method"),
        ("regime", "str", "-", "task regime"),
        ("seed", "int", "-", "run seed"),
        ("steps", "int", "step", "number of steps run"),
        ("config_hash", "str", "-", "16 hex digits of the run-defining config; out_dir and emit_plot_data excluded"),
        ("final_validation_reward", "float", "reward", "validation_reward of the last step"),
        ("final_train_reward", "float", "reward", "train_reward of the last step"),
        ("mean_delta_lift", "float?", "nat", "mean delta_lift over the steps that have one"),
        ("mean_credit_concentration", "float?", "ratio", "mean over KL steps of the mean per-token update norm inside the span mask over outside"),
        ("credit_norm", "str", "-", 'always "l2", the norm of those update magnitudes; kept so the files keep their bytes'),
        ("final_exposure", "float", "exposure", "exposure after the last step"),
        ("final_exposure_bound", "float", "exposure", "bound_rhs after the last step"),
        ("teacher_syncs", "int", "-", "teacher syncs, the initial one included"),
    )),
    "_abort_diagnostics.json": Artifact("A numeric failure's snapshot, written instead of the other files (exit 3).", (
        ("step", "int", "step", "step index of the failure"),
        ("method", "str", "-", "training method"),
        ("seed", "int", "-", "run seed"),
        ("config_hash", "str", "-", "as in the summary"),
        ("loss", "str", "-", "repr of the step's total loss"),
        ("batch_rewards", "list[float]", "reward", "verifier outcome of each rollout of the step's group"),
        ("rows", "object", "logit", '"{prompt}/{prefix}" of every stored prefix to its student logit row'),
    ), end=""),
}
STEPS, LONG, LEDGER, SUMMARY, ABORT = ARTIFACTS
NAMES = {suffix: tuple(f[0] for f in a.fields) for suffix, a in ARTIFACTS.items()}


def csv_text(suffix: str, rows) -> str:
    """The file's field names as the header line, then rows of logged values:
    a float is written as its ``repr``, None as empty, anything else as ``str``."""

    def cell(value) -> str:
        if isinstance(value, float):
            return repr(float(value))
        return "" if value is None else str(value)

    return "\n".join([",".join(NAMES[suffix]), *(",".join(map(cell, row)) for row in rows)]) + "\n"


def json_text(suffix: str, payload: dict) -> str:
    """The object with its keys sorted and indented by 2, then the file's ``end``."""
    return json.dumps(payload, sort_keys=True, indent=2) + ARTIFACTS[suffix].end


def write(out_dir: str, stem: str, texts: dict) -> None:
    """Write each ``{suffix: text}`` to ``out_dir/{stem}{suffix}``."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for suffix, text in texts.items():
        Path(out_dir, stem + suffix).write_text(text, newline="")
