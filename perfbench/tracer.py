"""Span tracer over the public functions of every ``routedkl`` module.

``Tracer.install`` wraps each public module-level function and each public
method of a class defined in a ``routedkl`` module, then rebinds every
module attribute that held the original. ``runner`` and ``studies`` import
``sample_rollout``, ``routed_step_loss``, ``truncate_and_floor`` and others
with ``from .x import y``, so patching only the defining module would miss
those call sites.

A span is four numbers (name id, parent index, start, end) appended to flat
arrays, so a traced run keeps every call in memory at a few bytes each.
``save`` writes them out and ``layer_metrics`` turns a saved trace into the
per-layer metrics. Self time is a span's duration minus the durations of
its direct children.

A few wrappers also look at arguments or results to count what the spans
cannot show: dead-zone groups, clip binding, span classes, coverage-cap
trims, and teacher lookups and syncs per table. The lookup and sync counts
are compared with the table's own counters at the end of every run, so a
call site the tracer misses fails the run.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

REF_SPAN = "bench.ref"


def package_modules(package) -> list:
    """The package itself followed by all of its modules, imported."""
    return [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.on = False
        self.counters: Counter = Counter()
        self.coverage_errors: list[str] = []
        self.finished_runs: list[dict] = []
        self._tables: dict[int, list] = {}

    # ----- recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._intern(name)
        tracer = self
        stack = self._stack
        name_append, parent_append = self.name_id.append, self.parent.append
        start, end = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(start)
            name_append(nid)
            parent_append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def span_count(self) -> int:
        return len(self.start)

    # ----- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and method of ``package``'s modules."""
        modules = package_modules(package)
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj, self._hook_for(f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        span = f"{layer}.{name}.{meth}"
                        setattr(obj, meth, self.wrap(span, fn, self._hook_for(span)))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    # ----- value hooks ----------------------------------------------------

    def _table(self, table) -> list:
        entry = self._tables.get(id(table))
        if entry is None:
            # Holding the table keeps its id from being reused by another.
            entry = self._tables[id(table)] = [table, 0, 0, 0]
        return entry

    def _hook_for(self, span: str):
        c = self.counters
        if span == "grpo.group_advantages":
            def hook(args, kwargs, adv):
                c["groups"] += 1
                c["dead_groups"] += not np.any(adv)
        elif span == "grpo.grpo_token_loss":
            def hook(args, kwargs, result):
                advantage = args[1] if len(args) > 1 else kwargs["advantage"]
                c["grpo_tokens"] += 1
                c["clip_bind"] += advantage != 0.0 and result[1] == 0.0
        elif span == "routing.partition":
            def hook(args, kwargs, part):
                c["key_spans"] += len(part.key_idx)
                c["error_spans"] += len(part.error_idx)
        elif span == "routing.enforce_coverage_cap":
            def hook(args, kwargs, capped):
                mask = args[0] if args else kwargs["mask"]
                c["cap_trimmed"] += int(np.sum(mask)) - int(np.sum(capped))
        elif span == "policy.PolicyTable.teacher_logits":
            def hook(args, kwargs, result):
                self._table(args[0])[1] += 1
        elif span == "policy.PolicyTable.sync_teacher":
            def hook(args, kwargs, result):
                entry = self._table(args[0])
                entry[2] += 1
                entry[3] += len(args[0].rows) * args[0].vocab * 8
        elif span == "runner.run_experiment":
            hook = self._run_finished
        else:
            hook = None
        return hook

    def _run_finished(self, args, kwargs, result) -> None:
        table = result[1].table
        _, lookups, syncs, sync_bytes = self._tables.pop(id(table), [table, 0, 0, 0])
        if lookups != table.teacher_lookups:
            self.coverage_errors.append(
                f"tracer saw {lookups} teacher lookups, table counted {table.teacher_lookups}"
            )
        if syncs != table.sync_count:
            self.coverage_errors.append(
                f"tracer saw {syncs} sync_teacher calls, table counted {table.sync_count}"
            )
        self.finished_runs.append({"rows": len(table.rows), "sync_bytes": sync_bytes})

    def forget_tables(self) -> None:
        """Drop per-table state of tables whose run has ended (e.g. scratch tables)."""
        self._tables.clear()

    # ----- output ---------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ----- per-layer metrics -------------------------------------------------------

# Layer times are self times; function groups sum the self times of their
# members, so a layer's self time splits into its groups plus the rest.
GROUPS = {
    "policy.apply": ("policy.PolicyTable.apply_gradients",),
    "tasks.sample": ("tasks.sample_rollout", "tasks.SynthTask.verifier"),
    "tasks.annotate": ("tasks.oracle_annotate", "tasks.SynthTask.root_cause"),
    "tasks.teacher": (
        "tasks.SynthTask.teacher_dist",
        "tasks.SynthTask.teacher_dist_matrix",
        "tasks.SynthTask.context_offset",
    ),
    "tasks.eval": ("tasks.SynthTask.expected_reward",),
    "routing.mask": (
        "routing.project_spans_to_mask",
        "routing.enforce_coverage_cap",
        "routing.partition",
    ),
    "routing.loss": ("routing.routed_step_loss",),
    "privileged.ledger": (
        "privileged.context_variance",
        "privileged.context_mean",
        "privileged.expected_deviation_sq",
        "privileged.exposure_accumulate",
    ),
    "runner.glue": (
        "runner.train_step",
        "runner.effective_lambda",
        "runner.effective_routing",
        "runner.should_sync",
    ),
    "runner.write": (
        "runner.RunLog.to_csv",
        "runner.RunLog.to_long_csv",
        "privileged.ExposureLedger.to_csv",
    ),
    "cli.parse": ("cli.load_config", "cli.load_sweep"),
}

# metric name -> (kind, what). Kinds: "self" (layer self time), "group"
# (group self time), "calls" (span count of names), "layer_calls" (span
# count of a layer), "counter" (value hook count per step), "frac"
# (ratio of two value hook counts), "run" (per-run value from finished runs), "bytes"
# (artifact bytes per step).
LAYER_METRICS = {
    "policy.softmax_calls": ("calls", ("policy.softmax",)),
    "policy.validate_calls": ("calls", ("policy.validate_distribution",)),
    "policy.floor_calls": ("calls", ("policy.truncate_and_floor",)),
    "policy.self_ref": ("self", "policy"),
    "policy.apply_ref": ("group", "policy.apply"),
    "policy.rows": ("run", "rows"),
    "policy.sync_bytes": ("run", "sync_bytes"),
    "tasks.self_ref": ("self", "tasks"),
    "tasks.sample_ref": ("group", "tasks.sample"),
    "tasks.annotate_ref": ("group", "tasks.annotate"),
    "tasks.teacher_calls": ("calls", ("tasks.SynthTask.teacher_dist", "tasks.SynthTask.teacher_dist_matrix")),
    "tasks.teacher_ref": ("group", "tasks.teacher"),
    "tasks.eval_ref": ("group", "tasks.eval"),
    "routing.self_ref": ("self", "routing"),
    "routing.mask_ref": ("group", "routing.mask"),
    "routing.loss_ref": ("group", "routing.loss"),
    "routing.kl_tokens": (
        "calls",
        ("divergence.fkl_clipped_value_and_grad", "divergence.rkl_clipped_value_and_grad"),
    ),
    "routing.key_spans": ("counter", "key_spans"),
    "routing.error_spans": ("counter", "error_spans"),
    "routing.cap_trimmed": ("counter", "cap_trimmed"),
    "divergence.calls": ("layer_calls", "divergence"),
    "divergence.self_ref": ("self", "divergence"),
    "grpo.token_calls": ("calls", ("grpo.grpo_token_loss",)),
    "grpo.self_ref": ("self", "grpo"),
    "grpo.dead_zone_frac": ("frac", ("dead_groups", "groups")),
    "grpo.clip_bind_frac": ("frac", ("clip_bind", "grpo_tokens")),
    "privileged.calls": ("layer_calls", "privileged"),
    "privileged.self_ref": ("self", "privileged"),
    "privileged.ledger_ref": ("group", "privileged.ledger"),
    "metrics.self_ref": ("self", "metrics"),
    "runner.self_ref": ("group", "runner.glue"),
    "runner.write_ref": ("group", "runner.write"),
    "runner.bytes_written": ("bytes", None),
    "cli.parse_ref": ("group", "cli.parse"),
}

UNITS = {"self": "ref/step", "group": "ref/step", "calls": "count/step",
         "layer_calls": "count/step", "counter": "count/step", "frac": "share",
         "run": "count/run", "bytes": "bytes/step"}
UNITS_BY_METRIC = {"policy.sync_bytes": "bytes/run"}


def metric_unit(name: str) -> str:
    return UNITS_BY_METRIC.get(name, UNITS[LAYER_METRICS[name][0]])


def _self_times(trace) -> np.ndarray:
    dur = trace["end"] - trace["start"]
    parent = trace["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def layer_metrics(trace, window_all, window_count, steps_all, steps_count,
                  ref_mean_s, counters, runs, bytes_written) -> dict:
    """Per-layer metrics from a saved trace.

    Times use every span of the measured window ``window_all`` and are
    given in reference units per step. Counts use the first cycle only,
    ``window_count``, so that they repeat exactly however many cycles fit
    in the run.
    """
    names = [str(n) for n in trace["names"]]
    name_id = trace["name_id"]
    self_t = _self_times(trace)
    lo, hi = window_all
    clo, chi = window_count

    def ids(pred):
        return np.array([i for i, n in enumerate(names) if pred(n)], dtype=np.int64)

    def time_ref(pred):
        sel = np.isin(name_id[lo:hi], ids(pred))
        return float(self_t[lo:hi][sel].sum()) / steps_all / ref_mean_s

    def count(pred):
        return int(np.isin(name_id[clo:chi], ids(pred)).sum())

    out = {}
    for metric, (kind, what) in LAYER_METRICS.items():
        if kind == "self":
            value = time_ref(lambda n, w=what: n.split(".", 1)[0] == w)
        elif kind == "group":
            value = time_ref(lambda n, w=what: n in GROUPS[w])
        elif kind == "calls":
            value = count(lambda n, w=what: n in w) / steps_count
        elif kind == "layer_calls":
            value = count(lambda n, w=what: n.split(".", 1)[0] == w) / steps_count
        elif kind == "counter":
            value = counters.get(what, 0) / steps_count
        elif kind == "frac":
            num, den = what
            value = counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
        elif kind == "run":
            value = float(np.mean([r[what] for r in runs])) if runs else 0.0
        else:
            value = bytes_written / steps_count
        out[metric] = value
    return out
