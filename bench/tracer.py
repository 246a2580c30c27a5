"""Outside-in tracer for dplens: spans around calls into each module.

The tracer replaces functions and task methods with timing wrappers at the
names their callers look up (``dplens.trainer.privatize_gradient`` as well as
``dplens.clipping.privatize_gradient``), so nothing under ``src/`` changes.
Spans nest per thread: a span's self time is its duration minus the time of
the spans it directly contains, and a layer's time counts only its outermost
spans, so nested calls inside one layer are not counted twice.  Leaving the
``install`` block restores every replaced attribute, also on an exception.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

Hook = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """In-memory span recorder; spans are aggregated as they close."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: Counter = Counter()
        self.layer_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self.wall = 0.0  # summed duration of top-level spans
        self.top_self = 0.0  # their self time: inside no other layer's span
        self.latest_batch: Any = None  # the last batch a training step drew
        self.latest_batch_used = False
        self._local = threading.local()

    def _frames(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.names, local.layers = [], Counter(), Counter()
        return local.stack

    def active(self, name: str) -> int:
        """How many spans of ``name`` are open in this thread."""
        self._frames()
        return self._local.names[name]

    def active_layer(self, layer: str) -> int:
        self._frames()
        return self._local.layers[layer]

    def span(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """Wrap ``fn`` so that each call records one span called ``name``."""
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            stack = self._frames()
            local = self._local
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            local.names[name] += 1
            local.layers[layer] += 1
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                local.names[name] -= 1
                local.layers[layer] -= 1
                self.durations[name].append(dur)
                self.self_time[name] += dur - frame[1]
                if local.layers[layer] == 0:
                    self.layer_time[layer] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.wall += dur
                    self.top_self += dur - frame[1]

        return traced

    @contextlib.contextmanager
    def install(self, targets: list[tuple[Any, str, str, Hook | None]]) -> Iterator["Tracer"]:
        """Wrap each ``(owner, attribute, span name, hook)``; restore on exit."""
        saved = []
        try:
            for owner, attr, name, hook in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# --------------------------------------------------------------------------
# what to wrap in dplens
# --------------------------------------------------------------------------

MODEL_METHODS = ("draw_batch", "batch_loss", "per_sample_gradients", "hvp",
                 "population_losses", "population_loss", "batch_gradient", "forward")
TRAINER_LOOPS = ("continual_pretrain", "empirical_improvement_oracle",
                 "four_way_comparison")


def _same_batch(arg: Any, batch: Any) -> bool:
    if batch is None:
        return False
    if isinstance(batch, tuple):
        return isinstance(arg, tuple) and len(arg) == len(batch) and arg[0] is batch[0]
    return arg is batch or getattr(arg, "base", None) is batch


def _on_draw_batch(tracer: Tracer, args: tuple, result: Any) -> None:
    if tracer.active_layer("hessian") == 0:
        tracer.latest_batch = result
        tracer.latest_batch_used = False


def _on_forward(tracer: Tracer, args: tuple, result: Any) -> None:
    # a forward pass of the training step: the step's own fresh batch, not
    # nested in another model call and not part of a curvature probe
    if (tracer.active_layer("model") == 1 and tracer.active_layer("hessian") == 0
            and _same_batch(args[2], tracer.latest_batch)):
        tracer.counts["step_forward_passes"] += 1
        if not tracer.latest_batch_used:
            tracer.latest_batch_used = True
            tracer.counts["step_batches"] += 1


def _on_per_sample_gradients(tracer: Tracer, args: tuple, result: Any) -> None:
    if tracer.active("model.hvp"):
        tracer.counts["psg_in_hvp"] += 1
    _on_forward(tracer, args, result)


def _on_hvp(tracer: Tracer, args: tuple, result: Any) -> None:
    if tracer.active("hessian.stats_snapshot"):
        tracer.counts["hvp_in_snapshot"] += 1


def _on_stats_snapshot(tracer: Tracer, args: tuple, stats: Any) -> None:
    if stats.tr_h != 0.0:
        tracer.values["tr_h_rel_se"].append(stats.standard_error_tr_h / abs(stats.tr_h))


_HOOKS = {
    "model.draw_batch": _on_draw_batch,
    "model.batch_loss": _on_forward,
    "model.per_sample_gradients": _on_per_sample_gradients,
    "model.hvp": _on_hvp,
    "hessian.stats_snapshot": _on_stats_snapshot,
}


def _public_functions(module) -> list[str]:
    return [
        attr for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not attr.startswith("_")
    ]


def dplens_targets() -> list[tuple[Any, str, str, Hook | None]]:
    """Every name the workloads reach, at each place a caller looks it up."""
    from dplens import attacks, cli, clipping, hessian, model, predictor, privacy, trainer

    sites: list[tuple[Any, str, str]] = [
        (cli, "run_subcommand", "cli.run_subcommand"),
        (cli, "load_config", "cli.load_config"),
        (cli, "task_from_config", "cli.task_from_config"),
        (cli, "population_stats", "model.population_stats"),
    ]
    for module in (privacy, predictor, clipping, hessian, attacks, trainer):
        layer = module.__name__.rsplit(".", 1)[1]
        sites += [(module, a, f"{layer}.{a}") for a in _public_functions(module)]
    # names imported by value into another module are looked up there
    for owner in (trainer, attacks):
        for attr, obj in list(vars(owner).items()):
            home = getattr(obj, "__module__", "")
            if (inspect.isfunction(obj) and home != owner.__name__
                    and home.startswith("dplens.")):
                sites.append((owner, attr, f"{home.rsplit('.', 1)[1]}.{attr}"))
    for cls in (model.TinyMlpTask, model.QuadraticTask, model.LogisticTask):
        sites += [(cls, m, f"model.{m}") for m in MODEL_METHODS if m in cls.__dict__]
    return [(owner, attr, name, _HOOKS.get(name)) for owner, attr, name in sites]


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for a name that was never called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _median(values: list[float]) -> float:
    return _pct(values, 0.5)


def layer_metrics(tracer: Tracer, runs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run made of ``runs`` subcommand calls.

    Shares are of the traced wall time (the summed duration of the top-level
    ``run_subcommand`` spans).  Per-call times are medians (p50) and, for the
    microsecond-scale calls, 99th percentiles.
    """
    wall = tracer.wall or math.inf
    d = tracer.durations
    out: dict[str, tuple[float, str]] = {}

    def per_call_us(name: str) -> None:
        out[f"{name}_us.p50"] = (1e6 * _pct(d[name], 0.5), "us")
        out[f"{name}_us.p99"] = (1e6 * _pct(d[name], 0.99), "us")
        out[f"{name}.share"] = (sum(d[name]) / wall, "ratio")

    out["cli.load_config_ms"] = (1e3 * _median(d["cli.load_config"]), "ms")
    out["privacy.calibrate_sigma_ms"] = (1e3 * _median(d["privacy.calibrate_sigma"]), "ms")
    out["privacy.calls"] = (len(d["privacy.calibrate_sigma"]) / runs, "count")
    out["privacy.share"] = (tracer.layer_time["privacy"] / wall, "ratio")
    out["predictor.share"] = (tracer.layer_time["predictor"] / wall, "ratio")
    for m in ("draw_batch", "batch_loss", "per_sample_gradients", "hvp", "population_losses"):
        per_call_us(f"model.{m}")
    out["model.share"] = (tracer.layer_time["model"] / wall, "ratio")
    c = tracer.counts
    out["model.forward_passes_per_step"] = (
        c["step_forward_passes"] / c["step_batches"] if c["step_batches"] else 0.0, "count")
    out["model.psg_calls_per_hvp"] = (
        c["psg_in_hvp"] / len(d["model.hvp"]) if d["model.hvp"] else 0.0, "count")
    per_call_us("clipping.privatize_gradient")
    per_call_us("clipping.privatize_gradient_many")
    per_call_us("trainer.optimizer_direction")
    out["trainer.loop_self_share"] = (
        sum(tracer.self_time[f"trainer.{f}"] for f in TRAINER_LOOPS) / wall, "ratio")
    for f in ("stats_snapshot", "hutchinson_trace", "trace_h_sigma", "quadratic_form"):
        out[f"hessian.{f}_ms"] = (1e3 * _median(d[f"hessian.{f}"]), "ms")
    out["hessian.share"] = (tracer.layer_time["hessian"] / wall, "ratio")
    snapshots = len(d["hessian.stats_snapshot"])
    out["hessian.hvp_calls_per_snapshot"] = (
        c["hvp_in_snapshot"] / snapshots if snapshots else 0.0, "count")
    out["hessian.tr_h_rel_se"] = (_median(tracer.values["tr_h_rel_se"]), "ratio")
    for f in ("fit_softmax", "build_mia_dataset", "fit_mia_classifier", "evaluate_mia"):
        out[f"attacks.{f}_ms"] = (1e3 * _median(d[f"attacks.{f}"]), "ms")
    out["attacks.share"] = (tracer.layer_time["attacks"] / wall, "ratio")
    out["trace.unattributed_frac"] = (tracer.top_self / wall, "ratio")
    return out
