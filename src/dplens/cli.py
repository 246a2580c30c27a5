"""Experiment driver: JSON configs in, CSV tables and SVG line plots out.

Every subcommand is a pure function of (config, seed): rerunning with the
same inputs reproduces the output bytes.  Exit codes: 0 success, 1 config
error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import attacks, clipping, predictor, privacy, trainer
from .model import LogisticTask, QuadraticTask, TinyMlpTask, population_stats

SCHEMA_VERSION = 1
SUBCOMMANDS = (
    "calibrate",
    "predict",
    "sweep-batch",
    "oracle",
    "train",
    "continual",
    "fourway",
    "mia",
    "fig-breakdown",
)


class ConfigError(Exception):
    """The run configuration is missing, malformed, or out of contract."""


# --------------------------------------------------------------------------
# config schemas
# --------------------------------------------------------------------------

_NUM = {"type": "number"}
_POS_INT = {"type": "integer", "minimum": 1}
_NUM_GRID = {"type": "array", "items": _NUM, "minItems": 1}
_INT_GRID = {"type": "array", "items": _POS_INT, "minItems": 1}

_TASK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["quadratic", "logistic", "tinymlp"]},
        "dimension": _POS_INT,
        "hessian_diag": _NUM_GRID,
        "hessian_scale": _NUM,
        "covariance_diag": _NUM_GRID,
        "covariance_scale": _NUM,
        "x_mean": _NUM_GRID,
        "n_examples": _POS_INT,
        "separation": _NUM,
        "n_in": _POS_INT,
        "hidden": _POS_INT,
        "n_out": _POS_INT,
        "teacher_seed": {"type": "integer"},
        "noise_std": _NUM,
        "target_scale": _NUM,
    },
}

_OPTIMIZER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["sgd", "sgd_momentum", "adam"]},
        "eta": _NUM,
        "mu": _NUM,
        "weight_decay": _NUM,
        "beta1": _NUM,
        "beta2": _NUM,
        "epsilon_stabilizer": _NUM,
    },
}

_CLIPPING_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["auto", "reparam", "none"]},
        "r": _NUM,
    },
}

_PRIVACY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["epsilon", "delta", "n", "sample_budget"],
    "properties": {
        "epsilon": _NUM,
        "delta": _NUM,
        "n": _POS_INT,
        "sample_budget": _POS_INT,
    },
}

_INPUTS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["g_norm_sq", "g_h_g", "tr_h", "tr_h_sigma", "sigma"],
    "properties": {
        "g_norm_sq": _NUM,
        "g_h_g": _NUM,
        "tr_h": _NUM,
        "tr_h_sigma": _NUM,
        "sigma": _NUM,
        "c": _NUM,
        "batch_size": _NUM,
    },
}

_PLOT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["columns"],
    "properties": {
        "columns": {"type": "array", "items": {"type": "string"}, "minItems": 2},
        "x_scale": {"enum": ["linear", "log"]},
        "y_scale": {"enum": ["linear", "log"]},
    },
}

_SCHEDULE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["indicator", "dpmd", "sample", "only_public", "only_private"]},
        "s": _NUM,
        "total": _POS_INT,
        "k": _POS_INT,
        "n_pub": {"type": "integer", "minimum": 0},
        "n_priv": {"type": "integer", "minimum": 0},
    },
}

_COMMON = {
    "schema": {"const": SCHEMA_VERSION},
    "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
    "plot": _PLOT_SCHEMA,
}

CONFIG_SCHEMAS = {
    "calibrate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "n", "epsilon", "delta", "sample_budget", "batch_grid"],
        "properties": {
            **_COMMON,
            "n": _POS_INT,
            "epsilon": _NUM,
            "delta": _NUM,
            "sample_budget": _POS_INT,
            "batch_grid": _INT_GRID,
        },
    },
    "predict": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "inputs"],
        "properties": {
            **_COMMON,
            "inputs": _INPUTS_SCHEMA,
            "b_public": _NUM,
            "b_private": _NUM,
        },
    },
    "sweep-batch": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "inputs", "batch_grid"],
        "properties": {
            **_COMMON,
            "inputs": _INPUTS_SCHEMA,
            "batch_grid": _NUM_GRID,
            "b_public": _NUM,
            "b_private": _NUM,
        },
    },
    "fig-breakdown": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "cases", "batch_grid"],
        "properties": {
            **_COMMON,
            "cases": {
                "type": "object",
                "minProperties": 1,
                "additionalProperties": _INPUTS_SCHEMA,
            },
            "batch_grid": _NUM_GRID,
        },
    },
    "oracle": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task", "eta_grid", "batch_grid", "sigma_grid", "trials"],
        "properties": {
            **_COMMON,
            "task": _TASK_SCHEMA,
            "clipping": _CLIPPING_SCHEMA,
            "eta_grid": _NUM_GRID,
            "batch_grid": _INT_GRID,
            "sigma_grid": _NUM_GRID,
            "trials": _POS_INT,
            "offset_scale": _NUM,
        },
    },
    "train": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task", "optimizer", "steps", "batch_size", "mode"],
        "properties": {
            **_COMMON,
            "task": _TASK_SCHEMA,
            "optimizer": _OPTIMIZER_SCHEMA,
            "clipping": _CLIPPING_SCHEMA,
            "mode": {"enum": ["public", "dp"]},
            "sigma": _NUM,
            "privacy": _PRIVACY_SCHEMA,
            "steps": _POS_INT,
            "batch_size": _POS_INT,
            "hessian_probes": {"type": "integer", "minimum": 0},
        },
    },
    "continual": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task_public", "optimizer", "epochs", "steps_per_epoch",
                     "batch_size"],
        "properties": {
            **_COMMON,
            "task_public": _TASK_SCHEMA,
            "task_private": _TASK_SCHEMA,
            "optimizer": _OPTIMIZER_SCHEMA,
            "clipping": _CLIPPING_SCHEMA,
            "sigma": _NUM,
            "privacy": _PRIVACY_SCHEMA,
            "epochs": _POS_INT,
            "steps_per_epoch": _POS_INT,
            "batch_size": _POS_INT,
            "patience": _POS_INT,
            "schedule": _SCHEDULE_SCHEMA,
            "reset_policy": {"enum": list(trainer.RESET_POLICIES)},
            "head_reinit": {"type": "boolean"},
            "val_size": _POS_INT,
            "hessian_probes": {"type": "integer", "minimum": 0},
        },
    },
    "fourway": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "task", "optimizer", "sigma", "steps", "batch_size"],
        "properties": {
            **_COMMON,
            "task": _TASK_SCHEMA,
            "optimizer": _OPTIMIZER_SCHEMA,
            "clipping": _CLIPPING_SCHEMA,
            "sigma": _NUM,
            "steps": _POS_INT,
            "batch_size": _POS_INT,
            "eval_size": _POS_INT,
        },
    },
    "mia": {
        "type": "object",
        "additionalProperties": False,
        "required": ["schema", "n_members", "n_nonmembers", "dim", "epochs", "lr",
                     "epsilon", "delta"],
        "properties": {
            **_COMMON,
            "n_members": _POS_INT,
            "n_nonmembers": _POS_INT,
            "dim": _POS_INT,
            "separation": _NUM,
            "label_flip": _NUM,
            "epochs": _POS_INT,
            "lr": _NUM,
            "epsilon": _NUM,
            "delta": _NUM,
            "split_fraction": _NUM,
            "member_train_fraction": _NUM,
        },
    },
}


# one validator per subcommand: jsonschema.validate would check the schema
# itself against the metaschema on every call, which costs far more than
# validating a config
_VALIDATORS = {
    command: jsonschema.validators.validator_for(schema)(schema)
    for command, schema in CONFIG_SCHEMAS.items()
}


def load_config(path: str | Path, command: str) -> dict:
    """Read and schema-validate a JSON config for one subcommand."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_VALIDATORS[command].iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config {path} fails validation: {error.message}")
    return cfg


def canonical_config(cfg: dict) -> str:
    """Stable serialised form: sorted keys, no whitespace drift."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def task_from_config(cfg: dict, rng: np.random.Generator):
    kind = cfg["kind"]
    if kind == "quadratic":
        d = cfg.get("dimension")
        if d is None:
            raise ConfigError("quadratic task needs a dimension")
        if "hessian_diag" in cfg:
            a = np.diag(np.asarray(cfg["hessian_diag"], dtype=float))
            if a.shape[0] != d:
                raise ConfigError("hessian_diag length must match dimension")
        else:
            a = cfg.get("hessian_scale", 1.0) * np.eye(d)
        if "covariance_diag" in cfg:
            s = np.diag(np.asarray(cfg["covariance_diag"], dtype=float))
            if s.shape[0] != d:
                raise ConfigError("covariance_diag length must match dimension")
        else:
            s = cfg.get("covariance_scale", 1.0) * np.eye(d)
        x_mean = np.asarray(cfg.get("x_mean", np.zeros(d)), dtype=float)
        if x_mean.shape != (d,):
            raise ConfigError("x_mean length must match dimension")
        return QuadraticTask(a, x_mean, s)
    if kind == "logistic":
        d = cfg.get("dimension")
        n = cfg.get("n_examples")
        if d is None or n is None:
            raise ConfigError("logistic task needs dimension and n_examples")
        separation = cfg.get("separation", 2.0)
        labels = rng.integers(0, 2, size=n)
        feats = rng.standard_normal((n, d))
        feats[:, 0] += (labels - 0.5) * separation
        return LogisticTask(feats, labels)
    if kind == "tinymlp":
        for key in ("n_in", "hidden", "n_out"):
            if key not in cfg:
                raise ConfigError(f"tinymlp task needs {key}")
        return TinyMlpTask(
            n_in=cfg["n_in"],
            hidden=cfg["hidden"],
            n_out=cfg["n_out"],
            teacher_seed=cfg.get("teacher_seed", 0),
            noise_std=cfg.get("noise_std", 0.0),
            target_scale=cfg.get("target_scale", 1.0),
        )
    raise ConfigError(f"unknown task kind {kind!r}")


def optimizer_from_config(cfg: dict | None) -> trainer.OptimizerConfig:
    try:
        return trainer.OptimizerConfig(**(cfg or {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def clipping_from_config(cfg: dict | None) -> clipping.ClippingRule | None:
    if cfg is None:
        return clipping.ClippingRule.reparam(1.0)
    if cfg["kind"] == "none":
        return None
    if cfg["kind"] == "auto":
        return clipping.ClippingRule.auto()
    return clipping.ClippingRule.reparam(cfg.get("r", 1.0))


def inputs_from_config(cfg: dict) -> predictor.ImprovementInputs:
    try:
        return predictor.ImprovementInputs(
            g_norm_sq=cfg["g_norm_sq"],
            g_h_g=cfg["g_h_g"],
            tr_h=cfg["tr_h"],
            tr_h_sigma=cfg["tr_h_sigma"],
            sigma=cfg["sigma"],
            c=cfg.get("c", 1.0),
            batch_size=cfg.get("batch_size", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def schedule_from_config(cfg: dict | None) -> predictor.AlphaSchedule | None:
    if cfg is None:
        return None
    kind = cfg["kind"]
    try:
        if kind == "indicator":
            return predictor.AlphaSchedule.indicator(cfg["s"], cfg["total"])
        if kind == "dpmd":
            return predictor.AlphaSchedule.dpmd(cfg["k"])
        if kind == "sample":
            return predictor.AlphaSchedule.sample(cfg["n_pub"], cfg["n_priv"])
        if kind == "only_public":
            return predictor.AlphaSchedule.only_public()
        return predictor.AlphaSchedule.only_private()
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad schedule config: {exc}") from exc


def _resolve_sigma(cfg: dict, batch_size: int) -> float:
    if "sigma" in cfg:
        return float(cfg["sigma"])
    if "privacy" in cfg:
        p = cfg["privacy"]
        # n parameterises the mechanism here, not the budget annotation, so
        # benchmark settings with delta == 1/n remain expressible
        budget = privacy.PrivacyBudget(p["epsilon"], p["delta"])
        return privacy.calibrate_sigma(batch_size, p["n"], p["sample_budget"], budget)
    raise ConfigError("need either an explicit sigma or a privacy block")


# --------------------------------------------------------------------------
# CSV helpers
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: str, rows: list[list]) -> Path:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


# --------------------------------------------------------------------------
# subcommand implementations (each a pure function of config + seed)
# --------------------------------------------------------------------------


def _run_calibrate(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    budget = privacy.PrivacyBudget(cfg["epsilon"], cfg["delta"])
    n, s = cfg["n"], cfg["sample_budget"]
    rows = []
    for b in cfg["batch_grid"]:
        sigma = privacy.calibrate_sigma(b, n, s, budget)
        t = math.ceil(s / b)
        mu = privacy.mu_of_noisy_sgd(b, n, t, sigma)
        delta = privacy.mu_to_delta(mu, budget.epsilon)
        rows.append([b, t, sigma, mu, budget.epsilon, delta])
    path = _write_csv(
        outdir / _seed_name("calibrate", seed, cfg), "B,T,sigma,mu,epsilon,delta", rows
    )
    return [path] + _maybe_plot(cfg, path, outdir)


PREDICT_HEADER = "B,delta_pub_star,delta_priv_star,decelerator,B_star,alpha_star"


def _predict_row(base: predictor.ImprovementInputs, b: float, b_pub, b_priv) -> list:
    inputs = base.with_batch(b)
    try:
        b_star = predictor.optimal_batch_dp(inputs)
    except predictor.NoInteriorOptimumError:
        b_star = ""
    mix = predictor.MixInputs.from_improvement(
        inputs, b_public=b_pub if b_pub is not None else b,
        b_private=b_priv if b_priv is not None else b,
    )
    try:
        alpha = predictor.optimal_mix_alpha(mix)
    except predictor.SaddleOrDegenerateError:
        alpha = ""
    return [
        b,
        predictor.delta_l_pub_star(b, inputs),
        predictor.delta_l_priv_star(b, inputs),
        predictor.decelerator(inputs),
        b_star,
        alpha,
    ]


def _run_predict(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    base = inputs_from_config(cfg["inputs"])
    rows = [_predict_row(base, base.batch_size, cfg.get("b_public"), cfg.get("b_private"))]
    path = _write_csv(outdir / _seed_name("predict", seed, cfg), PREDICT_HEADER, rows)
    return [path] + _maybe_plot(cfg, path, outdir)


def _run_sweep_batch(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    base = inputs_from_config(cfg["inputs"])
    rows = [
        _predict_row(base, b, cfg.get("b_public"), cfg.get("b_private"))
        for b in cfg["batch_grid"]
    ]
    path = _write_csv(outdir / _seed_name("sweep-batch", seed, cfg), PREDICT_HEADER, rows)
    return [path] + _maybe_plot(cfg, path, outdir)


def _run_fig_breakdown(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    rows = []
    for name in sorted(cfg["cases"]):
        base = inputs_from_config(cfg["cases"][name])
        b_star = predictor.optimal_batch_dp(base) if base.sigma > 0 else ""
        for b in cfg["batch_grid"]:
            inputs = base.with_batch(b)
            decel = predictor.decelerator(inputs)
            denom_pub = b * inputs.g_h_g + inputs.tr_h_sigma
            rows.append(
                [
                    name,
                    b,
                    b * inputs.g_h_g,
                    inputs.tr_h_sigma,
                    decel,
                    denom_pub + decel,
                    denom_pub,
                    predictor.delta_l_priv_star(b, inputs),
                    predictor.delta_l_pub_star(b, inputs),
                    b_star,
                ]
            )
    header = (
        "case,B,b_ghg,tr_h_sigma,decelerator,denominator_priv,denominator_pub,"
        "delta_priv_star,delta_pub_star,B_star"
    )
    path = _write_csv(outdir / _seed_name("fig-breakdown", seed, cfg), header, rows)
    return [path] + _maybe_plot(cfg, path, outdir)


def _run_oracle(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    rng = np.random.default_rng(seed)
    task = task_from_config(cfg["task"], rng)
    if not isinstance(task, QuadraticTask):
        raise ConfigError("the oracle subcommand requires a quadratic task")
    rule = clipping_from_config(cfg.get("clipping"))
    offset = cfg.get("offset_scale", 1.0)
    w = task.x_mean + offset * np.ones(task.dimension) / math.sqrt(task.dimension)
    stats = population_stats(task, w)
    rows = []
    for eta in cfg["eta_grid"]:
        for b in cfg["batch_grid"]:
            for sigma in cfg["sigma_grid"]:
                inputs = predictor.ImprovementInputs(
                    g_norm_sq=stats.g_norm_sq,
                    g_h_g=stats.g_h_g,
                    tr_h=stats.tr_h,
                    tr_h_sigma=stats.tr_h_sigma,
                    sigma=sigma,
                    c=1.0,
                    batch_size=b,
                )
                closed = predictor.delta_l_priv(eta, inputs)
                result = trainer.empirical_improvement_oracle(
                    task, w, eta, b, rule, sigma, cfg["trials"], rng
                )
                z = (result.mean_improvement - closed) / result.standard_error
                rows.append(
                    [eta, b, sigma, result.mean_improvement, result.standard_error,
                     closed, z]
                )
    header = "eta,B,sigma,mc_mean,mc_se,closed_form,z_score"
    path = _write_csv(outdir / _seed_name("oracle", seed, cfg), header, rows)
    return [path] + _maybe_plot(cfg, path, outdir)


def _run_train(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    rng = np.random.default_rng(seed)
    task = task_from_config(cfg["task"], rng)
    config = optimizer_from_config(cfg.get("optimizer"))
    mode = cfg["mode"]
    sigma = 0.0 if mode == "public" else _resolve_sigma(cfg, cfg["batch_size"])
    rule = clipping_from_config(cfg.get("clipping"))
    schedule = (
        predictor.AlphaSchedule.only_public()
        if mode == "public"
        else predictor.AlphaSchedule.only_private()
    )
    run = trainer.continual_pretrain(
        task,
        task,
        config,
        trainer.SwitchPolicy(patience=1),
        sigma,
        epochs=1,
        rng=rng,
        batch_size=cfg["batch_size"],
        steps_per_epoch=cfg["steps"],
        rule=rule,
        schedule=schedule,
        hessian_probes=cfg.get("hessian_probes", 0),
    )
    path = outdir / _seed_name("train", seed, cfg)
    path.write_text(run.to_csv(_decelerator_of(sigma, cfg["batch_size"])),
                    encoding="utf-8", newline="\n")
    return [path] + _maybe_plot(cfg, path, outdir)


def _decelerator_of(sigma: float, batch_size: int):
    def compute(record: trainer.IterationRecord) -> float:
        if record.hessian is None or record.sigma == 0.0:
            return 0.0
        return record.sigma**2 * record.hessian.tr_h / batch_size

    return compute


def _run_continual(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    rng = np.random.default_rng(seed)
    task_pub = task_from_config(cfg["task_public"], rng)
    task_priv = (
        task_from_config(cfg["task_private"], rng) if "task_private" in cfg else task_pub
    )
    config = optimizer_from_config(cfg.get("optimizer"))
    sigma = _resolve_sigma(cfg, cfg["batch_size"])
    run = trainer.continual_pretrain(
        task_pub,
        task_priv,
        config,
        trainer.SwitchPolicy(patience=cfg.get("patience", 1)),
        sigma,
        epochs=cfg["epochs"],
        rng=rng,
        batch_size=cfg["batch_size"],
        steps_per_epoch=cfg["steps_per_epoch"],
        rule=clipping_from_config(cfg.get("clipping")),
        schedule=schedule_from_config(cfg.get("schedule")),
        reset_policy=cfg.get("reset_policy", "reset_m"),
        head_reinit=cfg.get("head_reinit", False),
        val_size=cfg.get("val_size", 1024),
        hessian_probes=cfg.get("hessian_probes", 0),
    )
    path = outdir / _seed_name("continual", seed, cfg)
    path.write_text(run.to_csv(_decelerator_of(sigma, cfg["batch_size"])),
                    encoding="utf-8", newline="\n")
    return [path] + _maybe_plot(cfg, path, outdir)


def _run_fourway(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    rng = np.random.default_rng(seed)
    task = task_from_config(cfg["task"], rng)
    runs = trainer.four_way_comparison(
        task,
        optimizer_from_config(cfg.get("optimizer")),
        cfg["sigma"],
        clipping_from_config(cfg.get("clipping")),
        cfg["steps"],
        rng,
        batch_size=cfg["batch_size"],
        eval_size=cfg.get("eval_size", 512),
    )
    rows = []
    for arm in trainer.FOUR_WAY_ARMS:
        for r in runs[arm].records:
            val = "" if r.val_loss is None else r.val_loss
            rows.append([arm, r.iteration, r.phase, r.alpha, r.train_loss, val, r.sigma])
    header = "arm," + trainer.TRAIN_CSV_HEADER
    path = _write_csv(outdir / _seed_name("fourway", seed, cfg), header, rows)
    return [path] + _maybe_plot(cfg, path, outdir)


def _run_mia(cfg: dict, seed: int, outdir: Path) -> list[Path]:
    rng = np.random.default_rng(seed)
    n_mem, n_non, dim = cfg["n_members"], cfg["n_nonmembers"], cfg["dim"]
    separation = cfg.get("separation", 2.0)
    label_flip = cfg.get("label_flip", 0.15)
    x_mem, y_mem = attacks.two_blob_data(n_mem, dim, rng, separation, label_flip)
    x_non, y_non = attacks.two_blob_data(n_non, dim, rng, separation, label_flip)

    budget = privacy.PrivacyBudget(cfg["epsilon"], cfg["delta"], dataset_size=n_mem)
    sigma = privacy.calibrate_sigma(n_mem, n_mem, n_mem * cfg["epochs"], budget)
    models = {
        "nondp": attacks.fit_softmax(x_mem, y_mem, 2, cfg["epochs"], cfg["lr"]),
        "dp": attacks.fit_softmax(
            x_mem, y_mem, 2, cfg["epochs"], cfg["lr"], rng,
            sigma=sigma, rule=clipping.ClippingRule.auto(),
        ),
    }
    lines = [attacks.MIA_CSV_HEADER]
    for model_id, model in models.items():
        dataset = attacks.build_mia_dataset(
            model, (x_mem, y_mem), (x_non, y_non),
            cfg.get("split_fraction", 0.5), rng,
            member_train_fraction=cfg.get("member_train_fraction", 0.1),
        )
        report = attacks.evaluate_mia(attacks.fit_mia_classifier(dataset), dataset)
        eps = cfg["epsilon"] if model_id == "dp" else float("inf")
        lines.append(attacks.mia_csv_row(model_id, eps, report))
    path = outdir / _seed_name("mia", seed, cfg)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return [path]


_RUNNERS = {
    "calibrate": _run_calibrate,
    "predict": _run_predict,
    "sweep-batch": _run_sweep_batch,
    "oracle": _run_oracle,
    "train": _run_train,
    "continual": _run_continual,
    "fourway": _run_fourway,
    "mia": _run_mia,
    "fig-breakdown": _run_fig_breakdown,
}


def _seed_name(command: str, seed: int, cfg: dict) -> str:
    multi = len(cfg.get("seeds", [0])) > 1
    stem = command.replace("-", "_")
    return f"{stem}_seed{seed}.csv" if multi else f"{stem}.csv"


def _maybe_plot(cfg: dict, csv_path: Path, outdir: Path) -> list[Path]:
    plot = cfg.get("plot")
    if plot is None:
        return []
    svg = emit_svg_lineplot(
        csv_path,
        plot["columns"],
        (plot.get("x_scale", "linear"), plot.get("y_scale", "linear")),
        out_path=outdir / (csv_path.stem + ".svg"),
    )
    return [svg]


# --------------------------------------------------------------------------
# SVG line plots
# --------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_W, _H, _MARGIN = 640, 480, 60


def _read_csv_columns(csv_path: Path, wanted: list[str]) -> dict[str, list[float]]:
    try:
        lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read CSV {csv_path}: {exc}") from exc
    if not lines:
        raise ValueError(f"CSV {csv_path} is empty")
    header = lines[0].split(",")
    for name in wanted:
        if name not in header:
            raise ValueError(f"CSV {csv_path} has no column {name!r}")
    idx = {name: header.index(name) for name in wanted}
    data: dict[str, list[float]] = {name: [] for name in wanted}
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        values = {}
        for name in wanted:
            cell = cells[idx[name]]
            if cell == "":
                break
            values[name] = float(cell)
        else:
            for name in wanted:
                data[name].append(values[name])
    if not data[wanted[0]]:
        raise ValueError(f"CSV {csv_path} has no plottable rows")
    return data


def _scaled(values: list[float], scale: str, lo: float, hi: float, out_lo, out_hi):
    if scale == "log":
        if lo <= 0:
            raise ValueError("log scale requires positive values")
        lo, hi = math.log10(lo), math.log10(hi)
        values = [math.log10(v) for v in values]
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def emit_svg_lineplot(
    csv_path: str | Path,
    columns: list[str],
    scales: tuple[str, str] = ("linear", "linear"),
    out_path: str | Path | None = None,
) -> Path:
    """Render one polyline per y-column against the first (x) column.

    The output bytes are a pure function of the CSV contents and arguments:
    fixed canvas, fixed palette, fixed float formatting, no timestamps.
    """
    if len(columns) < 2:
        raise ValueError("need an x column and at least one y column")
    x_scale, y_scale = scales
    csv_path = Path(csv_path)
    data = _read_csv_columns(csv_path, list(columns))
    xs = data[columns[0]]
    ys = [data[name] for name in columns[1:]]
    x_lo, x_hi = min(xs), max(xs)
    all_y = [v for series in ys for v in series]
    y_lo, y_hi = min(all_y), max(all_y)
    px = _scaled(xs, x_scale, x_lo, x_hi, _MARGIN, _W - _MARGIN)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
    ]
    for i, (name, series) in enumerate(zip(columns[1:], ys)):
        py = _scaled(series, y_scale, y_lo, y_hi, _H - _MARGIN, _MARGIN)
        points = " ".join(f"{x:.6g},{y:.6g}" for x, y in zip(px, py))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{_W - _MARGIN + 5}" y="{_MARGIN + 14 * i + 10}" '
            f'font-size="10" fill="{color}">{name}</text>'
        )
    labels = [
        (x_lo, _MARGIN, _H - _MARGIN + 15, "start"),
        (x_hi, _W - _MARGIN, _H - _MARGIN + 15, "end"),
    ]
    for value, x, y, anchor in labels:
        parts.append(
            f'<text x="{x}" y="{y}" font-size="10" text-anchor="{anchor}">'
            f"{value:.6g}</text>"
        )
    parts.append(
        f'<text x="{_MARGIN - 5}" y="{_H - _MARGIN}" font-size="10" '
        f'text-anchor="end">{y_lo:.6g}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN - 5}" y="{_MARGIN + 4}" font-size="10" '
        f'text-anchor="end">{y_hi:.6g}</text>'
    )
    parts.append("</svg>")
    out = Path(out_path) if out_path is not None else csv_path.with_suffix(".svg")
    out.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return out


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dplens", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument(
            "--jobs", type=int, default=1,
            help="accepted for compatibility; seeds always run one after another, in order",
        )
    return parser


def run_subcommand(argv: list[str]) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(args.config, args.command)
        outdir = Path(
            args.out or os.environ.get("DPLENS_OUT") or os.getcwd()
        )
        outdir.mkdir(parents=True, exist_ok=True)
        seeds = [args.seed] if args.seed is not None else cfg.get("seeds", [0])
        if args.seed is not None:
            cfg = dict(cfg)
            cfg["seeds"] = seeds
        runner = _RUNNERS[args.command]
        paths = [p for seed in seeds for p in runner(cfg, seed, outdir)]
        for path in paths:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
