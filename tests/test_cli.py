import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dplens import cli, predictor, privacy, trainer
from dplens.cli import (
    _BLOCK_KEYS,
    _RUNNERS,
    _build_parser,
    _write_csv,
    CONFIG_SCHEMAS,
    ConfigError,
    Table,
    canonical_config,
    emit_svg_lineplot,
    load_config,
    run_subcommand,
    task_from_config,
    validation_message,
)
from dplens.clipping import ClippingRule
from dplens.model import QuadraticTask, TinyMlpTask
from dplens.predictor import AlphaSchedule, ImprovementInputs
from dplens.trainer import OptimizerConfig

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# the subcommand each shipped config is written for; scripts/config_digests.py
# reads this map too
SHIPPED_CONFIGS = {
    "breakdown.json": "sweep-batch",
    "calibrate_bench.json": "calibrate",
    "continual_demo.json": "continual",
    "fourway_mlp.json": "fourway",
    "mia_toy.json": "mia",
    "oracle_small.json": "oracle",
    "predict.json": "sweep-batch",
    "sweep_batch.json": "sweep-batch",
    "train_logistic.json": "train",
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def polyline_points(svg_text):
    """The points of each polyline of an SVG, in document order."""
    return [points.split() for points in re.findall(r'points="([^"]*)"', svg_text)]


def train_config():
    return {
        "schema": 1,
        "task": {"kind": "quadratic", "dimension": 4},
        "optimizer": {"kind": "sgd", "eta": 0.1},
        "sigma": 0.5,
        "mode": "dp",
        "steps": 5,
        "batch_size": 8,
    }


def continual_config(payload=None):
    """A train config, ``train_config()`` unless given, as a one-epoch continual config."""
    payload = dict(payload or train_config())
    del payload["mode"]
    payload.update(task_public=payload.pop("task"), epochs=1,
                   steps_per_epoch=payload.pop("steps"))
    return payload


def private_config(command, **change):
    """A dp run of a logistic task whose privacy block calibrates sigma for
    T = sample_budget / batch_size = 10 steps, and that takes 10 steps."""
    payload = {**train_config(), "task": {"kind": "logistic", "dimension": 8, "n_examples": 1000},
               "clipping": {"kind": "auto"}, "steps": 10, "batch_size": 100,
               "privacy": {"epsilon": 1.0, "delta": 1e-5, "n": 1000, "sample_budget": 1000}}
    del payload["sigma"]
    return {**(continual_config(payload) if command == "continual" else payload), **change}


def mlp_continual_config():
    """A 4-8-2 MLP (58 parameters) that switches to private steps at step 8 of 16."""
    return {
        "schema": 1,
        "task_public": {"kind": "tinymlp", "n_in": 4, "hidden": 8, "n_out": 2},
        "optimizer": {"kind": "sgd", "eta": 0.05},
        "sigma": 0.5,
        "epochs": 2,
        "steps_per_epoch": 8,
        "batch_size": 8,
        "schedule": {"kind": "indicator", "s": 0.5, "total": 16},
    }


def base_config(base):
    """The subcommand and config that a load-time case changes: a shipped
    config by file name, ``private_config`` of a command as ``"private
    <command>"``, or ``train_config``, ``continual_config`` or
    ``sweep_config`` by their subcommand."""
    if base in SHIPPED_CONFIGS:
        return SHIPPED_CONFIGS[base], json.loads((CONFIG_DIR / base).read_text())
    if base.startswith("private "):
        command = base.removeprefix("private ")
        return command, private_config(command)
    makers = {"train": train_config, "continual": continual_config, "sweep-batch": sweep_config}
    return base, makers[base]()


def refuse_steps(monkeypatch):
    """Make any training step fail the test."""
    def step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "dp_step", step)


def sweep_config():
    return {
        "schema": 1,
        "cases": {
            "case": {
                "g_norm_sq": 1.0,
                "g_h_g": 100.0,
                "tr_h": 2e8,
                "tr_h_sigma": 2e4,
                "sigma": 0.5,
                "c": 1.0,
            },
        },
        "batch_grid": [10.0, 100.0, 1000.0],
    }


class TestConfigHandling:
    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = run_subcommand(["calibrate", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_subcommand(["sweep-batch", "--config", str(path)]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        payload = sweep_config()
        payload["surprise"] = 1
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError):
            load_config(path, "sweep-batch")

    def test_unknown_subcommand_exit_1(self):
        assert run_subcommand(["frobnicate"]) == 1
        assert run_subcommand([]) == 1

    def test_parser_is_built_once_per_process(self, tmp_path, capsys):
        _build_parser.cache_clear()
        path = write_config(tmp_path, sweep_config())
        for _ in range(2):
            run_subcommand(["sweep-batch", "--config", str(path), "--out", str(tmp_path),
                            "--jobs", "2"])
        run_subcommand(["frobnicate"])
        run_subcommand([])
        assert _build_parser.cache_info().misses == 1

    def test_wrong_schema_version_rejected(self, tmp_path):
        payload = sweep_config()
        payload["schema"] = 2
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError):
            load_config(path, "sweep-batch")

    def test_every_schema_passes_the_metaschema(self):
        for schema in CONFIG_SCHEMAS.values():
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_every_subcommand_has_a_schema_and_a_runner(self):
        assert sorted(CONFIG_SCHEMAS) == sorted(_RUNNERS)

    def test_validation_message_is_jsonschemas_best_match(self, tmp_path):
        payload = sweep_config()
        payload["cases"]["case"]["g_norm_sq"] = "one"
        payload["surprise"] = 1
        path = write_config(tmp_path, payload)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, CONFIG_SCHEMAS["sweep-batch"])
        with pytest.raises(ConfigError) as got:
            load_config(path, "sweep-batch")
        assert str(got.value) == f"config {path} fails validation: {expected.value.message}"

    def test_mia_rejects_plot(self, tmp_path, capsys):
        # the mia table is written without a plot, so the schema takes none
        payload = json.loads((CONFIG_DIR / "mia_toy.json").read_text())
        payload["plot"] = {"columns": ["epsilon", "auc"]}
        path = write_config(tmp_path, payload)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, CONFIG_SCHEMAS["mia"])
        code = run_subcommand(["mia", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert expected.value.message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.svg"))

    def test_single_hessian_probe_writes_the_bytes_of_sixteen(self, tmp_path):
        # hessian_probes is an on/off switch: the trace is exact, so the count
        # is not read, and any positive value writes the same curvature columns
        payload = json.loads((CONFIG_DIR / "continual_demo.json").read_text())
        outputs = {}
        for probes in (0, 1, 16):
            payload["hessian_probes"] = probes
            out = tmp_path / str(probes)
            path = write_config(tmp_path, payload)
            assert load_config(path, "continual") == payload
            assert run_subcommand(["continual", "--config", str(path), "--out", str(out)]) == 0
            outputs[probes] = (out / "continual.csv").read_bytes()
        assert outputs[1] == outputs[16]
        assert b"tr_H" in outputs[1] and b"tr_H" not in outputs[0]

    @pytest.mark.parametrize("command", ["train", "continual"])
    def test_hessian_probes_with_batch_size_one_rejected_at_load(self, command, tmp_path):
        payload = json.loads((CONFIG_DIR / "continual_demo.json").read_text())
        if command == "train":
            payload = {key: payload[key] for key in ("schema", "optimizer", "hessian_probes")}
            payload.update(task={"kind": "quadratic", "dimension": 3}, steps=2, mode="public")
        payload["batch_size"] = 1
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="hessian_probes needs batch_size of at least 2"):
            load_config(path, command)
        payload["hessian_probes"] = 0
        assert load_config(write_config(tmp_path, payload), command) == payload

    def test_canonical_form_stable(self):
        cfg = sweep_config()
        canon = canonical_config(cfg)
        assert canonical_config(json.loads(canon)) == canon

    @pytest.mark.parametrize(
        "change",
        [
            {"batch_grid": [10.0, 0.0]},
            {"batch_grid": [10.0, -5.0]},
            {"b_private": 0},
            {"b_public": 0},
        ],
        ids=["grid-zero", "grid-negative", "b_private", "b_public"],
    )
    def test_nonpositive_batch_size_is_a_config_error(self, change, tmp_path, capsys):
        payload = {**sweep_config(), **change}
        path = write_config(tmp_path, payload)
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", 'a,b"c\nd'],
                             ids=["comma", "quote", "newline", "all-three"])
    def test_case_name_reads_back_through_csv_reader(self, name, tmp_path):
        # an unquoted "a,b" once wrote a 12-cell row under the 11-column header
        payload = sweep_config()
        payload["cases"][name] = payload["cases"]["case"]
        path = write_config(tmp_path, payload)
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(tmp_path)]) == 0
        with (tmp_path / "sweep_batch.csv").open(newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert {len(row) for row in rows} == {len(header)}
        assert sorted({row[0] for row in rows}) == sorted(payload["cases"])

    def test_case_name_with_a_carriage_return_is_a_config_error(self, tmp_path, capsys):
        # the csv writer leaves a lone carriage return unquoted under a
        # newline line terminator, and a reader would end the row there
        payload = sweep_config()
        payload["cases"]["a\rb"] = payload["cases"]["case"]
        path = write_config(tmp_path, payload)
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and repr("a\rb") in err
        assert not list(tmp_path.glob("*.csv"))

    def test_writer_writes_a_float_subclass_as_its_number(self, tmp_path):
        # repr of a numpy 2 float64 is "np.float64(0.1)"; None is an empty cell
        table = Table(("x", "y"), [[np.float64(0.1), None], [1, 0.25]])
        assert _write_csv(tmp_path / "t.csv", table).read_bytes() == b"x,y\n0.1,\n1,0.25\n"

    @pytest.mark.parametrize("where", ["case", "top-level"])
    def test_batch_sizes_come_from_the_grid_alone(self, where, tmp_path, capsys):
        # a batch_size in a case, or inputs given beside the cases, would
        # state a B or an input set that no row uses
        payload = sweep_config()
        if where == "case":
            payload["cases"]["case"]["batch_size"] = 7
        else:
            payload["inputs"] = payload["cases"]["case"]
        path = write_config(tmp_path, payload)
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "change",
        [
            {"steps": 5.0},
            {"batch_size": 8.0},
            {"task": {"kind": "tinymlp", "n_in": 2.0, "hidden": 4, "n_out": 1}},
            {"seeds": [1.0]},
        ],
        ids=["steps", "batch_size", "n_in", "seeds"],
    )
    def test_integral_float_in_integer_field_is_a_config_error(self, change, tmp_path, capsys):
        path = write_config(tmp_path, {**train_config(), **change})
        assert run_subcommand(["train", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("kind", ["auto", "none"])
    def test_clipping_threshold_only_with_reparam(self, kind, tmp_path, capsys):
        # no code reads r unless the rule is re-parameterised
        payload = {**train_config(), "clipping": {"kind": kind, "r": 5.0}}
        path = write_config(tmp_path, payload)
        assert run_subcommand(["train", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        payload["clipping"] = {"kind": "reparam", "r": 5.0}
        assert load_config(write_config(tmp_path, payload), "train") == payload

    @pytest.mark.parametrize(
        "change, named",
        [({"clipping": {"kind": "reparam", "r": 0}}, "R must")],
        ids=["reparam-r0"],
    )
    def test_bad_block_is_a_config_error(self, change, named, tmp_path, capsys, monkeypatch):
        # a constructor's own value check rejects the block after validation
        # passes and before any step; every rule that ties keys together is
        # checked at load (test_a_block_key_is_checked_at_load)
        path = write_config(tmp_path, {**continual_config(), **change})
        assert load_config(path, "continual")
        refuse_steps(monkeypatch)
        assert run_subcommand(["continual", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, change, sigmas",
        [
            ("train", {}, {"calibrated"}),
            ("continual", {"epochs": 4, "schedule": {"kind": "indicator", "s": 0.75, "total": 40}},
             {0.0, "calibrated"}),
            ("train", {"clipping": {"kind": "none"}, "sigma": 1.5, "privacy": None}, {1.5}),
        ],
        ids=["train", "indicator-tail", "noised-only"],
    )
    def test_a_privacy_block_the_run_keeps_runs(self, command, change, sigmas, tmp_path):
        # an indicator schedule's public head takes no private step, and an
        # explicit sigma without clipping makes no privacy claim
        payload = {k: v for k, v in private_config(command, **change).items() if v is not None}
        path = write_config(tmp_path, payload)
        assert run_subcommand([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        with (tmp_path / f"{command}.csv").open(newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        calibrated = privacy.calibrate_sigma(100, 1000, 1000, privacy.PrivacyBudget(1.0, 1e-5))
        expected = {calibrated if sigma == "calibrated" else sigma for sigma in sigmas}
        assert {float(row["sigma"]) for row in rows} == expected

    @pytest.mark.parametrize(
        "block, constructor",
        [("task", None), ("optimizer", OptimizerConfig), ("clipping", ClippingRule),
         ("schedule", AlphaSchedule)],
    )
    def test_the_kinds_read_every_key_the_schema_takes(self, block, constructor):
        # the schema takes the keys that some kind reads, and each of them is
        # a field of the constructor that the block goes to; a task block
        # goes to one of three constructors, by its kind
        name = {"task": "task_public"}.get(block, block)
        properties = CONFIG_SCHEMAS["continual"]["properties"][name]["properties"]
        kinds = _BLOCK_KEYS[block]
        assert list(kinds) == properties["kind"]["enum"]
        read = {key for required, optional in kinds.values() for key in required + optional}
        assert read | {"kind"} == set(properties)
        if constructor is not None:
            assert read <= {field.name for field in dataclasses.fields(constructor)}

    @pytest.mark.parametrize(
        "base, change, message",
        [
            ("train", {"task": {"kind": "quadratic", "x_mean": [0.0]}},
             "quadratic task needs dimension"),
            ("train", {"task": {"kind": "logistic", "separation": 1.0}},
             "logistic task needs dimension, n_examples"),
            ("continual", {"task_private": {"kind": "tinymlp", "n_in": 2, "n_out": 1}},
             "tinymlp task needs hidden"),
            ("train", {"task": {"kind": "quadratic", "dimension": 2, "n_examples": 5}},
             "quadratic task does not read n_examples"),
            # a logistic task once ran with noise_std and hidden silently ignored
            ("train", {"task": {"kind": "logistic", "dimension": 3, "n_examples": 20,
                                "noise_std": 0.5, "hidden": 3}},
             "logistic task does not read hidden, noise_std"),
            ("continual", {"task_public": {"kind": "tinymlp", "n_in": 2, "hidden": 4,
                                           "n_out": 1, "separation": 2.0}},
             "tinymlp task does not read separation"),
            ("train", {"optimizer": {"kind": "sgd", "eta": 0.1, "beta1": 0.5, "beta2": 0.9}},
             "sgd optimizer does not read beta1, beta2"),
            ("continual", {"optimizer": {"eta": 0.1, "epsilon_stabilizer": 1e-6}},
             "sgd optimizer does not read epsilon_stabilizer"),
            ("train", {"clipping": {"kind": "auto", "r": 5.0}}, "auto clipping does not read r"),
            ("continual", {"clipping": {"kind": "none", "r": 5.0}},
             "none clipping does not read r"),
            ("continual", {"schedule": {"kind": "indicator", "total": 5}},
             "indicator schedule needs s"),
            ("continual", {"schedule": {"kind": "indicator", "s": 0.5}},
             "indicator schedule needs total"),
            ("continual", {"schedule": {"kind": "only_private", "total": 5}},
             "only_private schedule does not read total"),
            # a kind or key that no kind reads fails the schema
            ("train", {"optimizer": {"kind": "sgd_momentum", "eta": 0.1}},
             "'sgd_momentum' is not one of ['sgd', 'adam']"),
            ("train", {"optimizer": {"kind": "sgd", "mu": 0.9}},
             "Additional properties are not allowed ('mu' was unexpected)"),
            ("continual", {"optimizer": {"kind": "adam", "weight_decay": 0.1}},
             "Additional properties are not allowed ('weight_decay' was unexpected)"),
            # the switch zeroes Adam's m and re-draws nothing, with no knob
            ("continual", {"reset_policy": "reset_m"},
             "Additional properties are not allowed ('reset_policy' was unexpected)"),
            ("continual", {"head_reinit": False},
             "Additional properties are not allowed ('head_reinit' was unexpected)"),
            # the values of a quadratic task block
            ("train", {"task": {"kind": "quadratic", "dimension": 2, "hessian_diag": [1.0, 2.0],
                                "hessian_scale": 50.0}},
             "quadratic task does not read hessian_scale beside hessian_diag"),
            ("train", {"task": {"kind": "quadratic", "dimension": 2,
                                "covariance_diag": [1.0, 2.0], "covariance_scale": 50.0}},
             "quadratic task does not read covariance_scale beside covariance_diag"),
            ("train", {"task": {"kind": "quadratic", "dimension": 2,
                                "hessian_diag": [1.0, 2.0, 3.0]}},
             "hessian_diag length must match dimension"),
            ("oracle_small.json", {"task": {"kind": "quadratic", "dimension": 8,
                                            "covariance_scale": -1.0}},
             "covariance_scale must be finite and nonnegative"),
            ("continual", {"task_private": {"kind": "quadratic", "dimension": 4,
                                            "x_mean": [0.0]}},
             "x_mean length must match dimension"),
            ("oracle_small.json", {"task": {"kind": "tinymlp", "n_in": 2, "hidden": 4,
                                            "n_out": 1}},
             "'tinymlp' is not one of ['quadratic']"),
            # the keys a schedule leaves unread, and an indicator's horizon
            ("continual", {"schedule": {"kind": "only_private"}, "patience": 2},
             "the only_private schedule leaves patience unread"),
            ("continual_demo.json", {"schedule": {"kind": "only_private"}},
             "the only_private schedule leaves patience unread"),
            ("continual", {"schedule": {"kind": "only_public"},
                           "task_private": {"kind": "quadratic", "dimension": 4}},
             "the only_public schedule leaves sigma, task_private unread"),
            ("continual", {"schedule": {"kind": "only_public"}},
             "the only_public schedule leaves sigma unread"),
            ("continual", {"schedule": {"kind": "only_public"}, "clipping": {"kind": "auto"}},
             "the only_public schedule leaves clipping, sigma unread"),
            ("continual", {"schedule": {"kind": "only_public"},
                           "privacy": {"epsilon": 8.0, "delta": 1e-5, "n": 1000,
                                       "sample_budget": 100}},
             "the only_public schedule leaves privacy, sigma unread"),
            ("train", {"mode": "public"}, "the only_public schedule leaves sigma unread"),
            ("train", {"mode": "public", "clipping": {"kind": "auto"}},
             "the only_public schedule leaves clipping, sigma unread"),
            ("train", {"mode": "public", "privacy": {"epsilon": 8.0, "delta": 1e-5, "n": 1000,
                                                     "sample_budget": 100}},
             "the only_public schedule leaves privacy, sigma unread"),
            ("continual", {"schedule": {"kind": "indicator", "s": 0.5, "total": 4}},
             "indicator schedule spans 4 steps, but the run takes 5"),
            # sigma, or a privacy block the run keeps
            ("continual", {"privacy": {"epsilon": 8.0, "delta": 1e-5, "n": 1000,
                                       "sample_budget": 100}},
             "give sigma or a privacy block, not both"),
            ("train", {"privacy": {"epsilon": 8.0, "delta": 1e-5, "n": 1000,
                                   "sample_budget": 100}},
             "give sigma or a privacy block, not both"),
            ("continual", {"sigma": None}, "need either an explicit sigma or a privacy block"),
            ("private train", {"clipping": {"kind": "none"}},
             "a privacy block needs clipping, and the clipping kind is none"),
            ("private continual", {"clipping": {"kind": "none"}},
             "a privacy block needs clipping, and the clipping kind is none"),
            ("private train", {"steps": 1000},
             "the run can take 1000 private steps, but the privacy block calibrates sigma "
             "for 10 (sample_budget / batch_size)"),
            ("private continual", {"epochs": 2},
             "the run can take 20 private steps, but the privacy block calibrates sigma "
             "for 10 (sample_budget / batch_size)"),
            ("private continual",
             {"epochs": 4, "schedule": {"kind": "indicator", "s": 0.7, "total": 40}},
             "the run can take 12 private steps, but the privacy block calibrates sigma "
             "for 10 (sample_budget / batch_size)"),
            # the schedule's own rule comes first, so no count rests on a bad s
            ("private continual",
             {"epochs": 4, "schedule": {"kind": "indicator", "s": -1.0, "total": 40}},
             "indicator switch fraction s must lie in (0, 1)"),
            ("continual_demo.json",
             {"privacy": {"epsilon": 8.0, "delta": 1e-5, "n": 8, "sample_budget": 100000}},
             "batch_size 16 exceeds the privacy block's n 8"),
            ("private train",
             {"privacy": {"epsilon": 0.0, "delta": 1e-5, "n": 1000, "sample_budget": 1000}},
             "epsilon must be positive"),
            ("mia_toy.json", {"delta": 0.5}, "delta must be below 1/n for a dataset of size n"),
            ("calibrate_bench.json", {"batch_grid": [10, 10000000]},
             "batch_grid entry 10000000 exceeds n 1000000"),
            ("calibrate_bench.json", {"delta": 1.5}, "delta must lie strictly in (0, 1)"),
            # the table's columns, and what its csv writer can write
            ("continual", {"plot": {"columns": ["iter", "tr_H"]}},
             "plot names 'tr_H', not in the continual table's columns iter, phase, alpha, "
             "train_loss, val_loss, sigma"),
            ("train", {"plot": {"columns": ["iter", "tr_H", "decelerator"]}},
             "plot names 'tr_H', 'decelerator', not in the train table's columns iter, phase, "
             "alpha, train_loss, val_loss, sigma"),
            ("sweep-batch", {"cases": {"a\rb": {"g_norm_sq": 1.0, "g_h_g": 1.0, "tr_h": 1.0,
                                                 "tr_h_sigma": 1.0, "sigma": 0.5}}},
             "sweep-batch case name 'a\\rb' holds a carriage return"),
        ],
        ids=["quadratic-needs", "logistic-needs", "tinymlp-needs", "quadratic-unread",
             "logistic-unread", "tinymlp-unread", "sgd-unread", "default-kind-unread",
             "auto-unread", "none-unread", "indicator-needs-s", "indicator-needs-total",
             "only_private-unread", "sgd_momentum", "mu", "weight_decay", "reset_policy",
             "head_reinit", "hessian-diag-and-scale", "covariance-diag-and-scale",
             "diag-length", "negative-scale", "x_mean-length", "oracle-tinymlp",
             "patience-with-schedule", "demo-only_private", "only_public-task_private",
             "only_public-sigma", "only_public-clipping", "only_public-privacy", "public-sigma",
             "public-clipping", "public-privacy", "indicator-horizon", "sigma-and-privacy",
             "train-sigma-and-privacy", "no-sigma", "train-unclipped", "continual-unclipped",
             "train-too-long", "continual-too-long", "indicator-tail-too-long",
             "indicator-bad-s", "demo-n-8", "epsilon-zero", "mia-delta-half",
             "calibrate-batch-over-n", "calibrate-delta",
             "plot-column-without-curvature", "train-plot-columns", "carriage-return"],
    )
    def test_a_block_key_is_checked_at_load(
        self, base, change, message, tmp_path, capsys, monkeypatch
    ):
        # every rule that reads the config alone holds before any seed runs:
        # no runner is called and no seed worker is forked; a None in
        # ``change`` drops the key
        command, payload = base_config(base)
        payload = {key: value for key, value in {**payload, **change}.items() if value is not None}
        path = write_config(tmp_path, {**payload, "seeds": [0, 1]})
        with pytest.raises(ConfigError) as error:
            load_config(path, command)
        assert str(error.value) == f"config {path} fails validation: {message}"

        def refuse(*args):
            raise AssertionError("a runner ran or a worker was forked")

        monkeypatch.setitem(_RUNNERS, command, refuse)
        monkeypatch.setattr(cli.os, "fork", refuse)
        assert run_subcommand([command, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: {error.value}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "schedule",
        [
            {"kind": "dpmd"},
            {"kind": "sample", "n_pub": 0, "n_priv": 0},
            {"kind": "dpmd", "k": 3},
            {"kind": "only_public", "s": 0.3, "k": 2},
            {"kind": "only_public", "s": 0.3},
            {"kind": "only_private", "total": 5},
        ],
        ids=["dpmd-no-k", "sample-empty", "dpmd", "only_public-s-k", "only_public-s",
             "only_private-total"],
    )
    def test_schedule_the_loop_does_not_run_rejected_at_load(self, schedule, tmp_path, capsys):
        # the two-phase loop runs only binary schedules, and only the
        # indicator reads s and total
        path = write_config(tmp_path, {**continual_config(), "schedule": schedule})
        with pytest.raises(ConfigError, match="fails validation"):
            load_config(path, "continual")
        assert run_subcommand(["continual", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "block, constructor",
        [
            ("optimizer", OptimizerConfig),
            ("clipping", ClippingRule),
            ("schedule", AlphaSchedule),
            ("inputs", ImprovementInputs),
        ],
    )
    def test_block_keys_are_the_constructor_fields(self, block, constructor):
        # a block goes to its constructor as keyword arguments, so the keys a
        # schema accepts are the constructor's fields; each sweep-batch case
        # is an inputs block, and the loop runs no schedule that reads k,
        # n_pub or n_priv
        fields = {field.name for field in dataclasses.fields(constructor)}
        if block == "schedule":
            fields -= {"k", "n_pub", "n_priv"}
        schemas = {
            command: schema["properties"][block]
            for command, schema in CONFIG_SCHEMAS.items()
            if block in schema["properties"]
        }
        if block == "inputs":
            cases = CONFIG_SCHEMAS["sweep-batch"]["properties"]["cases"]
            schemas["sweep-batch"] = cases["additionalProperties"]
        assert schemas
        for command, schema in schemas.items():
            assert set(schema["properties"]) == fields, command

    @pytest.mark.parametrize("name", ["breakdown.json", "predict.json", "sweep_batch.json"])
    def test_g_fourth_overflow_is_named(self, name, tmp_path, capsys):
        payload = json.loads((CONFIG_DIR / name).read_text())
        for case in payload["cases"].values():
            case["g_norm_sq"] = 1e155
        path = write_config(tmp_path, payload)
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "numerical error: |G|^4 overflows a float" in capsys.readouterr().err

    def test_numerical_error_exit_2(self, tmp_path, capsys):
        payload = sweep_config()
        payload["cases"]["case"]["g_h_g"] = -100.0  # negative curvature denominator
        path = write_config(tmp_path, payload)
        code = run_subcommand(
            ["sweep-batch", "--config", str(path), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", ["out", "sweep_batch.csv", "sweep_batch.svg"])
    def test_an_unwritable_output_exits_1_naming_the_path(self, tmp_path, capsys, blocked):
        # a file where the --out directory goes, or a directory where the
        # CSV or the SVG goes
        out = tmp_path / "out"
        if blocked == "out":
            out.write_text("", encoding="utf-8")
        else:
            (out / blocked).mkdir(parents=True)
        path = write_config(tmp_path, {**sweep_config(), "plot": {"columns": ["B", "b_ghg"]}})
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"output error: cannot write to {out}: ")
        assert str(out / blocked if blocked != "out" else out) in line


class TestTaskFromConfig:
    def test_quadratic_diag(self):
        rng = np.random.default_rng(0)
        task = task_from_config(
            {"kind": "quadratic", "dimension": 3, "hessian_diag": [1.0, 2.0, 3.0],
             "covariance_scale": 0.5},
            rng,
        )
        assert isinstance(task, QuadraticTask)
        assert np.array_equal(task.a, [1.0, 2.0, 3.0])
        assert np.array_equal(task.s, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0],
                             ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize(
        "key", ["hessian_diag", "covariance_diag", "hessian_scale", "covariance_scale"]
    )
    def test_quadratic_entries_must_be_finite_and_nonnegative(self, key, bad, tmp_path, capsys):
        task = {"kind": "quadratic", "dimension": 2,
                key: [1.0, bad] if key.endswith("_diag") else bad}
        payload = {"schema": 1, "task": task, "eta_grid": [0.1], "batch_grid": [4],
                   "sigma_grid": [0.0], "trials": 200}
        # json writes NaN and Infinity as the bare tokens json.loads reads back
        path = write_config(tmp_path, payload)
        message = f"fails validation: {key} must be finite and nonnegative"
        with pytest.raises(ConfigError, match=message):
            load_config(path, "oracle")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_subcommand(["oracle", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["oracle", "train"])
    def test_x_mean_entries_must_be_finite(self, command, bad, tmp_path, capsys):
        task = {"kind": "quadratic", "dimension": 2, "x_mean": [bad, 1.0]}
        if command == "oracle":
            payload = {"schema": 1, "task": task, "eta_grid": [0.1], "batch_grid": [4],
                       "sigma_grid": [0.0], "trials": 200}
        else:
            payload = {**train_config(), "task": task}
        path = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_subcommand([command, "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "config error: x_mean must have finite entries" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("noise_std", -0.5, "noise_std must be finite and nonnegative"),
            ("noise_std", float("nan"), "noise_std must be finite and nonnegative"),
            ("noise_std", float("inf"), "noise_std must be finite and nonnegative"),
            ("target_scale", float("inf"), "target_scale must be finite"),
            ("target_scale", float("-inf"), "target_scale must be finite"),
            ("target_scale", float("nan"), "target_scale must be finite"),
        ],
        ids=["noise-negative", "noise-nan", "noise-inf", "scale-inf", "scale-neginf", "scale-nan"],
    )
    def test_tinymlp_noise_and_scale_must_be_valid(self, key, bad, message, tmp_path, capsys):
        # a negative or NaN noise_std once trained without label noise, and a
        # non-finite target_scale ended the run with exit 2 on its first loss
        task = {"kind": "tinymlp", "n_in": 3, "hidden": 4, "n_out": 2, key: bad}
        path = write_config(tmp_path, {**train_config(), "task": task})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_subcommand(["train", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_noise_loss_is_left_to_the_run(self, tmp_path, capsys):
        # 0.5 tr(A S) overflows, but train never asks for the population
        # loss: it exits 2 on its first loss, and nothing warns on the way
        task = {"kind": "quadratic", "dimension": 4, "hessian_scale": 1e200,
                "covariance_scale": 1e200}
        path = write_config(tmp_path, {**train_config(), "task": task})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_subcommand(["train", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "non-finite training loss at iteration 0" in capsys.readouterr().err

    def test_tinymlp(self):
        task = task_from_config(
            {"kind": "tinymlp", "n_in": 2, "hidden": 4, "n_out": 1},
            np.random.default_rng(0),
        )
        assert isinstance(task, TinyMlpTask)

    def test_logistic_deterministic_given_rng(self):
        cfg = {"kind": "logistic", "dimension": 3, "n_examples": 20}
        a = task_from_config(cfg, np.random.default_rng(5))
        b = task_from_config(cfg, np.random.default_rng(5))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestSubcommands:
    def test_calibrate_bench_shape(self, tmp_path):
        code = run_subcommand(
            ["calibrate", "--config", str(CONFIG_DIR / "calibrate_bench.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "calibrate.csv").read_text().splitlines()
        assert lines[0] == "B,T,sigma,mu,epsilon,delta"
        rows = [line.split(",") for line in lines[1:]]
        sigmas = [float(r[2]) for r in rows]
        bs = [float(r[0]) for r in rows]
        # sigma grows with B while sigma^2/B flattens out (noise-per-sample plateau)
        assert all(a < b for a, b in zip(sigmas, sigmas[1:]))
        ratio = [s * s / b for s, b in zip(sigmas, bs)]
        assert all(a > b for a, b in zip(ratio, ratio[1:]))
        assert ratio[-1] / ratio[-2] > 0.5  # flattened tail
        assert ratio[0] / ratio[-1] > 100  # steep head
        deltas = [float(r[5]) for r in rows]
        assert all(abs(d - 1e-6) <= 1e-8 for d in deltas)
        assert (tmp_path / "calibrate.svg").exists()

    def test_breakdown_columns_are_the_predictor_forms(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "breakdown.json", "sweep-batch")
        code = run_subcommand(
            ["sweep-batch", "--config", str(CONFIG_DIR / "breakdown.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "sweep_batch.csv").read_text().splitlines()
        assert lines[0] == (
            "case,B,b_ghg,tr_h_sigma,decelerator,denominator_priv,denominator_pub,"
            "delta_priv_star,delta_pub_star,B_star,alpha_star"
        )
        rows = [line.split(",") for line in lines[1:]]
        grid = cfg["batch_grid"]
        assert [(r[0], float(r[1])) for r in rows] == [
            (case, b) for case in ("finetuning", "pretraining") for b in grid
        ]
        for r in rows:
            inputs = ImprovementInputs(**cfg["cases"][r[0]])
            b = float(r[1])
            # repr writes each float so that float() reads back its bits
            assert [float(cell) for cell in r[2:]] == [
                b * inputs.g_h_g,
                inputs.tr_h_sigma,
                predictor.decelerator(b, inputs),
                predictor.denominator(b, inputs),
                predictor.denominator_pub(b, inputs),
                predictor.delta_l_priv_star(b, inputs),
                predictor.delta_l_pub_star(b, inputs),
                predictor.optimal_batch_dp(inputs),
                predictor.optimal_mix_alpha(inputs, b, b),
            ]
        b_star = {r[0]: float(r[9]) for r in rows}
        assert b_star["pretraining"] == pytest.approx(707.11, abs=0.01)
        assert b_star["finetuning"] == pytest.approx(70.71, abs=0.01)
        # grid argmax of the private improvement agrees with the marker
        for case in b_star:
            best = max((r for r in rows if r[0] == case), key=lambda r: float(r[7]))
            lower = max([g for g in grid if g <= b_star[case]] or [grid[0]])
            upper = min([g for g in grid if g >= b_star[case]] or [grid[-1]])
            assert float(best[1]) in (lower, upper)

    def test_predict_config_is_one_row_at_its_batch_size(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "predict.json", "sweep-batch")
        table = _RUNNERS["sweep-batch"](cfg, 0)
        inputs = ImprovementInputs(**cfg["cases"]["pretraining"])
        assert [row[:2] for row in table.rows] == [["pretraining", 512]]
        assert table.rows[0][-2] == pytest.approx(707.10678 / 0.8, abs=1e-3)
        assert table.rows[0][-1] == predictor.optimal_mix_alpha(inputs, 256, 1024)

    @pytest.mark.parametrize(
        "change, empty",
        [({"sigma": 0.0}, "B_star"), ({"sigma": 0.0, "tr_h_sigma": 0.0}, "alpha_star")],
        ids=["sigma-zero", "no-interior-mix"],
    )
    def test_an_optimum_that_does_not_exist_is_an_empty_cell(self, change, empty):
        cfg = sweep_config()
        cfg["cases"]["case"].update(change)
        table = _RUNNERS["sweep-batch"](cfg, 0)
        column = table.columns.index(empty)
        assert [row[column] for row in table.rows] == [None] * len(cfg["batch_grid"])

    def test_oracle_small(self, tmp_path):
        code = run_subcommand(
            ["oracle", "--config", str(CONFIG_DIR / "oracle_small.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[0] == "eta,B,sigma,mc_mean,mc_se,closed_form,z_score"
        zs = [abs(float(line.split(",")[6])) for line in lines[1:]]
        assert len(zs) == 8
        assert sum(z <= 4.0 for z in zs) >= 7

    @pytest.mark.parametrize(
        "scales, sigma_grid, kept",
        [((1e200, 1e200), [0.0], 0), ((0.5, 0.001), [0.0, 1e200], 1)],
        ids=["first-cell", "second-cell"],
    )
    def test_oracle_non_finite_cell_keeps_rows_before_it_and_exits_2(
        self, scales, sigma_grid, kept, tmp_path, capsys
    ):
        # finite, schema-valid values whose products overflow: with both
        # scales at 1e200 the first cell is all nan, and sigma = 1e200
        # overflows the noised step
        task = {"kind": "quadratic", "dimension": 8, "hessian_scale": scales[0],
                "covariance_scale": scales[1]}
        payload = {"schema": 1, "task": task, "eta_grid": [0.1], "batch_grid": [4],
                   "sigma_grid": sigma_grid, "trials": 200}
        path = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_subcommand(["oracle", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"non-finite oracle cell at eta=0.1, B=4, sigma={sigma_grid[-1]}" in err
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[0] == "eta,B,sigma,mc_mean,mc_se,closed_form,z_score"
        assert len(lines) == 1 + kept
        assert not re.search(r"inf|nan", "\n".join(lines))

    def test_continual_demo(self, tmp_path):
        code = run_subcommand(
            ["continual", "--config", str(CONFIG_DIR / "continual_demo.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "continual.csv").read_text().splitlines()
        assert lines[0] == (
            "iter,phase,alpha,train_loss,val_loss,sigma,"
            "tr_H,tr_H_Sigma,gHg,g_norm_sq,decelerator"
        )
        phases = [line.split(",")[1] for line in lines[1:]]
        assert "public" in phases

    def test_a_private_task_of_another_shape_fails_before_any_step(
        self, tmp_path, capsys, monkeypatch
    ):
        # a 4-8-3 private task once failed after the eight public steps
        payload = {**mlp_continual_config(),
                   "task_private": {"kind": "tinymlp", "n_in": 4, "hidden": 8, "n_out": 3}}
        path = write_config(tmp_path, payload)
        refuse_steps(monkeypatch)
        assert run_subcommand(["continual", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "config error: private task has 67 parameters, public task 58" in (
            capsys.readouterr().err
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_a_private_task_trains_only_the_private_phase(self, tmp_path):
        # the private task draws from its own teacher generator, not the
        # run's, so the public phase is the single-task run's
        logs = {}
        for name, private in (("single", None), ("private", {"teacher_seed": 5})):
            payload = mlp_continual_config()
            if private is not None:
                payload["task_private"] = {**payload["task_public"], **private}
            path = write_config(tmp_path, payload, f"{name}.json")
            out = tmp_path / name
            assert run_subcommand(["continual", "--config", str(path), "--out", str(out)]) == 0
            logs[name] = (out / "continual.csv").read_text().splitlines()[1:]
        phases = [row.split(",")[1] for row in logs["private"]]
        assert phases == ["public"] * 8 + ["private"] * 8
        assert logs["single"][:8] == logs["private"][:8]
        assert all(a != b for a, b in zip(logs["single"][8:], logs["private"][8:]))

    def test_an_indicator_schedule_must_span_the_run(self, tmp_path, capsys, monkeypatch):
        # a 1000-step horizon on a 10-step run once ran every step public
        payload = {**continual_config(), "epochs": 2,
                   "schedule": {"kind": "indicator", "s": 0.5, "total": 1000}}
        path = write_config(tmp_path, payload)
        refuse_steps(monkeypatch)
        assert run_subcommand(["continual", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "fails validation: indicator schedule spans 1000 steps, but the run takes 10" in (
            capsys.readouterr().err
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_every_config_is_listed(self):
        assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(SHIPPED_CONFIGS)

    @pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
    def test_shipped_config_fits_only_its_own_schema(self, name):
        # bench/report.py finds a config's subcommand as the one schema it fits
        cfg = json.loads((CONFIG_DIR / name).read_text())
        fits = [command for command, schema in CONFIG_SCHEMAS.items()
                if validation_message(cfg, schema) is None]
        assert fits == [SHIPPED_CONFIGS[name]]

    @pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
    def test_shipped_config_runs(self, name, tmp_path):
        command = SHIPPED_CONFIGS[name]
        argv = [command, "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]
        assert run_subcommand(argv) == 0
        assert list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
    def test_runner_returns_a_table_and_writes_nothing(self, name, tmp_path, monkeypatch):
        command = SHIPPED_CONFIGS[name]
        cfg = load_config(CONFIG_DIR / name, command)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DPLENS_OUT", str(tmp_path))
        table = _RUNNERS[command](cfg, cfg.get("seeds", [0])[0])
        assert isinstance(table, Table)
        assert table.rows and table.abort_reason is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "continual"])
    def test_clipping_none_leaves_private_steps_unclipped(self, command, tmp_path):
        # per-sample gradient norms of this quadratic are well above 1, so a
        # run that clipped at R = 1 would read differently from the unclipped one
        payload = {
            "schema": 1,
            "task": {"kind": "quadratic", "dimension": 4},
            "optimizer": {"kind": "sgd", "eta": 0.1},
            "sigma": 0.5,
            "mode": "dp",
            "steps": 20,
            "batch_size": 8,
        }
        if command == "continual":
            payload["task_public"] = payload.pop("task")
            del payload["mode"]
            payload.update(epochs=1, steps_per_epoch=payload.pop("steps"),
                           schedule={"kind": "only_private"})
        logs = {}
        for clip in ({"kind": "none"}, {"kind": "reparam", "r": 1.0}):
            payload["clipping"] = clip
            kind = clip["kind"]
            path = write_config(tmp_path, payload, f"{kind}.json")
            out = tmp_path / kind
            assert run_subcommand([command, "--config", str(path), "--out", str(out)]) == 0
            logs[kind] = (out / f"{command}.csv").read_text().splitlines()
        assert logs["none"][:2] == logs["reparam"][:2]  # same start, same first batch
        assert logs["none"][2:] != logs["reparam"][2:]

    def test_missing_clipping_block_is_reparam_at_one(self, tmp_path):
        csvs = []
        for name, clip in (("absent", None), ("reparam", {"kind": "reparam", "r": 1.0})):
            payload = train_config()
            if clip is not None:
                payload["clipping"] = clip
            out = tmp_path / name
            path = write_config(tmp_path, payload, f"{name}.json")
            assert run_subcommand(["train", "--config", str(path), "--out", str(out)]) == 0
            csvs.append((out / "train.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("mode", ["public", "dp"])
    def test_train_is_a_one_phase_continual_run(self, mode, tmp_path):
        train = {
            "schema": 1,
            "task": {"kind": "quadratic", "dimension": 4},
            "optimizer": {"kind": "adam", "eta": 0.05},
            "clipping": {"kind": "auto"},
            "sigma": 0.5,
            "mode": mode,
            "steps": 12,
            "batch_size": 8,
            "hessian_probes": 4,
        }
        continual = {key: value for key, value in train.items()
                     if key not in ("task", "mode", "steps")}
        continual.update(
            task_public=train["task"], epochs=1, steps_per_epoch=train["steps"],
            schedule={"kind": "only_public" if mode == "public" else "only_private"},
        )
        if mode == "public":
            # a public run reads neither, under either subcommand
            for payload in (train, continual):
                del payload["clipping"], payload["sigma"]
        csvs = {}
        for command, payload in (("train", train), ("continual", continual)):
            path = write_config(tmp_path, payload, f"{command}.json")
            assert run_subcommand([command, "--config", str(path), "--out", str(tmp_path)]) == 0
            csvs[command] = (tmp_path / f"{command}.csv").read_bytes()
        assert csvs["train"] == csvs["continual"]
        phases = {line.split(b",")[1] for line in csvs["train"].splitlines()[1:]}
        assert phases == {b"public" if mode == "public" else b"private"}

    def test_a_public_continual_run_refuses_sigma_and_clipping(self, tmp_path, capsys):
        # an only_public schedule takes no private step: a sigma and a
        # clipping block that nothing reads are config errors, and a run
        # without them needs no sigma
        payload = {**continual_config(), "schedule": {"kind": "only_public"}, "sigma": 7.0,
                   "clipping": {"kind": "reparam", "r": 5.0}}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_subcommand(["continual", "--config", str(path), "--out", str(out)]) == 1
        assert "only_public schedule leaves clipping, sigma unread" in capsys.readouterr().err
        del payload["sigma"], payload["clipping"]
        path = write_config(tmp_path, payload)
        assert run_subcommand(["continual", "--config", str(path), "--out", str(out)]) == 0
        rows = csv.DictReader((out / "continual.csv").read_text().splitlines())
        phases = {row["phase"] for row in rows}
        assert phases == {"public"}

    @pytest.mark.parametrize("command", ["train", "fourway"])
    def test_mlp_training_never_builds_per_sample_gradients(self, command, tmp_path):
        # the MLP has no way to build the per-sample gradient matrix
        assert not hasattr(TinyMlpTask, "per_sample_gradients")
        payload = {
            "schema": 1,
            "task": {"kind": "tinymlp", "n_in": 3, "hidden": 8, "n_out": 2},
            "optimizer": {"kind": "adam", "eta": 0.01},
            "clipping": {"kind": "reparam", "r": 1.0},
            "sigma": 0.5,
            "steps": 5,
            "batch_size": 16,
        }
        if command == "train":
            payload["mode"] = "dp"
        path = write_config(tmp_path, payload)
        assert run_subcommand([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / f"{command}.csv").read_text().splitlines()[1:]
        assert len(rows) == 5 * (4 if command == "fourway" else 1)

    @pytest.mark.parametrize(
        "command,probes",
        [
            pytest.param("train", 0, id="train"),
            pytest.param("continual", 0, id="continual"),
            pytest.param("fourway", 0, id="fourway"),
            pytest.param("train", 4, id="train-probes"),
            pytest.param("continual", 4, id="continual-probes"),
        ],
    )
    def test_diverged_run_keeps_partial_csv_and_exits_2(self, command, probes, tmp_path, capsys):
        payload = {
            "schema": 1,
            "task": {"kind": "quadratic", "dimension": 4},
            "optimizer": {"kind": "sgd", "eta": 50.0},
            "mode": "public",
            "steps": 400,
            "batch_size": 8,
            "plot": {"columns": ["iter", "train_loss"]},
        }
        if command == "continual":
            payload["task_public"] = payload.pop("task")
            del payload["mode"]
            payload.update(sigma=0.5, epochs=1, steps_per_epoch=payload.pop("steps"))
        elif command == "fourway":
            del payload["mode"]
            payload["sigma"] = 0.5
        if probes:
            payload["hessian_probes"] = probes
        path = write_config(tmp_path, payload)
        code = run_subcommand([command, "--config", str(path), "--out", str(tmp_path)])
        csv = tmp_path / f"{command}.csv"
        assert code == 2
        # the iterate after step 91 overflows the curvature statistics, and
        # step 92's loss overflows
        reason = "non-finite curvature" if probes else "non-finite training loss"
        assert f"{reason} at iteration" in capsys.readouterr().err
        rows = csv.read_text().splitlines()[1:]
        assert 0 < len(rows) < 400 * (4 if command == "fourway" else 1)
        if command == "train":
            assert len(rows) == (91 if probes else 92)
        assert not re.search(r"inf|nan", csv.read_text())
        assert not list(tmp_path.glob("*.svg"))

    def test_a_run_that_aborts_at_its_first_step_writes_the_configs_header(
        self, tmp_path, capsys
    ):
        # the first loss overflows, so no record is kept: the curvature
        # columns come from hessian_probes, not from the records
        task = {"kind": "quadratic", "dimension": 4, "hessian_scale": 1e200,
                "covariance_scale": 1e200}
        path = write_config(tmp_path, {**train_config(), "task": task, "hessian_probes": 1})
        assert run_subcommand(["train", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "non-finite training loss at iteration 0" in capsys.readouterr().err
        assert (tmp_path / "train.csv").read_text() == (
            "iter,phase,alpha,train_loss,val_loss,sigma,"
            "tr_H,tr_H_Sigma,gHg,g_norm_sq,decelerator\n"
        )

    @pytest.mark.parametrize("probes", [0, 4])
    def test_diverged_mlp_curvature_keeps_partial_csv_and_exits_2(self, probes, tmp_path, capsys):
        # with probes, the curvature statistics overflow while the loss stays
        # finite; without, the step's pass overflows, with no RuntimeWarning
        payload = {
            "schema": 1,
            "task_public": {"kind": "tinymlp", "n_in": 8, "hidden": 16, "n_out": 4},
            "optimizer": {"kind": "sgd", "eta": 1e6},
            "sigma": 0.5,
            "epochs": 2,
            "steps_per_epoch": 50,
            "batch_size": 16,
            "hessian_probes": probes,
        }
        path = write_config(tmp_path, payload)
        code = run_subcommand(["continual", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        reason = "non-finite curvature at iteration" if probes else (
            "non-finite training loss at iteration 24"
        )
        assert reason in capsys.readouterr().err
        text = (tmp_path / "continual.csv").read_text()
        assert 0 < len(text.splitlines()[1:]) < 100
        assert not re.search(r"inf|nan", text)

    def test_seed_sweep_with_jobs(self, tmp_path):
        payload = sweep_config()
        payload["seeds"] = [0, 1]
        path = write_config(tmp_path, payload)
        code = run_subcommand(
            ["sweep-batch", "--config", str(path), "--out", str(tmp_path), "--jobs", "2"]
        )
        assert code == 0
        assert (tmp_path / "sweep_batch_seed0.csv").exists()
        assert (tmp_path / "sweep_batch_seed1.csv").exists()

    def test_a_config_error_from_a_runner_leaves_no_out_directory(self, tmp_path, capsys):
        # the task block passes load_config, and the task's constructor refuses it
        payload = {
            "schema": 1,
            "task": {"kind": "tinymlp", "n_in": 2, "hidden": 3, "n_out": 1, "noise_std": -0.5},
            "optimizer": {"kind": "sgd"},
            "sigma": 0.5,
            "steps": 5,
            "batch_size": 8,
            "seeds": [0, 1, 2],
        }
        path = write_config(tmp_path, payload)
        out = tmp_path / "fw"
        assert run_subcommand(["fourway", "--config", str(path), "--out", str(out)]) == 1
        assert "noise_std must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_runs_one_seed_under_the_plain_name(self, tmp_path):
        payload = sweep_config()
        payload["seeds"] = [0, 1]
        path = write_config(tmp_path, payload)
        argv = ["sweep-batch", "--config", str(path), "--out", str(tmp_path), "--seed", "1"]
        assert run_subcommand(argv) == 0
        assert [p.name for p in tmp_path.glob("*.csv")] == ["sweep_batch.csv"]

    def test_subcommand_output_deterministic(self, tmp_path):
        path = write_config(tmp_path, sweep_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(out1)]) == 0
        assert run_subcommand(["sweep-batch", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "sweep_batch.csv").read_bytes() == (out2 / "sweep_batch.csv").read_bytes()

    def test_env_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPLENS_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path, sweep_config())
        assert run_subcommand(["sweep-batch", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "sweep_batch.csv").exists()


class TestSvg:
    def test_two_columns_single_polyline(self, tmp_path):
        table = Table(("x", "y"), [[1, 2], [2, 4], [3, 1]])
        svg = emit_svg_lineplot(table, ["x", "y"], tmp_path / "plot.svg")
        text = svg.read_text()
        assert text.count("<polyline") == 1

    def test_empty_csv_rejected(self, tmp_path):
        # a header with no rows, or no row without an empty cell, has nothing to plot
        for rows in ([], [[1, None], [None, 2]]):
            with pytest.raises(ValueError):
                emit_svg_lineplot(Table(("x", "y"), rows), ["x", "y"], tmp_path / "plot.svg")

    def test_missing_column_rejected(self, tmp_path):
        table = Table(("x", "y"), [[1, 2]])
        with pytest.raises(ValueError):
            emit_svg_lineplot(table, ["x", "z"], tmp_path / "plot.svg")

    def test_byte_identical_outputs(self, tmp_path):
        table = Table(("x", "y"), [[1, 2], [2, 4], [3, 1]])
        a = emit_svg_lineplot(table, ["x", "y"], tmp_path / "a.svg")
        b = emit_svg_lineplot(table, ["x", "y"], tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_log_scale_rejects_nonpositive(self, tmp_path):
        table = Table(("x", "y"), [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            emit_svg_lineplot(table, ["x", "y"], tmp_path / "plot.svg", scales=("log", "linear"))

    def test_multiple_series(self, tmp_path):
        table = Table(("x", "y1", "y2"), [[1, 2, 3], [2, 4, 5]])
        svg = emit_svg_lineplot(table, ["x", "y1", "y2"], tmp_path / "plot.svg")
        assert svg.read_text().count("<polyline") == 2

    @pytest.mark.parametrize("named", [True, False], ids=["arm-column", "no-name-column"])
    def test_series_splits_where_x_steps_back(self, named, tmp_path):
        # a fourway-shaped table: four arms, each over iterations 0..n-1; its
        # arm column gives each arm a colour and a legend entry, and without
        # it the one series splits where x steps back
        n = 6
        rows = [[arm, t, 1.0 + k + 0.1 * t] for k, arm in enumerate("abcd") for t in range(n)]
        table = Table(("arm", "iter", "train_loss"), rows)
        if not named:
            table = Table(("iter", "train_loss"), [row[1:] for row in rows])
        text = emit_svg_lineplot(table, ["iter", "train_loss"], tmp_path / "plot.svg").read_text()
        lines = polyline_points(text)
        assert [len(points) for points in lines] == [n] * 4
        colors = re.findall(r'<polyline[^>]*stroke="([^"]+)"', text)
        legend = re.findall(r'fill="[^"]+">([^<]*)</text>', text)
        assert len(set(colors)) == (4 if named else 1)
        assert legend == (list("abcd") if named else ["train_loss"])

    def test_one_group_plots_as_a_table_without_names(self, tmp_path):
        cfg = sweep_config()
        columns = ["B", "delta_priv_star", "delta_pub_star"]
        table = _RUNNERS["sweep-batch"](cfg, 0)
        named = emit_svg_lineplot(table, columns, tmp_path / "named.svg").read_bytes()
        bare = Table(table.columns[1:], [row[1:] for row in table.rows])
        assert named == emit_svg_lineplot(bare, columns, tmp_path / "bare.svg").read_bytes()
        cfg["cases"]["other"] = {**cfg["cases"]["case"], "sigma": 1.0}
        text = emit_svg_lineplot(_RUNNERS["sweep-batch"](cfg, 0), columns,
                                 tmp_path / "two.svg").read_text()
        assert re.findall(r'fill="[^"]+">([^<]*)</text>', text) == [
            "case delta_priv_star", "case delta_pub_star",
            "other delta_priv_star", "other delta_pub_star",
        ]

    def test_each_series_keeps_its_own_rows(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "continual_demo.json", "continual")
        table = _RUNNERS["continual"](cfg, 0)
        columns = ["iter", "val_loss", "tr_H"]
        text = emit_svg_lineplot(table, columns, tmp_path / "plot.svg").read_text()
        # val_loss is set at the 10 epoch ends, tr_H on all 80 rows
        assert [len(points) for points in polyline_points(text)] == [10, 80]


def test_scipy_loads_with_privacy_accounting_only(tmp_path):
    # privacy accounting, which calibrates sigma from log Phi, was the last
    # run path to load scipy; it computes log Phi with math.erfc now, so scipy
    # is a test-only reference.  A fresh process shows that neither the import
    # nor any shipped config loads it, the continual run that calibrates sigma
    # and the membership-inference attack included
    script = (
        "import sys\n"
        "from dplens.cli import run_subcommand\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported with dplens.cli'\n"
        f"for name, command in {SHIPPED_CONFIGS!r}.items():\n"
        f"    out = {str(tmp_path)!r} + '/' + name\n"
        f"    argv = [command, '--config', {str(CONFIG_DIR)!r} + '/' + name, '--out', out]\n"
        "    assert run_subcommand(argv) == 0, name\n"
        "    assert 'scipy' not in sys.modules, f'scipy was imported by {name}'\n"
    )
    env = dict(os.environ)
    src = str(CONFIG_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_and_oracle_run_leave_out_the_queue_and_logging_modules(tmp_path):
    # the oracle's chunk threads use threading and contextvars, and the seed
    # workers os.fork and pickle, which every run loads already;
    # concurrent.futures would pull in logging, multiprocessing its own
    # machinery, and numpy.ma (which np.unique imports) and a module-level
    # queue import were seen to raise a run's peak RSS, so a fresh process
    # shows that neither the import, an oracle run nor a multi-seed mia run
    # loads them
    unwanted = ("concurrent.futures", "logging", "multiprocessing", "numpy.ma", "queue")
    script = (
        "import sys\n"
        "import dplens.cli\n"
        f"unwanted = {unwanted!r}\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "assert not loaded, f'imported with dplens.cli: {loaded}'\n"
        f"argv = ['oracle', '--config', {str(CONFIG_DIR / 'oracle_small.json')!r},"
        f" '--out', {str(tmp_path)!r}]\n"
        "assert dplens.cli.run_subcommand(argv) == 0\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "assert not loaded, f'imported by an oracle run: {loaded}'\n"
        f"argv = ['mia', '--config', {str(CONFIG_DIR / 'mia_toy.json')!r},"
        f" '--out', {str(tmp_path)!r}]\n"
        "assert dplens.cli.run_subcommand(argv) == 0\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "assert not loaded, f'imported by a multi-seed mia run: {loaded}'\n"
    )
    env = dict(os.environ)
    src = str(CONFIG_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
