import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dplens.cli import (
    CONFIG_SCHEMAS,
    ConfigError,
    canonical_config,
    emit_svg_lineplot,
    load_config,
    run_subcommand,
    task_from_config,
)
from dplens.model import QuadraticTask, TinyMlpTask

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def sweep_config():
    return {
        "schema": 1,
        "inputs": {
            "g_norm_sq": 1.0,
            "g_h_g": 100.0,
            "tr_h": 2e8,
            "tr_h_sigma": 2e4,
            "sigma": 0.5,
            "c": 1.0,
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

    def test_wrong_schema_version_rejected(self, tmp_path):
        payload = sweep_config()
        payload["schema"] = 2
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError):
            load_config(path, "sweep-batch")

    def test_every_schema_passes_the_metaschema(self):
        for schema in CONFIG_SCHEMAS.values():
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_validation_message_is_jsonschemas_best_match(self, tmp_path):
        payload = sweep_config()
        payload["inputs"]["g_norm_sq"] = "one"
        payload["surprise"] = 1
        path = write_config(tmp_path, payload)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, CONFIG_SCHEMAS["sweep-batch"])
        with pytest.raises(ConfigError) as got:
            load_config(path, "sweep-batch")
        assert str(got.value) == f"config {path} fails validation: {expected.value.message}"

    def test_canonical_form_stable(self):
        cfg = sweep_config()
        canon = canonical_config(cfg)
        assert canonical_config(json.loads(canon)) == canon

    def test_numerical_error_exit_2(self, tmp_path, capsys):
        payload = sweep_config()
        payload["inputs"]["g_h_g"] = -100.0  # negative curvature denominator
        path = write_config(tmp_path, payload)
        code = run_subcommand(
            ["sweep-batch", "--config", str(path), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "numerical error" in capsys.readouterr().err


class TestTaskFromConfig:
    def test_quadratic_diag(self):
        rng = np.random.default_rng(0)
        task = task_from_config(
            {"kind": "quadratic", "dimension": 3, "hessian_diag": [1.0, 2.0, 3.0],
             "covariance_scale": 0.5},
            rng,
        )
        assert isinstance(task, QuadraticTask)
        assert np.allclose(np.diag(task.a), [1.0, 2.0, 3.0])
        assert np.allclose(task.s, 0.5 * np.eye(3))

    def test_quadratic_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            task_from_config(
                {"kind": "quadratic", "dimension": 2, "hessian_diag": [1.0, 2.0, 3.0]},
                np.random.default_rng(0),
            )

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

    def test_fig_breakdown_markers(self, tmp_path):
        code = run_subcommand(
            ["fig-breakdown", "--config", str(CONFIG_DIR / "breakdown.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "fig_breakdown.csv").read_text().splitlines()
        assert lines[0].startswith("case,B,")
        by_case = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_case.setdefault(cells[0], []).append(cells)
        b_star_pre = float(by_case["pretraining"][0][9])
        b_star_fin = float(by_case["finetuning"][0][9])
        assert b_star_pre == pytest.approx(707.11, abs=0.01)
        assert b_star_fin == pytest.approx(70.71, abs=0.01)
        # grid argmax of the private improvement agrees with the marker
        for case, b_star in (("pretraining", b_star_pre), ("finetuning", b_star_fin)):
            rows = by_case[case]
            best = max(rows, key=lambda r: float(r[7]))
            grid = sorted(float(r[1]) for r in rows)
            best_b = float(best[1])
            neighbors = [g for g in grid if g <= b_star] or [grid[0]]
            lower = max(neighbors)
            upper = min([g for g in grid if g >= b_star] or [grid[-1]])
            assert best_b in (lower, upper)

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

    def test_predict_single_row(self, tmp_path):
        payload = {
            "schema": 1,
            "inputs": {
                "g_norm_sq": 1.0, "g_h_g": 100.0, "tr_h": 2e8,
                "tr_h_sigma": 2e4, "sigma": 0.5, "c": 1.0, "batch_size": 1000.0,
            },
        }
        path = write_config(tmp_path, payload)
        assert run_subcommand(["predict", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "predict.csv").read_text().splitlines()
        assert lines[0] == "B,delta_pub_star,delta_priv_star,decelerator,B_star,alpha_star"
        cells = lines[1].split(",")
        assert float(cells[4]) == pytest.approx(707.10678, abs=1e-3)


class TestSvg:
    def _csv(self, tmp_path, rows, header="x,y"):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return path

    def test_two_columns_single_polyline(self, tmp_path):
        path = self._csv(tmp_path, ["1,2", "2,4", "3,1"])
        svg = emit_svg_lineplot(path, ["x", "y"])
        text = svg.read_text()
        assert text.count("<polyline") == 1

    def test_empty_csv_rejected(self, tmp_path):
        path = self._csv(tmp_path, [])
        with pytest.raises(ValueError):
            emit_svg_lineplot(path, ["x", "y"])

    def test_missing_column_rejected(self, tmp_path):
        path = self._csv(tmp_path, ["1,2"])
        with pytest.raises(ValueError):
            emit_svg_lineplot(path, ["x", "z"])

    def test_byte_identical_outputs(self, tmp_path):
        path = self._csv(tmp_path, ["1,2", "2,4", "3,1"])
        a = emit_svg_lineplot(path, ["x", "y"], out_path=tmp_path / "a.svg")
        b = emit_svg_lineplot(path, ["x", "y"], out_path=tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_log_scale_rejects_nonpositive(self, tmp_path):
        path = self._csv(tmp_path, ["0,1", "1,2"])
        with pytest.raises(ValueError):
            emit_svg_lineplot(path, ["x", "y"], scales=("log", "linear"))

    def test_multiple_series(self, tmp_path):
        path = self._csv(tmp_path, ["1,2,3", "2,4,5"], header="x,y1,y2")
        svg = emit_svg_lineplot(path, ["x", "y1", "y2"])
        assert svg.read_text().count("<polyline") == 2
