import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semireg import cli
from semireg.cli import ExperimentConfig, main
from semireg.errors import ConfigError, DivergenceError, SemiregError, StaleTraceError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY = {
    "task": "synthetic",
    "synthetic_n_samples": 120,
    "synthetic_input_dim": 1,
    "label_fraction": 0.2,
    "epochs": 2,
    "batch_labeled": 16,
    "batch_unlabeled": 16,
    "hidden_dims": [8],
    "ensemble_draws": 2,
    "seed": 0,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    payload = dict(TINY)
    if overrides:
        payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfigParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="w_ulb"):
            ExperimentConfig.from_dict({"task": "synthetic", "w_ulb": 10})

    def test_invalid_value_names_field(self):
        with pytest.raises(ConfigError, match="unlabeled_weight"):
            ExperimentConfig.from_dict({"task": "synthetic", "unlabeled_weight": -1.0})

    def test_type_errors_name_field(self):
        with pytest.raises(ConfigError, match="epochs"):
            ExperimentConfig.from_dict({"task": "synthetic", "epochs": "many"})
        with pytest.raises(ConfigError, match="hidden_dims"):
            ExperimentConfig.from_dict({"task": "synthetic", "hidden_dims": [8.5]})

    def test_type_errors_name_field_when_built_in_python(self):
        with pytest.raises(ConfigError, match="epochs"):
            ExperimentConfig(epochs="5")

    # json writes NaN and Infinity; 10**400 is a JSON integer too large for a float
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), pytest.param(10**400, id="10**400")]
    )
    @pytest.mark.parametrize("key", ["learning_rate", "unlabeled_weight", "synthetic_noise_scale"])
    def test_non_finite_number_exits_2_naming_field(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, {key: value})
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_csv_task_requires_csv_keys(self):
        with pytest.raises(ConfigError, match="csv_path"):
            ExperimentConfig.from_dict({"task": "csv"})
        with pytest.raises(ConfigError, match="csv_path"):  # null is not a value
            ExperimentConfig.from_dict({**CSV_CONFIG, "csv_path": None})

    def test_defaults_are_materialized_into_the_hash(self):
        c1 = ExperimentConfig.from_dict({"task": "synthetic"})
        c2 = ExperimentConfig.from_dict({"task": "synthetic", "epochs": 150})
        assert c1.sha256() == c2.sha256()  # 150 is the default
        assert c1.with_seed(1).sha256() != c1.sha256()

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        # not JSON, not UTF-8, and an integer past Python's int parsing limit
        for data in (b"{nope", b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"):
            bad.write_bytes(data)
            with pytest.raises(ConfigError, match="JSON"):
                ExperimentConfig.from_file(bad)


CSV_CONFIG = {
    "task": "csv",
    "csv_path": "data/rows.csv",
    "csv_feature_columns": ["x0", "x1"],
    "csv_target_column": "y",
    "csv_has_header": False,
    "learning_rate": 1,
}

# key: (a value of the wrong JSON type, a well-typed value out of range or None)
BAD_VALUES = {
    "task": (1, "regression"),
    "synthetic_n_samples": ("many", 39),
    "synthetic_input_dim": (1.5, 0),
    "synthetic_target_function": (3, "cubic"),
    "synthetic_noise_model": (0, "wild"),
    "synthetic_noise_scale": ("loud", -0.1),
    "csv_path": (5, None),
    "csv_feature_columns": ([1], []),
    "csv_target_column": (5, None),
    "csv_has_header": ("yes", None),
    "label_fraction": ("most", 0.0),
    "val_fraction": ("some", 1.0),
    "test_fraction": ([0.2], -0.1),
    "seed": (0.5, None),
    "seeds": ([0.5], []),
    "variant": (1, "half"),
    "epochs": ("many", -1),
    "batch_labeled": (16.0, 0),
    "batch_unlabeled": (True, 0),
    "learning_rate": ("fast", 0.0),
    "optimizer": (1, "rmsprop"),
    "unlabeled_weight": ("heavy", -1.0),
    "ensemble_draws": (2.5, 0),
    "dropout_p": ("none", 1.0),
    "hidden_dims": ([8.5], [8, 0]),
    "activation": (1, "gelu"),
    "variance_reruns": (60.5, 29),
}

BAD_CASES = [
    pytest.param(key, value, id=f"{key}-{kind}")
    for key, values in sorted(BAD_VALUES.items())
    for kind, value in zip(("type", "range"), values)
    if value is not None
]

# sha256 of canonical_json(); any change re-keys every artifact's provenance
CONFIG_SHA256 = {
    "quick.json": "2a900a126eb1b0f7f5207f2e7663b67309da98180be505aa152f956e56d1c327",
    "benchmark.json": "798261f474c2aa8a2a2849e60901f667f0496b0e879d61b69920e1e6fab0cc2a",
    "defaults": "a8b72a6cafffd83c7b64fe767687322273b6f681d6a09d88330be10a63c2e219",
    "csv": "2373946ebcf59e15a010641c848ecd888ef3a2566488312b52ce0ebfaedb9cf8",
}


class TestConfigSchema:
    def test_every_key_has_bad_values(self):
        keys = json.loads(ExperimentConfig.from_dict({}).canonical_json())
        assert sorted(keys) == sorted(BAD_VALUES)
        assert len(keys) == 27

    @pytest.mark.parametrize("key, value", BAD_CASES)
    def test_bad_value_raises_config_error_naming_the_key(self, key, value):
        base = CSV_CONFIG if key.startswith("csv_") else {}
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            ExperimentConfig.from_dict({**base, key: value})

    @pytest.mark.parametrize("name", sorted(CONFIG_SHA256))
    def test_canonical_json_sha256(self, name):
        if name.endswith(".json"):
            config = ExperimentConfig.from_file(CONFIGS / name)
        else:
            config = ExperimentConfig.from_dict(CSV_CONFIG if name == "csv" else {})
        digest = hashlib.sha256(config.canonical_json().encode("utf-8")).hexdigest()
        assert digest == CONFIG_SHA256[name]
        assert config.sha256() == digest


def _csv_target_config(tmp_path, target):
    """A csv config over 60 rows of feature i / 10 and target(i)."""
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("".join(f"{i / 10},{target(i)}\n" for i in range(60)))
    overrides = {**CSV_CONFIG, "csv_path": str(csv_path), "csv_feature_columns": ["0"]}
    return write_config(tmp_path, {**overrides, "csv_target_column": "1"})


# Each setup runs `command` successfully in `out`, then returns the config of
# a second run that is refused.
def _then_diverge(tmp_path, command, out):
    good = write_config(tmp_path, {"variance_reruns": 30}, name="good.json")
    assert main([command, "--config", str(good), "--out", str(out)]) == 0
    diverging = {"optimizer": "sgd_momentum", "learning_rate": 1e30, "epochs": 5}
    return write_config(tmp_path, {"variance_reruns": 30, **diverging}, name="bad.json")


def _then_make_csv_target_constant(tmp_path, command, out):
    config = _csv_target_config(tmp_path, lambda i: i % 7)
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    _csv_target_config(tmp_path, lambda i: 1.5)
    return config


def _then_damage_checkpoint(tmp_path, command, out):
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    (out / "model_a.json").write_text("{")
    return config


# command, setup, exit code, start of the error line, expected UserWarning,
# the files left in --out, and those of them the refused run wrote
REFUSALS = {
    "train_diverges": (
        "train", _then_diverge, 3, "error: training diverged", None,
        {"loss_history.csv"}, {"loss_history.csv"},
    ),
    "variance_demo_diverges": (
        "variance-demo", _then_diverge, 3, "error: training diverged", None, set(), set(),
    ),
    "train_constant_csv_target": (
        "train", _then_make_csv_target_constant, 2, "error: r_squared is undefined",
        "targets have zero variance", set(), set(),
    ),
    "evaluate_damaged_checkpoint": (
        "evaluate", _then_damage_checkpoint, 2, "error: checkpoint", None,
        set(cli.ARTIFACTS["train"]), set(),
    ),
}


class TestTrainCommand:
    def test_happy_path_writes_all_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        for artifact in (
            "metrics.json",
            "loss_history.csv",
            "bin_report.csv",
            "model_a.json",
            "model_b.json",
        ):
            assert (out / artifact).exists(), artifact
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seed"] == 0
        assert len(metrics["config_sha256"]) == 64
        assert metrics["n_steps"] > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["train", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("metrics.json", "loss_history.csv", "bin_report.csv", "model_a.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_invalid_config_exits_nonzero_naming_field(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        config = write_config(tmp_path, {"unlabeled_weight": -1.0}, name="typo.json")
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert "unlabeled_weight" in capsys.readouterr().err
        # a config error leaves the earlier run's results in --out
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # numpy's floating-point warnings fail these tests: the one error line must stand alone
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_refused_run_leaves_no_stale_artifacts(self, tmp_path, capsys, refusal):
        command, setup, code, message, warning, kept, rewritten = REFUSALS[refusal]
        out = tmp_path / "out"
        bad = setup(tmp_path, command, out)
        assert {p.name for p in out.iterdir()} == set(cli.ARTIFACTS[command]) | kept
        capsys.readouterr()
        with pytest.warns(UserWarning, match=warning) if warning else contextlib.nullcontext():
            assert main([command, "--config", str(bad), "--out", str(out)]) == code
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(message)
        assert {p.name for p in out.iterdir()} == kept
        for name in rewritten:  # by the refused run
            sha256 = ExperimentConfig.from_file(bad).sha256()
            assert (out / name).read_text().startswith(f"# config_sha256={sha256} ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_weights_exit_3(self, tmp_path, capsys):
        # two epochs leave the weights finite, but the pseudo-label errors overflow
        bad = write_config(tmp_path, {"optimizer": "sgd_momentum", "learning_rate": 1e30})
        out = tmp_path / "out"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: training diverged") and "bin report is not finite" in line
        assert {p.name for p in out.iterdir()} == {"loss_history.csv"}

    def test_constant_target_csv_exits_2_without_traceback(self, tmp_path, capsys):
        config = _csv_target_config(tmp_path, lambda i: 1.5)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="targets have zero variance"):
            assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: r_squared is undefined for constant truth" in err
        assert "Traceback" not in err
        assert not (out / "metrics.json").exists()

    def test_bin_report_csv_shape(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "bin_report.csv").read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "bin_index,mean_uncertainty,pseudo_label_mse,count"
        assert len(lines) == 12  # comment + header + 10 bins

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "seeded"
        assert main(["train", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seed"] == 7

    def test_loss_history_has_provenance_and_rows(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "hist"
        main(["train", "--config", str(config), "--out", str(out)])
        lines = (out / "loss_history.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# config_sha256=")
        assert lines[1].split(",")[:3] == ["step", "labeled_reg", "labeled_unc"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(lines) - 2 == metrics["n_steps"]


class TestAblateCommand:
    def test_zero_epochs_gives_four_identical_rows(self, tmp_path):
        config = write_config(tmp_path, {"epochs": 0, "seeds": [0]})
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "ablation_table.csv").read_text().strip().split("\n")
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 4
        maes = {row.split(",")[1] for row in data_rows}
        assert len(maes) == 1  # untrained metrics identical across variants

    def test_table_parses_as_csv_with_four_data_rows(self, tmp_path):
        import csv as csv_mod

        config = write_config(tmp_path, {"epochs": 1, "seeds": [0, 1]})
        out = tmp_path / "ablate2"
        assert main(["ablate", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "ablation_table.csv") as fh:
            rows = [r for r in csv_mod.reader(fh) if not r[0].startswith("#")]
        assert rows[0] == ["variant", "mae_mean", "mae_std", "r2_mean", "r2_std", "n_seeds", "n_failed"]
        assert len(rows) == 5
        assert [r[0] for r in rows[1:]] == ["baseline", "baseline_con", "baseline_ens", "full"]
        assert all(r[6] == "0" for r in rows[1:])
        cells = json.loads((out / "ablation_cells.json").read_text())
        assert len(cells["cells"]) == 8  # 4 variants x 2 seeds


class TestVarianceDemoCommand:
    def test_report_schema_and_zero_dropout_equality(self, tmp_path):
        config = write_config(tmp_path, {"dropout_p": 0.0, "variance_reruns": 30, "epochs": 1})
        out = tmp_path / "vd"
        assert main(["variance-demo", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "variance_report.json").read_text())
        assert payload["reruns"] == 30
        assert [row["t_draws"] for row in payload["rows"]] == [1, 2, 5, 20]
        for row in payload["rows"]:
            for field in (
                "t_draws",
                "reruns",
                "mse_single",
                "mse_ensemble",
                "bias_single",
                "bias_ensemble",
                "var_single",
                "var_ensemble",
            ):
                assert field in row
            assert row["mse_single"] == pytest.approx(row["mse_ensemble"], rel=1e-12)

    def test_dropout_makes_ensemble_help(self, tmp_path):
        config = write_config(
            tmp_path, {"dropout_p": 0.25, "variance_reruns": 60, "epochs": 2}
        )
        out = tmp_path / "vd2"
        assert main(["variance-demo", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "variance_report.json").read_text())
        for row in payload["rows"]:
            if row["t_draws"] == 1:
                continue
            assert row["mse_ensemble"] <= row["mse_single"] + 2 * row["mse_gap_se"]


class TestEvaluateCommand:
    def test_checkpoint_evaluation_matches_training_metrics(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "trained"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        train_metrics = json.loads((out / "metrics.json").read_text())
        eval_metrics = json.loads((out / "eval_metrics.json").read_text())
        assert eval_metrics["test_mae"] == train_metrics["test_mae"]
        assert eval_metrics["test_r2"] == train_metrics["test_r2"]


    def test_foreign_checkpoint_is_refused(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "trained"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["evaluate", "--config", str(config), "--out", str(out), "--seed", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'seed': 0" in err and "'seed': 1" in err
        assert not (out / "eval_metrics.json").exists()

    def test_huge_finite_weights_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        trained = tmp_path / "trained"
        assert main(["train", "--config", str(config), "--out", str(trained)]) == 0
        for name in cli.CHECKPOINTS:  # finite weights whose test predictions overflow
            doc = json.loads((trained / name).read_text())
            for entry in doc["params"].values():
                entry["data"] = [value * 1e120 for value in entry["data"]]
            (trained / name).write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "eval"
        argv = ["evaluate", "--config", str(config), "--out", str(out)]
        assert main([*argv, "--checkpoints", str(trained)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: checkpoints in {trained}: test ") and "not finite" in line
        assert not (out / "eval_metrics.json").exists()


def _transposed_first_weight(text):
    doc = json.loads(text)
    weight = doc["params"]["layer0.weight"]
    weight.update(rows=weight["cols"], cols=weight["rows"])  # same 8 values, now 8x1
    return json.dumps(doc)


# How a model_a.json is damaged: the new file text from the old one, or None
# to delete it.
CHECKPOINT_DAMAGE = {
    "missing": lambda text: None,
    "truncated": lambda text: text[: len(text) // 2],
    "non_numeric": lambda text: text.replace('"data": [', '"data": ["x", ', 1),
    "transposed_shape": _transposed_first_weight,
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_unloadable_checkpoint_exits_2_naming_it(tmp_path, capsys, damage):
    config = write_config(tmp_path)
    out = tmp_path / "trained"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    path = out / "model_a.json"
    text = CHECKPOINT_DAMAGE[damage](path.read_text())
    if text is None:
        path.unlink()
    else:
        path.write_text(text)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (out / "eval_metrics.json").exists()


# csv file bytes (None: no file), then the config's overrides of CSV_CONFIG
NAMED = {"csv_feature_columns": ["a"], "csv_target_column": "b", "csv_has_header": True}
CSV_FAILURES = {
    "missing_target_column": (b"a,c\n1,2\n3,4\n", NAMED),
    "missing_file": (None, NAMED),
    "not_utf8": (b"\xff\xfea,b\n1,2\n", NAMED),
    "oversized_cell": (b"a,b\n" + b"1" * 200_000 + b",2\n", NAMED),  # over csv's field limit
    "non_integer_column": (b"1,2\n3,4\n", {"csv_feature_columns": ["a"], "csv_target_column": "0"}),
}


@pytest.mark.parametrize("failure", sorted(CSV_FAILURES))
def test_bad_csv_exits_2_naming_the_file(tmp_path, capsys, failure):
    data, overrides = CSV_FAILURES[failure]
    csv_path = tmp_path / "rows.csv"
    if data is not None:
        csv_path.write_bytes(data)
    config = write_config(tmp_path, {**CSV_CONFIG, "csv_path": str(csv_path), **overrides})
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert str(csv_path) in capsys.readouterr().err


@pytest.mark.parametrize("error", SemiregError.__subclasses__(), ids=lambda e: e.__name__)
def test_every_refusal_exits_with_its_code_and_one_line(tmp_path, capsys, monkeypatch, error):
    def refuse(config, out_dir):
        raise error("refused", []) if error is DivergenceError else error("refused")

    monkeypatch.setattr(cli, "cmd_train", refuse)
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == error.exit_code
    assert error.exit_code == (3 if error is DivergenceError else 2)
    assert capsys.readouterr().err == "error: refused\n"


def test_a_bug_is_not_a_refusal(tmp_path, monkeypatch):
    def fail(config, out_dir):
        raise StaleTraceError("bug")

    monkeypatch.setattr(cli, "cmd_train", fail)
    with pytest.raises(StaleTraceError):
        main(["train", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")])


def test_out_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file")
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert out.read_text() == "a file"


def test_allocator_tuning_is_skipped_off_glibc(tmp_path, monkeypatch):
    def no_glibc(name):
        raise ValueError(name)

    def no_cdll(*args, **kwargs):
        raise AssertionError("mallopt must not be reached")

    monkeypatch.setattr(cli.os, "confstr", no_glibc)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_cdll)
    config = write_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_module_entrypoint_runs(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "proc"
    # the child imports the package the tests import, installed or not
    package_root = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "semireg.cli", "train", "--config", str(config), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "test_mae=" in proc.stdout
