"""Tests for the command-line surface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import funkreg.bootstrap
import funkreg.cli
from funkreg import (
    FunctionalSample,
    KernelSpec,
    SamplingGrid,
    SemiMetricSpec,
    Tau0Model,
    compute_constants,
    load_sample,
    save_sample,
)
from funkreg.cli import _KNOWN_CONFIG_KEYS, main
from funkreg.curves import distance_matrix, transform
from funkreg.kernels import eval_kernel_array


def run(argv):
    return main(argv)


@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "sim"
    assert run([
        "simulate", "--n-train", "40", "--n-test", "8",
        "--grid-size", "51", "--seed", "3", "--out-dir", str(out),
    ]) == 0
    return out / "train.csv", out / "test.csv"


class TestConstantsCommand:
    def test_uniform_fractal(self, capsys):
        assert run(["constants", "--kernel", "uniform", "--tau0", "fractal:1"]) == 0
        assert capsys.readouterr().out.strip() == "0.5 1 1"

    def test_quadratic_fractal(self, capsys):
        assert run(["constants", "--kernel", "quadratic", "--tau0", "fractal:1"]) == 0
        out = capsys.readouterr().out.split()
        assert float(out[0]) == pytest.approx(0.25)
        assert float(out[1]) == pytest.approx(2 / 3)
        assert float(out[2]) == pytest.approx(8 / 15)

    def test_unknown_kernel_exits_2(self, capsys):
        assert run(["constants", "--kernel", "gauss", "--tau0", "dirac"]) == 2

    @pytest.mark.parametrize("text, model", [
        ("dirac", Tau0Model.dirac_at_one()),
        ("indicator", Tau0Model.indicator_unit()),
        ("empirical:TABLE", Tau0Model.empirical([[0.25, 0.1], [0.5, 0.4], [1, 1]])),
    ], ids=["dirac", "indicator", "empirical"])
    def test_tau0_models(self, tmp_path, capsys, text, model):
        table = tmp_path / "tau0.json"
        table.write_text("[[0.25, 0.1], [0.5, 0.4], [1, 1]]")
        text = text.replace("TABLE", str(table))
        assert run(["constants", "--kernel", "triangle", "--tau0", text]) == 0
        c = compute_constants(KernelSpec.triangle(), model)
        assert capsys.readouterr().out == f"{c.m0:g} {c.m1:g} {c.m2:g}\n"

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read tau0 table"),
        ("[[0.5, 0.2], [1, 1]", "tau0 table"),
    ], ids=["missing", "invalid-json"])
    def test_unreadable_tau0_table_exits_2(self, tmp_path, capsys, content,
                                           message):
        table = tmp_path / "tau0.json"
        if content is not None:
            table.write_text(content)
        assert run(["constants", "--kernel", "triangle",
                    "--tau0", f"empirical:{table}"]) == 2
        assert message in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_loadable_files(self, simulated):
        from funkreg import load_sample

        train, test = simulated
        assert len(load_sample(train)) == 40
        assert len(load_sample(test)) == 8

    def test_byte_identical_rerun(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run([
                "simulate", "--n-train", "10", "--n-test", "4",
                "--seed", "11", "--out-dir", str(out),
            ]) == 0
            outs.append((out / "train.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("size", ["--n-train", "--n-test"])
    def test_empty_sample_exits_2(self, tmp_path, capsys, size):
        # --n-test 0 failed later, as a sample of no curves
        out = tmp_path / "sim"
        assert run(["simulate", size, "0", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: sample sizes must be positive\n"
        assert not out.exists()


class TestFitPredictCi:
    def test_fit_rows(self, simulated, tmp_path):
        train, _ = simulated
        out = tmp_path / "fit.tsv"
        assert run([
            "fit", "--data", str(train), "--k", "6",
            "--kernel", "quadratic", "--deriv-order", "1", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split("\t")[0] == "index"
        assert len(lines) == 41

    def test_predict_rows(self, simulated, tmp_path):
        train, test = simulated
        out = tmp_path / "pred.tsv"
        assert run([
            "predict", "--train", str(train), "--test", str(test),
            "--k", "8", "--kernel", "quadratic", "--deriv-order", "1",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9
        header = lines[0].split("\t")
        assert "f_hat" in header and "neighbors" in header

    def test_predict_with_split(self, simulated, tmp_path):
        train, _ = simulated
        out = tmp_path / "pred.tsv"
        assert run([
            "predict", "--data", str(train), "--split", "30:10",
            "--split-seed", "1", "--k", "8", "--kernel", "quadratic",
            "--deriv-order", "1", "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 11

    def test_ci_adds_interval_columns(self, simulated, tmp_path):
        train, test = simulated
        out = tmp_path / "ci.tsv"
        assert run([
            "ci", "--train", str(train), "--test", str(test),
            "--k", "8", "--kernel", "uniform", "--deriv-order", "1",
            "--level", "0.9", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split("\t")
        for col in ("sigma2_hat", "lower", "upper", "level"):
            assert col in header
        row = lines[1].split("\t")
        lower = float(row[header.index("lower")])
        upper = float(row[header.index("upper")])
        pred = float(row[header.index("prediction")])
        assert lower <= pred <= upper

    def test_fit_k_must_leave_a_neighbour(self, simulated, capsys):
        # in-sample radii exclude the point itself, so k = n is one too many
        train, _ = simulated
        assert run(["fit", "--data", str(train), "--k", "40"]) == 2
        assert "--k must lie in [1, 39]" in capsys.readouterr().err

    def test_response_file_is_rejected_with_train_and_test(
            self, simulated, tmp_path, capsys):
        train, test = simulated
        responses = tmp_path / "y.txt"
        responses.write_text("1.0\n" * 40)
        for command in ("predict", "ci"):
            assert run([command, "--train", str(train), "--test", str(test),
                        "--response-file", str(responses), "--k", "5",
                        "--out", str(tmp_path / "out.tsv")]) == 2
            err = capsys.readouterr().err
            assert "--response-file" in err and "--train" in err
        assert not (tmp_path / "out.tsv").exists()

    def test_fit_bandwidth_is_checked_before_any_distance(
            self, simulated, capsys, monkeypatch):
        train, _ = simulated

        def no_distances(*args, **kwargs):
            raise AssertionError("distances computed before the checks")

        monkeypatch.setattr(funkreg.bootstrap, "transformed_matrix", no_distances)
        for flags, message in [
            (["--h", "0"], "--h must be positive"),
            (["--h", "-1"], "--h must be positive"),
            (["--h", "nan"], "--h must be positive"),
            (["--h", "inf"], "--h must be positive and finite"),
            (["--k", "0"], "--k must lie in [1, 39]"),
        ]:
            assert run(["fit", "--data", str(train)] + flags) == 2
            assert message in capsys.readouterr().err

    def test_ci_with_an_empirical_tau0(self, simulated, tmp_path):
        train, test = simulated
        table = tmp_path / "tau0.json"
        table.write_text("[[0.25, 0.1], [0.5, 0.4], [1, 1]]")
        out = tmp_path / "ci.tsv"
        assert run([
            "ci", "--train", str(train), "--test", str(test), "--k", "8",
            "--deriv-order", "1", "--tau0", f"empirical:{table}",
            "--out", str(out),
        ]) == 0
        dist, train_sample, test_sample = query_distances(
            train, test, SemiMetricSpec(1))
        tau0 = Tau0Model.empirical([[0.25, 0.1], [0.5, 0.4], [1, 1]])
        want = reference_tsv_rows(dist, train_sample, test_sample,
                                  KernelSpec.uniform(), k=8,
                                  interval=(tau0, 0.95))
        got = np.loadtxt(out, delimiter="\t", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(got, want)

    def test_ci_rejects_quadratic_kernel(self, simulated, tmp_path):
        train, test = simulated
        code = run([
            "ci", "--train", str(train), "--test", str(test),
            "--k", "8", "--kernel", "quadratic", "--deriv-order", "1",
        ])
        assert code == 2

    def test_numeric_failure_exit_code(self, simulated):
        train, test = simulated
        # a tiny fixed radius leaves every query without neighbors
        code = run([
            "predict", "--train", str(train), "--test", str(test),
            "--h", "1e-12", "--kernel", "quadratic", "--deriv-order", "1",
        ])
        assert code == 3

    def test_requires_exactly_one_bandwidth_rule(self, simulated):
        train, test = simulated
        code = run([
            "predict", "--train", str(train), "--test", str(test),
            "--kernel", "quadratic",
        ])
        assert code == 2


class TestSelectCommand:
    def test_error_curve_with_flagged_minimum(self, simulated, tmp_path):
        # the standard neighbor grid k = 2..32 gives 31 candidate rows
        train, test = simulated
        out = tmp_path / "select.tsv"
        assert run([
            "select", "--train", str(train), "--test", str(test),
            "--k-min", "2", "--k-max", "32", "--n-boot", "20",
            "--seed", "5", "--kernel", "quadratic", "--deriv-order", "1",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["k", "h", "mean_sq_boot_error", "selected"]
        assert len(lines) == 32
        flags = [int(line.split("\t")[3]) for line in lines[1:]]
        assert sum(flags) == 1
        errs = [float(line.split("\t")[2]) for line in lines[1:]]
        assert errs[flags.index(1)] == min(errs)

    def test_tied_nearest_curves_drop_k_2(self, tmp_path, capsys):
        # 165 simulated curves plus copies of 40 of them: some query's two
        # nearest curves tie at its k = 2 radius, where the quadratic
        # kernel weighs 0; this exited 3 for the whole run
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-train", "165", "--n-test", "50",
                    "--seed", "0", "--out-dir", str(sim)]) == 0
        train = load_sample(sim / "train.csv")
        copies = np.random.default_rng(0).choice(165, size=40, replace=False)
        tied = tmp_path / "tied.csv"
        save_sample(FunctionalSample(
            train.grid, np.vstack([train.values, train.values[copies]]),
            np.concatenate([train.responses, train.responses[copies]])), tied)
        out = tmp_path / "select.tsv"
        capsys.readouterr()
        assert run(["select", "--train", str(tied), "--test",
                    str(sim / "test.csv"), "--out", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 31
        assert rows[0][0] == "2" and rows[0][2] == "inf" and rows[0][3] == "0"
        errors = [float(row[2]) for row in rows[1:]]
        assert all(np.isfinite(errors))
        best = rows[1 + errors.index(min(errors))]
        assert best[3] == "1"
        assert capsys.readouterr().out.startswith(f"selected k={best[0]} h=")

    def test_byte_identical_rerun(self, simulated, tmp_path):
        train, test = simulated
        contents = []
        for name in ("s1.tsv", "s2.tsv"):
            out = tmp_path / name
            assert run([
                "select", "--train", str(train), "--test", str(test),
                "--k-min", "2", "--k-max", "10", "--n-boot", "15",
                "--seed", "9", "--kernel", "quadratic", "--deriv-order", "1",
                "--out", str(out),
            ]) == 0
            contents.append(out.read_bytes())
        assert contents[0] == contents[1]

    def test_config_file_supplies_defaults(self, simulated, tmp_path):
        train, test = simulated
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "kernel": "quadratic",
            "deriv_order": 1,
            "k_min": 2,
            "k_max": 8,
            "n_boot": 10,
            "pilot": "fixed:12",
            "seed": 4,
        }))
        out = tmp_path / "select.tsv"
        assert run([
            "select", "--train", str(train), "--test", str(test),
            "--config", str(config), "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 8

    def test_unknown_config_key_rejected(self, simulated, tmp_path):
        train, test = simulated
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"bandwidth": 3}))
        assert run([
            "select", "--train", str(train), "--test", str(test),
            "--config", str(config),
        ]) == 2

    def test_flag_overrides_config(self, simulated, tmp_path, capsys):
        train, test = simulated
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "kernel": "quadratic", "deriv_order": 1,
            "k_min": 2, "k_max": 6, "n_boot": 5, "seed": 1,
        }))
        out = tmp_path / "s.tsv"
        assert run([
            "select", "--train", str(train), "--test", str(test),
            "--config", str(config), "--k-max", "4", "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 4  # header + k=2..4


    def test_one_config_serves_select_and_predict(self, simulated, tmp_path):
        # each command ignores the keys only the other one has a flag for
        train, test = simulated
        pair = ["--train", str(train), "--test", str(test)]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "kernel": "uniform", "deriv_order": 1, "k": 7, "k_min": 2,
            "k_max": 9, "n_boot": 12, "seed": 3, "pilot": "mult:1.5",
        }))
        for command, flags in [
            ("select", ["--kernel", "uniform", "--deriv-order", "1",
                        "--k-min", "2", "--k-max", "9", "--n-boot", "12",
                        "--seed", "3", "--pilot", "mult:1.5"]),
            ("predict", ["--kernel", "uniform", "--deriv-order", "1",
                         "--k", "7"]),
        ]:
            by_config, by_flags = tmp_path / "config.tsv", tmp_path / "flags.tsv"
            assert run([command, *pair, "--config", str(config),
                        "--out", str(by_config)]) == 0
            assert run([command, *pair, *flags, "--out", str(by_flags)]) == 0
            assert by_config.read_bytes() == by_flags.read_bytes()


class TestConfigTable:
    """The config keys and the flags must not drift apart."""

    def flags(self):
        from funkreg.cli import build_parser

        commands = build_parser()._subparsers._group_actions[0].choices
        return [(name, action) for name, parser in commands.items()
                for action in parser._actions]

    @pytest.mark.parametrize("key", sorted(_KNOWN_CONFIG_KEYS))
    def test_every_key_is_a_flag_of_its_type(self, key):
        kind = _KNOWN_CONFIG_KEYS[key]
        actions = [(name, action) for name, action in self.flags()
                   if action.dest == key and action.option_strings]
        assert actions, f"config key {key!r} is no command's flag"
        for name, action in actions:
            value = (action.type or str)("3")
            assert type(value) is kind, f"{name} {action.option_strings[0]}"


class TestNonFiniteValues:
    """NaN and infinity fail where they come in (exit 2); they used to run,
    hang or end in a traceback."""

    BASE = {
        "constants": ["--kernel", "uniform"],
        "simulate": [],
        "mc-bias-var": ["--n", "100", "--h", "0.1", "--reps", "5"],
        "mc-normality": ["--n", "100", "--h", "0.1", "--reps", "5"],
    }

    @pytest.mark.parametrize("command, flags", [
        ("constants", ["--tau0", "fractal:nan"]),
        ("constants", ["--tau0", "fractal:inf"]),
        ("simulate", ["--noise-variance", "nan"]),
        ("simulate", ["--noise-variance", "inf"]),
        ("mc-bias-var", ["--noise-sd", "nan"]),
        ("mc-bias-var", ["--noise-sd", "inf"]),
        ("mc-bias-var", ["--slope", "nan"]),
        ("mc-bias-var", ["--slope=-inf"]),
        ("mc-normality", ["--h", "nan"]),
        ("mc-normality", ["--h", "inf"]),
    ], ids=lambda case: " ".join(case) if isinstance(case, list) else case)
    def test_exits_2(self, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        argv = [command, *self.BASE[command], *flags]
        if command != "constants":
            argv += ["--out-dir" if command == "simulate" else "--out", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("pilot", ["mult:nan", "mult:inf"])
    def test_pilot_multiplier(self, simulated, capsys, pilot):
        train, test = simulated
        assert run(["select", "--train", str(train), "--test", str(test),
                    "--pilot", pilot]) == 2
        assert "pilot multiplier must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["[[0.5, NaN], [1, 1]]",
                                       "[[NaN, 0.5], [1, 1]]"])
    def test_empirical_tau0_table(self, tmp_path, capsys, table):
        # a NaN value sent the adaptive quadrature to its depth limit
        path = tmp_path / "tau0.json"
        path.write_text(table)
        assert run(["constants", "--kernel", "triangle",
                    "--tau0", f"empirical:{path}"]) == 2
        assert "must lie in [0, 1]" in capsys.readouterr().err


class TestConfigValues:
    """A config value must parse as its flag would."""

    def predict(self, simulated, tmp_path, values=None, flags=()):
        train, test = simulated
        argv = ["predict", "--train", str(train), "--test", str(test),
                "--deriv-order", "1", *flags]
        if values is not None:
            config = tmp_path / "run.json"
            config.write_text(json.dumps(values))
            argv += ["--config", str(config)]
        out = tmp_path / "pred.tsv"
        return run(argv + ["--out", str(out)]), out

    @pytest.mark.parametrize("values", [{"k": 2.7}, {"k": True}, {"h": True},
                                        {"k": "2.7"}],
                             ids=["fractional-k", "bool-k", "bool-h", "text-k"])
    def test_rejected_with_the_key_named(self, simulated, tmp_path, capsys,
                                         values):
        # {"k": 2.7} ran with k = 2 and the booleans as 1, exiting 0
        code, _ = self.predict(simulated, tmp_path, values)
        assert code == 2
        assert repr(next(iter(values))) in capsys.readouterr().err

    def test_bool_rejected_for_an_int_key_of_select(self, simulated, tmp_path):
        train, test = simulated
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": False}))
        assert run(["select", "--train", str(train), "--test", str(test),
                    "--config", str(config)]) == 2

    @pytest.mark.parametrize("values, flags", [
        ({"k": 3}, ["--k", "3"]), ({"k": 3.0}, ["--k", "3"]),
        ({"h": 1}, ["--h", "1"]),
    ])
    def test_numbers_still_parse(self, simulated, tmp_path, values, flags):
        code, out = self.predict(simulated, tmp_path, values)
        assert code == 0
        by_config = out.read_bytes()
        code, out = self.predict(simulated, tmp_path, flags=flags)
        assert code == 0
        assert out.read_bytes() == by_config

    def test_negative_split_seed_exits_2(self, simulated, capsys):
        # this was a NumPy traceback and exit 1
        train, _ = simulated
        assert run(["predict", "--data", str(train), "--split", "30:10",
                    "--split-seed", "-1", "--k", "5"]) == 2
        assert "seed" in capsys.readouterr().err


class TestQueryGrid:
    @pytest.fixture()
    def files(self, tmp_path):
        """An 11-point training set on [0, 1], and query sets on [0, 5] with
        11 points and on [0, 1] with 9 points."""
        from funkreg import FunctionalSample, SamplingGrid, save_sample

        rng = np.random.default_rng(0)

        def write(name, points, n):
            path = tmp_path / f"{name}.csv"
            values = rng.normal(size=(n, len(points)))
            save_sample(FunctionalSample(SamplingGrid(points), values,
                                         rng.normal(size=n)), path)
            return str(path)

        return {
            "train": write("train", np.linspace(0.0, 1.0, 11), 30),
            "stretched": write("stretched", np.linspace(0.0, 5.0, 11), 6),
            "shorter": write("shorter", np.linspace(0.0, 1.0, 9), 6),
        }

    @pytest.mark.parametrize("command", [
        ["predict", "--k", "5"],
        ["ci", "--k", "5"],
        ["select", "--k-max", "6", "--n-boot", "5"],
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("query_set", ["stretched", "shorter"])
    def test_query_grid_must_match_the_training_grid(
            self, files, tmp_path, capsys, command, query_set):
        assert run([
            command[0], "--train", files["train"], "--test", files[query_set],
            "--deriv-order", "1", *command[1:],
            "--out", str(tmp_path / "out.tsv"),
        ]) == 2
        assert "grid differs from" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()


class TestInvalidKernel:
    """A negative, increasing or zero kernel is a validation failure (exit 2)
    in every command that takes --kernel, before any output is written."""

    MC = ["--n", "200", "--h", "0.1", "--reps", "20", "--seed", "1"]

    @pytest.mark.parametrize(("kernel", "shape"), [
        ("poly:0.5,1", "increasing"),
        ("poly:-1", "negative"),
        # the shape check is scale-free: a tiny multiple of a bad kernel
        ("poly:1e-13,1e-13", "increasing"),
        ("poly:-1e-13", "negative"),
        ("poly:0", "zero"),
    ])
    @pytest.mark.parametrize("command", [
        "predict", "ci", "fit", "select", "mc-bias-var", "mc-normality",
        "constants",
    ])
    def test_exits_2(self, simulated, tmp_path, capsys, command, kernel, shape):
        train, test = map(str, simulated)
        pair = ["--train", train, "--test", test]
        argv = {
            "predict": [*pair, "--k", "5"],
            "ci": [*pair, "--k", "5"],
            "fit": ["--data", train, "--k", "5"],
            "select": [*pair, "--n-boot", "5", "--k-max", "6"],
            "mc-bias-var": self.MC,
            "mc-normality": self.MC,
            "constants": ["--tau0", "fractal:1"],
        }[command]
        out = tmp_path / "out"
        if command != "constants":
            argv = [*argv, "--out", str(out)]
        assert run([command, *argv, "--kernel", kernel]) == 2
        captured = capsys.readouterr()
        assert f"error: kernel polynomial is {shape} on [0, 1" in captured.err
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("kernel, bad", [("poly:inf", "inf"),
                                             ("poly:1,nan", "nan")])
    def test_non_finite_coefficient_exits_2(self, capsys, kernel, bad):
        # poly:inf printed nan inf inf with a RuntimeWarning and exit 0
        assert run(["constants", "--kernel", kernel, "--tau0", "fractal:1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: kernel polynomial has a non-finite coefficient {bad}\n")
        assert captured.out == ""


class TestMonteCarloCommands:
    def test_mc_bias_var_json(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run([
            "mc-bias-var", "--n", "300", "--h", "0.1", "--noise-sd", "0.4",
            "--reps", "50", "--seed", "2", "--kernel", "uniform",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["theoretical_bias"] == pytest.approx(0.05)
        assert payload["reps"] == 50

    @pytest.mark.parametrize("command", ["mc-bias-var", "mc-normality"])
    def test_json_records_the_whole_design(self, capsys, command):
        # --slope was left out of the JSON
        assert run([command, "--n", "100", "--h", "0.2", "--chi", "0.5",
                    "--slope", "3", "--noise-sd", "0.4", "--reps", "5",
                    "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {key: payload[key] for key in (
            "n", "h", "chi", "slope", "noise_sd", "reps", "seed")} == {
            "n": 100, "h": 0.2, "chi": 0.5, "slope": 3.0, "noise_sd": 0.4,
            "reps": 5, "seed": 2}

    def test_mc_normality_json(self, capsys):
        assert run([
            "mc-normality", "--n", "300", "--h", "0.1", "--noise-sd", "0.4",
            "--reps", "60", "--seed", "2", "--kernel", "uniform",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ks_applicable"] is True
        assert 0.0 <= payload["ks_statistic"] <= 1.0

    def test_mc_json_rerun_identical(self, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert run([
                "mc-bias-var", "--n", "200", "--h", "0.1", "--reps", "20",
                "--seed", "6", "--kernel", "uniform", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def query_distances(train_path, test_path, spec):
    train, test = load_sample(train_path), load_sample(test_path)
    return distance_matrix(transform(test.values, test.grid, spec),
                           transform(train.values, train.grid, spec),
                           train.grid.trapezoid_weights()), train, test


def reference_tsv_rows(dist, train, test, kernel, k=None, h=None,
                       interval=None):
    """predict (or, with interval=(tau0, level), ci) rows as the per-query
    loop computed them before queries were batched."""
    from scipy.stats import norm

    y = train.responses
    rows = []
    for j, d in enumerate(dist):
        radius = h if h is not None else float(np.sort(d)[k - 1])
        w = eval_kernel_array(kernel, d / radius)
        total = float(np.sum(w))
        prediction = float(np.dot(w, y)) / total
        count = int(np.count_nonzero(d <= radius))
        row = [j, prediction, count / d.size, count, radius]
        if interval is not None:
            tau0, level = interval
            second = float(np.dot(w, y * y)) / total
            sigma2 = max(0.0, second - prediction * prediction)
            c = compute_constants(kernel, tau0)
            z = float(norm.ppf((1.0 + level) / 2.0))
            half = z * np.sqrt(c.m2 * sigma2 / (count * c.m1 ** 2))
            row += [sigma2, prediction - half, prediction + half, level]
        rows.append(row + [test.responses[j]])
    return np.array(rows, dtype=float)


class TestBatchedPredictCi:
    """Batched predict/ci against the per-query reference, every column
    bit for bit."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("window", [None, 5])
    @pytest.mark.parametrize("rule", ["k", "h", "k_dense", "h_dense"])
    @pytest.mark.parametrize("command", ["predict", "ci"])
    def test_matches_per_query_reference(self, simulated, tmp_path, order,
                                         window, rule, command):
        train, test = simulated
        spec = SemiMetricSpec(order, window)
        if command == "predict":
            kernel_arg, kernel, interval = "quadratic", KernelSpec.quadratic(), None
            extra = []
        else:
            kernel_arg = "poly:1,-0.5"
            kernel = KernelSpec.polynomial((1.0, -0.5))
            interval = (Tau0Model.fractal(2.0), 0.9)
            extra = ["--tau0", "fractal:2", "--level", "0.9"]
        dist, train_sample, test_sample = query_distances(train, test, spec)
        # a few curves a ball, or most of them: k = 30 of 40 curves and h
        # at the 0.9 distance quantile
        bandwidth = {
            "k": {"k": 9},
            "h": {"h": float(np.quantile(dist, 0.3))},
            "k_dense": {"k": 30},
            "h_dense": {"h": float(np.quantile(dist, 0.9))},
        }[rule]
        want = reference_tsv_rows(dist, train_sample, test_sample, kernel,
                                  interval=interval, **bandwidth)
        out = tmp_path / "out.tsv"
        (name, value), = bandwidth.items()
        assert run([
            command, "--train", str(train), "--test", str(test),
            "--deriv-order", str(order),
            *(["--presmooth-window", str(window)] if window else []),
            "--kernel", kernel_arg, f"--{name}", repr(value), *extra,
            "--out", str(out),
        ]) == 0
        got = np.loadtxt(out, delimiter="\t", skiprows=1, ndmin=2)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_k_and_h_messages(self, simulated, capsys):
        train, test = simulated
        base = ["predict", "--train", str(train), "--test", str(test)]
        assert run(base + ["--k", "41"]) == 2
        assert "--k must lie in [1, 40]" in capsys.readouterr().err
        assert run(base + ["--h", "0"]) == 2
        assert "--h must be positive" in capsys.readouterr().err
        for command in ("fit", "predict", "ci"):
            flags = (["--data", str(train)] if command == "fit"
                     else ["--train", str(train), "--test", str(test)])
            assert run([command, *flags, "--h", "inf"]) == 2
            assert "--h must be positive and finite" in capsys.readouterr().err
        assert run(base + ["--k", "3", "--h", "1"]) == 2
        assert "give exactly one of --k or --h" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "ci"])
    def test_bandwidth_is_checked_before_any_distance(
            self, simulated, tmp_path, capsys, monkeypatch, command):
        train, test = simulated

        def no_distances(*args, **kwargs):
            raise AssertionError("distances computed before the checks")

        monkeypatch.setattr(funkreg.cli, "sample_distances", no_distances)
        base = [command, "--train", str(train), "--test", str(test)]
        for flags, message in [
            (["--k", "41"], "--k must lie in [1, 40]"),
            (["--k", "0"], "--k must lie in [1, 40]"),
            (["--h", "0"], "--h must be positive"),
            (["--h", "-1"], "--h must be positive"),
            (["--h", "nan"], "--h must be positive"),
            (["--h", "inf"], "--h must be positive and finite"),
            (["--k", "3", "--h", "1"], "give exactly one of --k or --h"),
        ]:
            assert run(base + flags) == 2
            assert message in capsys.readouterr().err
        # a grid too short for the derivative is still reported first
        short = tmp_path / "short.csv"
        save_sample(FunctionalSample(SamplingGrid(np.linspace(0, 1, 4)),
                                     np.zeros((3, 4)), np.zeros(3)), short)
        assert run([command, "--train", str(short), "--test", str(short),
                    "--deriv-order", "2", "--k", "0"]) == 2
        assert "order-2 derivative needs >= 5 grid points" in capsys.readouterr().err


def test_import_does_not_load_scipy_stats():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, funkreg; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
