"""Tests for the command-line surface: outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from funkreg.cli import main


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
