"""Tests for the command-line surface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from funkreg import KernelSpec, SemiMetricSpec, Tau0Model, compute_constants, load_sample
from funkreg.cli import main
from funkreg.curves import distance_matrix, transformed_matrix
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


def query_distances(train_path, test_path, spec):
    train, test = load_sample(train_path), load_sample(test_path)
    return distance_matrix(transformed_matrix(test, spec),
                           transformed_matrix(train, spec),
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
    @pytest.mark.parametrize("rule", ["k", "h"])
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
        if rule == "k":
            bandwidth = {"k": 9}
        else:
            bandwidth = {"h": float(np.quantile(dist, 0.3))}
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
        assert run(base + ["--k", "3", "--h", "1"]) == 2
        assert "give exactly one of --k or --h" in capsys.readouterr().err


def test_import_does_not_load_scipy_stats():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, funkreg; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
