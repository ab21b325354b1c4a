"""The benchmark's workloads: seeded inputs, the timed op and its check.

Every workload draws its inputs from the workload seed during `setup`, which
is what `setup_s` times together with `import funkreg`. `prepare` then does
the untimed work the checks need: the direct NumPy references, and for
`paper_query` the bandwidth selection that fixes k. `op` is one timed op;
`check` compares its outputs to the reference, outside the timed region.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np

import funkreg as fk
import funkreg.cli

import reference as ref

GRID_SIZE = 101
QUADRATIC = fk.KernelSpec.quadratic()
UNIFORM = fk.KernelSpec.uniform()
FRACTAL1 = fk.Tau0Model.fractal(1.0)
LEVEL = 0.95


def sub_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the workload seed and stream tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def check_select(result, curve: np.ndarray, k: int) -> bool:
    """selected_k must match exactly and the error curve to RTOL."""
    errors = [e for _, _, e in result.per_bandwidth]
    return result.selected_k == k and ref.close(errors, curve)


def check_ci_rows(rows: np.ndarray, expected: dict) -> bool:
    """Rows of the `ci` TSV: prediction, bandwidth, sigma2_hat, lower and
    upper, each to RTOL."""
    columns = {"prediction": 1, "bandwidth": 4, "sigma2": 5, "lower": 6,
               "upper": 7}
    return rows.shape == (expected["prediction"].size, 10) and all(
        ref.close(rows[:, col], expected[key]) for key, col in columns.items())


def check_moments(moments: dict, expected: dict) -> bool:
    return moments.keys() == expected.keys() and all(
        ref.close(moments[k], expected[k]) for k in expected)


class Workload:
    """One workload: `next_item` (untimed) picks the input of the next op,
    `op(item)` is timed, `check(item, output)` is not."""

    #: The kind of calibration unit the op is measured against (see
    #: calibration.py): the kind of work the op spends its time on.
    calibration = "interpreted"

    def prepare(self) -> list[bool]:
        """Untimed work after setup; returns the checks of any ops it ran."""
        return []

    def next_item(self):
        return None

    def summary(self, op_p50_s: float) -> str:
        """The median op time under this workload's own metric name."""
        raise NotImplementedError


class PaperSelect(Workload):
    """Paper scale: 165 training curves on a 101-point grid in a CSV, 50
    select queries in memory. One op loads the CSV and runs the wild
    bootstrap (first-derivative semi-metric, quadratic kernel, B = 100,
    k = 2..32, fixed pilot k = 16)."""

    name = "paper_select"
    op_name = "select"
    calibration = "vectorized"
    N_TRAIN = 165
    N_QUERIES = 50
    SPEC = fk.SemiMetricSpec(derivative_order=1)

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.train_csv = workdir / "train.csv"
        self.config = fk.BootstrapConfig(
            n_replications=100, k_min=2, k_max=32, seed=sub_seed(seed, 2),
            pilot=fk.FixedPilot(16))

    def setup(self) -> float:
        """Draw and write the inputs; returns the time spent drawing."""
        start = time.perf_counter()
        self.train, test = fk.generate_functional_sample(fk.SimulationConfig(
            n_train=self.N_TRAIN, n_test=self.N_QUERIES,
            grid_size=GRID_SIZE, seed=sub_seed(self.seed, 0)))
        drawn = time.perf_counter() - start
        self.queries = test.curves
        fk.save_sample(self.train, self.train_csv)
        return drawn

    def _select_reference(self) -> tuple[np.ndarray, int]:
        points = self.train.grid.points
        self.weights = ref.trapezoid_weights(points)
        self.train_t = ref.transform(self.train.values_matrix(), points, 1)
        query_t = ref.transform(
            np.array([q.values for q in self.queries]), points, 1)
        c = self.config
        return ref.bootstrap_error_curve(
            self.train_t, self.train.responses, query_t, self.weights,
            c.n_replications, c.k_min, c.k_max, c.pilot.k_g, c.seed)

    def prepare(self) -> list[bool]:
        self.curve, self.k = self._select_reference()
        return []

    def op(self, item):
        sample = fk.load_sample(self.train_csv)
        return fk.bootstrap_error_curve(
            sample, self.queries, QUADRATIC, self.SPEC, self.config)

    def check(self, item, result) -> bool:
        return check_select(result, self.curve, self.k)

    def summary(self, op_p50_s: float) -> str:
        return f"select_p50_s {op_p50_s:.4f} s"


class PaperQuery(PaperSelect):
    """Paper scale, after one select: a closed loop with one client sending
    fresh query curves (never in the training set) one at a time. One op is
    `pairwise_distances`, the kNN radius at the selected k, a quadratic
    prediction, then the plug-in variance, a uniform prediction and its 95%
    interval."""

    name = "paper_query"
    op_name = "query"
    calibration = "interpreted"
    BATCH = 256  # query curves drawn at a time

    def setup(self) -> float:
        drawn = super().setup()
        start = time.perf_counter()
        self._batches = [self._draw_batch(0)]
        return drawn + time.perf_counter() - start

    def _draw_batch(self, b: int):
        curves, _ = fk.generate_functional_sample(fk.SimulationConfig(
            n_train=self.BATCH, n_test=1, grid_size=GRID_SIZE,
            seed=sub_seed(self.seed, 1, b)))
        return curves.curves

    def _batch_reference(self, curves) -> np.ndarray:
        points = self.train.grid.points
        query_t = ref.transform(np.array([c.values for c in curves]), points, 1)
        d = ref.distances(query_t, self.train_t, self.weights)
        h = ref.knn_radius(d, self.k)
        y = self.train.responses
        ci = ref.intervals(d, y, h)
        return np.column_stack([ref.smooth(d, y, "quadratic", h),
                                ci["sigma2"], ci["lower"], ci["upper"]])

    def prepare(self) -> list[bool]:
        self.curve, expected_k = self._select_reference()
        self.sample = fk.load_sample(self.train_csv)
        selected = fk.bootstrap_error_curve(
            self.sample, self.queries, QUADRATIC, self.SPEC, self.config)
        ok = check_select(selected, self.curve, expected_k)
        self.k = selected.selected_k
        self._expected = [self._batch_reference(self._batches[0])]
        self._next = 0
        return [ok]

    def next_item(self):
        """The next fresh query curve as (batch, index); draws a new batch
        when the current one is used up."""
        b, i = divmod(self._next, self.BATCH)
        if b == len(self._batches):
            self._batches.append(self._draw_batch(b))
            self._expected.append(self._batch_reference(self._batches[b]))
        self._next += 1
        return b, i

    def op(self, item):
        b, i = item
        d = fk.pairwise_distances(self.sample, self._batches[b][i], self.SPEC)
        h = fk.knn_bandwidths(d, self.k, self.k).hs[0]
        y = self.sample.responses
        prediction = fk.nadaraya_watson(d, y, QUADRATIC, h).prediction
        sigma2 = fk.estimate_sigma2(d, y, UNIFORM, h)
        center = fk.nadaraya_watson(d, y, UNIFORM, h)
        lower, upper = fk.confidence_interval(
            dataclasses.replace(center, sigma2_hat=sigma2),
            UNIFORM, FRACTAL1, LEVEL)
        return prediction, sigma2, lower, upper

    def check(self, item, output) -> bool:
        """Prediction, sigma2_hat and interval bounds, each to RTOL."""
        b, i = item
        return ref.close(output, self._expected[b][i])

    def summary(self, op_p50_s: float) -> str:
        return f"query_p50_ms {1e3 * op_p50_s:.4f} ms"


class CiBatch(Workload):
    """n = 2000: one `funkreg ci` command per op through `funkreg.cli.main`,
    in-process, on a 2000-curve training CSV and a 200-curve query CSV
    (second derivative, presmoothing window 5, uniform kernel, k = 20)."""

    name = "ci_n2000"
    op_name = "ci"
    N_TRAIN = 2000
    N_QUERIES = 200
    ORDER, WINDOW, K = 2, 5, 20

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.train_csv = workdir / "train.csv"
        self.test_csv = workdir / "test.csv"
        self.out_tsv = workdir / "ci.tsv"
        self.argv = [
            "ci", "--train", str(self.train_csv), "--test", str(self.test_csv),
            "--deriv-order", str(self.ORDER),
            "--presmooth-window", str(self.WINDOW),
            "--kernel", "uniform", "--k", str(self.K), "--out", str(self.out_tsv),
        ]

    def setup(self) -> float:
        start = time.perf_counter()
        self.train, self.test = fk.generate_functional_sample(
            fk.SimulationConfig(n_train=self.N_TRAIN, n_test=self.N_QUERIES,
                                grid_size=GRID_SIZE, seed=sub_seed(self.seed, 0)))
        drawn = time.perf_counter() - start
        fk.save_sample(self.train, self.train_csv)
        fk.save_sample(self.test, self.test_csv)
        return drawn

    def prepare(self) -> list[bool]:
        points = self.train.grid.points
        train_t = ref.transform(self.train.values_matrix(), points,
                                self.ORDER, self.WINDOW)
        test_t = ref.transform(self.test.values_matrix(), points,
                               self.ORDER, self.WINDOW)
        d = ref.distances(test_t, train_t, ref.trapezoid_weights(points))
        h = ref.knn_radius(d, self.K)
        ci = ref.intervals(d, self.train.responses, h)
        self.expected = {"prediction": ci["center"], "bandwidth": h,
                         "sigma2": ci["sigma2"], "lower": ci["lower"],
                         "upper": ci["upper"]}
        return []

    def op(self, item):
        return funkreg.cli.main(self.argv)

    def check(self, item, exit_code) -> bool:
        if exit_code != 0 or not self.out_tsv.exists():
            return False
        rows = np.loadtxt(self.out_tsv, delimiter="\t", skiprows=1, ndmin=2)
        self.out_tsv.unlink()
        return check_ci_rows(rows, self.expected)

    def summary(self, op_p50_s: float) -> str:
        return f"ci_batch_s {op_p50_s:.4f} s"


class McScalar(Workload):
    """Scalar Monte Carlo: `mc_bias_variance` (n = 2000, h = 0.1) then
    `mc_normality` (n = 2000, h = 0.05), uniform kernel, query at the
    support boundary chi = 0, REPS replications each per op."""

    name = "mc_scalar"
    op_name = "mc"
    REPS = 1000

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def setup(self) -> float:
        start = time.perf_counter()
        design = dict(n=2000, chi=0.0, slope=1.0, noise_sd=0.5, reps=self.REPS)
        self.bias_config = fk.ScalarDesignConfig(
            h=0.1, seed=sub_seed(self.seed, 0), **design)
        self.normal_config = fk.ScalarDesignConfig(
            h=0.05, seed=sub_seed(self.seed, 1), **design)
        return time.perf_counter() - start

    @staticmethod
    def _moments(bias, normal) -> dict:
        return {
            "bias": bias.empirical_bias,
            "variance": bias.empirical_variance,
            "variance_leading": bias.theoretical.variance_leading,
            "standardized_mean": float(np.mean(normal.standardized)),
            "standardized_sd": float(np.std(normal.standardized, ddof=1)),
            "ks": normal.ks_statistic,
        }

    def prepare(self) -> list[bool]:
        c = self.bias_config
        preds, _ = ref.scalar_replications(
            c.n, c.h, c.slope, c.noise_sd, c.reps, c.seed)
        c = self.normal_config
        normal_preds, counts = ref.scalar_replications(
            c.n, c.h, c.slope, c.noise_sd, c.reps, c.seed)
        # uniform kernel with tau0(s) = s: m0 = 1/2 and m1 = m2 = 1, so the
        # boundary bias is h / 2 and the standard deviation noise_sd
        standardized = (np.sqrt(counts) * (normal_preds - c.h / 2)
                        / c.noise_sd)
        b = self.bias_config
        self.expected = {
            "bias": float(np.mean(preds)),
            "variance": float(np.var(preds, ddof=1)),
            "variance_leading": b.noise_sd ** 2 / (b.n * b.h),
            "standardized_mean": float(np.mean(standardized)),
            "standardized_sd": float(np.std(standardized, ddof=1)),
            "ks": ref.ks_normal(standardized),
        }
        return []

    def op(self, item):
        return (fk.mc_bias_variance(self.bias_config, UNIFORM),
                fk.mc_normality(self.normal_config, UNIFORM))

    def check(self, item, output) -> bool:
        return check_moments(self._moments(*output), self.expected)

    def summary(self, op_p50_s: float) -> str:
        reps = self.bias_config.reps + self.normal_config.reps
        return f"mc_reps_per_s {reps / op_p50_s:.1f} 1/s"


WORKLOADS = {w.name: w for w in (PaperSelect, PaperQuery, CiBatch, McScalar)}
