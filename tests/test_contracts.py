"""Exact scaling contracts of the commands, whatever their summation order.

Scaling every curve by a power of two, 2^j, scales every transformed row,
every distance and every radius by exactly 2^j: the presmoothing, the
finite differences, the weighted sum of squares and its root all commute
with it, away from overflow and underflow. So every kernel argument
d / h keeps its bits, and so does every output but a radius. The kNN
bandwidth is what makes the estimator blind to the scale of the
semi-metric (Burba, Ferraty & Vieu 2009, J. Nonparametr. Stat.). Scaling
the responses by 2^j scales every kernel-weighted mean by exactly 2^j and
every squared quantity by exactly 4^j. Both contracts hold in any order
of summation, so they tell a right change of summation order from a
wrong one, where a bit pin catches both. Scaling by 3 moves bits, so the
contracts are for powers of two only.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from funkreg import FunctionalSample, SamplingGrid, SemiMetricSpec, save_sample
from funkreg.cli import main
from funkreg.curves import sample_distances

#: 2^j for these j keeps the drawn curves, their derivatives and their
#: squared distances far from overflow and from the subnormal range
EXPONENTS = [-40, -20, 3, 20, 30, 40]

#: output column -> the power of 2^j it scales by, per command and scaling
SCALED = {
    ("predict", "curves"): {"bandwidth": 1},
    ("predict", "responses"): {"prediction": 1, "actual": 1},
    ("ci", "curves"): {"bandwidth": 1},
    ("ci", "responses"): {"prediction": 1, "actual": 1, "lower": 1,
                          "upper": 1, "sigma2_hat": 2},
    ("fit", "curves"): {"bandwidth": 1},
    ("fit", "responses"): {"prediction": 1, "residual": 1},
    ("select", "curves"): {"h": 1},
    ("select", "responses"): {"mean_sq_boot_error": 2},
}


@st.composite
def datasets(draw):
    """Train and query samples on a non-uniform grid with exact twins,
    shifted twins (distance zero up to rounding under a derivative),
    near twins 1e-9 apart and queries that repeat a training curve, and a
    spec of any order with a window of None, 3 or 5."""
    p = draw(st.integers(7, 20))
    n = draw(st.integers(6, 24))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = SamplingGrid(np.concatenate([[0.0],
                                        np.cumsum(rng.uniform(0.01, 1.0, p - 1))]))
    values = rng.normal(size=(n + m, p))
    for row in range(1, n + m):
        kind = draw(st.sampled_from(["fresh", "fresh", "near", "duplicate",
                                     "shifted"]))
        source = values[draw(st.integers(0, min(row, n) - 1))]
        if kind == "near":
            values[row] = source + 1e-9 * rng.normal(size=p)
        elif kind == "duplicate":
            values[row] = source
        elif kind == "shifted":
            values[row] = source + rng.normal()
    spec = SemiMetricSpec(draw(st.sampled_from([0, 1, 2])),
                          draw(st.sampled_from([None, 3, 5])))
    train = FunctionalSample(grid, values[:n], rng.normal(size=n))
    test = FunctionalSample(grid, values[n:], rng.normal(size=m))
    return train, test, spec


def scaled(sample, kind, j):
    if kind == "curves":
        return FunctionalSample(sample.grid, np.ldexp(sample.values, j),
                                sample.responses)
    return FunctionalSample(sample.grid, sample.values,
                            np.ldexp(sample.responses, j))


def spec_flags(spec):
    flags = ["--deriv-order", str(spec.derivative_order)]
    if spec.presmoothing_window is not None:
        flags += ["--presmooth-window", str(spec.presmoothing_window)]
    return flags


def run_command(directory, name, train, test, flags):
    """Exit code and output columns of one command on written samples."""
    train_csv = directory / f"{name}-train.csv"
    test_csv = directory / f"{name}-test.csv"
    out = directory / f"{name}.tsv"
    save_sample(train, train_csv)
    save_sample(test, test_csv)
    command = flags[0]
    files = (["--data", str(train_csv)] if command == "fit"
             else ["--train", str(train_csv), "--test", str(test_csv)])
    code = main([command, *files, *flags[1:], "--out", str(out)])
    if code != 0:
        return code, None
    header = out.read_text().splitlines()[0].split("\t")
    table = np.loadtxt(out, delimiter="\t", skiprows=1, ndmin=2)
    return code, dict(zip(header, table.T))


def assert_contract(command, kind, j, train, test, flags):
    """The command on scaled samples exits as on the originals, and each
    output column is the original times its power of 2^j, bit for bit."""
    scaled_flags = list(flags)
    if kind == "curves" and "--h" in flags:
        # a radius scales with the curves
        at = flags.index("--h") + 1
        scaled_flags[at] = repr(float(np.ldexp(float(flags[at]), j)))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        base_code, base = run_command(directory, "base", train, test,
                                      [command, *flags])
        code, got = run_command(directory, "scaled", scaled(train, kind, j),
                                scaled(test, kind, j), [command, *scaled_flags])
    assert code == base_code
    if base is None:
        return
    powers = SCALED[command, kind]
    assert list(got) == list(base)
    for column, want in base.items():
        want = np.ldexp(want, powers.get(column, 0) * j)
        assert got[column].tobytes() == want.tobytes(), column


def bandwidth_flags(data, train, test, spec, k_max):
    """--k in [1, k_max], or --h at one of the distances (ties at the
    radius) or anywhere in their range."""
    if data.draw(st.booleans()):
        return ["--k", str(data.draw(st.integers(1, k_max)))]
    d = sample_distances(train, spec, test.values)
    h = data.draw(st.sampled_from(sorted(set(d[d > 0.0].tolist())) or [1.0])
                  | st.floats(1e-3, 10.0))
    return ["--h", repr(float(h))]


KINDS = st.sampled_from(["curves", "responses"])
JS = st.sampled_from(EXPONENTS)


class TestScalingContracts:
    @settings(max_examples=40, deadline=None)
    @given(datasets(), KINDS, JS, st.sampled_from(["uniform", "quadratic",
                                                  "triangle"]), st.data())
    def test_predict(self, case, kind, j, kernel, data):
        train, test, spec = case
        flags = ["--kernel", kernel, *spec_flags(spec),
                 *bandwidth_flags(data, train, test, spec, len(train))]
        assert_contract("predict", kind, j, train, test, flags)

    @settings(max_examples=40, deadline=None)
    @given(datasets(), KINDS, JS, st.sampled_from(["uniform", "poly:1,-0.5"]),
           st.data())
    def test_ci(self, case, kind, j, kernel, data):
        train, test, spec = case
        flags = ["--kernel", kernel, "--tau0", "fractal:2", *spec_flags(spec),
                 *bandwidth_flags(data, train, test, spec, len(train))]
        assert_contract("ci", kind, j, train, test, flags)

    @settings(max_examples=40, deadline=None)
    @given(datasets(), KINDS, JS, st.sampled_from(["uniform", "quadratic",
                                                  "triangle"]), st.data())
    def test_fit(self, case, kind, j, kernel, data):
        train, _, spec = case
        flags = ["--kernel", kernel, *spec_flags(spec),
                 *bandwidth_flags(data, train, train, spec, len(train) - 1)]
        assert_contract("fit", kind, j, train, train, flags)

    @settings(max_examples=40, deadline=None)
    @given(datasets(), KINDS, JS, st.sampled_from(["uniform", "quadratic",
                                                  "triangle"]), st.data())
    def test_select(self, case, kind, j, kernel, data):
        train, test, spec = case
        n = len(train)
        k_max = data.draw(st.integers(2, n - 1))
        pilot = data.draw(st.sampled_from(["fixed", "mult"]))
        pilot = (f"fixed:{data.draw(st.integers(2, n - 1))}" if pilot == "fixed"
                 else "mult:1.5")
        flags = ["--kernel", kernel, *spec_flags(spec),
                 "--k-min", str(data.draw(st.integers(2, k_max))),
                 "--k-max", str(k_max), "--n-boot", "6",
                 "--seed", str(data.draw(st.integers(0, 2**64 - 1))),
                 "--pilot", pilot]
        assert_contract("select", kind, j, train, test, flags)
