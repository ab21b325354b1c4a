"""Command-line surface.

Subcommands map onto the library modules: `simulate` writes generated curve
samples, `fit`/`predict` write per-query predictions, `ci` adds confidence
interval columns, `select` runs the wild-bootstrap bandwidth selector and
writes its error curve, `mc-bias-var`/`mc-normality` run the scalar Monte
Carlo verifications, and `constants` prints the asymptotic constant triple.

Exit codes: 0 success, 2 validation failure, 3 numeric failure (for example
an empty neighborhood). Outputs carry no timestamps and floats are written
with 17 significant digits, so a seeded command rerun is byte-identical.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    FixedPilot,
    MultiplierPilot,
    bootstrap_error_curve,
    insample_fit,
)
from .curves import FunctionalSample, SemiMetricSpec, sample_distances
from .errors import (
    FunkregError,
    GridMismatch,
    NumericError,
    ParseError,
    ValidationError,
)
from .estimator import (
    interval_half_widths,
    knn_radii,
    nadaraya_watson_batch,
    plugin_variance,
)
from .io import _fmt, load_sample, save_sample, split_sample
from .kernels import KernelSpec, Tau0Model, compute_constants
from .simulation import (
    ScalarDesignConfig,
    SimulationConfig,
    generate_functional_sample,
    mc_bias_variance,
    mc_normality,
)

_KNOWN_CONFIG_KEYS = {
    "kernel": str,
    "tau0": str,
    "deriv_order": int,
    "presmooth_window": int,
    "k": int,
    "h": float,
    "k_min": int,
    "k_max": int,
    "n_boot": int,
    "pilot": str,
    "seed": int,
    "split": str,
    "split_seed": int,
    "out_dir": str,
    "level": float,
}


def parse_kernel(text: str) -> KernelSpec:
    t = text.strip().lower()
    if t == "uniform":
        return KernelSpec.uniform()
    if t == "quadratic":
        return KernelSpec.quadratic()
    if t == "triangle":
        return KernelSpec.triangle()
    if t.startswith("poly:"):
        try:
            coeffs = tuple(float(c) for c in t[len("poly:"):].split(","))
        except ValueError:
            raise ValidationError(f"bad polynomial coefficients: {text!r}") from None
        return KernelSpec.polynomial(coeffs)
    raise ValidationError(
        f"unknown kernel {text!r}; use uniform, quadratic, triangle, or poly:c0,c1,..."
    )


def parse_tau0(text: str) -> Tau0Model:
    t = text.strip().lower()
    if t.startswith("fractal:"):
        try:
            gamma = float(t[len("fractal:"):])
        except ValueError:
            raise ValidationError(f"bad fractal exponent: {text!r}") from None
        return Tau0Model.fractal(gamma)
    if t in ("dirac", "dirac_at_one"):
        return Tau0Model.dirac_at_one()
    if t in ("indicator", "indicator_unit"):
        return Tau0Model.indicator_unit()
    if t.startswith("empirical:"):
        path = text.strip()[len("empirical:"):]
        try:
            table = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read tau0 table {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"tau0 table {path}: {exc}") from None
        return Tau0Model.empirical(table)
    raise ValidationError(
        f"unknown tau0 {text!r}; use fractal:G, dirac, indicator, or empirical:path"
    )


def parse_pilot(text: str):
    t = text.strip().lower()
    if t.startswith("mult:"):
        try:
            return MultiplierPilot(float(t[len("mult:"):]))
        except ValueError:
            raise ValidationError(f"bad pilot multiplier: {text!r}") from None
    if t.startswith("fixed:"):
        try:
            return FixedPilot(int(t[len("fixed:"):]))
        except ValueError:
            raise ValidationError(f"bad fixed pilot: {text!r}") from None
    raise ValidationError(f"unknown pilot rule {text!r}; use mult:C or fixed:K")


def parse_split(text: str) -> tuple[int, int]:
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise ValidationError(f"split must look like 165:50, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"split must be two integers, got {text!r}") from None


def _load_config(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    typed = {}
    for key, value in data.items():
        if key not in _KNOWN_CONFIG_KEYS:
            raise ValidationError(f"config {path}: unknown key {key!r}")
        if value is None:
            continue
        kind = _KNOWN_CONFIG_KEYS[key]
        try:
            # a number must be one as its flag would parse it: no booleans,
            # and no fraction for an integer key
            if kind is not str and isinstance(value, bool):
                raise TypeError
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise ValueError
            typed[key] = kind(value)
        except (TypeError, ValueError):
            raise ValidationError(
                f"config {path}: key {key!r} has invalid value {value!r}"
            ) from None
    return typed


class _Options:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config = {}
        config_path = getattr(args, "config", None)
        if config_path:
            self._config = _load_config(config_path)

    def get(self, name: str, default=None):
        value = getattr(self._args, name, None)
        if value is None:
            value = self._config.get(name, default)
        return value

    def require(self, name: str, flag: str):
        value = self.get(name)
        if value is None:
            raise ValidationError(f"missing required option {flag}")
        return value


def _out_dir(opts: _Options) -> Path:
    out = opts.get("out_dir") or os.environ.get("FUNKREG_OUT_DIR", ".")
    return Path(out)


def _semi_metric(opts: _Options) -> SemiMetricSpec:
    return SemiMetricSpec(
        derivative_order=opts.get("deriv_order", 0),
        presmoothing_window=opts.get("presmooth_window"),
    )


def _kernel(opts: _Options, default: str = "quadratic") -> KernelSpec:
    return parse_kernel(opts.get("kernel", default))


def _write_tsv(path, header: list[str], rows: list[list]) -> None:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(
            cell if isinstance(cell, str) else
            str(cell) if isinstance(cell, (int, np.integer)) else _fmt(cell)
            for cell in row
        ))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _load_single(opts: _Options) -> FunctionalSample:
    data = opts.require("data", "--data")
    return load_sample(data, response_path=opts.get("response_file") or None)


def _train_and_queries(opts: _Options) -> tuple[FunctionalSample, FunctionalSample]:
    """Resolve (train, test) from --train/--test or --data plus --split."""
    train_path = opts.get("train")
    test_path = opts.get("test")
    if train_path and test_path:
        train, test = load_sample(train_path), load_sample(test_path)
        if not test.grid.matches(train.grid):
            raise GridMismatch(f"{test_path}: grid differs from {train_path}")
        return train, test
    if train_path or test_path:
        raise ValidationError("give both --train and --test, or --data with --split")
    sample = _load_single(opts)
    split = opts.get("split", "165:50")
    n_train, n_test = parse_split(split)
    return split_sample(sample, n_train, n_test, opts.get("split_seed", 0))


def _bandwidth_rule(opts: _Options) -> tuple[int | None, float | None]:
    """The (k, h) options, exactly one of them given."""
    k = opts.get("k")
    h = opts.get("h")
    if (k is None) == (h is None):
        raise ValidationError("give exactly one of --k or --h")
    return k, h


def _cmd_constants(args) -> int:
    opts = _Options(args)
    kernel = parse_kernel(opts.require("kernel", "--kernel"))
    tau0 = parse_tau0(opts.require("tau0", "--tau0"))
    c = compute_constants(kernel, tau0)
    print(f"{c.m0:g} {c.m1:g} {c.m2:g}")
    return 0


def _cmd_simulate(args) -> int:
    opts = _Options(args)
    config = SimulationConfig(
        n_train=args.n_train,
        n_test=args.n_test,
        grid_size=args.grid_size,
        noise_variance=args.noise_variance,
        seed=opts.get("seed", 0),
    )
    train, test = generate_functional_sample(config)
    out = _out_dir(opts)
    train_path = out / "train.csv"
    test_path = out / "test.csv"
    save_sample(train, train_path)
    save_sample(test, test_path)
    print(f"wrote {train_path} (n={len(train)}) and {test_path} (n={len(test)})")
    return 0


def _predictions(train: FunctionalSample, queries: FunctionalSample,
                 kernel: KernelSpec, spec: SemiMetricSpec, opts: _Options):
    """Query-by-train distances, per-query radii, and the batched fit at
    them (predictions, kernel totals, neighbor counts); shared by predict
    and ci."""
    dist = sample_distances(train, spec, queries.values)
    k, h = _bandwidth_rule(opts)
    if h is not None:
        if h <= 0:
            raise ValidationError("--h must be positive")
        radii = np.full(len(queries), float(h))
    else:
        if not 1 <= k <= len(train):
            raise ValidationError(f"--k must lie in [1, {len(train)}]")
        radii = knn_radii(dist, k, k)[:, 0]
    return dist, radii, nadaraya_watson_batch(dist, train.responses, kernel, radii)


def _cmd_fit(args) -> int:
    opts = _Options(args)
    sample = _load_single(opts)
    kernel = _kernel(opts)
    spec = _semi_metric(opts)
    n = len(sample)
    k, h = _bandwidth_rule(opts)
    if k is not None and not 1 <= k <= n - 1:
        raise ValidationError(f"--k must lie in [1, {n - 1}]")
    preds, counts, radii = insample_fit(sample, kernel, spec, h=h, k=k)
    rows = [
        [i, preds[i], sample.responses[i] - preds[i], counts[i] / n,
         int(counts[i]), radii[i]]
        for i in range(n)
    ]
    _write_tsv(
        opts.get("out"),
        ["index", "prediction", "residual", "f_hat", "neighbors", "bandwidth"],
        rows,
    )
    return 0


def _cmd_predict(args) -> int:
    opts = _Options(args)
    train, queries = _train_and_queries(opts)
    kernel = _kernel(opts)
    spec = _semi_metric(opts)
    _, radii, (preds, _, counts) = _predictions(train, queries, kernel, spec, opts)
    f_hat = counts / len(train)
    rows = [
        [j, preds[j], f_hat[j], counts[j], radii[j], queries.responses[j]]
        for j in range(len(queries))
    ]
    _write_tsv(
        opts.get("out"),
        ["index", "prediction", "f_hat", "neighbors", "bandwidth", "actual"],
        rows,
    )
    return 0


def _cmd_ci(args) -> int:
    opts = _Options(args)
    train, queries = _train_and_queries(opts)
    kernel = _kernel(opts, default="uniform")
    spec = _semi_metric(opts)
    tau0 = parse_tau0(opts.get("tau0", "fractal:1"))
    level = opts.get("level", 0.95)
    dist, radii, (preds, _, counts) = _predictions(train, queries, kernel, spec, opts)
    y = train.responses
    second = nadaraya_watson_batch(dist, y * y, kernel, radii)[0]
    sigma2 = plugin_variance(preds, second)
    half = interval_half_widths(sigma2, counts, kernel, tau0, level)
    lower, upper = preds - half, preds + half
    f_hat = counts / len(train)
    rows = [
        [j, preds[j], f_hat[j], counts[j], radii[j], sigma2[j], lower[j],
         upper[j], level, queries.responses[j]]
        for j in range(len(queries))
    ]
    _write_tsv(
        opts.get("out"),
        ["index", "prediction", "f_hat", "neighbors", "bandwidth",
         "sigma2_hat", "lower", "upper", "level", "actual"],
        rows,
    )
    return 0


def _cmd_select(args) -> int:
    opts = _Options(args)
    train, queries = _train_and_queries(opts)
    kernel = _kernel(opts)
    spec = _semi_metric(opts)
    pointwise = opts.get("pointwise")
    config = BootstrapConfig(
        n_replications=opts.get("n_boot", 100),
        k_min=opts.get("k_min", 2),
        k_max=opts.get("k_max", 32),
        seed=opts.get("seed", 0),
        pilot=parse_pilot(opts.get("pilot", "mult:2")),
        evaluation="pointwise" if pointwise is not None else "test_set",
        query_index=pointwise if pointwise is not None else 0,
    )
    result = bootstrap_error_curve(train, queries.curves, kernel, spec, config)
    rows = [
        [k, h, err, 1 if k == result.selected_k else 0]
        for k, h, err in result.per_bandwidth
    ]
    _write_tsv(
        opts.get("out"),
        ["k", "h", "mean_sq_boot_error", "selected"],
        rows,
    )
    print(f"selected k={result.selected_k} h={_fmt(result.selected_h)}")
    return 0


def _scalar_config(args, opts: _Options) -> ScalarDesignConfig:
    return ScalarDesignConfig(
        n=args.n,
        h=args.h,
        chi=args.chi,
        slope=args.slope,
        noise_sd=args.noise_sd,
        reps=args.reps,
        seed=opts.get("seed", 0),
    )


def _emit_json(payload: dict, out) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)


def _cmd_mc_bias_var(args) -> int:
    opts = _Options(args)
    kernel = _kernel(opts, default="uniform")
    config = _scalar_config(args, opts)
    report = mc_bias_variance(config, kernel)
    theo = report.theoretical
    _emit_json({
        "empirical_bias": report.empirical_bias,
        "empirical_variance": report.empirical_variance,
        "theoretical_bias": theo.b_n,
        "theoretical_variance": theo.variance_leading,
        "m0": theo.constants.m0,
        "m1": theo.constants.m1,
        "m2": theo.constants.m2,
        "phi_prime": theo.phi_prime,
        "f_of_h": theo.f_of_h,
        "n": config.n,
        "h": config.h,
        "chi": config.chi,
        "noise_sd": config.noise_sd,
        "reps": config.reps,
        "seed": config.seed,
    }, opts.get("out"))
    return 0


def _cmd_mc_normality(args) -> int:
    opts = _Options(args)
    kernel = _kernel(opts, default="uniform")
    config = _scalar_config(args, opts)
    report = mc_normality(config, kernel)
    _emit_json({
        "ks_statistic": None if not report.ks_applicable else report.ks_statistic,
        "ks_applicable": report.ks_applicable,
        "insufficient_replications": report.insufficient_replications,
        "b_n": report.b_n,
        "standardized_mean": float(np.mean(report.standardized)),
        "standardized_sd": (
            float(np.std(report.standardized, ddof=1)) if config.reps > 1 else None
        ),
        "n": config.n,
        "h": config.h,
        "chi": config.chi,
        "noise_sd": config.noise_sd,
        "reps": config.reps,
        "seed": config.seed,
    }, opts.get("out"))
    return 0


def _add_common(parser, *, pair=False, bandwidth=False):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--kernel", help="uniform|quadratic|triangle|poly:c0,c1,...")
    parser.add_argument("--deriv-order", dest="deriv_order", type=int,
                        choices=[0, 1, 2], help="semi-metric derivative order")
    parser.add_argument("--presmooth-window", dest="presmooth_window", type=int,
                        help="odd moving-average window (default: none)")
    parser.add_argument("--data", help="curve CSV (response in final column)")
    parser.add_argument("--response-file", dest="response_file",
                        help="companion response file (one value per line)")
    if pair:
        parser.add_argument("--train", help="training curve CSV")
        parser.add_argument("--test", help="query curve CSV")
        parser.add_argument("--split", help="n_train:n_test split of --data")
        parser.add_argument("--split-seed", dest="split_seed", type=int,
                            help="seed of the deterministic split (default 0)")
    if bandwidth:
        parser.add_argument("--k", type=int, help="neighbor count (kNN bandwidth)")
        parser.add_argument("--h", type=float, help="fixed bandwidth radius")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funkreg",
        description="Kernel regression for curve-valued predictors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the (m0, m1, m2) constants")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--kernel")
    p.add_argument("--tau0", help="fractal:G|dirac|indicator|empirical:path")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("simulate", help="generate a curve-valued sample")
    p.add_argument("--n-train", type=int, default=100)
    p.add_argument("--n-test", type=int, default=50)
    p.add_argument("--grid-size", type=int, default=101)
    p.add_argument("--noise-variance", type=float, default=2.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="in-sample predictions on a dataset")
    _add_common(p, bandwidth=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predictions at query curves")
    _add_common(p, pair=True, bandwidth=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ci", help="predictions with confidence intervals")
    _add_common(p, pair=True, bandwidth=True)
    p.add_argument("--tau0", help="tau0 model (default fractal:1)")
    p.add_argument("--level", type=float, help="confidence level (default 0.95)")
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("select", help="wild-bootstrap bandwidth selection")
    _add_common(p, pair=True)
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--n-boot", dest="n_boot", type=int)
    p.add_argument("--pilot", help="mult:C or fixed:K (default mult:2)")
    p.add_argument("--seed", type=int)
    p.add_argument("--pointwise", type=int,
                   help="select at a single query index instead of averaging")
    p.set_defaults(func=_cmd_select)

    for name, func in (("mc-bias-var", _cmd_mc_bias_var),
                       ("mc-normality", _cmd_mc_normality)):
        p = sub.add_parser(name, help=f"scalar Monte Carlo ({name})")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--chi", type=float, default=0.0)
        p.add_argument("--slope", type=float, default=1.0)
        p.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.5)
        p.add_argument("--reps", type=int, default=1000)
        p.add_argument("--seed", type=int)
        p.add_argument("--kernel")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output file (default: stdout)")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FunkregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
