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
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    FixedPilot,
    MultiplierPilot,
    bootstrap_error_curve,
    insample_fit,
)
from .curves import FunctionalSample, SemiMetricSpec, query_rows
from .errors import (
    FunkregError,
    GridMismatch,
    NumericError,
    ParseError,
    ValidationError,
)
from .estimator import (
    interval_half_widths,
    nadaraya_watson_rows,
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


def _load_config(path, parser) -> dict:
    """The config file's values. A key is the dest of some command's flag
    in ``parser``, and its value is typed as that flag (``str`` where the
    flag declares no type)."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    (commands,) = parser._subparsers._group_actions
    kinds = {action.dest: action.type or str
             for command in commands.choices.values()
             for action in command._actions
             if action.option_strings and action.dest not in ("help", "config")}
    typed = {}
    for key, value in data.items():
        if key not in kinds:
            raise ValidationError(f"config {path}: unknown key {key!r}")
        if value is None:
            continue
        kind = kinds[key]
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


def _required(value, flag: str):
    """A value that a flag or the config file must supply."""
    if value is None:
        raise ValidationError(f"missing required option {flag}")
    return value


def _from_flags(config_class, args, **values):
    """A config dataclass built from the flags named after its fields and
    from ``values``. Only values that a flag or the file gave are passed, so
    the dataclass's default fills every other field."""
    given = {field.name: getattr(args, field.name, None)
             for field in fields(config_class)}
    given.update(values)
    return config_class(**{name: value for name, value in given.items()
                           if value is not None})


def _semi_metric(args) -> SemiMetricSpec:
    return _from_flags(SemiMetricSpec, args, derivative_order=args.deriv_order,
                       presmoothing_window=args.presmooth_window)


def _write(out, text: str) -> None:
    """Write text to the file `out`, or to stdout when `out` is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _write_tsv(out, columns: dict) -> None:
    """Write equal-length named columns as a TSV table, each row by one
    ``%``-pattern: integer columns as integers (``%d``), every other one
    with 17 significant digits (``%.17g``, as ``_fmt``)."""
    values = [np.asarray(column) for column in columns.values()]
    row_format = "\t".join("%d" if v.dtype.kind in "iu" else "%.17g"
                           for v in values) + "\n"
    rows = zip(*(v.tolist() for v in values))
    _write(out, "\t".join(columns) + "\n"
           + "".join([row_format % row for row in rows]))


def _load_single(args) -> FunctionalSample:
    return load_sample(_required(args.data, "--data"),
                       response_path=args.response_file or None)


def _train_and_queries(args) -> tuple[FunctionalSample, FunctionalSample]:
    """Resolve (train, test) from --train/--test or --data plus --split."""
    if (args.train or args.test) and args.response_file:
        raise ValidationError(
            "--response-file goes with --data: --train and --test files "
            "hold their responses in the last column"
        )
    if args.train and args.test:
        train, test = load_sample(args.train), load_sample(args.test)
        if not test.grid.matches(train.grid):
            raise GridMismatch(f"{args.test}: grid differs from {args.train}")
        return train, test
    if args.train or args.test:
        raise ValidationError("give both --train and --test, or --data with --split")
    return split_sample(_load_single(args), *parse_split(args.split),
                        args.split_seed)


def _bandwidth_rule(args, k_max: int) -> tuple[int | None, float | None]:
    """The (k, h) options: exactly one of them given, an h positive and
    finite, a k in [1, k_max]."""
    if (args.k is None) == (args.h is None):
        raise ValidationError("give exactly one of --k or --h")
    if args.h is not None and not 0 < args.h < np.inf:
        raise ValidationError("--h must be positive and finite")
    if args.k is not None and not 1 <= args.k <= k_max:
        raise ValidationError(f"--k must lie in [1, {k_max}]")
    return args.k, args.h


def _cmd_constants(args) -> int:
    kernel = parse_kernel(_required(args.kernel, "--kernel"))
    tau0 = parse_tau0(_required(args.tau0, "--tau0"))
    c = compute_constants(kernel, tau0)
    print(f"{c.m0:g} {c.m1:g} {c.m2:g}")
    return 0


def _cmd_simulate(args) -> int:
    train, test = generate_functional_sample(_from_flags(SimulationConfig, args))
    out = Path(args.out_dir or os.environ.get("FUNKREG_OUT_DIR", "."))
    train_path = out / "train.csv"
    test_path = out / "test.csv"
    save_sample(train, train_path)
    save_sample(test, test_path)
    print(f"wrote {train_path} (n={len(train)}) and {test_path} (n={len(test)})")
    return 0


def _cmd_fit(args) -> int:
    sample = _load_single(args)
    kernel = parse_kernel(args.kernel)
    spec = _semi_metric(args)
    n = len(sample)
    k, h = _bandwidth_rule(args, n - 1)
    preds, counts, radii = insample_fit(sample, kernel, spec, h=h, k=k)
    _write_tsv(args.out, {
        "index": range(n),
        "prediction": preds,
        "residual": sample.responses - preds,
        "f_hat": counts / n,
        "neighbors": counts,
        "bandwidth": radii,
    })
    return 0


def _query_fit(args, train: FunctionalSample, queries: FunctionalSample,
               kernel: KernelSpec, spec: SemiMetricSpec, moments: int = 1):
    """The leading columns of predict and ci, and the (moments, m) means of
    the responses' powers: the batched fit on each query's cut row."""
    spec.check_grid(train.grid)
    k, h = _bandwidth_rule(args, len(train))
    rows = query_rows(train, spec, queries.values, k=k, h=h)
    means, _, counts = nadaraya_watson_rows(rows, train.responses, kernel,
                                            rows.radii, moments)
    return means, {
        "index": range(len(queries)),
        "prediction": means[0],
        "f_hat": counts / len(train),
        "neighbors": counts,
        "bandwidth": rows.radii,
    }


def _cmd_predict(args) -> int:
    train, queries = _train_and_queries(args)
    _, columns = _query_fit(args, train, queries, parse_kernel(args.kernel),
                            _semi_metric(args))
    _write_tsv(args.out, {**columns, "actual": queries.responses})
    return 0


def _cmd_ci(args) -> int:
    train, queries = _train_and_queries(args)
    kernel = parse_kernel(args.kernel)
    spec = _semi_metric(args)
    tau0 = parse_tau0(args.tau0)
    # the interval's own checks of level and kernel, before any distance
    interval_half_widths(np.empty(0), np.empty(0), kernel, tau0, args.level)
    # responses near the float limit overflow the moments, to a variance
    # of inf or NaN that interval_half_widths refuses
    with np.errstate(over="ignore", invalid="ignore"):
        means, columns = _query_fit(args, train, queries, kernel, spec,
                                    moments=2)
        preds, counts = columns["prediction"], columns["neighbors"]
        sigma2 = plugin_variance(preds, means[1])
    half = interval_half_widths(sigma2, counts, kernel, tau0, args.level)
    _write_tsv(args.out, {
        **columns,
        "sigma2_hat": sigma2,
        "lower": preds - half,
        "upper": preds + half,
        "level": np.full(len(queries), args.level),
        "actual": queries.responses,
    })
    return 0


def _cmd_select(args) -> int:
    train, queries = _train_and_queries(args)
    kernel = parse_kernel(args.kernel)
    spec = _semi_metric(args)
    config = _from_flags(
        BootstrapConfig, args,
        n_replications=args.n_boot,
        pilot=None if args.pilot is None else parse_pilot(args.pilot),
        evaluation=None if args.pointwise is None else "pointwise",
        query_index=args.pointwise,
    )
    result = bootstrap_error_curve(train, queries.curves, kernel, spec, config)
    ks, hs, errors = zip(*result.per_bandwidth)
    _write_tsv(args.out, {
        "k": ks,
        "h": hs,
        "mean_sq_boot_error": errors,
        "selected": [int(k == result.selected_k) for k in ks],
    })
    print(f"selected k={result.selected_k} h={_fmt(result.selected_h)}")
    return 0


def _scalar_experiment(args, experiment):
    """The scalar design of the flags and the report of `experiment` on it."""
    kernel = parse_kernel(args.kernel)
    config = _from_flags(ScalarDesignConfig, args, n=_required(args.n, "--n"),
                         h=_required(args.h, "--h"))
    return config, experiment(config, kernel)


def _write_mc(out, config: ScalarDesignConfig, stats: dict) -> None:
    """Write Monte Carlo statistics as JSON, with the scalar design that
    produced them."""
    _write(out, json.dumps({**stats, **asdict(config)},
                           sort_keys=True, indent=2) + "\n")


def _cmd_mc_bias_var(args) -> int:
    config, report = _scalar_experiment(args, mc_bias_variance)
    theo = report.theoretical
    _write_mc(args.out, config, {
        "empirical_bias": report.empirical_bias,
        "empirical_variance": report.empirical_variance,
        "theoretical_bias": theo.b_n,
        "theoretical_variance": theo.variance_leading,
        "m0": theo.constants.m0,
        "m1": theo.constants.m1,
        "m2": theo.constants.m2,
        "phi_prime": theo.phi_prime,
        "f_of_h": theo.f_of_h,
    })
    return 0


def _cmd_mc_normality(args) -> int:
    config, report = _scalar_experiment(args, mc_normality)
    _write_mc(args.out, config, {
        "ks_statistic": None if not report.ks_applicable else report.ks_statistic,
        "ks_applicable": report.ks_applicable,
        "insufficient_replications": report.insufficient_replications,
        "b_n": report.b_n,
        "standardized_mean": float(np.mean(report.standardized)),
        "standardized_sd": (
            float(np.std(report.standardized, ddof=1)) if config.reps > 1 else None
        ),
    })
    return 0


def _add_common(parser, kernel: str, *, pair=False, bandwidth=False):
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--kernel", default=kernel,
                        help="uniform|quadratic|triangle|poly:c0,c1,...")
    parser.add_argument("--deriv-order", dest="deriv_order", type=int,
                        choices=[0, 1, 2], help="semi-metric derivative order")
    parser.add_argument("--presmooth-window", dest="presmooth_window", type=int,
                        help="odd moving-average window")
    parser.add_argument("--data", help="curve CSV (response in final column)")
    parser.add_argument("--response-file", dest="response_file",
                        help="companion response file (one value per line)")
    if pair:
        parser.add_argument("--train", help="training curve CSV")
        parser.add_argument("--test", help="query curve CSV")
        parser.add_argument("--split", default="165:50",
                            help="n_train:n_test split of --data")
        parser.add_argument(
            "--split-seed", dest="split_seed", type=int, default=0,
            help="seed of the deterministic split (default %(default)s)")
    if bandwidth:
        parser.add_argument("--k", type=int, help="neighbor count (kNN bandwidth)")
        parser.add_argument("--h", type=float, help="fixed bandwidth radius")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The funkreg parser; values of a loaded config file become the
    defaults of every subcommand, so a flag overrides the file and the file
    overrides the default. A flag that fills a field of a library config
    declares no default of its own: that field's default applies. A key
    that a subcommand has no flag for is ignored there."""
    parser = argparse.ArgumentParser(
        prog="funkreg",
        description="Kernel regression for curve-valued predictors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the (m0, m1, m2) constants")
    p.add_argument("--kernel")
    p.add_argument("--tau0", help="fractal:G|dirac|indicator|empirical:path")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("simulate", help="generate a curve-valued sample")
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--grid-size", type=int)
    p.add_argument("--noise-variance", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir",
                   help="output directory (default: $FUNKREG_OUT_DIR or .)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="in-sample predictions on a dataset")
    _add_common(p, "quadratic", bandwidth=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predictions at query curves")
    _add_common(p, "quadratic", pair=True, bandwidth=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ci", help="predictions with confidence intervals")
    _add_common(p, "uniform", pair=True, bandwidth=True)
    p.add_argument("--tau0", default="fractal:1",
                   help="tau0 model (default %(default)s)")
    p.add_argument("--level", type=float, default=0.95,
                   help="confidence level (default %(default)s)")
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("select", help="wild-bootstrap bandwidth selection")
    _add_common(p, "quadratic", pair=True)
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--n-boot", dest="n_boot", type=int)
    p.add_argument("--pilot", help="mult:C or fixed:K")
    p.add_argument("--seed", type=int)
    p.add_argument("--pointwise", type=int,
                   help="select at a single query index instead of averaging")
    p.set_defaults(func=_cmd_select)

    for name, func in (("mc-bias-var", _cmd_mc_bias_var),
                       ("mc-normality", _cmd_mc_normality)):
        p = sub.add_parser(name, help=f"scalar Monte Carlo ({name})")
        p.add_argument("--n", type=int)
        p.add_argument("--h", type=float)
        p.add_argument("--chi", type=float)
        p.add_argument("--slope", type=float)
        p.add_argument("--noise-sd", dest="noise_sd", type=float)
        p.add_argument("--reps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--kernel", default="uniform")
        p.add_argument("--out", help="output file (default: stdout)")
        p.set_defaults(func=func)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file; flags override it")
        p.set_defaults(**(config or {}))
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args = build_parser(_load_config(args.config, parser)).parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FunkregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
