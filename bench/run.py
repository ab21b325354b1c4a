"""funkreg benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload paper_query --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy. The run sets up its seeded inputs
several times (timing `import funkreg` in a fresh interpreter plus drawing
and writing the inputs), prepares the direct NumPy references, then runs a
closed loop of ops with one client for `--seconds`. Every op's output is
checked outside the timed region.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` every
other op runs traced (see spans.py) and the metrics are per layer, plus the
tracing overhead: the traced ops' median latency minus the untraced ones'.
Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Run
details, provenance and spans go to `.bench_work/`.
"""

import os

# One BLAS thread: set before numpy loads, and inherited by the import probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import funkreg; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds() -> float:
    """`import funkreg` in a fresh interpreter, timed inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
        text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "commit": git_commit(),
    }


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Latency at the highest percentile with at least ten samples beyond
    it: (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    i = len(ordered) - 11
    if i < 0:
        return None
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


class Run:
    """Attempted and failed ops, and the times of the ops that succeeded:
    latencies keyed by whether the op was traced, and, in a run with a
    calibration, each op's cost in calibration units. The calibration runs
    after every op, so an op's cost divides its time by the mean unit time
    of the calibrations just before and just after it."""

    def __init__(self, workload, tracer=None, targets=(), calibration=None):
        self.workload = workload
        self.tracer = tracer
        self.targets = targets
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self.latencies = {False: [], True: []}
        self.costs = []
        self.unit_seconds = []
        if calibration is not None:
            self._unit = calibration.seconds_per_unit(0.0)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def op(self, index=None, traced=False) -> None:
        """One op: untimed input, timed call, untimed calibration and
        check."""
        wl, tracer = self.workload, self.tracer
        item = wl.next_item()
        try:
            if traced:
                tracer.op = index
                with tracer.patched(self.targets):
                    start = time.perf_counter()
                    with tracer.span("op"):
                        output = wl.op(item)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                output = wl.op(item)
                elapsed = time.perf_counter() - start
            if self.calibration is not None:
                before = self._unit
                self._unit = self.calibration.seconds_per_unit(elapsed)
            ok = wl.check(item, output)
        except Exception:  # a failed op is counted, and the run goes on
            if self.failed == 0:
                traceback.print_exc()
            self.record(False)
            return
        self.record(ok)
        if ok:  # a wrong answer does not count as a fast one
            self.latencies[traced].append(elapsed)
            if self.calibration is not None:
                self.unit_seconds.append(self._unit)
                self.costs.append(2 * elapsed / (before + self._unit))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "funkreg" / "__init__.py").is_file():
        print(f"error: no funkreg sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import funkreg

    if Path(funkreg.__file__).resolve().parent != SRC / "funkreg":
        print(f"error: funkreg imported from {funkreg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, WORKLOADS[args.workload](workdir, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl) -> int:
    setups, imports, draws = [], [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        draws.append(wl.setup())
        setups.append(imported + time.perf_counter() - start)
        imports.append(imported)

    if args.trace:
        tracer = spans.Tracer()
        run = Run(wl, tracer, spans.funkreg_targets(tracer))
    else:
        run = Run(wl, calibration=Calibration(wl.calibration))
    for ok in wl.prepare():
        run.record(ok)

    traced_ops = []
    index = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or index < 1 + args.trace:
        traced = bool(args.trace) and index % 2 == 0
        if traced:
            traced_ops.append(index)
        run.op(index, traced)
        index += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = time.perf_counter() - start

    untraced, traced = run.latencies[False], run.latencies[True]
    if not untraced or (args.trace and not traced):
        print(f"error: no {wl.op_name} op succeeded "
              f"({run.failed} failed of {run.attempted})", file=sys.stderr)
        return 1
    lines = [f"workload {wl.name} seed {args.seed} trace {args.trace}: "
             f"{index} {wl.op_name} ops in {elapsed:.1f} s"]
    op_p50_s = statistics.median(untraced)
    raw = {"op_p50_ms": 1e3 * op_p50_s, "op_min_ms": 1e3 * min(untraced)}
    if args.trace:
        kind = "per_layer"
        metrics = spans.layer_metrics(tracer, traced_ops)
        metrics["import.s"] = statistics.median(imports)
        metrics["simulation.generate.s"] = statistics.median(draws)
        metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced)
                                              - op_p50_s)
        lines.append(f"{len(traced)} traced ops, p50 "
                     f"{1e3 * statistics.median(traced):.4f} ms; "
                     f"{len(untraced)} untraced, p50 {1e3 * op_p50_s:.4f} ms")
        tracer.write(WORK / f"{wl.name}-seed{args.seed}.spans.jsonl")
    else:
        kind = "end_to_end"
        metrics = {"op_p50_cal": statistics.median(run.costs),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_mb}
        raw["calibration_unit_ms"] = 1e3 * statistics.median(run.unit_seconds)
        lines.append(wl.summary(op_p50_s))
        lines.append(f"{wl.op_name}_min_ms {raw['op_min_ms']:.4f} ms; "
                     f"calibration unit p50 {raw['calibration_unit_ms']:.4f} ms")
        high = tail(untraced)
        lines.append(f"{wl.op_name}_tail_ms " + (
            f"{1e3 * high[0]:.4f} ms at p{high[1]:.2f} "
            f"({high[2]} of {len(untraced)} ops beyond)" if high else
            f"n/a ({len(untraced)} ops; needs 11)"))
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the "
                           f"{kind} list in BENCHMARK.json")
    lines.append(f"error_rate {run.failed / run.attempted:.6g} ratio "
                 f"({run.failed} failed of {run.attempted} attempted)")
    lines += [f"{name} {value:.6g} {units[name]}"
              for name, value in metrics.items()]
    info = provenance(args.seed)
    lines.append("provenance " + json.dumps(info))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    details = dict(result, provenance=info, workload=wl.name,
                   seconds=args.seconds, trace=args.trace, raw=raw,
                   setup_samples_s=setups, import_samples_s=imports)
    (WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
