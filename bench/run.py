"""Run one benchmark workload of the rankvar package and print its metrics.

    python3 bench/run.py --workload white_noise --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout: it imports the package from the
checkout's own ``src`` directory and fails without printing a result when
that is missing.  Each workload (see ``workloads.py``) is a closed loop
with one caller.  Set-up imports the package, builds the grid and every
input case, and runs one untimed warm-up op on case 0; then ops run back to
back for about ``--seconds``, in whole passes over the case pool.
Every op's output is checked against ``reference.json``.

With ``--trace 0`` the result holds the end-to-end metrics.  ``ops_per_s``
is the ops completed over the timed loop's wall time.  ``setup_s`` is the
median of ``SETUP_SAMPLES`` set-ups, each in a fresh process: this one and
child processes started with ``--setup-only``.

With ``--trace 1`` every op runs twice, untraced and traced, in alternating
order, in whole cycles of four ops.  The result holds the per-layer metrics
of the traced runs (see ``spans.py``), plus ``tracing_overhead``, the traced
over the untraced op rate.  Time metrics are medians over every traced op.
Counts and computed metrics are medians over the first cycle, so they
depend on the seed alone.  The warm-up op is traced and repeated at the
end; the counts and computed metrics of the two must agree exactly.  The
spans are written to ``.bench_out/`` in the checkout.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds details: the environment, the failure messages and ``fail_rate``, the
pass times and tail percentile, or the traced run's self-check and largest
self-time layer.  The exit code is 0 only when every output matched its
reference.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 3
WARMUP_CASE = 0
CHILD_TIMEOUT_S = 60
# latency_tail_s is the highest percentile with this many ops beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.EXACT + spans.TIMED + ("grid.make_grid_s", "tracing_overhead"):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("share", "ratio", "overhead")):
            units[name] = "ratio"
        else:
            units[name] = {
                "var_algebra.effective_lags": "lags",
                "var_algebra.operator_bytes": "bytes",
                "rank_tests.perm_flops": "flop",
            }.get(name, "count")
    return units


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    return p.parse_args(argv)


def _fail(msg: str) -> int:
    print(f"bench/run.py: {msg}", file=sys.stderr)
    return 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "rankvar").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Checker:
    """Runs ops, checks each output against its reference, counts failures."""

    def __init__(self, workload, state, cases):
        self.workload, self.state, self.cases = workload, state, cases
        self.reference = reference.load()["workloads"][workload.name]
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: str, case: int) -> float:
        """One op; returns its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.run(self.state, self.cases[case])
        except Exception as exc:  # an op that raises is a failed op; keep going
            self.failures.append(f"{op} (case {case}): {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        diffs = reference.mismatches(out, self.reference[case])
        if diffs:
            self.failures.append(f"{op} (case {case}): " + "; ".join(diffs[:3]))
        return dt


def _closed_loop(seconds: float, cycle: int, run_op) -> list[float]:
    """Run ops until about ``seconds`` have passed, in whole cycles of ``cycle``
    ops, stopping at the first cycle end nearer the deadline than the next.
    Returns the wall time of each cycle."""
    times: list[float] = []
    j = 0
    while not times or sum(times) + 0.5 * statistics.fmean(times) < seconds:
        t0 = time.perf_counter()
        for _ in range(cycle):
            run_op(j)
            j += 1
        times.append(time.perf_counter() - t0)
    return times


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND ops beyond it.

    Up to 2 * TAIL_BEYOND ops that percentile would not lie above the
    median; the median is reported instead, with its percentile, 50.
    """
    n = len(latencies)
    if n <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


def _setup_children(args) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()[-500:]}")
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "rankvar" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'rankvar'}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    # One BLAS thread: the loop has a single caller, and on a small shared
    # machine a second BLAS thread mostly adds waiting on a preempted core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t_setup = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rankvar

    if Path(rankvar.__file__).resolve().parent != SRC / "rankvar":
        return _fail(f"imported rankvar from {rankvar.__file__}, not {SRC}")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    state = w.setup()
    cases = [w.make_case(k) for k in range(w.pool_size)]
    case_of = workloads.op_sequence(w, args.seed)
    checker = Checker(w, state, cases)
    with tracer.root("warmup") if tracer else contextlib.nullcontext():
        checker.run("warmup", WARMUP_CASE)
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    details = {"workload": w.name, "seed": args.seed, "trace": args.trace}
    if tracer is None:
        samples = [setup_s] + _setup_children(args)
        latencies: list[float] = []
        passes = _closed_loop(
            args.seconds, w.pool_size,
            lambda j: latencies.append(checker.run(f"op{j}", case_of(j))),
        )
        ops = len(latencies)
        pct, tail = _tail(latencies)
        metrics = {
            # Over the whole loop, not a median over passes: a run holds
            # about ten passes, and a median of so few read less steadily.
            "ops_per_s": ops / sum(passes),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        details.update(ops=ops, pass_s=passes, tail_percentile=pct,
                       tail_ops_beyond=TAIL_BEYOND if ops > 2 * TAIL_BEYOND else ops // 2,
                       setup_samples_s=samples)
    else:
        metrics, trace_details = _traced_loop(args, w, checker, case_of, tracer)
        units = per_layer_units()
        details.update(trace_details)

    failed = len(checker.failures)
    correct = failed == 0 and details.get("self_check", []) == []
    details.update(
        fail_rate=failed / checker.attempted,
        failures=checker.failures[:20],
        environment=environment(),
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def _traced_loop(args, w, checker, case_of, tracer):
    """Each op untraced and traced, in alternating order; per-layer metrics."""
    import workloads

    plain: list[float] = []
    traced: list[float] = []

    def run_pair(j: int) -> None:
        case = case_of(j)
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.root(f"op{j}"):
                    traced.append(checker.run(f"op{j}", case))
            else:
                tracer.restore()
                plain.append(checker.run(f"op{j}", case))
                tracer.install()

    ops = workloads.CYCLE * len(_closed_loop(args.seconds, workloads.CYCLE, run_pair))
    with tracer.root("recheck"):
        checker.run("recheck", WARMUP_CASE)
    tracer.restore()

    by_op: dict[str, list] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = [spans.op_metrics(by_op[f"op{j}"]) for j in range(ops)]
    metrics = {k: statistics.median(m[k] for m in per_op) for k in spans.TIMED}
    first = per_op[: workloads.CYCLE]
    metrics.update({k: statistics.median(m[k] for m in first) for k in spans.EXACT})
    metrics["grid.make_grid_s"] = statistics.median(
        s.end - s.start for s in tracer.spans if s.name == "grid.make_grid"
    )
    metrics["tracing_overhead"] = sum(plain) / sum(traced)

    warm, again = spans.op_metrics(by_op["warmup"]), spans.op_metrics(by_op["recheck"])
    self_check = [k for k in spans.EXACT if warm[k] != again[k]]
    layer_self = {
        k: metrics[k] for k in spans.TIMED if k.endswith(".self_s") and k.count(".") == 1
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
    with open(spans_file, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    return metrics, {
        "ops": ops,
        "self_check": self_check,
        "largest_self_layer": max(layer_self, key=layer_self.get),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
