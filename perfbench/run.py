"""indirgof benchmark: `indirgof test` latency and Monte-Carlo throughput.

Run from the root of a checkout::

    python3 perfbench/run.py --workload test-n2000-gauss --seed 1 --seconds 30 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.  The program is imported from ``src/`` of the
checkout the script sits in and is driven in-process, the way its users
drive it: ``indirgof.cli.main`` for the CLI workloads, ``power_study`` for
the Monte-Carlo one.  Every operation's output is checked, and every timed
operation is paired with a run of a fixed calibration kernel.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run (see
``tracing.py``).  Both write a fuller record, with the environment, to
``.bench_work/results/``.  BLAS thread variables are recorded, never set.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run: this process's own and fresh processes; setup_s is their median.
SETUP_SAMPLES = 3
#: Calibration-kernel seconds of the host the bounds were set on (2 vCPUs).
#: Set-up seconds are scaled to it, so that set-up time does not drift with
#: the speed of a shared host (see ``Calibration``).
NOMINAL_KERNEL_S = 0.007
#: Fewest timed operations per segment, however slow they are.
MIN_OPS = 3
#: The default seed, the only one with stored reference outcomes.
DEFAULT_SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up and kernel seconds and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program():
    """Import indirgof from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "indirgof", "__init__.py")):
        sys.exit(f"error: no indirgof sources under {SRC}")
    sys.path.insert(0, SRC)
    import indirgof
    if os.path.dirname(os.path.dirname(os.path.abspath(indirgof.__file__))) != SRC:
        sys.exit(f"error: imported indirgof from {indirgof.__file__}, not {SRC}")
    sys.path.insert(0, HERE)
    import workloads
    import tracing
    return workloads, tracing


class Tally:
    """Units attempted and failed, with the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, units, failed, problems):
        self.attempted += units
        self.failed += failed
        if len(self.problems) < 20:
            self.problems += problems[:20 - len(self.problems)]


def run_op(workload, index, tally, tracer=None):
    """One checked operation; returns its wall seconds."""
    workload.prepare(index)
    if tracer is not None:
        tracer.op_id = index
    start = time.perf_counter()
    try:
        result = workload.op(index)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"op {index}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None:
        failed, problems = workload.check(index, result)
    else:
        failed, problems = workload.units_per_op, [error]
    tally.add(workload.units_per_op, failed, problems)
    return seconds


class Calibration:
    """A fixed reference computation, timed just before every operation.

    The host's speed drifts by tens of percent over minutes (shared cores),
    and it drifts for this kernel as for the program: a Python loop for the
    interpreter-bound layers, a 256x256 matrix product for the BLAS-bound
    ones.  An operation's time over the kernel's time just before it cancels
    most of the drift.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.a = rng.random((256, 256))
        self.b = rng.random((256, 256))

    def seconds(self):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(3):
            self.a @ self.b
        return time.perf_counter() - start


def segment(workload, seconds, tally):
    """Closed loop for ``seconds``: (op seconds, calibration seconds) pairs."""
    calibration = Calibration()
    pairs = []
    start = time.perf_counter()
    while len(pairs) < MIN_OPS or time.perf_counter() - start < seconds:
        cal = calibration.seconds()
        pairs.append((run_op(workload, len(pairs), tally), cal))
    return pairs


def setup_sample(args, workloads, workdir):
    """Set up once (inputs and one warm-up operation).

    Returns the workload, its tally, the seconds since the script started and
    the calibration kernel's median seconds just after.
    """
    workload = workloads.make(args.workload, args.smoke)
    workload.setup(args.seed, workdir)
    tally = Tally()
    run_op(workload, 0, tally)
    seconds = time.perf_counter() - _T0
    calibration = Calibration()
    kernel = statistics.median(calibration.seconds() for _ in range(5))
    return workload, tally, (seconds, kernel)


def fresh_setup(args):
    """(set-up seconds, kernel seconds) of a fresh process running this script.

    It writes the same seeded inputs to the same files as this process did.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def quantile(values, q):
    """The ``floor(q * len)``-th smallest value (0-based): p25 of 20 is the 6th."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_unit_ms(samples, units_per_op):
    return [1e3 * s / units_per_op for s in samples]


def throughput(samples, units_per_op):
    return units_per_op * len(samples) / sum(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's own repository, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(workload, pairs, setups):
    """The gated metrics, and figures printed for readers only."""
    samples = [s for s, _ in pairs]
    ms = per_unit_ms(samples, workload.units_per_op)
    relative = [m / (1e3 * cal) for m, (_, cal) in zip(ms, pairs)]
    return {
        "setup_s": (statistics.median(s * NOMINAL_KERNEL_S / k for s, k in setups), "s"),
        "op_cal_p25": (quantile(relative, 0.25), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {
        "ops": len(samples),
        "unit": workload.unit,
        "units_per_op": workload.units_per_op,
        "op_ms_p25": quantile(ms, 0.25),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": quantile(ms, 0.9),
        "samples_beyond_p90": sum(1 for v in ms if v > quantile(ms, 0.9)),
        "units_per_s": throughput(samples, workload.units_per_op),
        "calibration_ms_p50": 1e3 * statistics.median(cal for _, cal in pairs),
        "setup_samples_s": [s for s, _ in setups],
        "setup_kernel_ms": [1e3 * k for _, k in setups],
        "op_ms_samples": ms,
        "op_cal_samples": relative,
    }


def traced(workload, seconds, tally, tracing):
    """A traced run: per-layer values and figures printed for readers.

    Rounds alternate an untraced operation (and, for Monte-Carlo, a pooled
    one) with a traced operation on the same input, so that the overhead and
    scaling ratios compare operations made under the same load of the host.
    """
    import indirgof.bandwidth

    is_mc = workload.unit == "rep"
    extra = {}
    cv_select = getattr(indirgof.bandwidth, "cv_select", None)
    default_grid = getattr(indirgof.bandwidth, "default_radius_grid", None)
    if cv_select is not None and default_grid is not None:
        data = workload.dataset()
        tracemalloc.start()
        try:
            cv_select(data, default_grid(data.n, data.m))
            extra["bandwidth.cv_select.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    tracer = tracing.Tracer()
    plain, pooled, spans_on = [], [], []
    start = time.perf_counter()
    while len(plain) < MIN_OPS or time.perf_counter() - start < seconds:
        index = len(plain)
        plain.append(run_op(workload, index, tally))
        if is_mc:
            # Spans in pool workers are not collected, so only serial
            # operations are traced.
            workload.workers = workload.parallel_workers
            pooled.append(run_op(workload, index, tally))
            workload.workers = 1
        tracer.install()
        try:
            spans_on.append(run_op(workload, index, tally, tracer))
        finally:
            tracer.uninstall()

    extra["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(spans_on, plain)) - 1.0
    extra["simulation.scaling_eff"] = statistics.median(
        p / q for p, q in zip(plain, pooled)) / workload.parallel_workers if is_mc else 0.0
    values, missing = tracer.layer_metrics(workload.units_per_op * len(spans_on), extra)
    op_hook = "simulation.power_study" if is_mc else "cli.main"
    info = {
        "rounds": len(plain),
        "layer_self_share": tracer.layer_shares(op_hook),
        "missing": {**tracer.missing, **missing},
    }
    return tracer, values, missing, info


def summary(workload, info):
    """One line for readers: sample counts and the ungated figures."""
    if "layer_self_share" in info:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in info["layer_self_share"].items())
        line = (f"{workload.name}: {info['rounds']} rounds of untraced and traced ops; "
                f"self-time share of each layer in the traced ops: {shares}")
        if info["missing"]:
            line += f"; missing: {info['missing']}"
        return line
    unit = workload.unit
    return (f"{workload.name}: {info['ops']} timed ops of {info['units_per_op']} {unit}(s); "
            f"ms per {unit}: p25 {info['op_ms_p25']:.4g}, p50 {info['op_ms_p50']:.4g}, "
            f"p90 {info['op_ms_p90']:.4g} ({info['samples_beyond_p90']} beyond); "
            f"{info['units_per_s']:.4g} {unit}/s; calibration kernel p50 "
            f"{info['calibration_ms_p50']:.4g} ms; raw set-up s: {info['setup_samples_s']}")


def main(argv=None):
    args = parse_args(argv)
    workloads, tracing = import_program()
    if args.workload not in workloads.NAMES:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    work_root = os.path.join(ROOT, ".bench_work")
    workload, tally, own_setup = setup_sample(
        args, workloads, os.path.join(work_root, args.workload))
    if args.setup_only:
        if tally.failed:
            sys.exit("error: warm-up failed: " + "; ".join(tally.problems))
        print(json.dumps(own_setup))
        return 0

    if args.trace:
        tracer, values, missing, info = traced(workload, args.seconds, tally, tracing)
        metrics = {name: (values[name], unit) for name, unit, _ in tracing.PER_LAYER}
    else:
        setups = [own_setup] + [fresh_setup(args) for _ in range(1, SETUP_SAMPLES)]
        pairs = segment(workload, args.seconds, tally)
        metrics, info = end_to_end(workload, pairs, setups)
        missing = {}
        if workload.unit == "rep":
            # The determinism contract: the first cell again through the pool
            # gives the same rejections (``check`` compares them).  A traced
            # run checks this in every round.
            workload.workers = workload.parallel_workers
            run_op(workload, 0, tally)
            workload.workers = 1
    if args.seed == DEFAULT_SEED and not args.smoke:
        reference = load_reference().get(args.workload)
        tally.add(0, 0, workload.reference_problems(reference) if reference
                  else [f"no reference outcome stored for {args.workload}"])
    correct = tally.failed == 0 and not tally.problems

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(),
              **info, "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems,
              "op0_outcome": workload.reference_record() if workload.seen else None,
              "metrics": {k: v[0] for k, v in metrics.items()}}
    results = os.path.join(work_root, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if args.trace:
        tracer.write_spans(stem + "-spans.csv")

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(summary(workload, info))
    out = {}
    for name, (value, unit) in metrics.items():
        out[name] = {"value": value, "unit": unit}
        if name in missing:
            out[name]["missing"] = missing[name]
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
