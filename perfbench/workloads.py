"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Every workload is a closed loop with one caller: the next operation starts
after the previous one returned.  The program receives only the inputs the
workload generates from ``--seed``; the CLI workloads see them as CSV files.

An operation is one ``indirgof test`` call (CLI workloads) or one
``power_study`` cell of ``reps`` repetitions (the Monte-Carlo workload).  The
unit of work is one call or one repetition, so Monte-Carlo latencies are per
repetition.
"""

import json
import math
import os

import numpy as np

import indirgof.cli
import indirgof.khmaladze
import indirgof.simulation

ALPHA = 0.05

#: Relative tolerance for the stored reference statistic of the default seed.
#: Loose enough for BLAS thread-count rounding, tight enough to catch any
#: change of the fitted surface or the transform.
STATISTIC_REL_TOL = 1e-6


class CliTest:
    """Repeated ``indirgof test DATA.csv`` through ``indirgof.cli.main``."""

    def __init__(self, name, n, error, null, exports):
        self.name = name
        self.n = n
        self.error = error
        self.null = null
        self.exports = exports
        self.unit = "call"
        self.units_per_op = 1
        self.seen = {}

    def setup(self, seed, workdir):
        """Write the seeded dataset; the program only ever reads this file."""
        os.makedirs(workdir, exist_ok=True)
        model = indirgof.simulation.paper_model(self.error, "uniform")
        data = indirgof.simulation.generate(model, self.n, np.random.default_rng(seed))
        self.csv = os.path.join(workdir, "data.csv")
        indirgof.cli.write_dataset_csv(data, self.csv)
        self.report = os.path.join(workdir, "report.json")
        self.trace_csv = os.path.join(workdir, "trace.csv")
        self.qq_csv = os.path.join(workdir, "qq.csv")
        self.argv = ["test", self.csv, "--null", self.null, "--out", self.report]
        if self.exports:
            self.argv += ["--trace-out", self.trace_csv, "--qq-out", self.qq_csv]
        self.q_ref = indirgof.khmaladze.brownian_sup_quantile(ALPHA)

    def dataset(self):
        return indirgof.cli.load_csv(self.csv)

    def prepare(self, index):
        for path in (self.report, self.trace_csv, self.qq_csv):
            if os.path.exists(path):
                os.remove(path)

    def op(self, index):
        # Looked up at call time so a traced run sees the wrapped entry point.
        return indirgof.cli.main(list(self.argv))

    def check(self, index, rc):
        """Return (failed units, problems) for one finished call."""
        problems = []
        if rc != 0:
            return 1, [f"exit status {rc}"]
        try:
            with open(self.report, encoding="utf-8") as fh:
                report = json.load(fh)
            stat = float(report["statistic"])
            outcome = (float(report["chosen_radius"]), bool(report["reject"]), stat)
            q_alpha = float(report["q_alpha"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return 1, [f"report unreadable: {type(exc).__name__}: {exc}"]
        if not math.isfinite(stat):
            problems.append(f"statistic {stat} is not finite")
        if q_alpha != self.q_ref:
            problems.append(f"q_alpha {q_alpha!r} != brownian_sup_quantile {self.q_ref!r}")
        if self.exports:
            expect_trace = 1 + indirgof.khmaladze.DEFAULT_SCAN_GRID + 2 * math.ceil(0.99 * self.n)
            for path, expect in ((self.trace_csv, expect_trace), (self.qq_csv, 1 + self.n)):
                rows = _count_lines(path)
                if rows != expect:
                    problems.append(f"{os.path.basename(path)} has {rows} lines, expected {expect}")
        # Every call reads the same file, so every call must agree with the first.
        problems += _compare(self.seen.setdefault(0, outcome), outcome)
        return (1 if problems else 0), problems

    def reference_problems(self, expected):
        got = self.seen.get(0)
        if got is None:
            return ["no successful call to compare with the reference"]
        return _compare((expected["chosen_radius"], expected["reject"], expected["statistic"]),
                        got, STATISTIC_REL_TOL)

    def reference_record(self):
        radius, reject, stat = self.seen[0]
        return {"chosen_radius": radius, "reject": reject, "statistic": stat}


class MonteCarlo:
    """``power_study`` on one paper-model cell at n = 500.

    Timed calls run serially (``workers = 1``); the runner switches
    ``workers`` to ``parallel_workers`` for the pooled calls it checks and
    traces.  Eight repetitions make two of ``power_study``'s pool chunks (four
    repetitions each), enough to keep two workers busy.
    """

    def __init__(self, name, n, reps):
        self.name = name
        self.n = n
        self.reps = reps
        self.workers = 1
        # The pool is exercised even on a one-core machine.
        self.parallel_workers = max(2, os.cpu_count() or 1)
        self.unit = "rep"
        self.units_per_op = self.reps
        self.seen = {}

    def setup(self, seed, workdir):
        self.seed = seed
        self.model = indirgof.simulation.paper_model("normal", "uniform")

    def dataset(self):
        rng = np.random.default_rng(self.seed)
        return indirgof.simulation.generate(self.model, self.n, rng)

    def op_seed(self, index):
        # Operation i of every run with this seed draws the same repetitions,
        # whatever the worker count, so results can be compared across runs.
        return self.seed * 10_000 + index

    def prepare(self, index):
        pass

    def op(self, index):
        return indirgof.simulation.power_study(
            [self.model], [self.n], reps=self.reps, seed=self.op_seed(index),
            workers=self.workers,
        )

    def check(self, index, table):
        try:
            (row,) = table.rows
            rejections, failures = int(row.rejections), int(row.failures)
        except (AttributeError, TypeError, ValueError) as exc:
            return self.reps, [f"power table unreadable: {type(exc).__name__}: {exc}"]
        problems = []
        if row.reps != self.reps or row.n != self.n:
            problems.append(f"row describes reps={row.reps}, n={row.n}")
        if not 0 <= rejections <= self.reps - failures:
            problems.append(f"rejection count {rejections} out of range")
        # The determinism contract: a seed gives the same rejections for any
        # worker count.
        first = self.seen.setdefault(index, (rejections, self.workers))
        if first[0] != rejections:
            problems.append(
                f"seed {self.op_seed(index)}: {rejections} rejections with "
                f"workers={self.workers}, {first[0]} with workers={first[1]}"
            )
        if problems:
            return self.reps, problems
        if failures:
            return failures, [f"{failures} of {self.reps} repetitions failed"]
        return 0, []

    def reference_problems(self, expected):
        got = self.seen.get(0)
        if got is None:
            return ["no successful cell to compare with the reference"]
        if got[0] != expected["rejections"]:
            return [f"op 0: {got[0]} rejections, reference {expected['rejections']}"]
        return []

    def reference_record(self):
        return {"rejections": self.seen[0][0]}


def _count_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return -1


def _compare(expected, got, rel_tol=1e-9):
    radius, reject, stat = expected
    problems = []
    if got[0] != radius or got[1] != reject:
        problems.append(f"(chosen_radius, reject) = {got[:2]}, expected {(radius, reject)}")
    if not math.isclose(got[2], stat, rel_tol=rel_tol):
        problems.append(f"statistic {got[2]!r}, expected {stat!r} (rel tol {rel_tol:g})")
    return problems


def make(name, smoke=False):
    """Build a workload by its name in BENCHMARK.json; ``smoke`` shrinks it."""
    if name == "test-n2000-gauss":
        return CliTest(name, 150 if smoke else 2000, "normal", "gaussian", exports=False)
    if name == "test-n300-studt":
        return CliTest(name, 100 if smoke else 300, "student-t", "student-t", exports=True)
    if name == "mc-n500":
        return MonteCarlo(name, 60 if smoke else 500, reps=8)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("test-n2000-gauss", "test-n300-studt", "mc-n500")
