"""No pipeline run loads a module from scipy, and every command runs without it.

``scipy.special`` alone costs a process about a fifth of a second and some
20 MB at start-up, since it loads numpy's lazy submodules with it.  The
Gaussian null takes its law from ``math`` and ``statistics``, and the
Student t null from ``math`` and numpy (a continued fraction for the tail,
Halley steps for the quantile), so neither imports it.  Importing
``scipy.integrate`` pulls in ``scipy.optimize``, ``scipy.linalg`` and
``scipy.sparse``, a few hundred modules and tens of MB of memory in every
process and pool worker.  The pipeline needs none of them: Gamma is in
closed form and the trapezoid sum is numpy.  Only the reference quadratures
import ``scipy.integrate``, inside the function.  So scipy is no runtime
dependency, only a ``test`` extra: with every scipy import refused, each
command runs (a pooled study's forked workers inherit the refusal) and the
references raise ``ImportError``.

Nor does a run load the process pool or numpy's masked arrays.
``concurrent.futures.process`` brings ``multiprocessing`` with it, and only
a pooled Monte-Carlo study starts a pool, so ``power_study`` imports it
there.  ``np.unique`` imports ``numpy.ma`` on its first call, so the
transform takes the distinct residuals by comparing sorted neighbours.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP = """
import json, sys
import numpy as np
from indirgof.cli import main, write_dataset_csv
from indirgof.simulation import generate, paper_model, power_study

tmp, prefixes = sys.argv[1], tuple(sys.argv[2:])
model = paper_model("normal", "uniform")
write_dataset_csv(generate(model, 150, np.random.default_rng(3)), f"{tmp}/d.csv")


def run_test(null):
    rc = main(["test", f"{tmp}/d.csv", "--null", null, "--out", f"{tmp}/{null}.json",
               "--trace-out", f"{tmp}/{null}-trace.csv", "--qq-out", f"{tmp}/{null}-qq.csv"])
    assert rc == 0, null
"""

REPORT = """
print(json.dumps(sorted(m for m in sys.modules
                        if m in prefixes or m.startswith(tuple(p + "." for p in prefixes)))))
"""

GAUSSIAN_CHILD = SETUP + """
run_test("gaussian")
assert main(["estimate", f"{tmp}/d.csv", "--out", f"{tmp}/grid.csv"]) == 0
table = power_study([model], [60], reps=2, seed=4, workers=1)
assert table.rows[0].failures == 0
""" + REPORT

STUDENT_T_CHILD = SETUP + """
run_test("student-t")
""" + REPORT


SCIPY_REFUSED_CHILD = """
import os, sys


class RefuseScipy:  # an import finder that acts as if scipy were not installed
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
""" + SETUP + """
from indirgof.khmaladze import gamma_quadrature
from indirgof.nulls import check_fisher_information, gaussian_null

run_test("gaussian")
run_test("student-t")
for radius in ([], ["--radius", "2"]):
    assert main(["estimate", f"{tmp}/d.csv", *radius, "--out", f"{tmp}/grid.csv",
                 "--residuals-out", f"{tmp}/res.csv", "--data-out", f"{tmp}/data.csv"]) == 0
for workers in ("1", "2"):
    assert main(["simulate", "--n", "60", "--reps", "8", "--workers", workers,
                 "--json-out", f"{tmp}/sim.json"]) == 0, workers
    with open(f"{tmp}/sim.json") as table:
        assert json.load(table)["rows"][0]["failures"] == 0, workers
# the pool is imported where it starts, so it is loaded only if one started
assert "concurrent.futures.process" in sys.modules or (os.cpu_count() or 1) < 2

image = np.random.default_rng(5).poisson(40.0, (16, 16))
with open(f"{tmp}/img.pgm", "wb") as pgm:
    pgm.write(b"P5\\n16 16\\n255\\n" + image.astype(np.uint8).tobytes())
np.savetxt(f"{tmp}/img.csv", image, delimiter=",")
for path in (f"{tmp}/img.pgm", f"{tmp}/img.csv"):
    assert main(["image", path, "--size", "16", "--out", f"{tmp}/img.json",
                 "--fitted-out", f"{tmp}/recon.csv"]) == 0, path

for reference, args in ((gamma_quadrature, (gaussian_null(), 0.0)),
                        (check_fisher_information, (gaussian_null(),))):
    try:
        reference(*args)
    except ImportError as exc:
        assert "scipy" in str(exc), exc
    else:
        raise AssertionError(f"{reference.__name__} ran without scipy")
""" + REPORT


#: Packages that no pipeline run needs, each with its submodules.
UNUSED = ("scipy", "numpy.ma", "multiprocessing", "concurrent")


@functools.cache
def _loaded(child):
    """Modules named by, or inside, :data:`UNUSED` that ``child`` has loaded when it ends."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-c", child, tmp, *UNUSED],
                              capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _within(modules, prefixes):
    return [m for m in modules if m in prefixes or m.startswith(tuple(p + "." for p in prefixes))]


def test_gaussian_run_loads_no_scipy_module():
    loaded = _within(_loaded(GAUSSIAN_CHILD), ["scipy"])
    assert loaded == [], f"{len(loaded)} modules loaded, first {loaded[:5]}"


def test_student_t_run_loads_no_scipy_module():
    loaded = _within(_loaded(STUDENT_T_CHILD), ["scipy"])
    assert loaded == [], f"{len(loaded)} modules loaded, first {loaded[:5]}"


@pytest.mark.parametrize("child", [GAUSSIAN_CHILD, STUDENT_T_CHILD], ids=["gaussian", "student-t"])
def test_run_loads_no_process_pool_or_masked_arrays(child):
    loaded = _within(_loaded(child), ["numpy.ma", "multiprocessing", "concurrent"])
    assert loaded == [], f"{len(loaded)} modules loaded: {loaded}"


def test_every_command_runs_with_scipy_refused():
    # _loaded asserts that the child exited 0: every command and pool worker
    # ran, and both references raised ImportError naming scipy
    assert _within(_loaded(SCIPY_REFUSED_CHILD), ["scipy"]) == []
