"""No pipeline run loads a module from scipy.

``scipy.special`` alone costs a process about a fifth of a second and some
20 MB at start-up, since it loads numpy's lazy submodules with it.  The
Gaussian null takes its law from ``math`` and ``statistics``, and the
Student t null from ``math`` and numpy (a continued fraction for the tail,
Newton steps for the quantile), so neither imports it.  Importing
``scipy.integrate`` pulls in ``scipy.optimize``, ``scipy.linalg`` and
``scipy.sparse``, a few hundred modules and tens of MB of memory in every
process and pool worker.  The pipeline needs none of them: Gamma is in
closed form and the trapezoid sum is numpy.  Only the reference quadratures
import ``scipy.integrate``, inside the function.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _loaded(child, tmp_path, prefixes):
    """Modules named by, or inside, ``prefixes`` that ``child`` has loaded when it ends."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child, str(tmp_path), *prefixes],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_gaussian_run_loads_no_scipy_module(tmp_path):
    loaded = _loaded(GAUSSIAN_CHILD, tmp_path, ["scipy"])
    assert loaded == [], f"{len(loaded)} modules loaded, first {loaded[:5]}"


def test_student_t_run_loads_no_scipy_module(tmp_path):
    loaded = _loaded(STUDENT_T_CHILD, tmp_path, ["scipy"])
    assert loaded == [], f"{len(loaded)} modules loaded, first {loaded[:5]}"
