"""A run loads only ``scipy.special`` from scipy.

Importing ``scipy.integrate`` pulls in ``scipy.optimize``, ``scipy.linalg``
and ``scipy.sparse``, a few hundred modules and tens of MB of memory in every
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

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse",
         "scipy.stats")

CHILD = """
import json, sys
import numpy as np
from indirgof.cli import main, write_dataset_csv
from indirgof.simulation import generate, paper_model, power_study

tmp, heavy = sys.argv[1], tuple(sys.argv[2:])
model = paper_model("normal", "uniform")
write_dataset_csv(generate(model, 150, np.random.default_rng(3)), f"{tmp}/d.csv")
for null in ("gaussian", "student-t"):
    rc = main(["test", f"{tmp}/d.csv", "--null", null, "--out", f"{tmp}/{null}.json",
               "--trace-out", f"{tmp}/{null}-trace.csv", "--qq-out", f"{tmp}/{null}-qq.csv"])
    assert rc == 0, null
table = power_study([model], [60], reps=2, seed=4)
assert table.rows[0].failures == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m in heavy or m.startswith(tuple(p + "." for p in heavy)))))
"""


def test_run_loads_no_heavy_scipy_subpackage(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), *HEAVY],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == [], f"{len(loaded)} modules loaded, first {loaded[:5]}"
