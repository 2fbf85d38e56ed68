"""Fixed case grid of the full pipeline and its recorded outcome.

Every case draws a paper-model dataset, fits it at the radius that
cross-validation chooses on the default grid (``select_and_fit``) and
decides under both nulls on that one fit.
``tests/test_parity.py`` recomputes the grid and compares it with
``parity_record.json``: a change that moves a radius, a decision or a
continuous value shows up there.  To record a deliberate move, regenerate
the record and explain the diff:

    PYTHONPATH=src python tests/parity.py
"""

import itertools
import json
from pathlib import Path

import numpy as np

from indirgof.bandwidth import select_and_fit
from indirgof.khmaladze import decide
from indirgof.nulls import gaussian_null, student_t_null
from indirgof.simulation import COVARIATE_LAWS, generate, paper_model

RECORD = Path(__file__).resolve().parent / "parity_record.json"
ERRORS = ("normal", "laplace", "student-t")
SIZES = (100, 300, 1000)
SEEDS = (0, 1)
ALPHA = 0.05


def cases():
    """The (error law, design, n, seed) grid, in record order."""
    return list(itertools.product(ERRORS, COVARIATE_LAWS, SIZES, SEEDS))


def run_case(error, design, n, seed):
    """One case's outcome, with every float as ``float.hex``."""
    data = generate(paper_model(error, design), n, np.random.default_rng(seed))
    cv, fitted = select_and_fit(data)
    tests = {}
    for null in (gaussian_null(), student_t_null()):
        report = decide(fitted, null, ALPHA)
        tests[null.name] = {"t0": report.t0.hex(),
                            "statistic": report.statistic.hex(),
                            "reject": report.reject}
    return {"error": error, "design": design, "n": n, "seed": seed,
            "radius": cv.chosen,
            "cv_scores": [score.hex() for _, score in cv.candidates],
            "sigma_hat": fitted.sigma_hat.hex(),
            "tests": tests}


if __name__ == "__main__":
    record = [run_case(*case) for case in cases()]
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} cases to {RECORD}")
