"""Fixed case grid of the full pipeline and its recorded outcome.

Every case draws a paper-model dataset, fits it at the radius that
cross-validation chooses on the default grid (``select_and_fit``) and
decides under both nulls on that one fit.
``tests/test_parity.py`` recomputes the grid and compares it with
``parity_record.json``: a change that moves a radius, a decision or a
continuous value shows up there.  To record a deliberate move, regenerate
the record and explain the drift it prints first (for each field, how
many values changed and by how much at most, then every radius or
decision that moved):

    PYTHONPATH=src python tests/parity.py
"""

import itertools
import json
import math
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


def _floats(case):
    """(field, value) pairs of a case's continuous outcomes."""
    pairs = [("cv_scores", s) for s in case["cv_scores"]]
    pairs.append(("sigma_hat", case["sigma_hat"]))
    for outcome in case["tests"].values():
        pairs += [("t0", outcome["t0"]), ("statistic", outcome["statistic"])]
    return [(name, float.fromhex(value)) for name, value in pairs]


def _choices(case):
    """(field, value) pairs of a case's radius and decisions."""
    return [("radius", case["radius"])] + [
        (f"{null} reject", outcome["reject"]) for null, outcome in case["tests"].items()]


def drift(old, new):
    """Lines that say how the ``new`` record moved from the ``old`` one."""
    old = {(c["error"], c["design"], c["n"], c["seed"]): c for c in old}
    rel_changes, moves = {}, []
    for case in new:
        key = (case["error"], case["design"], case["n"], case["seed"])
        name = "-".join(map(str, key))
        if key not in old:
            moves.append(f"{name}: not in the old record")
            continue
        for (field, got), (_, want) in zip(_floats(case), _floats(old[key])):
            rel = 0.0 if got == want else abs(got - want) / abs(want) if want else math.inf
            rel_changes.setdefault(field, []).append(rel)
        for (field, got), (_, want) in zip(_choices(case), _choices(old[key])):
            if got != want:
                moves.append(f"{name}: {field} {want} -> {got}")
    return [f"{field}: {sum(r > 0 for r in rels)} of {len(rels)} changed, "
            f"largest relative change {max(rels):.2g}"
            for field, rels in rel_changes.items()] + moves


if __name__ == "__main__":
    record = [run_case(*case) for case in cases()]
    if RECORD.exists():
        print("\n".join(drift(json.loads(RECORD.read_text(encoding="utf-8")), record)))
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} cases to {RECORD}")
