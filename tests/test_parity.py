"""The pipeline reproduces its recorded outcomes on a fixed case grid.

Radii and decisions must match exactly; CV scores, sigma_hat, t0 and the
statistic within 1e-12 relative.  ``tests/parity.py`` regenerates the
record for a change that means to move numbers.
"""

import json

import pytest

from parity import RECORD, cases, run_case

REL = 1e-12
_RECORDED = {(c["error"], c["design"], c["n"], c["seed"]): c
             for c in json.loads(RECORD.read_text(encoding="utf-8"))}


def _close(got, want):
    got, want = float.fromhex(got), float.fromhex(want)
    return got == pytest.approx(want, rel=REL, abs=0.0)


def test_record_covers_the_grid():
    assert sorted(_RECORDED) == sorted(cases())


@pytest.mark.parametrize("case", cases(), ids=lambda case: "-".join(map(str, case)))
def test_case_matches_record(case):
    got, want = run_case(*case), _RECORDED[case]
    assert got["radius"] == want["radius"]
    assert len(got["cv_scores"]) == len(want["cv_scores"])
    assert all(map(_close, got["cv_scores"], want["cv_scores"]))
    assert _close(got["sigma_hat"], want["sigma_hat"])
    assert got["tests"].keys() == want["tests"].keys()
    for null, outcome in want["tests"].items():
        assert got["tests"][null]["reject"] == outcome["reject"]
        assert _close(got["tests"][null]["t0"], outcome["t0"])
        assert _close(got["tests"][null]["statistic"], outcome["statistic"])
