import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from indirgof.cli import _build_parser, main, write_dataset_csv
from indirgof.simulation import generate, paper_model

README = Path(__file__).resolve().parents[1] / "README.md"

# documented in prose under the synopsis, for every command alike
_PROSE_FLAGS = {"--config", "--error-json", "-h", "--help"}


def test_strict_markers_enabled(pytestconfig):
    # a mistyped mark must fail at collection, not just warn
    assert pytestconfig.getini("strict_markers") is True


def _readme_synopsis():
    """Flags per command in the fenced block under README "## Command line"."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    flags, command = {}, None
    for line in block.splitlines():
        if line.startswith("indirgof "):
            command = line.split()[1]
            flags[command] = set()
        if command is not None:  # a continuation line belongs to the command above
            flags[command] |= set(re.findall(r"--[a-z][a-z0-9-]*", line))
            if "the `test` flags" in line:
                flags[command] |= flags["test"]
    return flags


def test_readme_synopsis_matches_the_parser():
    subparsers = next(a for a in _build_parser()._actions if a.choices)
    registered = {
        command: {s for a in parser._actions for s in a.option_strings} - _PROSE_FLAGS
        for command, parser in subparsers.choices.items()
    }
    assert _readme_synopsis() == registered


def test_readme_layout_lists_every_module():
    section = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1]
    block = section.split("```", 2)[1]
    named = set(re.findall(r"^\s+(\w+\.py)\s", block, flags=re.MULTILINE))
    modules = {p.name for p in (README.parent / "src" / "indirgof").glob("*.py")}
    assert modules - {"__init__.py"} <= named


def _imports():
    """``(scope, top-level name)`` of each absolute import in the package.

    The scope is ``module.function``, or ``module.None`` at module level.
    """
    for path in sorted((README.parent / "src" / "indirgof").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = f"{path.stem}.{getattr(node, 'name', None)}"
            for inner in ast.walk(node):
                if isinstance(inner, ast.Import):
                    names = [alias.name for alias in inner.names]
                elif isinstance(inner, ast.ImportFrom) and not inner.level:
                    names = [inner.module]
                else:
                    continue
                for name in names:
                    yield scope, name.split(".")[0]


def _import_scopes(*packages):
    """``module.function`` (``module.None`` at module level) of each import of ``packages``."""
    return {scope for scope, name in _imports() if name in packages}


#: The reference quadratures, the only functions that need the ``test`` extra.
_REFERENCES = {"khmaladze.gamma_quadrature", "nulls.check_fisher_information"}


def test_scipy_is_imported_only_by_the_reference_quadratures():
    # a pipeline run loads no scipy module (tests/test_import_footprint.py)
    assert _import_scopes("scipy") == _REFERENCES


def test_declared_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))
    project = pyproject["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", requirement).group() for requirement in requirements}

    third_party = {(scope, name) for scope, name in _imports()
                   if name not in sys.stdlib_module_names and name != "indirgof"}
    runtime = {name for scope, name in third_party if scope not in _REFERENCES}
    assert runtime == names(project["dependencies"]) == {"numpy"}
    # scipy, which only the references import, comes with the test extra
    references = {name for scope, name in third_party if scope in _REFERENCES}
    assert references <= names(project["optional-dependencies"]["test"])


def test_process_pool_is_imported_only_where_a_study_starts_one():
    # a run that starts no pool loads no multiprocessing (tests/test_import_footprint.py)
    assert _import_scopes("concurrent", "multiprocessing") == {"simulation.power_study"}


def test_readme_names_every_report_key(tmp_path, capsys):
    csv, report = tmp_path / "d.csv", tmp_path / "r.json"
    write_dataset_csv(generate(paper_model("normal", "uniform"), 60,
                               np.random.default_rng(7)), csv)
    assert main(["test", str(csv), "--out", str(report)]) == 0
    assert main(["estimate", str(csv), "--out", str(tmp_path / "g.csv")]) == 0
    keys = set(json.loads(report.read_text())) | set(json.loads(capsys.readouterr().out))
    section = README.read_text(encoding="utf-8").split("\n### Report schema\n", 1)[1]
    named = set(re.findall(r"`(\w+)`", section.split("\n## ", 1)[0]))
    assert keys - named == set()
