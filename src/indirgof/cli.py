"""Command-line front end: data ingestion, test execution, exports.

Subcommands: ``test`` (CSV dataset -> JSON report), ``estimate`` (fit
only, grid and residual exports), ``simulate`` (Monte-Carlo study) and
``image`` (grayscale section -> variance-stabilized test).  A flat
``key = value`` config file can predefine any flag; explicit flags win.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .bandwidth import select_and_fit
from .errors import DataFormatError, IndirgofError, InsufficientDataError
from .estimation import Dataset
from .khmaladze import decide
from .nulls import get_null
from .simulation import COVARIATE_LAWS, PowerRow, paper_model, power_study

REPORT_SCHEMA_VERSION = 4

GRID_VALUES_LIMIT = 10**8  # most values the ``estimate`` grid's basis may hold (~1.2 GB)


# ---------------------------------------------------------------------------
# Variance stabilization
# ---------------------------------------------------------------------------

def anscombe(y):
    """Variance-stabilizing transform ``2 * sqrt(y + 3/8)`` for counts."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("the variance-stabilizing transform needs y >= 0")
    return 2.0 * np.sqrt(y + 0.375)


def anscombe_inverse(z):
    """Algebraic inverse ``(z/2)**2 - 3/8`` for reconstruction display."""
    return (np.asarray(z, dtype=float) / 2.0) ** 2 - 0.375


# ---------------------------------------------------------------------------
# Dataset I/O
# ---------------------------------------------------------------------------

def _covariate_names(m):
    """CSV column names ``x1..xm`` of the covariates."""
    return [f"x{i}" for i in range(1, m + 1)]


def _write_csv(path, header, columns):
    """Write equal-length ``columns`` as a CSV file under the ``header`` names.

    A column is a 1-D array or a sequence of Python scalars.  Cells are
    written by ``str``, which equals ``repr`` for a Python float, so floats
    round-trip exactly.
    """
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


def _write_json(payload, path=None):
    """Write ``payload`` as strict, indented JSON to ``path``, or to stdout."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_csv(path):
    """Read a dataset from a CSV file with header ``x1,...,xm,y``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(no, ln) for no, ln in enumerate(map(str.strip, fh), start=1) if ln]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = [c.strip() for c in lines[0][1].split(",")]
    m = len(header) - 1
    if m < 1 or header != _covariate_names(m) + ["y"]:
        raise DataFormatError(
            f"{path}: header must be x1,...,xm,y; got {','.join(header)}"
        )
    if len(lines) == 1:
        raise InsufficientDataError(f"{path}: no data rows")
    xs, ys = [], []
    for line_no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != m + 1:
            raise DataFormatError(
                f"{path}: line {line_no} has {len(cells)} cells, expected {m + 1}"
            )
        values = []
        try:
            for cell in cells:
                values.append(float(cell))
        except ValueError:
            raise DataFormatError(
                f"{path}: line {line_no} contains non-numeric cell {cell.strip()!r}"
            ) from None
        if any(not 0.0 <= c <= 1.0 for c in values[:m]):
            raise DataFormatError(f"{path}: line {line_no} has a coordinate outside [0, 1]")
        if not math.isfinite(values[m]):
            raise DataFormatError(f"{path}: line {line_no} has a non-finite response")
        xs.append(values[:m])
        ys.append(values[m])
    return Dataset(x=np.array(xs), y=np.array(ys))


def write_dataset_csv(data, path):
    """Write a dataset in the format :func:`load_csv` reads, losslessly."""
    _write_csv(path, _covariate_names(data.m) + ["y"], [*data.x.T, data.y])


# ---------------------------------------------------------------------------
# Image ingestion
# ---------------------------------------------------------------------------

# A PGM header token after whitespace and comments (``#`` to the end of the
# line); the lookaheads stop a comment or a token from matching in part.
_PGM_TOKEN = rb"(?:[ \t\r\n]|#[^\r\n]*(?![^\r\n]))*([^ \t\r\n#][^ \t\r\n]*)(?![^ \t\r\n])"
_PGM_HEADER = re.compile(_PGM_TOKEN * 4)


def _read_pgm(raw, path):
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise DataFormatError(f"{path}: truncated PGM header")
    tokens, pos = header.groups(), header.end()
    magic = tokens[0].decode("ascii", "replace")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise DataFormatError(f"{path}: non-numeric PGM header fields") from None
    if width < 1 or height < 1 or not 0 < maxval <= 65535:
        raise DataFormatError(
            f"{path}: bad PGM dimensions {width}x{height} maxval {maxval}"
        )
    if magic == "P2":
        try:
            flat = np.array(raw[pos:].split(), dtype=np.int64)
        except ValueError:
            raise DataFormatError(f"{path}: non-numeric P2 raster data") from None
    elif magic == "P5":
        start = pos + 1  # exactly one whitespace byte after maxval
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        need = width * height * dtype.itemsize
        body = raw[start:start + need]
        if len(body) != need:
            raise DataFormatError(f"{path}: P5 raster shorter than header promises")
        flat = np.frombuffer(body, dtype=dtype).astype(np.int64)
    else:
        raise DataFormatError(f"{path}: unsupported magic {magic!r} (want P2 or P5)")
    if flat.size != width * height:
        raise DataFormatError(
            f"{path}: raster has {flat.size} samples, header promises {width * height}"
        )
    if np.any(flat < 0) or np.any(flat > maxval):
        raise DataFormatError(f"{path}: raster sample exceeds maxval {maxval}")
    return flat.reshape(height, width)


def read_image(path):
    """Read a grayscale image: PGM (P2/P5) by magic number, CSV otherwise."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] in (b"P2", b"P5"):
        return _read_pgm(raw, path)
    try:
        mat = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a PGM and not a CSV matrix ({exc})") from None
    if np.any(mat < 0) or not np.all(np.isfinite(mat)):
        raise DataFormatError(f"{path}: image intensities must be finite and >= 0")
    return mat


def load_image_section(path, row0, col0, size):
    """Turn a square image section into a dataset for the test.

    Pixel (i, j) (1-based within the section) maps to the grid midpoint
    ``((i - 0.5)/size, (j - 0.5)/size)``; the response is the
    variance-stabilized intensity.  Raw counts go in untouched (no
    rescaling before the transform).
    """
    image = read_image(path)
    if size < 1:
        raise ValueError(f"section size must be positive, got {size}")
    if row0 < 0 or col0 < 0 or row0 + size > image.shape[0] or col0 + size > image.shape[1]:
        raise DataFormatError(
            f"{path}: section [{row0}:{row0 + size}, {col0}:{col0 + size}] "
            f"is outside the {image.shape[0]}x{image.shape[1]} image"
        )
    section = np.asarray(image[row0:row0 + size, col0:col0 + size], dtype=float)
    mids = (np.arange(size) + 0.5) / size
    xi, xj = np.meshgrid(mids, mids, indexing="ij")
    x = np.column_stack([xi.ravel(), xj.ravel()])
    y = anscombe(section.ravel())
    return Dataset(x=x, y=y)


# ---------------------------------------------------------------------------
# Run configuration and orchestration
# ---------------------------------------------------------------------------

def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


_ALL = ("test", "estimate", "simulate", "image")
_READS_INPUT = ("test", "estimate", "image")
_DECIDES = ("test", "simulate", "image")
_RUNS_TEST = ("test", "image")


def _option(flag, commands, default=None, *, factory=None, output=False, **argparse_kw):
    """A :class:`RunConfig` field that is a flag of ``commands`` and a config key.

    ``argparse_kw`` go to ``add_argument``; their ``type`` (``str`` when
    absent) also casts a config-file value.  ``output`` marks a path the
    run writes, whose directory is checked before any work starts.
    """
    meta = {"flag": flag, "commands": commands, "argparse": argparse_kw,
            "output": output}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Resolved options for one CLI invocation.

    Each field but ``command`` declares its option once: the parser, the
    config-file keys and the output-path check are built from the fields.
    """

    command: str
    input: str = _option("input", _READS_INPUT, nargs="?")
    null_name: str = _option("--null", _RUNS_TEST, "gaussian", help="null model name")
    alpha: float = _option("--alpha", _DECIDES, 0.05, type=float)
    cv_grid: list = _option("--cv-grid", _ALL, type=_float_list,
                            help="comma-separated candidate cutoff radii")
    radius: float = _option("--radius", ("estimate",), type=float,
                            help="fixed cutoff radius (skips CV)")
    seed: int = _option("--seed", ("simulate",), 0, type=int)
    out: str = _option("--out", _ALL, output=True)
    trace_out: str = _option("--trace-out", _RUNS_TEST, output=True)
    qq_out: str = _option("--qq-out", _RUNS_TEST, output=True)
    error_json: str = _option(
        "--error-json", _ALL, output=True,
        help="write a machine-readable error description here on failure")
    scenarios: list = _option("--scenarios", ("simulate",), factory=lambda: ["normal"],
                              type=_str_list, help="comma-separated error laws")
    design: str = _option("--design", ("simulate",), "uniform", choices=COVARIATE_LAWS)
    n_list: list = _option("--n", ("simulate",), factory=lambda: [100], type=_int_list,
                           help="comma-separated sample sizes")
    reps: int = _option("--reps", ("simulate",), 200, type=int)
    workers: int = _option("--workers", ("simulate",), 1, type=int)
    json_out: str = _option("--json-out", ("simulate",), output=True)
    grid_points: int = _option("--grid-points", ("estimate",), 21, type=int)
    residuals_out: str = _option("--residuals-out", ("estimate",), output=True)
    data_out: str = _option("--data-out", ("estimate",), output=True)
    row0: int = _option("--row0", ("image",), 0, type=int)
    col0: int = _option("--col0", ("image",), 0, type=int)
    size: int = _option("--size", ("image",), 32, type=int)
    fitted_out: str = _option("--fitted-out", ("image",), output=True)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def _run_test_on(data, config, caveats=()):
    null = get_null(config.null_name)
    # no fixed radius: a shared config file's ``radius`` is for ``estimate``
    cv, fitted = select_and_fit(data, config.cv_grid)
    report = decide(fitted, null, config.alpha)
    _write_json({"schema_version": REPORT_SCHEMA_VERSION, "command": config.command,
                 **report.to_dict(), "cv": cv.as_dict(),
                 "caveats": list(caveats)}, config.out)
    if config.trace_out:
        trace = report.trace
        _write_csv(config.trace_out, ["t", "xi"], [trace.eval_points, trace.values])
    if config.qq_out:
        probs = (np.arange(1, fitted.n + 1) - 0.5) / fitted.n
        _write_csv(config.qq_out, ["z_sorted", "null_quantile"],
                   [np.sort(fitted.z), null.quantile(probs)])
    return fitted, report


def _cmd_test(config):
    data = load_csv(config.input)
    _run_test_on(data, config)
    return 0


def _cmd_estimate(config):
    if config.grid_points < 1:
        raise ValueError(f"--grid-points must be positive, got {config.grid_points}")
    data = load_csv(config.input)
    cv, fitted = select_and_fit(data, config.cv_grid, radius=config.radius)
    size, m, points = fitted.lattice.size, data.m, config.grid_points
    if points**m * size > GRID_VALUES_LIMIT:
        raise ValueError(f"--grid-points {points} with m={m} covariates and N={size} lattice "
                         f"indices gives a {points}**{m} x {size} basis of {points**m * size} "
                         f"values, above the limit of {GRID_VALUES_LIMIT}")
    axes = [np.linspace(0.0, 1.0, points)] * m
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    values = fitted.predict(mesh)
    out = config.out or "fitted_grid.csv"
    names = _covariate_names(data.m)
    _write_csv(out, names + ["fitted"], [*mesh.T, values])
    if config.residuals_out:
        _write_csv(config.residuals_out, names + ["y", "fitted", "residual", "z"],
                   [*data.x.T, data.y, data.y - fitted.residuals,
                    fitted.residuals, fitted.z])
    if config.data_out:
        write_dataset_csv(data, config.data_out)
    _write_json({"schema_version": REPORT_SCHEMA_VERSION, "command": "estimate",
                 "n": data.n, "m": data.m, "sigma_hat": fitted.sigma_hat,
                 "chosen_radius": fitted.lattice.radius,
                 "cv": None if cv is None else cv.as_dict(), "grid_out": out})
    return 0


def _cmd_simulate(config):
    scenarios = [paper_model(name, config.design) for name in config.scenarios]
    table = power_study(
        scenarios, config.n_list, config.reps, config.alpha, config.seed,
        cv_radii=config.cv_grid, workers=config.workers,
    )
    if config.out:
        _write_csv(config.out, [f.name for f in fields(PowerRow)],
                   zip(*map(astuple, table.rows)))
    if config.json_out or not config.out:
        _write_json(table.to_dict(), config.json_out)
    return 0


def _cmd_image(config):
    data = load_image_section(config.input, config.row0, config.col0, config.size)
    caveats = [
        "covariates form a deterministic pixel grid; the test's theory "
        "assumes a random design"
    ]
    fitted, _report = _run_test_on(data, config, caveats)
    if config.fitted_out:
        recon = anscombe_inverse(fitted.predict(data.x)).reshape(config.size,
                                                                 config.size)
        np.savetxt(config.fitted_out, recon, delimiter=",")
    return 0


_COMMANDS = {
    "test": (_cmd_test, "run the goodness-of-fit test on a CSV dataset"),
    "estimate": (_cmd_estimate, "fit only; export the surface and residuals"),
    "simulate": (_cmd_simulate, "Monte-Carlo level/power study"),
    "image": (_cmd_image, "test a grayscale image section"),
}


def _validate_paths(config):
    if config.command in _READS_INPUT:
        if not config.input:
            raise ValueError(f"the {config.command} command needs an input path")
        if not os.path.isfile(config.input):
            raise FileNotFoundError(f"input file not found: {config.input}")
    outputs = [getattr(config, f.name) for f in fields(config) if f.metadata.get("output")]
    for path in filter(None, outputs):
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ValueError(f"output directory does not exist: {parent}")


def _fail(exc, error_json):
    """Report ``exc`` on stderr and, when a path is given, as a JSON record; returns 1."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    if error_json:
        try:
            _write_json({"error": type(exc).__name__, "message": str(exc)}, error_json)
        except OSError as write_exc:
            print(f"error: cannot write the error record: {write_exc}", file=sys.stderr)
    return 1


def run(config):
    """Execute a resolved configuration; returns the process exit status."""
    try:
        _validate_paths(config)
        return _COMMANDS[config.command][0](config)
    except (IndirgofError, ValueError, OSError) as exc:
        return _fail(exc, config.error_json)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def read_config_file(path):
    """Parse a flat ``key = value`` config file (# starts a comment)."""
    values = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise DataFormatError(
                    f"{path}: line {line_no} is not of the form key = value"
                )
            key, value = (part.strip() for part in text.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _config_keys():
    """Map each config key, a field name or a flag name, to its field and cast."""
    keys = {}
    for f in fields(RunConfig):
        if "flag" in f.metadata:
            flag = f.metadata["flag"].lstrip("-").replace("-", "_")
            keys[f.name] = keys[flag] = (f.name, f.metadata["argparse"].get("type", str))
    return keys


@functools.cache  # parse_args keeps no state, so one parser serves every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="indirgof",
        description="Error-distribution goodness-of-fit testing for "
                    "convolution-distorted regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text)
        p_cmd.add_argument("--config", help="flat key=value config file; flags override")
        for f in fields(RunConfig):
            if command in f.metadata.get("commands", ()):
                flag, kwargs = f.metadata["flag"], f.metadata["argparse"]
                if flag.startswith("-"):
                    kwargs = dict(kwargs, dest=f.name)
                p_cmd.add_argument(flag, **kwargs)
    return parser


def build_config(args):
    """Merge parsed flags over config-file values over defaults."""
    merged = {}
    if getattr(args, "config", None):
        keys = _config_keys()
        for key, text in read_config_file(args.config).items():
            if key not in keys:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            name, cast = keys[key]
            try:
                merged[name] = cast(text)
            except ValueError as exc:
                raise ValueError(f"{args.config}: config key {key!r}: {exc}") from None
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            merged[key] = value
    return RunConfig(command=args.command, **merged)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except (IndirgofError, ValueError, OSError) as exc:
        return _fail(exc, args.error_json)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
