"""Command-line front end: data ingestion, test execution, exports.

Subcommands: ``test`` (CSV dataset -> JSON report), ``estimate`` (fit
only, grid and residual exports), ``simulate`` (Monte-Carlo study) and
``image`` (grayscale section -> variance-stabilized test).  A flat
``key = value`` config file can predefine any flag; explicit flags win.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import cv_select, default_radius_grid
from .errors import DataFormatError, IndirgofError, InsufficientDataError
from .estimation import DEFAULT_DENSITY_FLOOR, Dataset, fit
from .khmaladze import decide
from .nulls import get_null, get_sampler
from .simulation import paper_model, power_study
from .spectral import enumerate_lattice

REPORT_SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# Variance stabilization
# ---------------------------------------------------------------------------

def anscombe(y):
    """Variance-stabilizing transform ``2 * sqrt(y + 3/8)`` for counts."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("the variance-stabilizing transform needs y >= 0")
    out = 2.0 * np.sqrt(y + 0.375)
    return float(out) if out.ndim == 0 else out


def anscombe_inverse(z):
    """Algebraic inverse ``(z/2)**2 - 3/8`` for reconstruction display."""
    z = np.asarray(z, dtype=float)
    out = (z / 2.0) ** 2 - 0.375
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Dataset I/O
# ---------------------------------------------------------------------------

def load_csv(path):
    """Read a dataset from a CSV file with header ``x1,...,xm,y``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    expected = [f"x{i}" for i in range(1, len(header))] + ["y"]
    if len(header) < 2 or header != expected:
        raise DataFormatError(
            f"{path}: header must be x1,...,xm,y; got {','.join(header)}"
        )
    m = len(header) - 1
    if len(lines) == 1:
        raise InsufficientDataError(f"{path}: no data rows")
    xs, ys = [], []
    for row_no, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != m + 1:
            raise DataFormatError(
                f"{path}: row {row_no} has {len(cells)} cells, expected {m + 1}"
            )
        try:
            values = [float(c) for c in cells]
        except ValueError:
            bad = next(c for c in cells if not _is_number(c))
            raise DataFormatError(
                f"{path}: row {row_no} contains non-numeric cell {bad!r}"
            ) from None
        coords = values[:m]
        if any(not 0.0 <= c <= 1.0 for c in coords):
            raise DataFormatError(
                f"{path}: row {row_no} has a coordinate outside [0, 1]"
            )
        xs.append(coords)
        ys.append(values[m])
    return Dataset(x=np.array(xs), y=np.array(ys))


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_dataset_csv(data, path):
    """Write a dataset in the format :func:`load_csv` reads, losslessly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(1, data.m + 1)) + ",y\n")
        for row, y in zip(data.x, data.y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(y)!r}\n")


# ---------------------------------------------------------------------------
# Image ingestion
# ---------------------------------------------------------------------------

def _read_pgm(raw, path):
    tokens = []
    pos = 0
    i, n = 0, len(raw)
    while i < n and len(tokens) < 4:
        c = raw[i:i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            while i < n and raw[i:i + 1] not in b"\r\n":
                i += 1
            continue
        j = i
        while j < n and raw[j:j + 1] not in b" \t\r\n":
            j += 1
        tokens.append(raw[i:j])
        pos = j
        i = j
    if len(tokens) < 4:
        raise DataFormatError(f"{path}: truncated PGM header")
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
        dtype = ">u2" if maxval > 255 else "u1"
        itemsize = 2 if maxval > 255 else 1
        need = width * height * itemsize
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

@dataclass
class RunConfig:
    """Resolved options for one CLI invocation."""

    command: str
    input: str = None
    null_name: str = "gaussian"
    alpha: float = 0.05
    cv_grid: list = None
    radius: float = None
    floor: float = DEFAULT_DENSITY_FLOOR
    seed: int = 0
    out: str = None
    trace_out: str = None
    qq_out: str = None
    error_json: str = None
    # simulate
    scenarios: list = field(default_factory=lambda: ["normal"])
    design: str = "uniform"
    n_list: list = field(default_factory=lambda: [100])
    reps: int = 200
    workers: int = 1
    json_out: str = None
    # estimate
    grid_points: int = 21
    residuals_out: str = None
    data_out: str = None
    # image
    row0: int = 0
    col0: int = 0
    size: int = 32
    fitted_out: str = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def _select_and_fit(data, config):
    if config.radius is not None:
        cv_report = None
        radius = float(config.radius)
    else:
        radii = config.cv_grid or default_radius_grid(data.n, data.m)
        cv_report = cv_select(data, radii, config.floor)
        radius = cv_report.chosen
    lattice = enumerate_lattice(data.m, radius)
    return cv_report, fit(data, lattice, config.floor)


def _write_report(config, report, cv_report, caveats=()):
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "command": config.command}
    payload.update(report.to_dict())
    payload["seed"] = config.seed
    payload["cv"] = cv_report.as_dict() if cv_report is not None else None
    payload["caveats"] = list(caveats)
    text = json.dumps(payload, indent=2)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return payload


def _write_qq(config, fitted, null):
    n = fitted.n
    probs = (np.arange(1, n + 1) - 0.5) / n
    theo = np.asarray(null.quantile(probs), dtype=float)
    with open(config.qq_out, "w", encoding="utf-8") as fh:
        fh.write("z_sorted,null_quantile\n")
        for z, q in zip(fitted.z_sorted, theo):
            fh.write(f"{float(z)!r},{float(q)!r}\n")


def _run_test_on(data, config, caveats=()):
    null = get_null(config.null_name)
    cv_report, fitted = _select_and_fit(data, config)
    report = decide(fitted, null, config.alpha)
    _write_report(config, report, cv_report, caveats)
    if config.trace_out:
        report.trace.to_csv(config.trace_out)
    if config.qq_out:
        _write_qq(config, fitted, null)
    return fitted, report


def _cmd_test(config):
    data = load_csv(config.input)
    _run_test_on(data, config)
    return 0


def _cmd_estimate(config):
    data = load_csv(config.input)
    cv_report, fitted = _select_and_fit(data, config)
    axes = [np.linspace(0.0, 1.0, config.grid_points)] * data.m
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, data.m)
    values = fitted.predict(mesh)
    out = config.out or "fitted_grid.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(1, data.m + 1)) + ",fitted\n")
        for row, v in zip(mesh, values):
            fh.write(",".join(repr(float(c)) for c in row) + f",{float(v)!r}\n")
    if config.residuals_out:
        with open(config.residuals_out, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x{i}" for i in range(1, data.m + 1))
                     + ",y,fitted,residual,z\n")
            fitted_at = data.y - fitted.residuals
            for row, y, fv, r, z in zip(data.x, data.y, fitted_at,
                                        fitted.residuals, fitted.z):
                fh.write(",".join(repr(float(c)) for c in row)
                         + f",{float(y)!r},{float(fv)!r},{float(r)!r},{float(z)!r}\n")
    if config.data_out:
        write_dataset_csv(data, config.data_out)
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "estimate",
        "n": data.n,
        "m": data.m,
        "sigma_hat": fitted.sigma_hat,
        "chosen_radius": fitted.lattice.radius,
        "cv": cv_report.as_dict() if cv_report is not None else None,
        "grid_out": out,
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_simulate(config):
    scenarios = [paper_model(get_sampler(name), config.design)
                 for name in config.scenarios]
    table = power_study(
        scenarios, config.n_list, config.reps, config.alpha, config.seed,
        cv_radii=config.cv_grid, floor=config.floor, workers=config.workers,
    )
    if config.out:
        table.to_csv(config.out)
    if config.json_out:
        with open(config.json_out, "w", encoding="utf-8") as fh:
            json.dump(table.to_dict(), fh, indent=2)
            fh.write("\n")
    if not config.out and not config.json_out:
        print(json.dumps(table.to_dict(), indent=2))
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
    "test": _cmd_test,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "image": _cmd_image,
}


def _validate_paths(config):
    if config.command in ("test", "estimate", "image"):
        if not config.input:
            raise ValueError(f"the {config.command} command needs an input path")
        if not os.path.isfile(config.input):
            raise FileNotFoundError(f"input file not found: {config.input}")
    outputs = (config.out, config.trace_out, config.qq_out, config.json_out,
               config.residuals_out, config.data_out, config.fitted_out,
               config.error_json)
    for path in outputs:
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ValueError(f"output directory does not exist: {parent}")


def run(config):
    """Execute a resolved configuration; returns the process exit status."""
    try:
        _validate_paths(config)
        return _COMMANDS[config.command](config)
    except (IndirgofError, ValueError, OSError) as exc:
        message = f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        if config.error_json:
            with open(config.error_json, "w", encoding="utf-8") as fh:
                json.dump({"error": type(exc).__name__, "message": str(exc)}, fh)
                fh.write("\n")
        return 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def read_config_file(path):
    """Parse a flat ``key = value`` config file (# starts a comment)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
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


_CASTS = {
    "null_name": str, "alpha": float, "cv_grid": _float_list, "radius": float,
    "floor": float, "seed": int, "out": str,
    "trace_out": str, "qq_out": str, "error_json": str, "scenarios": _str_list,
    "design": str, "n_list": _int_list, "reps": int, "workers": int,
    "json_out": str, "grid_points": int, "residuals_out": str, "data_out": str,
    "row0": int, "col0": int, "size": int, "fitted_out": str, "input": str,
}

_CONFIG_ALIASES = {"null": "null_name", "n": "n_list", "cv_grid": "cv_grid"}


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--null", dest="null_name", help="null model name")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--cv-grid", dest="cv_grid", type=_float_list,
                        help="comma-separated candidate cutoff radii")
    parser.add_argument("--floor", type=float, help="density lower clamp")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--error-json", dest="error_json",
                        help="write a machine-readable error description here on failure")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="indirgof",
        description="Error-distribution goodness-of-fit testing for "
                    "convolution-distorted regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the goodness-of-fit test on a CSV dataset")
    p_test.add_argument("input", nargs="?")
    _add_common(p_test)
    p_test.add_argument("--trace-out", dest="trace_out")
    p_test.add_argument("--qq-out", dest="qq_out")

    p_est = sub.add_parser("estimate", help="fit only; export the surface and residuals")
    p_est.add_argument("input", nargs="?")
    _add_common(p_est)
    p_est.add_argument("--radius", type=float, help="fixed cutoff radius (skips CV)")
    p_est.add_argument("--grid-points", dest="grid_points", type=int)
    p_est.add_argument("--residuals-out", dest="residuals_out")
    p_est.add_argument("--data-out", dest="data_out")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo level/power study")
    _add_common(p_sim)
    p_sim.add_argument("--scenarios", type=_str_list,
                       help="comma-separated error laws")
    p_sim.add_argument("--design", choices=("uniform", "nontrivial"))
    p_sim.add_argument("--n", dest="n_list", type=_int_list,
                       help="comma-separated sample sizes")
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--workers", type=int)
    p_sim.add_argument("--json-out", dest="json_out")

    p_img = sub.add_parser("image", help="test a grayscale image section")
    p_img.add_argument("input", nargs="?")
    _add_common(p_img)
    p_img.add_argument("--row0", type=int)
    p_img.add_argument("--col0", type=int)
    p_img.add_argument("--size", type=int)
    p_img.add_argument("--trace-out", dest="trace_out")
    p_img.add_argument("--qq-out", dest="qq_out")
    p_img.add_argument("--fitted-out", dest="fitted_out")

    return parser


def build_config(args):
    """Merge parsed flags over config-file values over defaults."""
    file_values = {}
    if getattr(args, "config", None):
        raw = read_config_file(args.config)
        for key, text in raw.items():
            key = _CONFIG_ALIASES.get(key, key)
            if key not in _CASTS:
                raise ValueError(f"unknown config key {key!r}")
            file_values[key] = _CASTS[key](text)
    merged = dict(file_values)
    for key in vars(args):
        if key in ("command", "config"):
            continue
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return RunConfig(command=args.command, **merged)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except (IndirgofError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
