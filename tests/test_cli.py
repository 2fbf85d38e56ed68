import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from indirgof.cli import (
    RunConfig,
    _build_parser,
    anscombe,
    anscombe_inverse,
    build_config,
    load_csv,
    load_image_section,
    main,
    read_config_file,
    read_image,
    run,
    write_dataset_csv,
)
from indirgof.bandwidth import default_radius_grid, select_and_fit
from indirgof.errors import DataFormatError, InsufficientDataError
from indirgof.estimation import Dataset
from indirgof.khmaladze import decide
from indirgof.nulls import get_null
from indirgof.simulation import generate, paper_model

from helpers import poisson_count_image


class TestAnscombe:
    def test_reference_values(self):
        assert anscombe(0.0) == pytest.approx(1.2247449, abs=1e-7)
        assert anscombe(1.0) == pytest.approx(2.3452079, abs=1e-7)

    def test_inverse_round_trip(self):
        for y in (0.0, 1.0, 255.0):
            assert anscombe_inverse(anscombe(y)) == pytest.approx(y, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            anscombe(-0.5)
        with pytest.raises(ValueError):
            anscombe(np.array([1.0, -2.0]))


class TestCsvIo:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.5\n0.3,0.4,-2.0\n0.5,0.6,0.0\n")
        data = load_csv(path)
        assert data.n == 3 and data.m == 2
        assert_allclose(data.y, [1.5, -2.0, 0.0])

    def test_bit_identical_round_trip(self, tmp_path):
        rng = np.random.default_rng(401)
        data = generate(paper_model("normal", "uniform"), 50, rng)
        path = tmp_path / "rt.csv"
        write_dataset_csv(data, path)
        back = load_csv(path)
        assert_array_equal(back.x, data.x)
        assert_array_equal(back.y, data.y)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,y\n")
        with pytest.raises(InsufficientDataError):
            load_csv(path)

    def test_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n0.5,1.0\n1.5,2.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    def test_error_names_the_file_line_past_a_blank_line(self, tmp_path):
        # only non-empty lines were once counted, which named line 4 here
        path = tmp_path / "gap.csv"
        path.write_text("x1,y\n0.1,1\n\n0.2,2\n1.5,3\n")
        with pytest.raises(DataFormatError, match="line 5 has a coordinate outside"):
            load_csv(path)

    def test_non_numeric_names_location(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1,y\n0.5,1.0\n0.7,oops\n")
        with pytest.raises(DataFormatError, match="line 3.*oops"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_response_names_row(self, tmp_path, cell):
        path = tmp_path / "inf.csv"
        path.write_text(f"x1,y\n0.5,1.0\n0.2,{cell}\n")
        with pytest.raises(DataFormatError, match="line 3 has a non-finite response"):
            load_csv(path)

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(path)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # editors that save "UTF-8 with BOM" put U+FEFF before the header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx1,x2,y\n0.1,0.2,1.5\n0.3,0.4,-2.0\n")
        data = load_csv(path)
        assert data.m == 2
        assert_array_equal(data.y, [1.5, -2.0])


def _write_pgm_p2(path, mat, maxval=255):
    lines = [f"P2\n# comment row\n{mat.shape[1]} {mat.shape[0]}\n{maxval}\n"]
    lines.append("\n".join(" ".join(str(v) for v in row) for row in mat))
    path.write_text("".join(lines) + "\n")


def _write_pgm_p5(path, mat, maxval=255):
    header = f"P5\n{mat.shape[1]} {mat.shape[0]}\n{maxval}\n".encode("ascii")
    dtype = ">u2" if maxval > 255 else "u1"
    path.write_bytes(header + mat.astype(dtype).tobytes())


class TestImageIo:
    def test_p2_and_p5_agree(self, tmp_path):
        rng = np.random.default_rng(402)
        mat = rng.integers(0, 256, size=(40, 40))
        p2, p5 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        _write_pgm_p2(p2, mat)
        _write_pgm_p5(p5, mat)
        assert_array_equal(read_image(p2), read_image(p5))

    def test_sixteen_bit_p5(self, tmp_path):
        rng = np.random.default_rng(403)
        mat = rng.integers(0, 65536, size=(8, 8))
        path = tmp_path / "wide.pgm"
        _write_pgm_p5(path, mat, maxval=65535)
        assert_array_equal(read_image(path), mat)

    def test_csv_matrix_fallback(self, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, np.arange(12).reshape(3, 4), delimiter=",")
        assert read_image(path).shape == (3, 4)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n12 nope\n255\n")
        with pytest.raises(DataFormatError):
            read_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(DataFormatError, match="shorter"):
            read_image(path)

    @pytest.mark.parametrize("raw, expected", [
        # a comment between every header token, ended by CR or LF
        (b"P2 # a\r#b\n3 #c\r2 # d 9\n#e\r9\n1 2 3\n4 5 6\n", [[1, 2, 3], [4, 5, 6]]),
        (b"P2\t2\r\r1\t\r\n7\r7\t0\r\n", [[7, 0]]),
        # the P5 raster starts exactly one byte after maxval, whatever it holds
        (b"P5 3 1 255\n#\n\t", [[35, 10, 9]]),
        (b"P5 3 1 255\n \n\t", [[32, 10, 9]]),
        # int() ignores a trailing form feed, but the token ends after it
        (b"P5 2 1 255\x0c\n\x07\x08", [[7, 8]]),
    ])
    def test_header_separators_and_comments(self, tmp_path, raw, expected):
        path = tmp_path / "h.pgm"
        path.write_bytes(raw)
        assert_array_equal(read_image(path), expected)

    @pytest.mark.parametrize("raw, message", [
        (b"P2 1 1\n# 9 5\n", "truncated PGM header"),  # comment text is no token
        (b"P2 2\x0b1 9\n1 2\n", "non-numeric PGM header"),  # \v is no separator
    ])
    def test_header_token_boundaries(self, tmp_path, raw, message):
        path = tmp_path / "h.pgm"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=message):
            read_image(path)

    def test_section_to_dataset(self, tmp_path):
        rng = np.random.default_rng(404)
        mat = rng.integers(0, 256, size=(64, 64))
        path = tmp_path / "img.pgm"
        _write_pgm_p5(path, mat)
        data = load_image_section(path, 0, 0, 32)
        assert data.n == 1024
        assert data.x[0, 0] == pytest.approx(0.5 / 32)  # pixel (1, 1)
        assert data.x[0, 1] == pytest.approx(0.5 / 32)
        assert data.y[0] == pytest.approx(anscombe(float(mat[0, 0])))
        full = load_image_section(path, 0, 0, 64)
        assert full.n == 4096

    def test_section_bounds_checked(self, tmp_path):
        mat = np.zeros((16, 16), dtype=int)
        path = tmp_path / "small.pgm"
        _write_pgm_p5(path, mat)
        with pytest.raises(DataFormatError, match="outside"):
            load_image_section(path, 8, 8, 16)


class TestConfigFile:
    def test_parse_and_alias(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# scenario file\nalpha = 0.1\nnull = gaussian\n"
            "n = 50,100\nscenarios = normal,laplace\ncv-grid = 1,2\n"
        )
        values = read_config_file(cfg)
        assert values["alpha"] == "0.1"
        assert values["n"] == "50,100"

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.1\nreps = 4\n")
        data_file = tmp_path / "d.csv"
        rng = np.random.default_rng(405)
        write_dataset_csv(generate(paper_model("normal", "uniform"), 60, rng),
                          data_file)
        out = tmp_path / "r.json"
        rc = main(["test", str(data_file), "--config", str(cfg),
                   "--alpha", "0.2", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["alpha"] == 0.2

    def test_keys_are_field_or_flag_names(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("null = student-t\nn = 50,100\ncv-grid = 1,2\n"
                       "grid_points = 7\nfitted-out = f.csv\n")
        config = build_config(_build_parser().parse_args(
            ["simulate", "--config", str(cfg), "--reps", "3"]))
        assert config.null_name == "student-t"
        assert config.n_list == [50, 100]
        assert config.cv_grid == [1.0, 2.0]
        assert config.grid_points == 7  # a key of another command is accepted
        assert config.fitted_out == "f.csv"
        assert config.reps == 3
        for key in ("command", "config"):
            cfg.write_text(f"{key} = test\n")
            with pytest.raises(ValueError, match="unknown config key"):
                build_config(_build_parser().parse_args(["simulate", "--config", str(cfg)]))

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.1\n")
        with pytest.raises(DataFormatError):
            read_config_file(cfg)

    @pytest.mark.parametrize("line, cause", [
        ("alpha = abc", "could not convert string to float: 'abc'"),
        ("reps = 2.5", "invalid literal for int() with base 10: '2.5'"),
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, capsys, line, cause):
        cfg, err = tmp_path / "bad.cfg", tmp_path / "e.json"
        cfg.write_text(f"{line}\n")
        assert main(["simulate", "--config", str(cfg), "--error-json", str(err)]) == 1
        key = line.split(" = ")[0]
        message = f"{cfg}: config key {key!r}: {cause}"
        assert json.loads(err.read_text()) == {"error": "ValueError", "message": message}
        assert message in capsys.readouterr().err

    def test_byte_order_mark_is_accepted(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfalpha = 0.1\n")
        assert read_config_file(cfg) == {"alpha": "0.1"}
        config = build_config(_build_parser().parse_args(["simulate", "--config", str(cfg)]))
        assert config.alpha == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("bandwidth = 3\n")
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 1


class TestTestCommand:
    def test_report_schema_and_exports(self, tmp_path):
        rng = np.random.default_rng(406)
        data = generate(paper_model("normal", "uniform"), 120, rng)
        src = tmp_path / "d.csv"
        write_dataset_csv(data, src)
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        qq = tmp_path / "qq.csv"
        rc = main(["test", str(src), "--out", str(out),
                   "--trace-out", str(trace), "--qq-out", str(qq)])
        assert rc == 0
        report = json.loads(out.read_text())
        for key in ("schema_version", "statistic", "p_value", "log10_p_value",
                    "t0", "q_alpha", "alpha", "reject", "n", "sigma_hat",
                    "chosen_radius", "cv", "ks_diagnostic"):
            assert key in report
        assert "seed" not in report
        assert report["schema_version"] == 4
        assert report["n"] == 120
        assert len(qq.read_text().strip().splitlines()) == 121
        header, first = trace.read_text().splitlines()[:2]
        assert header == "t,xi"
        float(first.split(",")[1])  # parses

    def test_level_property_over_seeded_repeats(self, tmp_path):
        """On null data the test accepts in at least 90% of repeats."""
        model = paper_model("normal", "uniform")
        accepted = 0
        reps = 100
        src = tmp_path / "d.csv"
        out = tmp_path / "r.json"
        for rep in range(reps):
            rng = np.random.default_rng([500, rep])
            write_dataset_csv(generate(model, 100, rng), src)
            rc = main(["test", str(src), "--alpha", "0.05", "--out", str(out)])
            assert rc == 0
            accepted += not json.loads(out.read_text())["reject"]
        assert accepted >= 90

    def test_gross_outlier_rejects(self, tmp_path):
        # the largest standardized residual is 44.5, where the Gaussian
        # density underflows to zero
        data = generate(paper_model("normal", "uniform"), 2000,
                        np.random.default_rng(0))
        data.y[0] += 400.0
        src = tmp_path / "d.csv"
        write_dataset_csv(data, src)
        out = tmp_path / "r.json"
        assert main(["test", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["reject"] is True

    def test_error_json_on_failure(self, tmp_path):
        err = tmp_path / "err.json"
        rc = main(["test", str(tmp_path / "missing.csv"),
                   "--error-json", str(err)])
        assert rc == 1
        assert "error" in json.loads(err.read_text())

    def test_missing_input_is_error(self):
        assert main(["test"]) == 1

    def test_unknown_null_is_error(self, tmp_path):
        src = tmp_path / "d.csv"
        rng = np.random.default_rng(410)
        write_dataset_csv(generate(paper_model("normal", "uniform"), 40, rng), src)
        assert main(["test", str(src), "--null", "pareto"]) == 1

    def test_laplace_is_not_a_null(self, tmp_path):
        # the Laplace tail information matrix is singular beyond the origin,
        # so it is offered only as an error law of the study, never as a null
        src = tmp_path / "d.csv"
        rng = np.random.default_rng(412)
        write_dataset_csv(generate(paper_model("laplace", "uniform"), 40, rng), src)
        err = tmp_path / "err.json"
        rc = main(["test", str(src), "--null", "laplace", "--error-json", str(err)])
        assert rc == 1
        payload = json.loads(err.read_text())
        assert payload["error"] == "ValueError"
        assert "gaussian, student-t" in payload["message"]

    def test_eleven_covariates_at_the_default_grid(self, tmp_path):
        # the default grid reaches radius 2, whose 11-dimensional cube of
        # 5**11 candidates was once refused although the ball holds 6,865
        rng = np.random.default_rng(416)
        x = rng.random((300, 11))
        y = np.cos(2.0 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(300)
        src, out = tmp_path / "d.csv", tmp_path / "r.json"
        write_dataset_csv(Dataset(x=x, y=y), src)
        assert main(["test", str(src), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n"] == 300
        assert [r for r, _ in report["cv"]["candidates"]] == [1.0, 2.0]
        assert isinstance(report["reject"], bool)

    def test_output_paths_checked_before_compute(self, tmp_path):
        src = tmp_path / "d.csv"
        rng = np.random.default_rng(411)
        write_dataset_csv(generate(paper_model("normal", "uniform"), 40, rng), src)
        rc = main(["test", str(src), "--out",
                   str(tmp_path / "no" / "such" / "dir" / "r.json")])
        assert rc == 1


class TestEstimateCommand:
    def test_exports(self, tmp_path):
        rng = np.random.default_rng(407)
        data = generate(paper_model("normal", "uniform"), 80, rng)
        src = tmp_path / "d.csv"
        write_dataset_csv(data, src)
        grid_out = tmp_path / "grid.csv"
        res_out = tmp_path / "res.csv"
        data_out = tmp_path / "data.csv"
        rc = main(["estimate", str(src), "--radius", "2",
                   "--grid-points", "5", "--out", str(grid_out),
                   "--residuals-out", str(res_out), "--data-out", str(data_out)])
        assert rc == 0
        grid_lines = grid_out.read_text().strip().splitlines()
        assert grid_lines[0] == "x1,x2,fitted"
        assert len(grid_lines) == 26  # 5x5 grid plus header
        res_lines = res_out.read_text().strip().splitlines()
        assert res_lines[0] == "x1,x2,y,fitted,residual,z"
        assert len(res_lines) == 81
        back = load_csv(data_out)
        assert_array_equal(back.x, data.x)
        assert_array_equal(back.y, data.y)


class TestSimulateCommand:
    def test_minimal_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "scenarios = normal\ndesign = uniform\nn = 40\nreps = 2\n"
            "seed = 12\ncv-grid = 1,2\n"
        )
        out = tmp_path / "table.csv"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header plus one row
        assert lines[1].startswith("normal,uniform,40,2,")

    def test_json_output(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["simulate", "--scenarios", "normal", "--n", "40",
                   "--reps", "2", "--seed", "1", "--cv-grid", "1",
                   "--json-out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["n"] == 40

    def test_all_failed_cell_writes_strict_json(self, tmp_path, capsys):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        out = tmp_path / "t.json"
        argv = ["simulate", "--scenarios", "normal", "--n", "30", "--reps", "3",
                "--cv-grid", "2500"]
        assert main(argv + ["--json-out", str(out)]) == 0
        assert main(argv) == 0
        for text in (out.read_text(), capsys.readouterr().out):
            row = json.loads(text, parse_constant=refuse)["rows"][0]
            assert row["failures"] == 3 and row["rate"] is None

    def test_laplace_errors_still_simulated(self):
        rc = main(["simulate", "--scenarios", "laplace", "--reps", "2",
                   "--n", "60"])
        assert rc == 0


class TestImageCommand:
    def test_end_to_end_poisson_image(self, tmp_path):
        model = paper_model("zero", "uniform")
        img = poisson_count_image(model, 32, np.random.default_rng(408), scale=40.0)
        path = tmp_path / "img.pgm"
        _write_pgm_p2(path, img, maxval=int(img.max()))
        out = tmp_path / "rep.json"
        qq = tmp_path / "qq.csv"
        recon = tmp_path / "recon.csv"
        rc = main(["image", str(path), "--size", "32", "--out", str(out),
                   "--qq-out", str(qq), "--fitted-out", str(recon)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n"] == 1024
        assert report["caveats"]  # grid-design caveat recorded
        assert len(qq.read_text().strip().splitlines()) == 1025
        recon_mat = np.loadtxt(recon, delimiter=",")
        assert recon_mat.shape == (32, 32)

    def test_exit_zero_for_both_outcomes(self, tmp_path):
        # decision direction must not leak into the exit status
        model = paper_model("laplace", "uniform")
        rng = np.random.default_rng(409)
        src = tmp_path / "d.csv"
        write_dataset_csv(generate(model, 300, rng), src)
        out = tmp_path / "r.json"
        rc = main(["test", str(src), "--out", str(out)])
        assert rc == 0


@pytest.mark.parametrize("null", ["gaussian", "student-t"])
def test_test_command_prints_nothing(tmp_path, capfd, null):
    # every output goes to a file, so the runs are silent: no warning, no
    # stray print on stdout or stderr, from this process or a pool worker
    rng = np.random.default_rng(413)
    src = tmp_path / "d.csv"
    write_dataset_csv(generate(paper_model("normal", "uniform"), 300, rng), src)
    test_argv = ["test", str(src), "--null", null, "--out", str(tmp_path / "r.json"),
                 "--trace-out", str(tmp_path / "t.csv"),
                 "--qq-out", str(tmp_path / "q.csv")]
    simulate_argv = ["simulate", "--n", "40", "--reps", "5", "--cv-grid", "1,2",
                     "--workers", "2", "--out", str(tmp_path / "s.csv"),
                     "--json-out", str(tmp_path / "s.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(test_argv) == 0
        assert main(simulate_argv) == 0
    assert capfd.readouterr() == ("", "")


def _paper_csv(path, scale=1.0):
    """The seed-0 n = 300 paper dataset with its responses times ``scale``."""
    data = generate(paper_model("normal", "uniform"), 300, np.random.default_rng(0))
    write_dataset_csv(Dataset(x=data.x, y=data.y * scale), path)
    return path


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e153, 1e155, 1e300])
def test_extreme_responses_keep_the_statistic(tmp_path, capsys, scale):
    # the test is scale-free in y; at 1e-14 the run once refused the fit as
    # numerically zero, at 1e153 it crashed writing an inf CV score, and at
    # 1e155 it refused the squared residuals as overflowing
    src = _paper_csv(tmp_path / "d.csv", scale)
    out = tmp_path / "r.json"
    assert main(["test", str(src), "--out", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["chosen_radius"] == 2.0
    assert report["statistic"] == pytest.approx(2.343133948772471, rel=1e-12)
    assert main(["estimate", str(src), "--out", str(tmp_path / "g.csv")]) == 0
    summary = _strict_json(capsys.readouterr().out)
    assert summary["chosen_radius"] == 2.0
    assert summary["sigma_hat"] == pytest.approx(report["sigma_hat"], rel=0.0)


_JSON_RUNS = {
    "test": (["test", "{csv}", "--out", "{out}"], 0, "out"),
    "image": (["image", "{img}", "--size", "16", "--out", "{out}"], 0, "out"),
    "estimate": (["estimate", "{csv}", "--out", "{dir}/g.csv"], 0, "stdout"),
    "simulate": (["simulate", "--n", "2,30", "--reps", "2", "--cv-grid", "1,2",
                  "--json-out", "{out}"], 0, "out"),
    "simulate-stdout": (["simulate", "--n", "2", "--reps", "2"], 0, "stdout"),
    "failure": (["test", "{csv}", "--cv-grid", "2500", "--error-json", "{out}"], 1, "out"),
}


@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e153, 1e155])
@pytest.mark.parametrize("run_name", list(_JSON_RUNS))
def test_every_json_record_is_strict(tmp_path, capsys, run_name, scale):
    # every record goes through one writer that refuses NaN and Infinity;
    # the n = 2 simulate cell fails in every repetition, so its rate is null
    argv, status, where = _JSON_RUNS[run_name]
    csv, out = _paper_csv(tmp_path / "d.csv", scale), tmp_path / "r.json"
    image = poisson_count_image(paper_model("normal", "uniform"), 16,
                                np.random.default_rng(3), scale=40.0)
    np.savetxt(tmp_path / "img.csv", image * scale, delimiter=",")
    argv = [a.format(csv=csv, out=out, img=tmp_path / "img.csv", dir=tmp_path)
            for a in argv]
    assert main(argv) == status
    record = _strict_json(out.read_text() if where == "out" else capsys.readouterr().out)
    if run_name.startswith("simulate"):
        assert record["rows"][0]["failures"] == 2 and record["rows"][0]["rate"] is None
    if run_name == "failure":
        assert record["error"] == "LatticeCapError"


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_main_calls_in_a_row_match_separate_calls(tmp_path, capsys):
    # the one parser carries nothing from a call into the next: a flag set
    # in one call and left out in the next reads as on a freshly built parser
    src = _paper_csv(tmp_path / "d.csv")
    out, grid = str(tmp_path / "r.json"), str(tmp_path / "g.csv")
    runs = [
        ["test", str(src), "--null", "student-t", "--alpha", "0.1", "--cv-grid", "1,2",
         "--out", out],
        ["test", str(src), "--out", out],
        ["estimate", str(src), "--radius", "2", "--grid-points", "5", "--out", grid],
        ["estimate", str(src), "--out", grid],
        ["simulate", "--n", "30", "--reps", "2", "--cv-grid", "1,2", "--seed", "3"],
        ["test", str(src), "--out", out],
    ]

    def results(fresh):
        for argv in runs:
            if fresh:
                _build_parser.cache_clear()
            config = build_config(_build_parser().parse_args(argv))
            assert main(argv) == 0
            files = [p for p in map(Path, (out, grid)) if p.exists()]
            written = [(p.name, p.read_bytes()) for p in files]
            for p in files:
                p.unlink()
            yield config, written, capsys.readouterr().out

    in_a_row = list(results(fresh=False))
    for expected, got in zip(results(fresh=True), in_a_row):
        assert got == expected


def test_scan_grid_is_not_an_option(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scan_grid = 4096\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "unknown config key 'scan_grid'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["simulate", "--scan-grid", "4096"])


@pytest.mark.parametrize("argv", [
    ["estimate", "d.csv", "--alpha", "0.1"],
    ["estimate", "d.csv", "--seed", "3"],
    ["test", "d.csv", "--seed", "3"],
    ["image", "i.pgm", "--seed", "3"],
    ["simulate", "--null", "student-t"],
    # the density clamp is a fixed constant, not an option
    ["test", "d.csv", "--floor", "0.05"],
    ["estimate", "d.csv", "--floor", "0.05"],
    ["simulate", "--floor", "0.05"],
    ["image", "i.pgm", "--floor", "0.05"],
])
def test_flag_a_command_does_not_read_is_refused(capsys, argv):
    # simulate always tests the Gaussian null, estimate decides nothing and
    # only simulate draws at random, so these flags would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["test", "estimate", "simulate", "image"])
def test_config_file_keys_load_for_every_command(tmp_path, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("null = student-t\nalpha = 0.1\nseed = 7\n")
    config = build_config(_build_parser().parse_args([command, "--config", str(cfg)]))
    assert (config.null_name, config.alpha, config.seed) == ("student-t", 0.1, 7)


def test_radius_config_key_leaves_test_cross_validating(tmp_path):
    # only estimate has --radius; a shared config file's radius once made
    # test skip cross-validation and report radius 1 with "cv": null
    src = tmp_path / "d.csv"
    write_dataset_csv(generate(paper_model("normal", "uniform"), 300,
                               np.random.default_rng(0)), src)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("radius = 1\n")
    plain, with_cfg = tmp_path / "plain.json", tmp_path / "cfg.json"
    assert main(["test", str(src), "--out", str(plain)]) == 0
    assert main(["test", str(src), "--config", str(cfg), "--out", str(with_cfg)]) == 0
    expected, report = (json.loads(p.read_text()) for p in (plain, with_cfg))
    assert expected["chosen_radius"] == 2.0
    assert (report["chosen_radius"], report["cv"]) == (expected["chosen_radius"],
                                                       expected["cv"])


@pytest.mark.parametrize("command", ["test", "estimate"])
def test_empty_cv_grid_is_refused(tmp_path, capsys, command):
    src = tmp_path / "d.csv"
    write_dataset_csv(generate(paper_model("normal", "uniform"), 200,
                               np.random.default_rng(418)), src)
    assert main([command, str(src), "--cv-grid", ",",
                 "--out", str(tmp_path / "out")]) == 1
    assert "candidate radius grid is empty" in capsys.readouterr().err


def _read_csv_columns(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(c) for c in r.split(",")] for r in rows])


def test_exports_parse_back_bit_for_bit(tmp_path):
    src = tmp_path / "d.csv"
    write_dataset_csv(generate(paper_model("normal", "uniform"), 150,
                               np.random.default_rng(419)), src)
    trace_out, qq_out, res_out = (tmp_path / f"{k}.csv" for k in ("trace", "qq", "res"))
    assert main(["test", str(src), "--null", "student-t", "--out", str(tmp_path / "r.json"),
                 "--trace-out", str(trace_out), "--qq-out", str(qq_out)]) == 0
    assert main(["estimate", str(src), "--out", str(tmp_path / "grid.csv"),
                 "--residuals-out", str(res_out)]) == 0

    data = load_csv(src)
    _, fitted = select_and_fit(data, default_radius_grid(data.n, data.m))
    null = get_null("student-t")
    trace = decide(fitted, null, 0.05).trace
    quantiles = null.quantile((np.arange(1, data.n + 1) - 0.5) / data.n)

    def same_bits(column, expected):
        assert column.tobytes() == np.asarray(expected, dtype=float).tobytes()

    header, cols = _read_csv_columns(trace_out)
    assert header == ["t", "xi"]
    same_bits(cols[:, 0], trace.eval_points)
    same_bits(cols[:, 1], trace.values)
    header, cols = _read_csv_columns(qq_out)
    assert header == ["z_sorted", "null_quantile"]
    same_bits(cols[:, 0], np.sort(fitted.z))
    same_bits(cols[:, 1], quantiles)
    header, cols = _read_csv_columns(res_out)
    assert header == ["x1", "x2", "y", "fitted", "residual", "z"]
    same_bits(cols[:, 4], fitted.residuals)
    same_bits(cols[:, 5], fitted.z)


def test_run_config_validates_alpha():
    with pytest.raises(ValueError):
        RunConfig(command="test", alpha=1.2)


def test_run_rejects_unknown_input(tmp_path):
    cfg = RunConfig(command="test", input=str(tmp_path / "nope.csv"))
    assert run(cfg) == 1


def test_unwritable_error_record_is_reported(tmp_path, capsys):
    # the error record cannot go into the missing directory either; the
    # run says so on stderr instead of raising
    src = tmp_path / "d.csv"
    write_dataset_csv(generate(paper_model("normal", "uniform"), 40,
                               np.random.default_rng(414)), src)
    missing = tmp_path / "no" / "dir"
    rc = main(["test", str(src), "--out", str(missing / "r.json"),
               "--error-json", str(missing / "e.json")])
    assert rc == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert "output directory does not exist" in stderr
    assert "cannot write the error record" in stderr
    assert not missing.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", "{cfg}"], "unknown config key 'bandwidth'"),
    (["test", "{csv}", "--alpha", "2"], "alpha must lie in (0, 1)"),
    # an infinite radius once escaped as a bare OverflowError traceback
    (["test", "{csv}", "--cv-grid", "1,inf"], "radius must be positive and finite, got inf"),
    (["estimate", "{csv}", "--radius", "inf"], "radius must be positive and finite, got inf"),
    (["simulate", "--n", "30", "--reps", "1", "--cv-grid", "inf"],
     "radius must be positive and finite, got inf"),
    # an empty study once exited 0 with no rows
    (["simulate", "--n", ""], "at least one scenario and one sample size"),
    (["simulate", "--scenarios", ","], "at least one scenario and one sample size"),
    # the density clamp is a fixed constant, not a config key
    (["test", "{csv}", "--config", "{floor_cfg}"], "unknown config key 'floor'"),
    (["estimate", "{csv}", "--config", "{floor_cfg}"], "unknown config key 'floor'"),
    (["simulate", "--n", "30", "--reps", "1", "--workers", "0"],
     "workers must be at least 1, got 0"),
    (["simulate", "--n", "30", "--reps", "1", "--workers", "-2"],
     "workers must be at least 1, got -2"),
    # 0 once wrote a header-only grid, -3 failed in numpy naming no flag
    (["estimate", "{csv}", "--grid-points", "0"], "--grid-points must be positive, got 0"),
    (["estimate", "{csv}", "--grid-points", "-3"], "--grid-points must be positive, got -3"),
    # once an uncaught numpy allocation error of 74.5 GiB, with no error record
    (["estimate", "{csv}", "--grid-points", "100000"], "--grid-points 100000 with m=2"),
])
def test_configuration_errors_write_error_record(tmp_path, capsys, argv, message):
    cfg, csv, err = tmp_path / "bad.cfg", tmp_path / "d.csv", tmp_path / "e.json"
    cfg.write_text("bandwidth = 3\n")
    floor_cfg = tmp_path / "floor.cfg"
    floor_cfg.write_text("floor = 0.05\n")
    write_dataset_csv(generate(paper_model("normal", "uniform"), 40,
                               np.random.default_rng(415)), csv)
    argv = [a.format(cfg=cfg, floor_cfg=floor_cfg, csv=csv) for a in argv]
    argv += ["--error-json", str(err)]
    assert main(argv) == 1
    record = json.loads(err.read_text())
    assert record["error"] == "ValueError" and message in record["message"]
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and message in stderr


@pytest.mark.parametrize("usage", [["--bogus"], ["--alpha", "abc"]])
def test_usage_errors_exit_2_with_no_error_record(tmp_path, capsys, usage):
    # argparse refuses the command line before any configuration is built
    err = tmp_path / "e.json"
    with pytest.raises(SystemExit) as exc:
        main(["test", str(tmp_path / "d.csv"), *usage, "--error-json", str(err)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not err.exists()
