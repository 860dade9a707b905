import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccdrobust
from ccdrobust import criteria, linalg, verify
from ccdrobust.cli import main
from ccdrobust.criteria import information_inverse
from ccdrobust.design import PointClass, gen_ccd
from ccdrobust.fixtures import LOSS_TABLES
from ccdrobust.missing import delete_rows
from ccdrobust.svgplot import line_chart
from ccdrobust.verify import (
    _truncate,
    calibrate_v_region,
    paper_loss,
    resolve_spv_scale,
    verify_table,
)


class TestGenerate:
    def test_stdout_csv(self, capsys):
        assert main(["generate", "--k", "2", "--alpha", "1.414", "--n0", "4"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 13  # header + 12 runs

    def test_k3_rotatable(self, capsys):
        assert main(["generate", "--k", "3", "--alpha", "1.681", "--n0", "4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 19

    def test_invalid_k_exits_nonzero(self, capsys):
        assert main(["generate", "--k", "1", "--alpha", "1.0", "--n0", "4"]) == 1

    def test_huge_k_refused_before_allocating(self, capsys):
        # 2^40 factorial runs: refused by the k bound, nothing is built
        assert main(["generate", "--k", "40", "--alpha", "1.0"]) == 1
        assert "k must be in [2, 12], got 40" in capsys.readouterr().err

    def test_missing_alpha(self):
        assert main(["generate", "--k", "2", "--n0", "4"]) == 1

    def test_out_file(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["generate", "--k", "2", "--alpha", "1.0", "--n0", "4",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "x1,x2,class"


class TestSweep:
    def test_writes_all_outputs(self, tmp_path):
        assert main(["sweep", "--k", "2", "--alphas", "1.0,1.5",
                     "--out", str(tmp_path)]) == 0
        for name in ("loss_k2.csv", "loss_k2_long.csv", "criteria_k2.csv",
                     "criteria_k2.json"):
            assert (tmp_path / name).exists()
        import json
        reports = json.loads((tmp_path / "criteria_k2.json").read_text())
        assert [r["alpha"] for r in reports] == [1.0, 1.5]
        assert reports[0]["a_trace"] == pytest.approx(1.5416, abs=2e-4)
        rows = list(csv.DictReader(io.StringIO(
            (tmp_path / "loss_k2.csv").read_text())))
        assert len(rows) == 2
        assert float(rows[0]["a_full"]) == pytest.approx(1.5416, abs=2e-4)
        assert float(rows[0]["loss_factorial"]) == pytest.approx(0.47027, abs=1e-4)

    def test_single_alpha_single_row(self, tmp_path):
        assert main(["sweep", "--k", "3", "--alphas", "2.0",
                     "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(io.StringIO(
            (tmp_path / "loss_k3.csv").read_text())))
        assert len(rows) == 1

    def test_k_above_bound_writes_nothing(self, tmp_path, capsys):
        assert main(["sweep", "--k", "13", "--alphas", "1",
                     "--out", str(tmp_path)]) == 1
        assert "k must be in [2, 12], got 13" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_one_inversion_per_distinct_design(self, tmp_path, invert_calls):
        # 8 alphas x (full design + 3 single-deletion residuals); the
        # criteria rows reuse the sweep's full designs
        assert main(["sweep", "--k", "3", "--out", str(tmp_path)]) == 0
        assert invert_calls[0] == 32

    def test_one_grid_search_per_distinct_design(self, tmp_path, monkeypatch):
        # the criteria rows reuse the G search the sweep made of each full
        # design: 8 alphas x 4 designs, not 8 x 5
        calls = [0]
        real = criteria._grid_chunks

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, "_grid_chunks", counting)
        assert main(["sweep", "--k", "3", "--grid-step", "0.5",
                     "--out", str(tmp_path)]) == 0
        assert calls[0] == 32

    @pytest.mark.parametrize("command", [["sweep"], ["plot", "--metric", "loss"]])
    def test_inestimable_full_design_exits_3_naming_alpha(self, command, tmp_path,
                                                          capsys):
        assert main(command + ["--k", "2", "--alphas", "1e-6,1",
                               "--out", str(tmp_path)]) == 3
        assert ("numeric failure: the full design at alpha=1e-06 is inestimable"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_spv_scale_option_is_gone(self, tmp_path, capsys):
        assert main(["sweep", "--k", "2", "--alphas", "1", "--spv-scale", "full",
                     "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --spv-scale" in capsys.readouterr().err
        cfg = tmp_path / "scale.cfg"
        cfg.write_text("spv-scale=residual\n")
        assert main(["--config", str(cfg), "sweep", "--k", "2", "--alphas", "1",
                     "--out", str(tmp_path)]) == 1
        assert "unknown keys ['spv_scale']" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_descending_alphas_rejected(self, tmp_path):
        assert main(["sweep", "--k", "2", "--alphas", "2.0,1.0",
                     "--out", str(tmp_path)]) == 1

    def test_absurd_grid_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--k", "5", "--grid-step", "0.001",
                     "--out", str(tmp_path)]) == 1
        assert "use a coarser grid step" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, 6])
    def test_no_default_alpha_grid(self, k, tmp_path, capsys):
        assert main(["sweep", "--k", str(k), "--out", str(tmp_path)]) == 1
        assert (f"no default alpha grid for k={k}; pass --alphas"
                in capsys.readouterr().err)

    @given(flag=st.sampled_from(["--alpha", "--alphas", "--region-size",
                                 "--grid-step"]),
           bad=st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]),
           finite=st.lists(st.floats(0.5, 3.0), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_non_finite_flag_exits_1_naming_it(self, flag, bad, finite):
        # rejected while parsing: the linear algebra is never reached
        value = ",".join([repr(a) for a in finite] + [bad]) if flag == "--alphas" else bad
        err = io.StringIO()
        with (contextlib.redirect_stderr(err),
              mock.patch.object(linalg, "invert", side_effect=AssertionError)):
            assert main(["sweep", "--k", "2", f"{flag}={value}"]) == 1
        assert f"argument {flag}: expected a finite number" in err.getvalue()

    def test_long_csv_round_trip(self, tmp_path):
        assert main(["sweep", "--k", "2", "--alphas", "1.0,2.0",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "loss_k2_long.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for row in rows:
            w.writerow(row)
        assert buf.getvalue() == text


class TestVerify:
    def test_single_table(self, capsys):
        main(["verify", "1b"])
        out = capsys.readouterr().out
        assert "V-region calibration: cuboidal(1)" in out
        assert "resolved to: residual" in out

    def test_unknown_table(self, capsys):
        assert main(["verify", "bogus"]) == 1

    def test_gated_summary(self, capsys):
        # pinned: 75 exact loss cells and 5 SPV cells fail; a change to
        # which cells pass must show here
        assert main(["verify"]) == 2
        assert "gated cells: 384/464 pass" in capsys.readouterr().out.splitlines()

    def test_one_inversion_per_distinct_design(self, invert_calls, capsys):
        # 26 full fixture designs and 78 residuals, shared by the loss and
        # SPV tables, the calibration and the scale resolution
        verify._fixture_design.cache_clear()
        assert main(["verify"]) == 2
        assert invert_calls[0] == 104

    def test_table_4a_a_trace_cells(self):
        checks = verify_table("4a")
        a_cells = [c for c in checks if c.column == "a_trace"]
        assert len(a_cells) == 7
        assert all(c.passed for c in a_cells)

    def test_spv_tables_pass_rate(self):
        # probe cells reproduce to printed precision except documented rows
        checks = [c for c in verify_table("3b") + verify_table("4b") if c.gated]
        assert all(c.passed for c in checks)


class TestPaperLoss:
    def test_truncation_at_digit_boundary(self):
        # deleting a center run of the k=4, alpha=2 CCD leaves an A-trace
        # of exactly 17/16; a reordered sum may land one ulp below it
        full = gen_ccd(4, 2.0, 4)
        res = delete_rows(full, [full.rows_of_class(PointClass.CENTER)[0]])
        a_full = linalg.trace(information_inverse(full))
        a_res = linalg.trace(information_inverse(res))
        assert a_res == pytest.approx(17 / 16, abs=1e-12)
        below = math.nextafter(17 / 16, 0.0)
        assert _truncate(below) == _truncate(17 / 16) == 1.0625
        assert paper_loss(a_full, below) == paper_loss(a_full, 17 / 16)
        assert paper_loss(a_full, a_res) == pytest.approx(0.108734, abs=1.5e-6)

    def test_all_loss_cells_pass_ungated(self):
        checks = [c for tid in sorted(LOSS_TABLES) for c in verify_table(tid)
                  if c.column.endswith("[paper-trunc4]")]
        assert len(checks) == 78
        assert not any(c.gated for c in checks)
        assert all(c.passed for c in checks)


class TestCalibration:
    def test_verdict_is_unit_cube(self):
        cal = calibrate_v_region()
        assert cal.verdict == "cuboidal(1)"
        assert cal.max_rel_error["cuboidal(1)"] < 0.02
        # every other candidate misses by far more
        assert all(err > 0.05 for name, err in cal.max_rel_error.items()
                   if name != "cuboidal(1)")

    def test_scale_resolution(self):
        choice, devs = resolve_spv_scale()
        assert choice == "residual"
        assert devs["residual"] < devs["full"]


class TestPlot:
    def test_svg_and_csv(self, tmp_path):
        assert main(["plot", "--k", "2", "--metric", "loss",
                     "--alphas", "1.0,1.414,2.0", "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "loss_k2.svg").read_text()
        assert svg.startswith("<?xml") and "</svg>" in svg
        assert "missing factorial" in svg
        assert (tmp_path / "loss_k2_long.csv").exists()

    def test_invalid_metric(self, capsys):
        with pytest.raises(SystemExit):
            # argparse rejects the choice before dispatch
            import argparse  # noqa: F401
            from ccdrobust.cli import _build_parser
            parser, _ = _build_parser()
            parser.parse_args(["plot", "--metric", "bogus"])

    def test_empty_alpha_grid(self, tmp_path):
        assert main(["plot", "--k", "2", "--metric", "loss", "--alphas", "",
                     "--out", str(tmp_path)]) == 1

    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["plot", "--k", "3", "--metric", "re_v",
                         "--alphas", "1.0,2.0,3.0", "--out", str(d)]) == 0
        assert (d1 / "re_v_k3.svg").read_bytes() == (d2 / "re_v_k3.svg").read_bytes()
        assert ((d1 / "re_v_k3_long.csv").read_bytes()
                == (d2 / "re_v_k3_long.csv").read_bytes())


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=3\nalpha=1.5\nn0=2\n")
        assert main(["--config", str(cfg), "generate"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 17  # header + 16
        assert main(["--config", str(cfg), "generate", "--k", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 11

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value line\n")
        assert main(["--config", str(cfg), "generate", "--k", "2",
                     "--alpha", "1.0"]) == 1

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate=1\n")
        assert main(["--config", str(cfg), "generate", "--k", "2",
                     "--alpha", "1.0"]) == 1

    def test_seed_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=0\n")
        assert main(["--config", str(cfg), "sweep", "--k", "2",
                     "--alphas", "1.0", "--out", str(tmp_path)]) == 1
        assert "unknown keys ['seed']" in capsys.readouterr().err

    def test_config_alphas_typed_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=3\nalphas=1.0, 2.0\nmetric=loss\n")
        assert main(["--config", str(cfg), "sweep", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(io.StringIO(
            (tmp_path / "loss_k3.csv").read_text())))
        assert [float(r["alpha"]) for r in rows] == [1.0, 2.0]
        cfg.write_text("alphas=1.0,nan\n")
        assert main(["--config", str(cfg), "sweep", "--out", str(tmp_path)]) == 1
        assert "argument --alphas" in capsys.readouterr().err


class TestSvgChart:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            line_chart([], "t", "x", "y")

    def test_deterministic_string(self):
        series = [("a", [1.0, 2.0], [0.1, 0.4]), ("b", [1.0, 2.0], [0.3, 0.2])]
        assert (line_chart(series, "t", "x", "y")
                == line_chart(series, "t", "x", "y"))


def test_cli_loads_no_scipy(tmp_path):
    src = str(Path(ccdrobust.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "from ccdrobust.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['sweep', '--k', '3', '--out', {str(tmp_path)!r}]) == 0\n"
        "    assert main(['verify']) == 2\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
