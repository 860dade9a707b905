import argparse
import csv
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

import ccdrobust
from ccdrobust import cli, criteria, linalg, missing, verify
from ccdrobust.cli import main
from ccdrobust.criteria import a_trace
from ccdrobust.design import PointClass, gen_ccd
from ccdrobust.fixtures import ANNOTATIONS, LOSS_TABLES
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


@pytest.mark.parametrize("command", [
    ["generate", "--alpha", "1", "--out", "{file}/d.csv"],
    ["sweep", "--alphas", "1", "--out", "{file}"],
    ["plot", "--metric", "loss", "--alphas", "1", "--out", "{file}"],
], ids=["generate", "sweep", "plot"])
def test_out_under_existing_file_exits_1_naming_it(command, tmp_path, monkeypatch,
                                                   capsys):
    file = tmp_path / "taken"
    file.write_text("kept\n")
    # the path is refused before any sweep runs
    for module in (missing, cli):  # every namespace that binds it
        monkeypatch.setattr(module, "scenario_sweep", mock.Mock(side_effect=AssertionError))
    argv = [arg.format(file=file) for arg in command]
    assert main(argv[:1] + ["--k", "2"] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(file) in err
    assert file.read_text() == "kept\n"


_REJECTED_SWEEPS = [
    (["--grid-step", "-1"], "grid_step must be finite and > 0, got -1.0"),
    (["--k", "5", "--grid-step", "0.001"], "use a coarser grid step"),
    (["--n0", "0"], "n0 must be in [1, 10000], got 0"),
    (["--n0", "10001"], "n0 must be in [1, 10000], got 10001"),
    (["--k", "13", "--alphas", "1"], "k must be in [2, 12], got 13"),
    (["--k", "1", "--alphas", "1"], "k must be in [2, 12], got 1"),
    (["--alphas", "0,1"], "alpha must be finite and > 0, got 0.0"),
    (["--alphas", "1,1"], "alphas must be ascending, each given once"),
]


@pytest.mark.parametrize("command", [["sweep"], ["plot", "--metric", "loss"]],
                         ids=["sweep", "plot"])
@pytest.mark.parametrize("args, message", _REJECTED_SWEEPS,
                         ids=[" ".join(args) for args, _ in _REJECTED_SWEEPS])
def test_rejected_sweep_creates_no_out_directory(command, args, message, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    assert main(command + args + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep"], ["plot", "--metric", "loss"]],
                         ids=["sweep", "plot"])
@pytest.mark.parametrize("n0", ["1000000000000", "1000000000000000000000000000000"])
def test_huge_n0_refused_before_anything_is_allocated(command, n0, tmp_path, monkeypatch,
                                                      capsys):
    out = tmp_path / "out"
    monkeypatch.setattr(linalg, "invert", mock.Mock(side_effect=AssertionError))
    assert main(command + ["--k", "2", "--n0", n0, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: n0 must be in [1, 10000], got {n0}"]
    assert not out.exists()


# The name the library's messages give the value of each real-valued option.
_NAMES = {"--alpha": "alpha", "--alphas": "alpha", "--region-size": "region size",
          "--grid-step": "grid_step"}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", [
    (["generate"], "alpha"), (["sweep"], "alphas"), (["sweep"], "region-size"),
    (["sweep"], "grid-step"), (["plot", "--metric", "re_g"], "alphas"),
    (["plot", "--metric", "re_g"], "grid-step"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_config_value_exits_1_naming_it(command, key, bad, tmp_path,
                                                   monkeypatch, capsys):
    # refused as the same flag is, before --out is created or anything inverted
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={bad}\n")
    out = tmp_path / "out"
    monkeypatch.setattr(linalg, "invert", mock.Mock(side_effect=AssertionError))
    assert main(["--config", str(cfg)] + command + ["--k", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {_NAMES['--' + key]} must be finite and > 0, got {float(bad)}"]
    assert not out.exists()


_OVERFLOWING_REGIONS = [
    (["--region-size", "1e77"], "region size 1e+77 is too large: its moments overflow"),
    (["--region-size", "1e100"], "region size 1e+100 is too large: its moments overflow"),
    (["--region", "sphere", "--region-size", "1e100"],
     "region size 1e+100 is too large: its moments overflow"),
    (["--k", "12", "--region-size", "3e76"], "V over the region of size 3e+76 is not finite"),
]


@pytest.mark.parametrize("command", [["sweep"], ["plot", "--metric", "re_v"]],
                         ids=["sweep", "plot"])
@pytest.mark.parametrize("args, message", _OVERFLOWING_REGIONS,
                         ids=[" ".join(args) for args, _ in _OVERFLOWING_REGIONS])
def test_overflowing_region_exits_1_naming_its_size(command, args, message, tmp_path,
                                                    monkeypatch, capsys):
    # was an OverflowError traceback, or at 1e77 exit 0 with V cells nan and inf
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command + ["--alphas", "1"] + args) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


_IGNORED_FLAGS = [
    ("generate", "--region", "sphere"), ("generate", "--region-size", "2"),
    ("generate", "--grid-step", "0.5"), ("verify", "--k", "9"),
    ("verify", "--n0", "0"), ("verify", "--alpha", "1"),
    ("verify", "--alphas", "5,1"), ("verify", "--region", "cube"),
    ("verify", "--region-size", "2"), ("verify", "--grid-step", "1e-6"),
]


@pytest.mark.parametrize("command, flag, value", _IGNORED_FLAGS,
                         ids=[f"{c} {f}" for c, f, _ in _IGNORED_FLAGS])
def test_flag_a_command_ignores_exits_1(command, flag, value, capsys):
    # each of these was accepted and never read
    needed = {"generate": ["--alpha", "1"], "verify": ["1b"]}[command]
    assert main([command] + needed + [flag, value]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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
        # 8 alphas x (full design + 3 single-deletion residuals) in the
        # sweep, then each alpha's criteria row from a fresh full design
        assert main(["sweep", "--k", "3", "--out", str(tmp_path)]) == 0
        assert invert_calls[0] == 8 * 4 + 8

    def test_one_grid_search_per_distinct_design(self, tmp_path, monkeypatch):
        # 8 alphas x 4 designs in the sweep, then each alpha's criteria row
        # searches a fresh full design: 8 x 5; counted per search, as the
        # grid domain itself is built once (TestGridCache)
        calls = [0]
        real = criteria._grid_models

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, "_grid_models", counting)
        assert main(["sweep", "--k", "3", "--grid-step", "0.5",
                     "--out", str(tmp_path)]) == 0
        assert calls[0] == 8 * 5

    @pytest.mark.parametrize("region", ["cube", "sphere"])
    @pytest.mark.parametrize("n0", [1, 4])
    def test_criteria_rows_are_each_full_designs_report(self, region, n0, tmp_path):
        assert main(["sweep", "--k", "3", "--n0", str(n0), "--region", region,
                     "--grid-step", "0.25", "--out", str(tmp_path)]) == 0
        if region == "cube":
            where = criteria.Region(criteria.RegionShape.CUBOIDAL, 1.0)
        else:
            where = criteria.Region(criteria.RegionShape.SPHERICAL, math.sqrt(3))
        rows = list(csv.DictReader(io.StringIO((tmp_path / "criteria_k3.csv").read_text())))
        assert [float(row["alpha"]) for row in rows] == cli.DEFAULT_ALPHAS[3]
        for row in rows:
            want = criteria.criteria_report(gen_ccd(3, float(row["alpha"]), n0),
                                            where, 0.25).as_dict()
            assert list(row) == list(want)
            for field, value in want.items():
                assert row[field] == (repr(value) if isinstance(value, float) else value), field

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

    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("flag, finite", [
        ("--alpha", ""), ("--alphas", ""), ("--alphas", "1.0,"), ("--alphas", "3.0,0.5,1.7,"),
        ("--region-size", ""), ("--grid-step", ""),
    ])
    def test_non_finite_flag_exits_1_naming_it(self, flag, finite, bad, tmp_path, monkeypatch,
                                               capsys):
        # refused by the library's rule before --out is created: the linear
        # algebra is never reached; after a descending prefix, before the
        # order check
        monkeypatch.setattr(linalg, "invert", mock.Mock(side_effect=AssertionError))
        out = tmp_path / "out"
        assert main(["sweep", "--k", "2", f"{flag}={finite}{bad}", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {_NAMES[flag]} must be finite and > 0, got {float(bad)}"]

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

    def test_prints_each_annotation(self, capsys):
        main(["verify", "1b"])
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  note: ")]
        assert notes == [f"  note: {t}/{a}/{m}: {text}" for t, a, m, text in ANNOTATIONS]

    def test_repeated_table_checked_once(self, capsys):
        assert main(["verify", "1b", "1b"]) == 2
        assert "gated cells: 78/80 pass" in capsys.readouterr().out.splitlines()

    def test_out_accepted_and_left_empty(self, tmp_path, capsys):
        assert main(["verify", "1b", "--out", str(tmp_path)]) == 2
        assert "gated cells: 78/80 pass" in capsys.readouterr().out.splitlines()
        assert list(tmp_path.iterdir()) == []

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
        a_full, a_res = a_trace(full), a_trace(res)
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
        assert list(cal.max_rel_error) == ["cuboidal(1)", "cuboidal(alpha)",
                                           "spherical(1)", "spherical(alpha)"]
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

    def test_config_supplies_required_metric(self, tmp_path):
        cfg = tmp_path / "plot.cfg"
        cfg.write_text("metric=re_g\nalphas=1.0,2.0\n")
        assert main(["--config", str(cfg), "plot", "--k", "2",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "re_g_k2.svg").exists()

    def test_config_choice_checked_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "plot.cfg"
        cfg.write_text("region=ball\n")
        assert main(["--config", str(cfg), "sweep", "--k", "2", "--alphas", "1",
                     "--out", str(tmp_path)]) == 1
        assert ("config error: region must be one of ['cube', 'sphere'], "
                "got 'ball'" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_tables_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("tables=1b\n")
        assert main(["--config", str(cfg), "verify"]) == 1
        assert "unknown keys ['tables']" in capsys.readouterr().err

    def test_config_alphas_typed_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=3\nalphas=1.0, 2.0\nmetric=loss\n")
        assert main(["--config", str(cfg), "sweep", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(io.StringIO(
            (tmp_path / "loss_k3.csv").read_text())))
        assert [float(r["alpha"]) for r in rows] == [1.0, 2.0]
        cfg.write_text("alphas=1.0,nan\n")
        capsys.readouterr()
        with mock.patch.object(linalg, "invert", side_effect=AssertionError):
            assert main(["--config", str(cfg), "sweep", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: alpha must be finite and > 0, got nan"]


def _swept_alphas(out):
    """The alphas of the long CSV that `sweep` and `plot --metric loss` write."""
    rows = csv.DictReader(io.StringIO((out / "loss_k2_long.csv").read_text()))
    return sorted({float(r["alpha"]) for r in rows})


_ALPHA_COMMANDS = {"sweep": ["sweep", "--k", "2"],
                   "plot": ["plot", "--k", "2", "--metric", "loss"]}


class TestAlphaPrecedence:
    @pytest.mark.parametrize("command", list(_ALPHA_COMMANDS))
    def test_alpha_is_alphas_and_the_last_one_wins(self, command, tmp_path):
        # --alpha is argparse's prefix of --alphas, repeated like --k 2 --k 3
        assert main(_ALPHA_COMMANDS[command] + ["--alpha", "2", "--alphas", "1,1.5",
                                                "--out", str(tmp_path)]) == 0
        assert _swept_alphas(tmp_path) == [1.0, 1.5]

    @pytest.mark.parametrize("command", list(_ALPHA_COMMANDS))
    def test_config_repeated_alpha_exits_1(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphas=1,1\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg)] + _ALPHA_COMMANDS[command]
                    + ["--out", str(out)]) == 1
        assert "alphas must be ascending, each given once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_ALPHA_COMMANDS))
    @pytest.mark.parametrize("config", ["alphas=1,2", "alpha=2", "alpha=2\nalphas=1,2"])
    @pytest.mark.parametrize("flags,want", [(["--alpha", "3"], [3.0]),
                                            (["--alphas", "1.5,3"], [1.5, 3.0])])
    def test_explicit_flag_overrides_both_config_keys(self, command, config, flags,
                                                      want, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        assert main(["--config", str(cfg)] + _ALPHA_COMMANDS[command] + flags
                    + ["--out", str(tmp_path)]) == 0
        assert _swept_alphas(tmp_path) == want

    @pytest.mark.parametrize("command", list(_ALPHA_COMMANDS))
    def test_config_with_both_keys_sweeps_its_alphas(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=3\nalphas=1,2\n")
        assert main(["--config", str(cfg)] + _ALPHA_COMMANDS[command]
                    + ["--out", str(tmp_path)]) == 0
        assert _swept_alphas(tmp_path) == [1.0, 2.0]

    @pytest.mark.parametrize("command", list(_ALPHA_COMMANDS))
    def test_config_alpha_alone_is_ignored(self, command, tmp_path):
        # alpha= is generate's key; sweep and plot read alphas= or the default grid
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=3\n")
        assert main(["--config", str(cfg)] + _ALPHA_COMMANDS[command]
                    + ["--out", str(tmp_path)]) == 0
        assert _swept_alphas(tmp_path) == cli.DEFAULT_ALPHAS[2]


class TestDefaultAlphas:
    def test_one_ascending_grid_per_table_k(self):
        assert sorted(cli.DEFAULT_ALPHAS) == [2, 3, 4, 5]
        for alphas in cli.DEFAULT_ALPHAS.values():
            assert all(a < b for a, b in zip(alphas, alphas[1:]))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_ascending_is_the_one_order_accepted(self, k):
        alphas = cli.DEFAULT_ALPHAS[k]
        assert cli._alphas_from_args(argparse.Namespace(alphas=None, k=k)) == alphas
        for order in (alphas[::-1], alphas[1:] + alphas[:1], alphas[:1] + alphas):
            with pytest.raises(ValueError, match="alphas must be ascending"):
                cli._alphas_from_args(argparse.Namespace(alphas=order, k=k))


@pytest.mark.parametrize("module", ["ccdrobust"] + [
    f"ccdrobust.{info.name}" for info in pkgutil.iter_modules(ccdrobust.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


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
