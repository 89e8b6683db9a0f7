import collections
import json
import math
import os

import numpy as np
import pytest

from tdnh.cli import main
from tdnh.config import ConfigError, load_config
from tdnh.evolution import TimeGrid

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

MINIMAL_HERMITIAN = """\
[scenario]
kind = hermitian
x_re = "1"
y_re = "0"
z_im = "1"
c1 = 1.0
c2 = 0.0

[grid]
start = 0.0
stop = 1.0
steps = 200
"""

LOOP_HERMITIAN = """\
[scenario]
kind = hermitian
omega = 0.3
c1 = 2.0
c2 = 1.0
x_re = "cos(2*pi*t)"
y_re = "sin(2*pi*t)"
z_im = "1.2*sin(2*pi*t)"

[grid]
start = 0.0
stop = 1.0
steps = {steps}
"""

STATIC = """\
[scenario]
kind = static
omega = 0.0
x_re = 1.0
y_re = 0.5
y_im = 0.4
z_im = 0.6

[grid]
start = 0.0
stop = 1.0
steps = 10

[regimes]
axis1 = z_im, 0.0, 2.0, 5
axis2 = y_im, 0.0, 1.0, 3
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_minimal_hermitian(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL_HERMITIAN))
        assert cfg.kind == "hermitian"
        assert cfg.c1 == 1.0 and cfg.c2 == 0.0
        assert cfg.grid == TimeGrid(0.0, 1.0, 200)
        assert cfg.signatures == (1, -1)

    def test_zero_y_im_rejected_for_nonhermitian(self, tmp_path):
        text = MINIMAL_HERMITIAN.replace("kind = hermitian", "kind = nonhermitian").replace(
            'y_re = "0"', 'y_im = "0"'
        )
        with pytest.raises(ConfigError, match="y_im"):
            load_config(write(tmp_path, text))

    def test_malformed_expression_names_key(self, tmp_path):
        text = MINIMAL_HERMITIAN.replace('x_re = "1"', 'x_re = "sin("')
        with pytest.raises(ConfigError, match="x_re"):
            load_config(write(tmp_path, text))

    def test_missing_required_key(self, tmp_path):
        text = MINIMAL_HERMITIAN.replace('z_im = "1"\n', "")
        with pytest.raises(ConfigError, match="z_im"):
            load_config(write(tmp_path, text))

    def test_degenerate_constants_rejected(self, tmp_path):
        text = MINIMAL_HERMITIAN.replace("c2 = 0.0", "c2 = 1.0")
        with pytest.raises(ConfigError, match="c1"):
            load_config(write(tmp_path, text))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nowhere.cfg")

    def test_tolerance_overrides_validated(self, tmp_path):
        text = MINIMAL_HERMITIAN + "\n[tolerances]\nno_such_check = 1e-3\n"
        with pytest.raises(ConfigError, match="no_such_check"):
            load_config(write(tmp_path, text))

    def test_grid_validation(self, tmp_path):
        text = MINIMAL_HERMITIAN.replace("steps = 200", "steps = 1")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))


class TestRunCommand:
    def test_demo_passes_and_emits_outputs(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_HERMITIAN)
        csv = str(tmp_path / "series.csv")
        report = str(tmp_path / "report.txt")
        code = main(["run", cfg, "--csv", csv, "--report", report])
        assert code == 0
        header = open(csv).readline().strip().split(",")
        assert header[:10] == ["t", "e_plus_re", "e_plus_im", "e_minus_re", "e_minus_im",
                               "discriminant", "geom_plus", "geom_minus", "dyn_plus", "dyn_minus"]
        assert any(name.startswith("res_") for name in header)
        text = open(report).read()
        assert "overall PASS" in text
        assert "check energy_reality" in text
        mirror = json.load(open(report + ".json"))
        assert mirror["overall"] == "PASS"
        assert {c["name"] for c in mirror["checks"]} >= {"energy_reality", "dyson_residual"}

    def test_energy_reality_small_in_report(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_HERMITIAN)
        report = str(tmp_path / "report.txt")
        assert main(["run", cfg, "--csv", str(tmp_path / "s.csv"), "--report", report]) == 0
        mirror = json.load(open(report + ".json"))
        reality = next(c for c in mirror["checks"] if c["name"] == "energy_reality")
        assert reality["residual"] <= 1e-10

    def test_forced_tolerance_fails(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_HERMITIAN)
        code = main(["run", cfg, "--csv", str(tmp_path / "s.csv"),
                     "--report", str(tmp_path / "r.txt"), "--tol", "dyson_residual=1e-16"])
        assert code == 1

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2

    def test_deterministic_outputs(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_HERMITIAN)
        paths = []
        for tag in ("a", "b"):
            csv = str(tmp_path / f"{tag}.csv")
            report = str(tmp_path / f"{tag}.txt")
            assert main(["run", cfg, "--csv", csv, "--report", report]) == 0
            paths.append((csv, report))
        assert open(paths[0][0], "rb").read() == open(paths[1][0], "rb").read()
        assert open(paths[0][1], "rb").read() == open(paths[1][1], "rb").read()

    def test_csv_full_precision_round_trip(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_HERMITIAN)
        csv = str(tmp_path / "series.csv")
        assert main(["run", cfg, "--csv", csv, "--report", str(tmp_path / "r.txt")]) == 0
        rows = [line.split(",") for line in open(csv).read().splitlines()]
        header, data = rows[0], rows[1:]
        t_col = [float(r[0]) for r in data]
        grid_times = TimeGrid(0.0, 1.0, 200).times()
        assert np.allclose(t_col, grid_times, rtol=0, atol=0)  # exact round trip

    def test_loop_config_checks_closed_form(self, tmp_path):
        cfg = write(tmp_path, LOOP_HERMITIAN.format(steps=2000))
        report = str(tmp_path / "r.txt")
        code = main(["run", cfg, "--csv", str(tmp_path / "s.csv"), "--report", report,
                     "--tol", "berry_hermitian_match=1e-5", "--tol", "berry_imag_rate=1e-6"])
        assert code == 0
        mirror = json.load(open(report + ".json"))
        berry = next(c for c in mirror["checks"] if c["name"] == "berry_closed_form")
        assert berry["verdict"] == "PASS"
        geom = [float(line.split(",")[6]) for line in open(str(tmp_path / "s.csv")).read().splitlines()[1:]]
        assert math.isfinite(geom[-1])

    def test_checks_filter_restricts_report(self, tmp_path):
        text = MINIMAL_HERMITIAN + "\n[checks]\nrun = energy_reality, c_op_involution\n"
        cfg = write(tmp_path, text)
        report = str(tmp_path / "r.txt")
        assert main(["verify", cfg, "--report", report]) == 0
        mirror = json.load(open(report + ".json"))
        assert [c["name"] for c in mirror["checks"]] == ["c_op_involution", "energy_reality"]

    def test_unknown_check_name_rejected(self, tmp_path):
        text = MINIMAL_HERMITIAN + "\n[checks]\nrun = bogus\n"
        cfg = write(tmp_path, text)
        assert main(["verify", cfg]) == 2


class TestVerifyCommand:
    def test_no_csv_written(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_HERMITIAN)
        report = str(tmp_path / "r.txt")
        assert main(["verify", cfg, "--report", report]) == 0
        assert not (tmp_path / "scenario_series.csv").exists()
        assert (tmp_path / "r.txt").exists()


class TestStaticAndRegimes:
    def test_static_run_passes(self, tmp_path):
        cfg = write(tmp_path, STATIC)
        report = str(tmp_path / "r.txt")
        code = main(["run", cfg, "--csv", str(tmp_path / "s.csv"), "--report", report])
        assert code == 0
        mirror = json.load(open(report + ".json"))
        names = [c["name"] for c in mirror["checks"]]
        assert names == ["static_constraint", "parity_involution",
                         "parity_pseudo_hermiticity", "static_energy_closed_form"]

    def test_regime_map(self, tmp_path):
        cfg = write(tmp_path, STATIC)
        csv = str(tmp_path / "map.csv")
        assert main(["regimes", cfg, "--csv", csv]) == 0
        lines = open(csv).read().splitlines()
        assert lines[0] == "z_im,y_im,discriminant,regime"
        assert len(lines) == 1 + 5 * 3
        # x_re=1, y_re=0.5: z_im=0, y_im=0 -> disc=1.25 symmetric;
        # z_im=2, y_im=1 -> disc=(1.25)(0)-4 = -4 broken
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1.25)
        assert first[3] == "symmetric"
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(-4.0)
        assert last[3] == "broken"

    def test_regimes_needs_static_kind(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_HERMITIAN)
        assert main(["regimes", cfg]) == 2

    def test_default_csv_sits_beside_the_config(self, tmp_path):
        # only the config's own stem names the map, not "_series" elsewhere in its path
        directory = tmp_path / "my_series_dir"
        directory.mkdir()
        assert main(["regimes", write(directory, STATIC, name="s.cfg")]) == 0
        assert (directory / "s_regimes.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["my_series_dir"]

    def test_axes_sweep_different_coefficients(self, tmp_path):
        text = STATIC.replace("axis2 = y_im, 0.0, 1.0, 3", "axis2 = z_im, 0.0, 1.0, 3")
        with pytest.raises(ConfigError, match=r"\[regimes\] axis2: z_im is already swept"):
            load_config(write(tmp_path, text))

    def test_axis2_needs_axis1(self, tmp_path):
        text = STATIC.replace("axis1 = z_im, 0.0, 2.0, 5\n", "")
        with pytest.raises(ConfigError, match=r"\[regimes\] axis2: needs axis1"):
            load_config(write(tmp_path, text))


class TestShippedDemoConfigs:
    def test_broken_demo(self):
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            code = main(["run", "configs/hermitian_broken.cfg",
                         "--csv", os.path.join(tmp, "s.csv"),
                         "--report", os.path.join(tmp, "r.txt")])
            assert code == 0


NONHERMITIAN_DRIVE = """\
[scenario]
kind = nonhermitian
omega = 0.4
c1 = 0.8
x_re = "1.5+0.1*sin(pi*t)"
y_im = "1+0.1*cos(pi*t)"
z_im = "0.7+0.05*sin(pi*t)"

[grid]
start = 0.0
stop = 2.0
steps = 400
"""


class TestCheckTableColumns:
    @pytest.mark.parametrize("text", [LOOP_HERMITIAN.format(steps=400), NONHERMITIAN_DRIVE,
                                      MINIMAL_HERMITIAN])
    def test_reality_and_intertwiner_columns_equal_library_residuals(self, tmp_path, text):
        # the CLI evaluates the table on its tracked trajectory's frame; the
        # library solves its own eigensystem per time: the same residuals
        from tdnh.cli import _build_scenario
        from tdnh.operators import build_frame, evaluate_checks, verify_reality_conditions

        cfg_path = write(tmp_path, text)
        csv = str(tmp_path / "series.csv")
        main(["run", cfg_path, "--csv", csv, "--report", str(tmp_path / "r.txt")])
        header = open(csv).readline().strip().split(",")
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        cfg = load_config(cfg_path)
        frame = build_frame(_build_scenario(cfg), cfg.grid.times())
        names = [h[4:] for h in header
                 if h.startswith("res_reality_") or h.startswith("res_intertwiner_")]
        assert len(names) == 6
        library = evaluate_checks(frame, names)
        reality = verify_reality_conditions(frame)
        for name in names:
            column = data[:, header.index("res_" + name)]
            np.testing.assert_allclose(column, library.check(name).values, rtol=1e-9, atol=1e-13)
            if name in [c.name for c in reality.checks]:
                np.testing.assert_array_equal(reality.check(name).values,
                                              library.check(name).values)


def test_loop_csv_fields_are_their_own_17g_text(tmp_path):
    # the shipped loop at fewer steps: every field reads back to itself
    # through Python's own %.17g, the CSV number format.  The exit code is
    # not pinned: at 600 steps the Berry rate checks FAIL, their residuals
    # being step-size bound, and the CSV is written all the same
    from tdnh.cli import MAPPED_CHECKS

    with open(os.path.join(CONFIGS, "hermitian_loop.cfg")) as fh:
        text = fh.read().replace("steps = 8000", "steps = 600")
    csv = str(tmp_path / "series.csv")
    assert main(["run", write(tmp_path, text), "--csv", csv,
                 "--report", str(tmp_path / "r.txt")]) in (0, 1)
    with open(csv, newline="") as fh:
        lines = fh.read().split("\n")
    assert lines.pop() == ""
    assert lines[0].split(",") == [
        "t", "e_plus_re", "e_plus_im", "e_minus_re", "e_minus_im", "discriminant",
        "geom_plus", "geom_minus", "dyn_plus", "dyn_minus",
    ] + ["res_" + name for name in MAPPED_CHECKS]
    assert len(lines) == 1 + 601
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 10 + len(MAPPED_CHECKS)
        assert all("%.17g" % float(f) == f for f in fields), line


class TestToleranceNameErrors:
    def test_unknown_tol_option_names_the_key_once(self, tmp_path, capsys):
        code = main(["verify", write(tmp_path, MINIMAL_HERMITIAN),
                     "--report", str(tmp_path / "r.txt"), "--tol", "foo=1"])
        assert code == 2
        assert capsys.readouterr().err == "configuration error: unknown tolerance name 'foo'\n"

    def test_unknown_tolerances_key_names_the_key_once(self, tmp_path, capsys):
        text = MINIMAL_HERMITIAN + "\n[tolerances]\nfoo = 1\n"
        code = main(["verify", write(tmp_path, text), "--report", str(tmp_path / "r.txt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: [tolerances]: unknown tolerance name 'foo'\n")


class TestStaticPath:
    def test_derived_x_im_solves_the_symmetry_constraint(self, tmp_path):
        from tdnh.model import static_constraint_residual

        cfg = load_config(write(tmp_path, STATIC.replace("x_re = 1.0", 'x_re = "1+0.2*t"')))
        assert cfg.x_im_derived
        path = cfg.static_path()
        times = cfg.grid.times()
        assert np.max(static_constraint_residual(path, times)) < 1e-15
        np.testing.assert_allclose(path.coefficients(times).x_im, -0.5 * 0.4 / (1 + 0.2 * times))

    def test_given_x_im_is_kept(self, tmp_path):
        cfg = load_config(write(tmp_path, STATIC.replace("y_re = 0.5", "y_re = 0.5\nx_im = -0.2")))
        assert not cfg.x_im_derived
        assert cfg.static_path().coefficients(0.3).x_im == -0.2


EXACT_NONHERMITIAN = """\
[scenario]
kind = nonhermitian
omega = 0.3
c1 = 1
x_re = "cos(2*pi*t)"
y_im = 1
z_im = 1

[grid]
start = 0.0
stop = 1.0
steps = 2000
"""


class TestCertificateErrors:
    def test_first_failing_probe_names_the_cause(self, tmp_path, capsys):
        # eta is numerically singular at t=0.25, after the failing probe at
        # t=0.125: the vector certificate raises and the probes are replayed
        # in time order, so the residual failure is the one reported
        code = main(["run", write(tmp_path, EXACT_NONHERMITIAN), "--csv", str(tmp_path / "s.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "runtime error: nonhermitian scenario fails the Dyson-equation substitution "
            "check at t=0.125: residual 3.215e-08 > 1.0e-08\n")


PHASE_FUNCTIONS = ("berry_rates", "berry_phase_loop", "hermitian_frame_rates")


class TestPhaseChecksInTable:
    @pytest.mark.parametrize("name", ["hermitian_broken", "hermitian_loop", "nonhermitian_drive"])
    def test_library_reports_the_cli_battery(self, tmp_path, name):
        # a frame built from the trajectory carries every mapped check,
        # the berry_* ones included, with the CLI's residuals and notes
        from tdnh.cli import MAPPED_CHECKS, _build_scenario
        from tdnh.evolution import scenario_eigen_trajectory
        from tdnh.operators import build_frame, evaluate_checks

        config = os.path.join(CONFIGS, name + ".cfg")
        report = str(tmp_path / "r.txt")
        assert main(["verify", config, "--report", report]) in (0, 1)
        cfg = load_config(config)
        sc = _build_scenario(cfg)
        frame = build_frame(sc, cfg.grid.times(), signatures=cfg.signatures,
                            trajectory=scenario_eigen_trajectory(sc, cfg.grid))
        library = evaluate_checks(frame, MAPPED_CHECKS)
        assert len(library.checks) == 20
        assert [(c.name, c.residual, c.verdict, c.note) for c in library.checks] == [
            (c["name"], c["residual"], c["verdict"], c["note"])
            for c in json.load(open(report + ".json"))["checks"]]

    @pytest.mark.parametrize("name, loop_calls", [("hermitian_loop", 1), ("hermitian_broken", 0)])
    def test_phase_functions_run_once(self, tmp_path, monkeypatch, name, loop_calls):
        # a closed path's metric-route rates are the loop's own; an open
        # path (hermitian_broken's derived x_im grows with t) has no loop
        import tdnh.evolution
        import tdnh.operators

        calls = collections.Counter()
        for fn in PHASE_FUNCTIONS:
            def counted(*args, _fn=fn, _original=getattr(tdnh.evolution, fn), **kwargs):
                calls[_fn] += 1
                return _original(*args, **kwargs)

            for module in (tdnh.evolution, tdnh.operators):
                monkeypatch.setattr(module, fn, counted)
        config = os.path.join(CONFIGS, name + ".cfg")
        assert main(["verify", config, "--report", str(tmp_path / "r.txt")]) in (0, 1)
        assert [calls[fn] for fn in PHASE_FUNCTIONS] == [1, loop_calls, 1]

    @pytest.mark.parametrize("checks", ["", "\n[checks]\nrun = berry_imag_rate, energy_reality\n"])
    def test_loop_gauge_guard_applies_to_any_selection(self, tmp_path, capsys, checks):
        # a closed path's rates come from the loop whatever [checks] selects,
        # so its gauge guard stops an under-resolved grid before any check
        with open(os.path.join(CONFIGS, "hermitian_loop.cfg")) as fh:
            text = fh.read().replace("steps = 8000", "steps = 6") + checks
        code = main(["verify", write(tmp_path, text), "--report", str(tmp_path / "r.txt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "runtime error: minimum consecutive overlap 0.867 below 0.9; "
            "refine the grid (first below at t=0.166667)\n")
