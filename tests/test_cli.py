"""Tests for the command-line runner and its output files."""

import logging

import numpy as np
import pytest

from pefem.cli import (
    ExperimentConfig,
    build_config,
    emit_outputs,
    gates_pass,
    main,
    parse_config_file,
    render_csv,
    run_study,
)
from pefem.errors import ConfigurationError, ProjectionError

CSV_HEADER = "level,h,delta_h,dofs,l2_error,h1_error,l2_rate_pairwise,h1_rate_pairwise"


class TestConfig:
    def test_parse_key_value_file(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# comment line\n"
            "domain = disk\n"
            "method=pefem-neumann  # trailing comment\n"
            "k=3\n"
            "\n"
            "levels=2\n"
        )
        values = parse_config_file(cfg)
        assert values == {"domain": "disk", "method": "pefem-neumann", "k": "3", "levels": "2"}

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("color=blue\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(cfg)

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(cfg)

    def test_overrides_beat_file_values(self):
        config = build_config({"k": "2", "domain": "disk"}, {"k": 3})
        assert config.k == 3
        assert config.domain == "disk"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(k=5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(levels=1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(method="collocation")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(domain="annulus")

    def test_default_problem_follows_domain(self):
        assert ExperimentConfig(domain="disk").problem == "convex-cos"
        assert ExperimentConfig(domain="square_hole").problem == "nonconvex-rational"

    def test_ellipse_defaults_to_the_cosine(self):
        assert ExperimentConfig(domain="ellipse").problem == "convex-cos"


class TestRunStudy:
    def test_disk_quadratic_weak_dirichlet(self):
        config = ExperimentConfig(domain="disk", method="pefem-dirichlet-weak", k=2, levels=3)
        report = run_study(config)
        assert len(report.levels) == 3
        hs = [lv.h for lv in report.levels]
        assert hs == sorted(hs, reverse=True)
        assert report.l2_slope(last=3) >= 2.75
        assert gates_pass(config, report)

    def test_patch_preset(self):
        config = ExperimentConfig(
            domain="disk", method="pefem-dirichlet-strong", k=4, levels=2, problem="patch-k"
        )
        report = run_study(config)
        assert all(lv.h1_error <= 1e-8 for lv in report.levels)
        assert gates_pass(config, report)

    def test_standard_cap_gate(self):
        config = ExperimentConfig(domain="disk", method="standard", k=3, levels=4)
        report = run_study(config)
        assert report.l2_slope(last=3) <= 2.5
        assert report.h1_slope(last=3) <= 1.9
        assert gates_pass(config, report)

    @pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
    def test_preflight_rejects_inconsistent_data(self, bc_kind, monkeypatch):
        import pefem.cli
        from pefem.problems import preset_problem

        def skewed_preset(name, kind):
            problem = preset_problem(name, kind)
            g_D, g_N = problem.g_D, problem.g_N
            if kind == "dirichlet":
                problem.g_D = lambda x, y: g_D(x, y) + 1e-6
            else:
                problem.g_N = lambda x, y, nx, ny: g_N(x, y, -nx, -ny)
            return problem

        monkeypatch.setattr(pefem.cli, "preset_problem", skewed_preset)
        method = "pefem-neumann" if bc_kind == "neumann" else "pefem-dirichlet-weak"
        config = ExperimentConfig(domain="square_hole", method=method, k=1, levels=2)
        key = "g_N" if bc_kind == "neumann" else "g_D"
        with pytest.raises(ConfigurationError, match=f"^level 0: {key} inconsistent"):
            run_study(config)

    def test_projection_error_keeps_its_context(self, monkeypatch, capsys):
        # An ellipse whose gradient is NaN off the x axis: Newton fails.
        import pefem.cli
        from pefem.geometry import BoundaryComponent, BoundaryGeometry, ellipse_geometry

        ellipse = ellipse_geometry().component("ellipse")

        def gradient(x, y):
            gx, gy = ellipse.gradient(x, y)
            return gx, np.where(np.asarray(y) == 0.0, gy, np.nan)

        broken = BoundaryGeometry({"ellipse": BoundaryComponent(ellipse.level_set, gradient)})
        monkeypatch.setattr(pefem.cli, "ellipse_geometry", lambda: broken)
        config = ExperimentConfig(domain="ellipse", method="pefem-dirichlet-strong", k=2, levels=2)
        with pytest.raises(ProjectionError, match="^level 0: no convergence") as info:
            run_study(config)
        assert info.value.curve_id == "ellipse"
        assert len(info.value.point) == 2
        args = ["run", "--domain", "ellipse", "--method", "pefem-dirichlet-strong", "--levels", "2"]
        assert main(args) == 2
        assert "error: level 0: no convergence in 50 iterations" in capsys.readouterr().err


@pytest.fixture(scope="module")
def study():
    config = ExperimentConfig(domain="disk", method="pefem-dirichlet-weak", k=1, levels=3)
    return config, run_study(config)


class TestOutputs:
    def test_csv_shape(self, study):
        _config, report = study
        lines = render_csv(report).strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[6] == "" and first[7] == ""
        assert len(lines[2].split(",")) == 8

    def test_emit_and_determinism(self, study, tmp_path):
        config, report = study
        paths1 = emit_outputs(config, report, tmp_path / "a")
        paths2 = emit_outputs(config, report, tmp_path / "b")
        for key in paths1:
            b1 = open(paths1[key], "rb").read()
            b2 = open(paths2[key], "rb").read()
            assert b1 == b2
            assert b1  # never an empty file

    def test_empty_report_refused(self, tmp_path):
        from pefem.analysis import ConvergenceReport

        config = ExperimentConfig()
        with pytest.raises(ConfigurationError):
            emit_outputs(config, ConvergenceReport("standard", 1), tmp_path)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "run",
            "--domain",
            "disk",
            "--method",
            "pefem-dirichlet-weak",
            "--k",
            "1",
            "--levels",
            "2",
        ]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        csv1 = (tmp_path / "r1" / "results.csv").read_bytes()
        csv2 = (tmp_path / "r2" / "results.csv").read_bytes()
        assert csv1 == csv2

    def test_newton_diagnostics_leave_outputs_unchanged(self, tmp_path, caplog):
        # The ellipse runs the Newton projection, which logs at DEBUG; the
        # results are the same bytes with that logging on and off.
        args = ["run", "--domain", "ellipse", "--method", "pefem-dirichlet-strong"]
        args += ["--k", "1", "--levels", "2"]
        assert main(args + ["--out", str(tmp_path / "quiet")]) == 0
        with caplog.at_level(logging.DEBUG, logger="pefem.geometry"):
            assert main(args + ["--out", str(tmp_path / "logged")]) == 0
        assert any(r.getMessage().startswith("newton: component 'ellipse'") for r in caplog.records)
        for name in ("results.csv", "results.md"):
            quiet = (tmp_path / "quiet" / name).read_bytes()
            assert quiet == (tmp_path / "logged" / name).read_bytes()


class TestMainEntry:
    def test_patch_subcommand(self, capsys):
        code = main(["patch", "--k", "2", "--method", "pefem-neumann", "--domain", "disk", "--seed", "3"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_mesh_subcommand(self, tmp_path):
        out = tmp_path / "mesh.txt"
        code = main(["mesh", "--domain", "square_hole", "--level", "0", "--out", str(out)])
        assert code == 0
        from pefem.mesh import read_mesh

        mesh = read_mesh(out.read_text())
        assert len(mesh.triangles) == 64

    def test_ellipse_subcommands(self, tmp_path, capsys):
        out = tmp_path / "ellipse.txt"
        assert main(["mesh", "--domain", "ellipse", "--level", "0", "--out", str(out)]) == 0
        from pefem.mesh import read_mesh

        mesh = read_mesh(out.read_text())
        assert len(mesh.boundary_edges) == 32
        assert {e[3] for e in mesh.boundary_edges} == {"ellipse"}
        code = main(["patch", "--k", "3", "--method", "pefem-neumann", "--domain", "ellipse"])
        assert code == 0 and "PASS" in capsys.readouterr().out
        args = ["run", "--domain", "ellipse", "--method", "pefem-dirichlet-weak", "--levels", "3"]
        code = main(args + ["--k", "2"])
        assert code == 0 and "rate gates: PASS" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method=collocation\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_run_exit_zero_on_passing_gates(self):
        code = main(
            ["run", "--domain", "disk", "--method", "pefem-dirichlet-weak", "--k", "2", "--levels", "3"]
        )
        assert code == 0

    def test_run_exit_one_on_failing_gates(self):
        # The baseline's boundary transfer cannot reproduce a cubic, so
        # its patch study misses the 1e-8 gate.
        code = main(
            [
                "run",
                "--domain",
                "disk",
                "--method",
                "standard",
                "--k",
                "3",
                "--levels",
                "2",
                "--problem",
                "patch-k",
            ]
        )
        assert code == 1
