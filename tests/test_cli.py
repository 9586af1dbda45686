"""Tests for the command-line runner and its output files."""

import argparse
import collections
import logging

import numpy as np
import pytest

from pefem.cli import (
    _DOMAINS,
    _METHODS,
    ExperimentConfig,
    build_parser,
    emit_outputs,
    gates_pass,
    main,
    render_csv,
    run_study,
)
from pefem.errors import ConfigurationError, ProjectionError
from pefem.forms import assemble_pefem_neumann

CSV_HEADER = "level,h,delta_h,dofs,l2_error,h1_error,l2_rate_pairwise,h1_rate_pairwise"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(k=5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(levels=1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(method="collocation")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(domain="annulus")

    @pytest.mark.parametrize(
        "key, value",
        [("k", 2.7), ("levels", 3.9), ("seed", 1.5), ("k", "two"), ("levels", "x"),
         ("seed", "2.5"), ("k", True), ("seed", -1), ("k", "3")],
    )
    def test_refuses_integer_settings_that_are_not_integers(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig(**{key: value})

    def test_integer_settings_accept_numpy_integers(self):
        config = ExperimentConfig(k=np.int64(3), levels=2, seed=np.int64(5))
        assert (config.k, config.levels, config.seed) == (3, 2, 5)
        assert type(config.k) is int

    def test_default_problem_follows_domain(self):
        assert ExperimentConfig(domain="disk").problem == "convex-cos"
        assert ExperimentConfig(domain="square_hole").problem == "nonconvex-rational"

    def test_ellipse_defaults_to_the_cosine(self):
        assert ExperimentConfig(domain="ellipse").problem == "convex-cos"


def _choices(parser, flag):
    """The choices of flag in each subcommand."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a.choices for a in cmd._actions if flag in a.option_strings]
        for name, cmd in sub.choices.items()
    }


@pytest.mark.parametrize(
    "domain, edges",
    [
        ("disk", [{"circle": 16}, {"circle": 32}]),
        ("square_hole", [{"hole": 16, "square": 16}, {"hole": 32, "square": 32}]),
        ("ellipse", [{"ellipse": 32}, {"ellipse": 64}]),
    ],
)
def test_domain_table(domain, edges):
    mesh_for_level, make_geometry, problem = _DOMAINS[domain]
    geometry = make_geometry()
    for level, want in enumerate(edges):
        curve_ids = collections.Counter(e[3] for e in mesh_for_level(level).boundary_edges)
        assert curve_ids == want
        assert set(curve_ids) == set(geometry.components)
    assert ExperimentConfig(domain=domain).problem == problem
    keys = tuple(_DOMAINS)
    assert _choices(build_parser(), "--domain") == {"run": [keys], "patch": [keys]}


@pytest.mark.parametrize(
    "method, bc_kind",
    [
        ("pefem-dirichlet-weak", "dirichlet"),
        ("pefem-dirichlet-strong", "dirichlet"),
        ("pefem-neumann", "neumann"),
        ("standard", "dirichlet"),
    ],
)
def test_method_table(method, bc_kind):
    assert _METHODS[method][1] == bc_kind
    assert ExperimentConfig(method=method).bc_kind == bc_kind
    keys = tuple(_METHODS)
    assert _choices(build_parser(), "--method") == {"run": [keys], "patch": [keys]}


def test_assembler_is_looked_up_when_the_study_runs(monkeypatch):
    # Rebinding a module name after the config is built (as the
    # benchmark's tracing does) reaches run_study's assembly.
    import pefem.cli

    config = ExperimentConfig(domain="disk", method="pefem-neumann", k=1, levels=2)
    calls = []

    def counted(*args):
        calls.append(args)
        return assemble_pefem_neumann(*args)

    monkeypatch.setattr(pefem.cli, "assemble_pefem_neumann", counted)
    run_study(config)
    assert len(calls) == 2


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
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["results.csv", "results.md"]
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

    def test_ellipse_subcommands(self, capsys):
        code = main(["patch", "--k", "3", "--method", "pefem-neumann", "--domain", "ellipse"])
        assert code == 0 and "PASS" in capsys.readouterr().out
        args = ["run", "--domain", "ellipse", "--method", "pefem-dirichlet-weak", "--levels", "3"]
        code = main(args + ["--k", "2"])
        assert code == 0 and "rate gates: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--config", "x"], ["--c-theta", "5"]], ids=["config", "c-theta"])
    def test_removed_run_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run"] + flag)
        assert info.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err

    def test_config_error_exit_code(self, capsys):
        # A value that argparse passes and ExperimentConfig refuses.
        assert main(["run", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("line", ["k=two", "levels=x", "seed=1.5"])
    def test_bad_config_value_exits_2_naming_the_key(self, line, capsys):
        key, value = line.split("=")
        with pytest.raises(SystemExit) as info:
            main(["run", f"--{key}", value])
        assert info.value.code == 2
        assert f"error: argument --{key}: invalid int value: '{value}'" in capsys.readouterr().err

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
