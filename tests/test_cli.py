import csv
import json
import math
import os
import subprocess
import sys

import pytest

import wiresplit
from wiresplit import stiffness_k
from wiresplit.cli import main
from wiresplit.integrator import TRAJECTORY_CSV_COLUMNS

DESIGN_CFG = {
    "scheme": "triangular",
    "v0_m_per_s": 0.01,
    "b_um": 0.5,
    "x0_um": 300.0,
    "tau_s": 0.1,
}

SIM_CFG = {
    "wires": [{"x_um": 0.0, "z_um": 0.0, "current_a": 2.0}],
    "initial": {"x_um": -300.0, "z_um": 0.5, "vx_m_per_s": 0.01,
                "vz_m_per_s": 0.0},
    "duration_s": 0.06,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDesignCommand:
    def test_triangular_run(self, tmp_path, capsys):
        cfg = _write(tmp_path, "job.json", DESIGN_CFG)
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0

        summary = capsys.readouterr().out
        assert "628" in summary          # max separation in um
        assert "0.925273" in summary     # splitting current

        result = json.loads((out / "result.json").read_text())
        assert result["scheme"] == "triangular"
        assert result["max_separation_m"] == pytest.approx(628e-6, rel=1e-2)
        assert result["wires"][1]["current_a"] == pytest.approx(1.57, rel=5e-2)
        # config echo reparses to the identical job
        assert result["config"] == DESIGN_CFG

        for name in ("trajectory_top.csv", "trajectory_bottom.csv",
                     "events_top.json"):
            assert (out / name).exists()
        with open(out / "trajectory_top.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRAJECTORY_CSV_COLUMNS)
        assert float(rows[1][1]) == pytest.approx(-300e-6, rel=1e-12)

    def test_empty_config_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "job.json", {})
        assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "missing required field" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scheme": "triangular",\n  oops\n}')
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "job.json", {**DESIGN_CFG, "b_m": 1.0})
        assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "b_m" in capsys.readouterr().err

    def test_infeasible_design_rejected(self, tmp_path):
        bad = {**DESIGN_CFG, "tau_s": 0.06}  # v0 tau == 2 x0
        cfg = _write(tmp_path, "job.json", bad)
        assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_shooting_budget_failure_exit_code(self, tmp_path, capsys):
        # no trial closes within a hundredth of 1e-15 m, far below the
        # integrator's noise floor, so the budget of 8 runs out
        cfg = _write(tmp_path, "job.json",
                     {**DESIGN_CFG, "closure_tolerance_m": 1e-15,
                      "shoot_max_iterations": 8})
        assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "best iterate" in capsys.readouterr().err


class TestSimulateCommand:
    def test_scattering_run_events(self, tmp_path, medium):
        cfg = _write(tmp_path, "job.json", SIM_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        events = json.loads((out / "events.json").read_text())
        k = stiffness_k(2.0, 0.5e-6, 0.01, medium)
        assert events["periapsis_per_wire"][0]["distance_m"] == pytest.approx(
            math.sqrt(k) * 0.5e-6, rel=1e-3)
        assert events["config"] == SIM_CFG
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRAJECTORY_CSV_COLUMNS)
        assert len(rows) > 100

    def test_straight_line_without_wires(self, tmp_path):
        cfg_data = {**SIM_CFG, "wires": [], "duration_s": 0.01}
        cfg = _write(tmp_path, "job.json", cfg_data)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        zs = {row[2] for row in rows}
        assert len(zs) == 1  # z never changes

    def test_mass_metadata_is_inert(self, tmp_path):
        """Bitwise identical trajectories regardless of the mass tag."""
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = _write(tmp_path, "a.json", {**SIM_CFG, "mass_kg": 1e-15})
        cfg_b = _write(tmp_path, "b.json", {**SIM_CFG, "mass_kg": 1e-17})
        assert main(["simulate", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_b, "--out", str(out_b)]) == 0
        csv_a = (out_a / "trajectory.csv").read_bytes()
        csv_b = (out_b / "trajectory.csv").read_bytes()
        assert csv_a == csv_b

    def test_guard_radius_hit_exit_code(self, tmp_path, capsys):
        cfg_data = {
            **SIM_CFG,
            "initial": {"x_um": -50.0, "z_um": 0.0, "vx_m_per_s": 0.01,
                        "vz_m_per_s": 0.0},
            "guard_radius_um": 5.0,  # wider than the head-on turning radius
            "duration_s": 0.02,
        }
        cfg = _write(tmp_path, "job.json", cfg_data)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "guard radius" in capsys.readouterr().err

    def test_pure_relative_tolerance_exit_code(self, tmp_path):
        # atol = 0 with vz = 0: the zero error scale of vz must not divide
        cfg = _write(tmp_path, "job.json", {**SIM_CFG, "atol_m": 0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        events = json.loads((out / "events.json").read_text())
        assert events["stats"]["n_steps"] > 0

    def test_zero_initial_step_exit_code(self, tmp_path):
        # atol = 0 and x = 1e-300 m: the initial-step heuristic's h0 is 0,
        # d2 = rms / h0 is inf under IEEE rules, and the first step falls
        # back to duration * 1e-6
        cfg_data = {
            **SIM_CFG,
            "wires": [{"x_um": 0.0, "z_um": 300.0, "current_a": 2.0}],
            "initial": {"x_um": 1e-294, "z_um": 0.5, "vx_m_per_s": 0.01,
                        "vz_m_per_s": 0.0},
            "duration_s": 0.01,
            "atol_m": 0,
        }
        cfg = _write(tmp_path, "job.json", cfg_data)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        events = json.loads((out / "events.json").read_text())
        assert events["stats"]["n_steps"] > 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_negative_rtol_exit_code(self, tmp_path, capsys):
        cfg = _write(tmp_path, "job.json", {**SIM_CFG, "rtol": -1e-9})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "rtol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_exit_code(self, tmp_path, capsys, duration):
        # json.loads reads NaN and Infinity; both must fail fast as config
        cfg = _write(tmp_path, "job.json", {**SIM_CFG, "duration_s": duration})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "duration" in capsys.readouterr().err

    def test_tolerance_flag_changes_step_count(self, tmp_path):
        cfg_a = _write(tmp_path, "a.json", SIM_CFG)
        cfg_b = _write(tmp_path, "b.json", {**SIM_CFG, "rtol": 1e-6})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_b, "--out", str(out_b)]) == 0
        n_a = json.loads((out_a / "events.json").read_text())["stats"]["n_steps"]
        n_b = json.loads((out_b / "events.json").read_text())["stats"]["n_steps"]
        assert n_b < n_a


class TestSweepCommand:
    def test_default_sweep_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--out", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51

    def test_single_row_matches_direct_call(self, tmp_path, medium):
        from wiresplit import triangular_max_size

        cfg = _write(tmp_path, "job.json", {
            "v0_min_m_per_s": 0.01, "v0_max_m_per_s": 0.01, "n_points": 1,
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        assert len(rows) == 1
        assert rows[0]["dz_triangular_m"] == triangular_max_size(
            0.01, 0.1, 300e-6)

    def test_infeasible_rows_are_null_in_json(self, tmp_path):
        # v0 tau <= 2 x0 has no design: its values are NaN, which strict
        # JSON cannot hold
        cfg = _write(tmp_path, "job.json", {
            "v0_min_m_per_s": 0.001, "v0_max_m_per_s": 0.01, "n_points": 3,
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        rows = json.loads((out / "sweep.json").read_text(),
                          parse_constant=pytest.fail)["rows"]
        assert [r["feasible"] for r in rows] == [False, False, True]
        assert rows[0]["dz_triangular_m"] is None
        assert rows[2]["dz_triangular_m"] > 0.0


class TestValidateCommand:
    def test_default_overlay_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["validate", "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert row["max_rel_deviation"] < 1e-3
        assert "deviation" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [
    ("sweep", ["--tolerance", "-5"]),   # rtol is a config field
    ("simulate", ["--format", "json"]),  # simulate always writes CSV
], ids=["sweep_tolerance", "simulate_format"])
def test_flag_the_command_does_not_read_is_refused(tmp_path, command, flag):
    cfg = _write(tmp_path, "job.json", SIM_CFG)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path), *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, cfg_data, field", [
    ("validate", {"b_um_list": [0]}, "b_values[0]"),
    ("validate", {"v0_m_per_s": 0}, "v0"),
    ("validate", {"region_radius_um": -5}, "region_radius"),
    ("validate", {"region_radius_um": 0.1}, "region_radius"),
    ("sweep", {"tau_s": 0}, "tau"),
    ("sweep", {"v0_min_m_per_s": -1}, "v0_min_m_per_s"),
    # inputs that round a divisor of the analytic layer to 0
    ("validate", {"b_um_list": [1e-200]}, "v0^2 b^2"),
    ("design", {**DESIGN_CFG, "chi_m_m3_per_kg": -1e-320}, "chi_m"),
    ("design", {**DESIGN_CFG, "tau_s": 1e50}, "by pi"),
    ("simulate", {**SIM_CFG, "guard_radius_um": 1e-80}, "guard_radius"),
    ("design", {**DESIGN_CFG, "scheme": "circular"}, "scheme"),
    # a speed whose kinetic energy overflows, and one that leaves k exactly 1;
    # both used to exit 0, the first writing a NaN energy drift
    ("simulate", {**SIM_CFG, "initial": {**SIM_CFG["initial"],
                                         "vx_m_per_s": 1e200}}, "vx = 1e+200"),
    ("validate", {"v0_m_per_s": 1e200}, "v0 = 1e+200"),
    # an integer too large for a float, which used to end in a traceback
    ("design", {**DESIGN_CFG, "x0_um": 10**400}, "x0_um"),
], ids=["validate_b_zero", "validate_v0_zero", "validate_negative_region",
        "validate_empty_region", "sweep_tau_zero", "sweep_negative_v0_min",
        "validate_k_underflow", "design_alpha_underflow", "design_half_turn",
        "simulate_guard_below_floor", "design_unknown_scheme",
        "simulate_kinetic_overflow", "validate_k_exactly_one",
        "design_integer_overflows_float"])
def test_invalid_batch_input_exit_code(tmp_path, capsys, command, cfg_data,
                                       field):
    cfg = _write(tmp_path, "job.json", cfg_data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg_data, field", [
    ("design", {**DESIGN_CFG, "shoot_max_iterations": 8.9},
     "shoot_max_iterations"),
    ("design", {**DESIGN_CFG, "shoot_max_iterations": True},
     "shoot_max_iterations"),
    ("design", {**DESIGN_CFG, "b_um": True}, "b_um"),
    ("simulate", {**SIM_CFG, "duration_s": True}, "duration_s"),
    ("simulate", {**SIM_CFG, "wires": [{**SIM_CFG["wires"][0],
                                        "current_a": False}]}, "current_a"),
    ("sweep", {"n_points": 2.5}, "n_points"),
    ("validate", {"b_um_list": [0.5, True]}, "b_um_list"),
], ids=["design_fractional_budget", "design_boolean_budget",
        "design_boolean_b", "simulate_boolean_duration",
        "simulate_boolean_current", "sweep_fractional_points",
        "validate_boolean_b"])
def test_booleans_and_fractional_integers_rejected(tmp_path, capsys, command,
                                                   cfg_data, field):
    # json gives true as a bool, which float() and int() would take as 1, and
    # int() would truncate 8.9 to 8
    cfg = _write(tmp_path, "job.json", cfg_data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(field) in err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg_data, field", [
    ("design", {**DESIGN_CFG, "v0_m_per_s": "0.01"}, "v0_m_per_s"),
    ("design", {**DESIGN_CFG, "shoot_max_iterations": "80"},
     "shoot_max_iterations"),
    ("simulate", {**SIM_CFG, "rtol": "1e-11"}, "rtol"),
    ("sweep", {"n_points": "3"}, "n_points"),
    ("validate", {"b_um_list": ["0.5"]}, "b_um_list"),
    ("validate", {"b_um_list": {"0.5": 1}}, "b_um_list"),
], ids=["design_string_v0", "design_string_budget", "simulate_string_rtol",
        "sweep_string_points", "validate_string_b", "validate_object_b_list"])
def test_json_strings_in_number_fields_rejected(tmp_path, capsys, command,
                                                cfg_data, field):
    # float() and int() would parse "0.01" and "80", and a list of an object
    # would be its keys
    cfg = _write(tmp_path, "job.json", cfg_data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(field) in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["existing_file", "below_a_file"])
@pytest.mark.parametrize("command, cfg_data", [
    ("design", DESIGN_CFG), ("simulate", SIM_CFG), ("sweep", {}),
    ("validate", {}),
], ids=["design", "simulate", "sweep", "validate"])
def test_unusable_out_exit_code(tmp_path, capsys, command, cfg_data, kind):
    # the output directory is made before the command's work, so an --out
    # that is a file, or lies below one, fails fast as a config error
    cfg = _write(tmp_path, "job.json", cfg_data)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker if kind == "existing_file" else blocker / "sub"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and str(out) in err
    assert blocker.read_text() == "keep"


def test_failed_run_removes_the_out_directories_it_made(tmp_path):
    cfg = _write(tmp_path, "job.json", {**DESIGN_CFG, "tau_s": 0.06})
    out = tmp_path / "a" / "b"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 2
    assert not (tmp_path / "a").exists()


# prints to stderr the top-level names of the numpy and scipy modules loaded
# after ``import wiresplit``, then after each ``cli.main`` job of argv
# (command, config, out)
_COLD_PROCESS = """
import sys

def heavy():
    return sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})

import wiresplit
print(heavy(), file=sys.stderr)
from wiresplit import cli
jobs = sys.argv[1:]
for command, config, out in zip(jobs[::3], jobs[1::3], jobs[2::3]):
    assert cli.main([command, '--config', config, '--out', out]) == 0
    print(heavy(), file=sys.stderr)
"""


def test_cold_paths_load_no_numpy_or_scipy(tmp_path):
    # numpy is imported only where arrays are built (Trajectory.t and
    # .states, sweep, validate); a design or simulate process never does
    argv = []
    for command, name, payload in (
            ("design", "triangular", DESIGN_CFG),
            ("design", "inverse", {**DESIGN_CFG, "scheme": "inverse"}),
            ("simulate", "simulate", SIM_CFG)):
        argv += [command, _write(tmp_path, f"{name}.json", payload),
                 str(tmp_path / name)]
    src = os.path.dirname(os.path.dirname(wiresplit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    err = subprocess.run([sys.executable, "-c", _COLD_PROCESS, *argv],
                         env=env, check=True, capture_output=True,
                         text=True).stderr
    assert err.splitlines() == ["[]"] * 4
