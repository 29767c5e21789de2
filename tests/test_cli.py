import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        # a retrace geometry whose closure miss has no root at any current:
        # shooting fails within its budget and reports its best iterate
        cfg = _write(tmp_path, "job.json",
                     {"scheme": "inverse", "v0_m_per_s": 0.005, "b_um": 0.25,
                      "x0_um": 200.0, "tau_s": 0.12})
        assert main(["design", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "best iterate" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg_data, field", [
        ("design", {**DESIGN_CFG, "guard_radius_um": 1e-3}, "guard_radius_um"),
        ("design", {**DESIGN_CFG, "shoot_max_iterations": 80},
         "shoot_max_iterations"),
        ("simulate", {**SIM_CFG, "guard_radius_um": 1e-3}, "guard_radius_um"),
        ("validate", {"guard_radius_um": 1e-3}, "guard_radius_um"),
    ], ids=["design_guard", "design_budget", "simulate_guard",
            "validate_guard"])
    def test_fixed_settings_are_unknown_fields(self, tmp_path, capsys,
                                               command, cfg_data, field):
        # the guard radius and the shooting budget are constants
        cfg = _write(tmp_path, "job.json", cfg_data)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"unknown field(s) in {command} config: {field}" in \
            capsys.readouterr().err


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
            # head-on turning radius 0.70 nm, inside the 1 nm guard radius
            "wires": [{"x_um": 0.0, "z_um": 0.0, "current_a": 5e-4}],
            "initial": {"x_um": -50.0, "z_um": 0.0, "vx_m_per_s": 0.01,
                        "vz_m_per_s": 0.0},
            "duration_s": 0.02,
        }
        cfg = _write(tmp_path, "job.json", cfg_data)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "guard radius" in capsys.readouterr().err

    def test_step_floor_above_duration_exit_code(self, tmp_path, capsys):
        # at t0 = 1e12 s the step floor 16 eps t0 = 3.6e-3 s exceeds the
        # duration, which still moves t0 + duration off t0
        cfg_data = {**SIM_CFG, "initial": {**SIM_CFG["initial"], "t_s": 1e12},
                    "duration_s": 1e-3}
        cfg = _write(tmp_path, "job.json", cfg_data)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "step size underflow" in capsys.readouterr().err

    def test_pure_relative_tolerance_exit_code(self, tmp_path):
        # atol = 0 with vz = 0: the zero error scale of vz must not divide
        cfg = _write(tmp_path, "job.json", {**SIM_CFG, "atol_m": 0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        events = json.loads((out / "events.json").read_text())
        assert events["stats"]["n_steps"] > 0

    def test_tiny_launch_coordinate_exit_code(self, tmp_path):
        # atol = 0 and x = 1e-300 m: x's launch error scale rtol |x| is
        # subnormal, and vx over it overflows to inf; no such ratio may
        # reach the first step, which must be finite and positive
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


# every number field of design (on the inverse scheme, whose trials stop at
# the turn), simulate, validate and sweep as (command, path into the config);
# mass_kg is left out, as the dynamics never reads it
_NUMBER_FIELDS = [
    *(("design", (name,)) for name in
      ("v0_m_per_s", "b_um", "x0_um", "tau_s", "chi_m_m3_per_kg",
       "closure_tolerance_m", "rtol", "atol_m")),
    *(("simulate", (name,)) for name in
      ("duration_s", "chi_m_m3_per_kg", "rtol", "atol_m")),
    *(("simulate", ("wires", 0, name)) for name in
      ("x_um", "z_um", "current_a")),
    *(("simulate", ("initial", name)) for name in
      ("x_um", "z_um", "vx_m_per_s", "vz_m_per_s", "t_s")),
    ("validate", ("b_um_list", 0)),
    *(("validate", (name,)) for name in
      ("current_a", "v0_m_per_s", "launch_distance_um", "region_radius_um",
       "chi_m_m3_per_kg", "rtol", "atol_m")),
    *(("sweep", (name,)) for name in
      ("v0_min_m_per_s", "v0_max_m_per_s", "n_points", "b_um", "x0_um",
       "tau_s", "chi_m_m3_per_kg")),
]
_BASE_CFG = {"design": {**DESIGN_CFG, "scheme": "inverse"},
             "simulate": SIM_CFG,
             "validate": {"b_um_list": [0.5]},
             "sweep": {}}


def _with_value(cfg, path, value):
    """A copy of ``cfg`` with ``value`` at ``path``, containers copied."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _reject_constant(name):
    raise AssertionError(f"{name} in a JSON output")


@pytest.mark.parametrize("magnitude", [1e300, 1e-300])
@pytest.mark.parametrize("command, path", _NUMBER_FIELDS,
                         ids=[f"{c}-{'.'.join(map(str, p))}"
                              for c, p in _NUMBER_FIELDS])
def test_extreme_values_never_write_non_finite_numbers(tmp_path, command,
                                                       path, magnitude):
    # chi must be negative (diamagnetic) to be valid at all
    value = -magnitude if path[-1] == "chi_m_m3_per_kg" else magnitude
    cfg = _write(tmp_path, "job.json",
                 _with_value(_BASE_CFG[command], path, value))
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    # a design may also fail to close (3)
    assert code in ((0, 2, 3, 4) if command == "design" else (0, 2, 4))
    if code != 0:
        return
    for written in out.iterdir():
        if written.suffix == ".json":
            json.loads(written.read_text(), parse_constant=_reject_constant)
            continue
        with open(written, newline="") as fh:
            header, *rows = csv.reader(fh)
        if command == "simulate":
            assert len(rows) >= 2  # the launch and at least one step
        for row in rows:
            # an infeasible sweep row carries NaN by design
            if command == "sweep" and row[header.index("feasible")] == "0":
                continue
            assert all(math.isfinite(float(v)) for v in row), row


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
    ("simulate", {**SIM_CFG, "initial": {**SIM_CFG["initial"], "t_s": 1e300}},
     "lost in rounding"),
    # non-finite values in a feasible sweep row, and a density divisor that
    # underflows to 0
    ("sweep", {"b_um": 1e-300}, "current_density_triangular_a_per_m2 is inf"),
    ("sweep", {"x0_um": 1e-300}, "underflows to 0"),
    ("design", {**DESIGN_CFG, "scheme": "circular"}, "scheme"),
    # a speed whose kinetic energy overflows, and one that leaves k exactly 1;
    # both used to exit 0, the first writing a NaN energy drift
    ("simulate", {**SIM_CFG, "initial": {**SIM_CFG["initial"],
                                         "vx_m_per_s": 1e200}}, "vx = 1e+200"),
    ("validate", {"v0_m_per_s": 1e200}, "v0 = 1e+200"),
    # an integer too large for a float, which used to end in a traceback
    ("design", {**DESIGN_CFG, "x0_um": 10**400}, "x0_um"),
    # squares that overflow, a v0^2 that underflows, and a grid too large
    ("design", {**DESIGN_CFG, "scheme": "inverse", "v0_m_per_s": 1e300},
     "v0 = 1e+300"),
    ("design", {**DESIGN_CFG, "scheme": "inverse", "b_um": 1e300},
     "b = 1e+294"),
    ("sweep", {"tau_s": 1e300}, "tau = 1e+300"),
    ("sweep", {"n_points": 1e300}, "n_points"),
], ids=["validate_b_zero", "validate_v0_zero", "validate_negative_region",
        "validate_empty_region", "sweep_tau_zero", "sweep_negative_v0_min",
        "validate_k_underflow", "design_alpha_underflow", "design_half_turn",
        "simulate_duration_lost_in_rounding", "sweep_density_overflow",
        "sweep_density_underflow", "design_unknown_scheme",
        "simulate_kinetic_overflow", "validate_k_exactly_one",
        "design_integer_overflows_float", "design_v0_squared_overflows",
        "design_b_squared_overflows", "sweep_v0_squared_underflows",
        "sweep_grid_too_large"])
def test_invalid_batch_input_exit_code(tmp_path, capsys, command, cfg_data,
                                       field):
    cfg = _write(tmp_path, "job.json", cfg_data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg_data, field", [
    ("design", {**DESIGN_CFG, "b_um": True}, "b_um"),
    ("simulate", {**SIM_CFG, "duration_s": True}, "duration_s"),
    ("simulate", {**SIM_CFG, "wires": [{**SIM_CFG["wires"][0],
                                        "current_a": False}]}, "current_a"),
    ("sweep", {"n_points": 2.5}, "n_points"),
    ("sweep", {"n_points": True}, "n_points"),
    ("validate", {"b_um_list": [0.5, True]}, "b_um_list"),
    ("design", {**DESIGN_CFG, "scheme": True}, "scheme"),
], ids=["design_boolean_b", "simulate_boolean_duration",
        "simulate_boolean_current", "sweep_fractional_points",
        "sweep_boolean_points", "validate_boolean_b",
        "design_boolean_scheme"])
def test_booleans_and_fractional_integers_rejected(tmp_path, capsys, command,
                                                   cfg_data, field):
    # json gives true as a bool, which float() and int() would take as 1, and
    # int() would truncate 2.5 to 2
    cfg = _write(tmp_path, "job.json", cfg_data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(field) in err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg_data, field", [
    ("design", {**DESIGN_CFG, "v0_m_per_s": "0.01"}, "v0_m_per_s"),
    ("simulate", {**SIM_CFG, "rtol": "1e-11"}, "rtol"),
    ("sweep", {"n_points": "3"}, "n_points"),
    ("validate", {"b_um_list": ["0.5"]}, "b_um_list"),
    ("validate", {"b_um_list": {"0.5": 1}}, "b_um_list"),
    ("simulate", {**SIM_CFG, "wires": ""}, "wires"),
    ("simulate", {**SIM_CFG, "initial": [[k, v] for k, v in
                                         SIM_CFG["initial"].items()]},
     "initial"),
], ids=["design_string_v0", "simulate_string_rtol",
        "sweep_string_points", "validate_string_b", "validate_object_b_list",
        "simulate_string_wires", "simulate_pair_list_initial"])
def test_json_strings_in_number_fields_rejected(tmp_path, capsys, command,
                                                cfg_data, field):
    # float() and int() would parse "0.01" and "3", a list of an object
    # would be its keys, list("") has no wires, and dict() takes an array
    # of [key, value] pairs
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


@pytest.mark.parametrize("command, cfg_data, name", [
    ("design", DESIGN_CFG, "result.json"), ("sweep", {}, "sweep.csv"),
], ids=["design", "sweep"])
def test_output_file_taken_by_a_directory_exit_code(tmp_path, capsys, command,
                                                    cfg_data, name):
    # the work is done before the first write, which then fails
    cfg = _write(tmp_path, "job.json", cfg_data)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and str(out / name) in err
    assert (out / name).is_dir()


def test_failed_write_removes_the_out_directories_it_made(tmp_path, capsys,
                                                          monkeypatch):
    def full_disk(path, *args, **kwargs):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp_path / "a" / "b"
    assert main(["sweep", "--format", "json", "--out", str(out)]) == 2
    assert str(out / "sweep.json") in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_failed_design_leaves_the_files_in_out_as_they_were(tmp_path, capsys):
    # the fourth output cannot be written: the first three, written before
    # it, must not replace the files already there or stay behind
    cfg = _write(tmp_path, "job.json", DESIGN_CFG)
    out = tmp_path / "out"
    (out / "events_top.json").mkdir(parents=True)
    (out / "result.json").write_text("kept")
    assert main(["design", "--config", cfg, "--out", str(out)]) == 2
    assert str(out / "events_top.json") in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["events_top.json",
                                                     "result.json"]
    assert (out / "result.json").read_text() == "kept"


@pytest.mark.parametrize("made", [False, True], ids=["existing", "made"])
def test_failed_sweep_write_leaves_the_files_in_out_as_they_were(
        tmp_path, capsys, monkeypatch, made):
    # the disk fills up halfway through the table
    def full_disk(table, path):
        Path(path).write_text("v0_m_per_s,")
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(wiresplit.sweep.SweepTable, "write_csv", full_disk)
    out = tmp_path / "a" / "b"
    if not made:
        out.mkdir(parents=True)
        (out / "sweep.csv").write_text("kept")
    assert main(["sweep", "--out", str(out)]) == 2
    assert str(out / "sweep.csv") in capsys.readouterr().err
    if made:
        assert not (tmp_path / "a").exists()
    else:
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]
        assert (out / "sweep.csv").read_text() == "kept"


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
    # the runtime has no dependency: no command imports numpy or scipy
    argv = []
    for command, name, payload in (
            ("design", "triangular", DESIGN_CFG),
            ("design", "inverse", {**DESIGN_CFG, "scheme": "inverse"}),
            ("simulate", "simulate", SIM_CFG),
            ("sweep", "sweep", {"n_points": 7}),
            ("validate", "validate", {"b_um_list": [0.5]})):
        argv += [command, _write(tmp_path, f"{name}.json", payload),
                 str(tmp_path / name)]
    src = os.path.dirname(os.path.dirname(wiresplit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    err = subprocess.run([sys.executable, "-c", _COLD_PROCESS, *argv],
                         env=env, check=True, capture_output=True,
                         text=True).stderr
    assert err.splitlines() == ["[]"] * 6
