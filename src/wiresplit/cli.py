"""Command-line surface: design, simulate, sweep, validate.

Jobs are described by flat JSON config files whose field names carry their
units (``b_um``, ``v0_m_per_s``, ``tau_s``, ...); micrometre fields are
converted to SI on load so that every number in every output file is SI.
The human-readable summary on stdout uses micrometres and amperes.

Exit codes: 0 success, 2 invalid config or unusable ``--out``, 3 design
failure, 4 integration failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .designer import (
    DesignFailure,
    DesignSpec,
    design_trajectories,
)
from .field import WireSingularityError
from .integrator import (
    StepControl,
    StiffnessError,
    event_log_dict,
    kernel_backend,
    simulate,
    write_trajectory_csv,
)
from .model import (
    InfeasibleDesignError,
    PacketState,
    ScatteringInputs,
    Wire,
    default_medium,
    make_medium,
)
from .sweep import (
    default_velocity_grid,
    validate_analytic,
    velocity_grid,
    velocity_sweep,
)

EXIT_CONFIG = 2
EXIT_DESIGN = 3
EXIT_SINGULARITY = 4

_UM = 1e-6


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _take(cfg: dict, schema: dict, where: str) -> dict:
    """Pull and convert fields per schema {name: (required, converter)}."""
    out = {}
    for name, (required, convert) in schema.items():
        if name in cfg:
            try:
                out[name] = convert(cfg[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"field {name!r} in {where}: {exc}") from exc
        elif required:
            raise ConfigError(f"missing required field {name!r} in {where}")
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown field(s) in {where}: {', '.join(sorted(unknown))}"
        )
    return out


def _real(v) -> float:
    # float() would take a JSON true as 1.0 and a string "0.01" as 0.01
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(v)}")
    return float(v)


def _integer(v) -> int:
    # int() would take true as 1 and "3" as 3, and truncate 2.5 to 2
    if isinstance(v, bool) or not (
            isinstance(v, int) or (isinstance(v, float) and v.is_integer())):
        raise TypeError(f"expected an integer, got {json.dumps(v)}")
    return int(v)


def _text(v) -> str:
    # str() would take true as "True" and 1 as "1"
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {json.dumps(v)}")
    return v


def _um(v):
    return _real(v) * _UM


def _array(v) -> list:
    # list() would take the keys of an object or the characters of a string
    if not isinstance(v, list):
        raise TypeError(f"expected an array, got {json.dumps(v)}")
    return v


def _object(v) -> dict:
    # dict() would take an array of [key, value] pairs
    if not isinstance(v, dict):
        raise TypeError(f"expected an object, got {json.dumps(v)}")
    return v


def _um_list(v):
    return [_um(x) for x in _array(v)]


def _medium_from(params: dict):
    if "chi_m_m3_per_kg" in params:
        return make_medium(params["chi_m_m3_per_kg"])
    return default_medium()


def _library_args(params: dict, names: dict) -> dict:
    """The config fields that are set, under the library's parameter names,
    so that the library's own defaults fill in the rest."""
    return {arg: params[field] for field, arg in names.items() if field in params}


def _control_from(params: dict) -> StepControl:
    return StepControl(**_library_args(params, {
        "rtol": "rtol", "atol_m": "atol"}))


_DESIGN_SCHEMA = {
    "scheme": (True, _text),
    "v0_m_per_s": (True, _real),
    "b_um": (True, _um),
    "x0_um": (True, _um),
    "tau_s": (True, _real),
    "chi_m_m3_per_kg": (False, _real),
    "closure_tolerance_m": (False, _real),
    "mass_kg": (False, _real),  # metadata only; the dynamics is mass-free
    "rtol": (False, _real),
    "atol_m": (False, _real),
}


def _cmd_design(args, outputs) -> int:
    cfg = _load_config(args.config)
    params = _take(cfg, _DESIGN_SCHEMA, "design config")
    inputs = ScatteringInputs(
        v0=params["v0_m_per_s"], b=params["b_um"],
        x0=params["x0_um"], tau=params["tau_s"],
    )
    spec = DesignSpec(
        scheme=params["scheme"],
        inputs=inputs,
        **_library_args(params, {
            "closure_tolerance_m": "closure_tolerance"}),
    )
    medium = _medium_from(params)
    control = _control_from(params)

    result, top, bottom = design_trajectories(spec, medium, control)

    outputs.write_json("result.json", {
        "scheme": spec.scheme,
        "config": cfg,
        "backend": kernel_backend(),
        **result.to_dict(),
    })
    outputs.write("trajectory_top.csv",
                  lambda path: write_trajectory_csv(top, path))
    outputs.write("trajectory_bottom.csv",
                  lambda path: write_trajectory_csv(bottom, path))
    outputs.write_json("events_top.json", event_log_dict(top))
    outputs.commit()

    w = result.wires
    print(f"scheme:                {spec.scheme}")
    print(f"splitting wire:        {w[0].current:.6f} A at "
          f"({w[0].x / _UM:.3f}, {w[0].z / _UM:.3f}) um")
    print(f"deflector wires:       {w[1].current:.6f} A at "
          f"({w[1].x / _UM:.3f}, +/-{abs(w[1].z) / _UM:.3f}) um")
    print(f"max separation:        {result.max_separation / _UM:.3f} um")
    print(f"closure error:         {result.closure_error:.3e} m")
    print(f"return time:           {result.return_time:.6f} s")
    print(f"return velocity:       ({result.return_velocity[0]:.6f}, "
          f"{result.return_velocity[1]:.6f}) m/s")
    dists = ", ".join(f"{d / _UM:.4f}" for d in result.min_distance_per_wire)
    print(f"closest approach:      {dists} um")
    print(f"required density:      {result.min_current_density * 1e-12:.4f} A/um^2")
    print(f"peak field:            {result.peak_field:.4f} T")
    print(f"outputs:               {outputs.out}/")
    return 0


_SIMULATE_SCHEMA = {
    "wires": (True, _array),
    "initial": (True, _object),
    "duration_s": (True, _real),
    "chi_m_m3_per_kg": (False, _real),
    "mass_kg": (False, _real),
    "rtol": (False, _real),
    "atol_m": (False, _real),
}

_WIRE_SCHEMA = {
    "x_um": (True, _um),
    "z_um": (True, _um),
    "current_a": (True, _real),
}

_INITIAL_SCHEMA = {
    "x_um": (True, _um),
    "z_um": (True, _um),
    "vx_m_per_s": (True, _real),
    "vz_m_per_s": (True, _real),
    "t_s": (False, _real),
}


def _cmd_simulate(args, outputs) -> int:
    cfg = _load_config(args.config)
    params = _take(cfg, _SIMULATE_SCHEMA, "simulate config")
    wires = []
    for i, wcfg in enumerate(params["wires"]):
        if not isinstance(wcfg, dict):
            raise ConfigError(f"wires[{i}] must be an object")
        w = _take(wcfg, _WIRE_SCHEMA, f"wires[{i}]")
        wires.append(Wire(w["x_um"], w["z_um"], w["current_a"]))
    icfg = _take(params["initial"], _INITIAL_SCHEMA, "initial")
    initial = PacketState(**_library_args(icfg, {
        "x_um": "x", "z_um": "z", "vx_m_per_s": "vx", "vz_m_per_s": "vz",
        "t_s": "t"}))
    medium = _medium_from(params)
    control = _control_from(params)

    traj = simulate(initial, wires, medium, params["duration_s"], control)

    outputs.write("trajectory.csv",
                  lambda path: write_trajectory_csv(traj, path))
    outputs.write_json("events.json", {
        "config": cfg, "backend": kernel_backend(), **event_log_dict(traj)})
    outputs.commit()

    print(f"samples:               {len(traj.t)}")
    print(f"apex |z|:              {abs(traj.events.apex.z) / _UM:.4f} um")
    for p in traj.events.periapsis_per_wire:
        print(f"wire {p.wire_index} closest:        {p.distance / _UM:.6f} um")
    print(f"energy drift:          {traj.stats.energy_drift:.3e}")
    print(f"outputs:               {outputs.out}/")
    return 0


_SWEEP_SCHEMA = {
    "v0_min_m_per_s": (False, _real),
    "v0_max_m_per_s": (False, _real),
    "n_points": (False, _integer),
    "b_um": (False, _um),
    "x0_um": (False, _um),
    "tau_s": (False, _real),
    "chi_m_m3_per_kg": (False, _real),
}


# sweep rows: a larger grid is a config error, not an allocation that fails
# or exhausts memory
_MAX_POINTS = 10**6


def _cmd_sweep(args, outputs) -> int:
    cfg = _load_config(args.config) if args.config else {}
    params = _take(cfg, _SWEEP_SCHEMA, "sweep config")
    flight = _library_args(params, {"x0_um": "x0", "tau_s": "tau"})
    if "n_points" in params and not 1 <= params["n_points"] <= _MAX_POINTS:
        raise ConfigError(
            f"field 'n_points': must be from 1 to {_MAX_POINTS}")
    if "v0_min_m_per_s" in params or "v0_max_m_per_s" in params:
        # an end the config leaves open is the default grid's: the lower one
        # just above feasibility
        default = default_velocity_grid(**flight)
        v_min = params.get("v0_min_m_per_s", default[0])
        v_max = params.get("v0_max_m_per_s", default[-1])
        if not 0.0 < v_min <= v_max:
            raise ConfigError(
                "fields 'v0_min_m_per_s' and 'v0_max_m_per_s': need "
                f"0 < v0_min <= v0_max, got {v_min:g} and {v_max:g}")
        grid = velocity_grid(v_min, v_max, params.get("n_points", len(default)))
    else:
        grid = default_velocity_grid(**flight, **_library_args(
            params, {"n_points": "n_points"}))

    table = velocity_sweep(grid, medium=_medium_from(params), **flight,
                           **_library_args(params, {"b_um": "b"}))

    if args.format == "json":
        name = "sweep.json"
        outputs.write_json(name, {"config": cfg, "rows": table.to_dicts()})
    else:
        name = "sweep.csv"
        outputs.write(name, table.write_csv)
    outputs.commit()
    print(f"wrote {len(table.v0)} rows to {outputs.out / name}")
    return 0


_VALIDATE_SCHEMA = {
    "b_um_list": (False, _um_list),
    "current_a": (False, _real),
    "v0_m_per_s": (False, _real),
    "launch_distance_um": (False, _um),
    "region_radius_um": (False, _um),
    "chi_m_m3_per_kg": (False, _real),
    "rtol": (False, _real),
    "atol_m": (False, _real),
}


def _cmd_validate(args, outputs) -> int:
    cfg = _load_config(args.config) if args.config else {}
    params = _take(cfg, _VALIDATE_SCHEMA, "validate config")
    rows = validate_analytic(
        medium=_medium_from(params),
        control=_control_from(params),
        **_library_args(params, {
            "b_um_list": "b_values", "current_a": "current", "v0_m_per_s": "v0",
            "launch_distance_um": "launch_distance",
            "region_radius_um": "region_radius"}),
    )
    outputs.write_json("validation.json", {
        "config": cfg,
        "backend": kernel_backend(),
        "rows": [r.to_dict() for r in rows],
    })
    outputs.commit()
    for r in rows:
        print(f"b = {r.b / _UM:6.2f} um: max relative deviation "
              f"{r.max_rel_deviation:.3e} over {r.n_compared} samples")
    print(f"outputs:               {outputs.out}/")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiresplit",
        description="Design and simulate diamagnetic wire-deflection trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("design", _cmd_design, True),
        ("simulate", _cmd_simulate, True),
        ("sweep", _cmd_sweep, False),
        ("validate", _cmd_validate, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="path to the JSON job description")
        p.add_argument("--out", default=".", help="output directory")
        if name == "sweep":  # the only command that writes a table
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="output format of the sweep table")
        p.set_defaults(handler=fn)
    return parser


def _make_out_dir(path: str) -> list[Path]:
    """Create the ``--out`` directory and return the directories this made,
    deepest first; ``ConfigError`` naming ``--out`` if that fails."""
    out = Path(path)
    made = []
    try:
        made = [p for p in (out, *out.parents) if not p.exists()]
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _remove_dirs(made)
        raise ConfigError(
            f"--out {path} is not a usable output directory: {exc}") from exc
    return made


class _Outputs:
    """The files a command writes into ``--out``.

    Each is written under a hidden temporary name, and :meth:`commit` renames
    them all into place once every write has succeeded and no target is a
    directory. Until then a failed run changes no file in ``--out``, and
    :meth:`discard` removes the temporary files. An ``OSError`` names the
    output file, not its temporary name.
    """

    def __init__(self, out: Path):
        self.out = out
        self.staged = []  # (temporary, target)

    def write(self, name: str, fill) -> None:
        """Write the file ``name`` by calling ``fill(path)``."""
        target = self.out / name
        temporary = self.out / f".{name}.{os.getpid()}.tmp"
        try:
            open(temporary, "x").close()  # never clobbers a file in --out
            self.staged.append((temporary, target))
            fill(temporary)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(target)) from exc

    def write_json(self, name: str, payload) -> None:
        self.write(name, lambda path: path.write_text(
            json.dumps(payload, indent=2, allow_nan=False) + "\n"))

    def commit(self) -> None:
        for _, target in self.staged:
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(target))
        for temporary, target in self.staged:
            try:
                os.replace(temporary, target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(target)) from exc
        self.staged = []

    def discard(self) -> None:
        for temporary, _ in self.staged:  # a renamed one is gone already
            try:
                temporary.unlink()
            except OSError:
                pass
        self.staged = []


def _remove_dirs(dirs) -> None:
    for d in dirs:
        try:
            d.rmdir()
        except OSError:
            return


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    made, code = [], 1
    outputs = _Outputs(Path(args.out))
    try:
        # before the work, so an unusable --out fails fast
        made = _make_out_dir(args.out)
        code = args.handler(args, outputs)
    except (ConfigError, InfeasibleDesignError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except DesignFailure as exc:
        print(f"design failure: {exc}", file=sys.stderr)
        code = EXIT_DESIGN
    except (WireSingularityError, StiffnessError) as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        code = EXIT_SINGULARITY
    except OSError as exc:  # an output write; config reads raise ConfigError
        print(f"config error: --out {args.out} is not writable: {exc}",
              file=sys.stderr)
        code = EXIT_CONFIG
    finally:
        # a failed run leaves no output file or directory behind
        outputs.discard()
        if code != 0:
            _remove_dirs(made)
    return code


if __name__ == "__main__":
    sys.exit(main())
