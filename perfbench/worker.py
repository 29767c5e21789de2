"""One benchmark worker process: set up, run one workload, report.

Started by ``run.py``; not meant to be run by hand. The last line of its
standard output is a JSON report. ``--t0`` is the parent's
``time.perf_counter()`` just before the spawn (CLOCK_MONOTONIC is shared by
all processes on Linux), so ``setup_s`` runs from the worker's start to the
first timed op: interpreter start, ``import wiresplit``, input generation
and one untimed warm-up op.

Modes:
  default          closed loop, one op at a time, for ``--seconds``
  --setup-only     stop after the warm-up op (extra set-up samples)
  --trace          the workload's fixed op set untraced, then traced; reports
                   the per-layer metrics and each op's work counters
  --recount        the fixed op set traced only, reporting the work counters,
                   which must equal those of the ``--trace`` process

Ops marked ``expected_raise`` (the known-defect probes, see
``workloads.trajectory_ops``) are kept out of the timed and traced ops. Every
mode except ``--setup-only`` runs each of them once, untimed, at the end, and
reports them apart as ``probe``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

ENERGY_DRIFT_MAX = 1e-8
VALIDATION_DEVIATION_MAX = 1e-3
CLI_TIMEOUT_S = 60


class Op:
    """One unit of work: ``run`` is timed, ``check`` is not.

    ``expected_raise`` names the exception type a known defect makes the op
    raise; see ``stats.OpTally.run``.
    """

    def __init__(self, run, check, expected_raise=None):
        self.run = run
        self.check = check
        self.expected_raise = expected_raise

    def traced(self, tracer):
        return tracer.call("op", self.run)

    def tally(self, tally, fn=None):
        return tally.run(fn or self.run, self.check, self.expected_raise)


def _rel_miss(value, target, tol):
    return abs(value / target - 1.0) > tol


def check_design(d: dict, scheme: str, reference: bool, tolerance: float):
    """Check a design in ``DesignResult.to_dict()`` form; ``None`` if fine."""
    if not d["closure_error_m"] <= tolerance:
        return f"{scheme}: closure error {d['closure_error_m']:.3e} m > {tolerance:.1e} m"
    if reference:
        got = {"splitting_a": d["wires"][0]["current_a"],
               "separation_m": d["max_separation_m"],
               "deflector_a": d["wires"][1]["current_a"]}
        for key, (target, tol) in workloads.PINNED[scheme].items():
            if _rel_miss(got[key], target, tol):
                return f"{scheme} reference: {key} {got[key]:.6g} vs {target} (rel {tol})"
    return None


def design_ops(specs, wiresplit):
    from wiresplit import designer

    ops = []
    for s in specs:
        spec = designer.DesignSpec(
            scheme=s["scheme"],
            inputs=wiresplit.ScatteringInputs(v0=s["v0"], b=s["b"], x0=s["x0"], tau=s["tau"]),
        )

        def check(result, spec=spec, ref=s["reference"]):
            return check_design(result[0].to_dict(), spec.scheme, ref, spec.closure_tolerance)

        # module attribute looked up per call, so the traced phase sees its wrapper
        ops.append(Op(lambda spec=spec: designer.design_trajectories(spec), check))
    return ops


def check_trajectory(traj, stop_at_closure):
    import numpy as np

    if len(traj.t) < 2 or not np.all(np.diff(traj.t) > 0.0):
        return "sample times not strictly increasing"
    if not np.all(np.isfinite(traj.states)):
        return "non-finite sample"
    if not traj.stats.energy_drift < ENERGY_DRIFT_MAX:
        return f"energy drift {traj.stats.energy_drift:.3e} >= {ENERGY_DRIFT_MAX}"
    if stop_at_closure and traj.events.closure is None:
        return "no closure crossing"
    return None


def check_validation(rows):
    if len(rows) != 1 or rows[0].n_compared < 1:
        return "validation row compared no samples"
    if not rows[0].max_rel_deviation < VALIDATION_DEVIATION_MAX:
        return f"validation deviation {rows[0].max_rel_deviation:.3e}"
    return None


def trajectory_ops(items, wiresplit):
    from wiresplit import integrator, sweep

    medium = wiresplit.default_medium()
    ops = []
    for it in items:
        if it["kind"] == "validate":
            ops.append(Op(lambda b=it["b"]: sweep.validate_analytic(
                b_values=(b,), current=2.0, v0=0.01, medium=medium), check_validation))
            continue
        x, z, vx, vz = it["initial"]
        initial = wiresplit.PacketState(x=x, z=z, vx=vx, vz=vz)
        wires = tuple(wiresplit.Wire(*w) for w in it["wires"])
        control = wiresplit.StepControl(rtol=it["rtol"], atol=it["atol"])
        stop = it["stop_at_closure"]
        ops.append(Op(
            lambda a=(initial, wires, medium, it["duration"], control), stop=stop:
                integrator.simulate(*a, stop_at_closure=stop),
            lambda traj, stop=stop: check_trajectory(traj, stop),
            it.get("expected_raise")))
    return ops


class CliOp(Op):
    """A fresh ``wiresplit design`` process writing into a new temp dir."""

    def __init__(self, scheme, config_path, env):
        super().__init__(self._run, self._check)
        self.scheme = scheme
        self.config = config_path
        self.env = env

    def _spawn(self, prefix_cmd):
        tmp = Path(tempfile.mkdtemp(dir=OUT, prefix="cli-"))
        out = tmp / "out"
        cmd = prefix_cmd + ["design", "--config", str(self.config), "--out", str(out)]
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, tmp, proc.stderr

    def _run(self):
        return self._spawn([sys.executable, "-m", "wiresplit.cli"])

    def _check(self, result):
        code, tmp, err = result
        try:
            if code != 0:
                return f"cli {self.scheme} exited {code}: {err.strip()[-200:]}"
            try:
                d = json.loads((tmp / "out" / "result.json").read_text())
            except (OSError, json.JSONDecodeError) as exc:
                return f"cli {self.scheme}: result.json unreadable: {exc}"
            return check_design(d, self.scheme, True, d["config"].get("closure_tolerance_m", 1e-8))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def traced(self, tracer):
        idx = len(tracer.spans)
        spans = OUT / f"spans-child-{os.getpid()}.jsonl"
        result = tracer.call("op", self._spawn,
                             ([sys.executable, str(HERE / "cli_child.py"), str(spans)],))
        if spans.exists():
            tracer.adopt([json.loads(line) for line in spans.read_text().splitlines()],
                         parent=idx)
            spans.unlink()
        out = result[1] / "out"
        tracer.spans[idx].attrs["output_bytes"] = sum(
            p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        return result


def cli_ops(schemes, env):
    cfg_dir = Path(tempfile.mkdtemp(dir=OUT, prefix="cfg-"))
    ops = []
    for scheme in schemes:
        path = cfg_dir / f"{scheme}.json"
        path.write_text(json.dumps(workloads.CLI_CONFIGS[scheme]) + "\n")
        ops.append(CliOp(scheme, path, env))
    return ops, cfg_dir


def split_probes(ops):
    """``(measured, probes)``: the ops marked ``expected_raise`` are probes."""
    return ([op for op in ops if op.expected_raise is None],
            [op for op in ops if op.expected_raise is not None])


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def timed_loop(ops, seconds):
    tally = stats.OpTally()
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        ops[i % len(ops)].tally(tally)
        i += 1
    return tally


def tally_report(tally):
    return {"latencies": tally.latencies, "attempted": tally.attempted,
            "failed": tally.failed, "fail_ratio": tally.fail_ratio, "raised": tally.raised,
            "n_wrong": len(tally.wrong), "problems": tally.problems[:10],
            "n_problems": len(tally.problems), "wall_s": tally.wall_s}


def traced_phases(workload, seed, ops, import_s, recount):
    """Run the fixed op set untraced (unless ``recount``), then traced."""
    import tracing

    fixed = ops * workloads.TRACE_PASSES[workload]
    untraced = stats.OpTally()
    if not recount:
        for op in fixed:
            op.tally(untraced)

    tracer = tracing.Tracer()
    traced = stats.OpTally()
    tracer.install(tracing.layer_entries())
    try:
        for i, op in enumerate(fixed):
            tracer.op = i
            op.tally(traced, lambda op=op: op.traced(tracer))
    finally:
        tracer.uninstall()
    counters = tracing.op_counters(tracer.spans)
    report = {"traced": tally_report(traced),
              "counters": [counters.get(i) for i in range(len(fixed))],
              "period": len(ops)}
    if recount:
        return report

    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(cli_metrics(tracer.spans, import_s))
    metrics["trace.overhead_ratio"] = (
        traced.throughput / untraced.throughput if untraced.throughput else 0.0, "ratio")
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    report.update({
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "untraced": tally_report(untraced),
        "spans_file": str(spans_path.relative_to(ROOT)),
    })
    return report


def cli_metrics(spans, import_s):
    """CLI-layer figures: per-process medians over traced CLI processes.

    Outside ``cli_cold`` no CLI process runs; ``cli.import_s`` is then the
    worker's own ``import wiresplit`` and the other figures are 0.
    """
    imports = [s.duration for s in spans if s.name == "cli.import"]
    mains = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    ops = [s for s in spans if s.name == "op"]
    main_s = [spans[i].duration for i in mains]
    output_s = []
    for i in mains:
        child_end = max((s.end for s in spans if s.parent == i), default=spans[i].start)
        output_s.append(spans[i].end - child_end)
    out_bytes = [s.attrs["output_bytes"] for s in ops if "output_bytes" in s.attrs]
    imp = stats.median(imports) if imports else import_s
    med = (lambda xs: stats.median(xs) if xs else 0.0)
    op_wall = med([s.duration for s in ops if "output_bytes" in s.attrs])
    return {
        "cli.import_s": (imp, "s"),
        "cli.main_s": (med(main_s), "s"),
        "cli.output_s": (med(output_s), "s"),
        "cli.output_bytes": (med(out_bytes), "bytes"),
        "cli.import_share": (imp / op_wall if op_wall else 0.0, "ratio"),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--recount", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t = time.perf_counter()
    import wiresplit
    import_s = time.perf_counter() - t
    src = ROOT / "src"
    if Path(wiresplit.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"wiresplit imported from {wiresplit.__file__}, not from {src}")

    inputs = workloads.generate(args.workload, args.seed)
    cfg_dir = None
    if args.workload == "design_mix":
        ops = design_ops(inputs, wiresplit)
    elif args.workload == "trajectory_mix":
        ops = trajectory_ops(inputs, wiresplit)
    else:
        ops, cfg_dir = cli_ops(inputs, dict(os.environ))
    ops, probes = split_probes(ops)

    try:
        warm = stats.OpTally()
        ops[0].tally(warm)
        setup_s = time.perf_counter() - args.t0
        report = {"setup_s": setup_s, "import_s": import_s,
                  "backend": wiresplit.kernel_backend(),
                  "warmup": tally_report(warm)}
        if args.trace or args.recount:
            report.update(traced_phases(args.workload, args.seed, ops, import_s,
                                        args.recount))
        elif not args.setup_only:
            report["run"] = tally_report(timed_loop(ops, args.seconds))
        if not args.setup_only:
            probe = stats.OpTally()
            for op in probes:
                op.tally(probe)
            report["probe"] = tally_report(probe)
        report["peak_rss_mb"] = peak_rss_mb(args.workload)
    finally:
        if cfg_dir is not None:
            shutil.rmtree(cfg_dir, ignore_errors=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
