"""wiresplit benchmark: seeded closed-loop workloads, checked outputs, JSON result.

Usage (from the repository root):
    python3 perfbench/run.py --workload design_mix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each workload runs in a fresh worker process with one thread (BLAS and
OpenMP pools pinned to 1), one op at a time, importing ``wiresplit`` from
``src/`` of this checkout. Workloads and the reasons for them are described
in ``perfbench/workloads.py``; metric definitions in ``perfbench/README.md``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's fixed op set untraced and then traced, and prints the per-layer
metrics, ``trace.overhead_ratio`` among them; a second worker traces the same
op set again, and the work counters of both must be equal op for op. Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, and the full record (sample counts, failures by
cause, run environment) goes to ``perfbench/out/``. The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5  # fresh set-ups per untraced run; setup_s is their median
SETUP_MARGIN_S = 60  # hang guard for a worker's set-up and its last op


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def worker_timeout(workload, seed, seconds, flags) -> float:
    """Wall-time limit of one worker: its timed seconds or its fixed op set."""
    if "--trace" in flags or "--recount" in flags:
        n_ops = len(workloads.generate(workload, seed)) * workloads.TRACE_PASSES[workload]
        phases = 1 if "--recount" in flags else 2
        return SETUP_MARGIN_S + phases * n_ops * workloads.OP_BUDGET_S[workload]
    return SETUP_MARGIN_S + (0.0 if "--setup-only" in flags else seconds)


def spawn(env, workload, seed, seconds, *flags) -> dict:
    timeout = worker_timeout(workload, seed, seconds, flags)
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker {' '.join(flags)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(seed, backend) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "backend": backend,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def gate_problems(report, phases) -> list:
    """Correctness problems of a worker report: the warm-up op and ``phases``.

    A wrong output fails the gate, and so does a raise, unless the op was
    marked as expected to raise that exception (``OpTally.problems``).
    """
    w = report["warmup"]
    problems = [f"warm-up op failed: {w['raised'] or w['problems']}"] if w["failed"] else []
    for phase in phases:
        problems += report[phase]["problems"]
    return problems


def end_to_end(workload, seed, seconds, env):
    main = spawn(env, workload, seed, seconds)
    setups = [main["setup_s"]] + [
        spawn(env, workload, seed, seconds, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)]
    run = main["run"]
    lat = run["latencies"]
    if not lat:
        raise BenchError(f"{workload}: no op completed")
    p50, p90 = stats.percentile(lat, 50.0), stats.percentile(lat, 90.0)
    tail = stats.tail_percentile(lat)
    metrics = {
        "latency_p50_s": (p50.value, "s"),
        "latency_p90_s": (p90.value, "s"),
        "throughput_ops_per_s": (len(lat) / run["wall_s"], "1/s"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "latency_p50_s": f"{p50.n} samples",
        "latency_p90_s": (f"{p90.n} samples, {p90.beyond} beyond"
                          + ("" if p90.beyond >= stats.MIN_BEYOND else
                             f"; fewer than {stats.MIN_BEYOND} beyond, highest percentile "
                             f"with {stats.MIN_BEYOND}: "
                             + (f"p{tail.q:g} = {tail.value:.6g} s" if tail else "none"))),
        "throughput_ops_per_s": f"{len(lat)} completed / {run['wall_s']:.3f} s op wall time",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mb": "children" if workload == "cli_cold" else "worker",
    }
    problems = gate_problems(main, ["run", "probe"])
    fail_note = (f"fail_ratio {run['fail_ratio']:.4f} "
                 f"({run['failed']} failed / {run['attempted']} attempted; "
                 f"raised {run['raised']}, wrong outputs {run['n_wrong']}; "
                 f"{run['n_problems']} fail the gate)")
    return main, metrics, notes, problems, run, fail_note


def per_layer(workload, seed, seconds, env):
    report = spawn(env, workload, seed, seconds, "--trace")
    recount = spawn(env, workload, seed, seconds, "--recount")
    metrics = {k: (v["value"], v["unit"]) for k, v in report["per_layer"].items()}
    notes = {}
    problems = gate_problems(report, ["untraced", "traced", "probe"])
    problems += gate_problems(recount, ["traced", "probe"])
    mismatch = tracing.counter_mismatches(report["counters"], report["period"],
                                          recount["counters"])
    if mismatch:
        problems.append(f"work counters differ between repeats of an op: {mismatch[:10]}")
    run = report["traced"]
    fail_note = (f"traced ops: {run['failed']} failed / {run['attempted']} attempted "
                 f"(raised {run['raised']}); spans in {report['spans_file']}")
    return report, metrics, notes, problems, run, fail_note


def run_workload(workload, args, env):
    measure = per_layer if args.trace else end_to_end
    report, metrics, notes, problems, run, fail_note = measure(
        workload, args.seed, args.seconds, env)
    env_record = environment(args.seed, report["backend"])
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  backend={report['backend']}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:.6g} {unit}{note}")
    print(f"  {fail_note}")
    probe = report["probe"]
    if probe["attempted"]:
        print(f"  known-defect probe, untimed, outside attempted/failed: "
              f"{probe['failed']} of {probe['attempted']} atol=0 draws failed "
              f"(raised {probe['raised']}; ROADMAP item 0)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  env: {json.dumps(env_record)}")
    record = {"workload": workload, "trace": args.trace, "env": env_record,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "problems": problems,
              "attempted": run["attempted"], "failed": run["failed"],
              "raised": run["raised"],
              "probe": {k: probe[k] for k in ("attempted", "failed", "raised", "problems")}}
    path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "wiresplit" / "__init__.py").is_file():
        print(f"error: no wiresplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = worker_env()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args, env) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def key(rec, name):
        return name if len(records) == 1 else f"{rec['workload']}.{name}"

    result = {
        "correct": not any(r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {key(r, k): v for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
