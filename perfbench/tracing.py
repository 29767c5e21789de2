"""Span tracing around the package's layer entry points.

The traced run replaces each layer's public entry point, wherever a
``wiresplit`` module holds a reference to it, with a wrapper that records a
span: name, start, end, parent span and op id. Spans stay in memory and are
written out when the run ends. Nothing inside the package changes; the
wrappers are removed again by :meth:`Tracer.uninstall`.

Layers, named after the package's modules: ``cli`` -> ``designer`` ->
``integrator`` (``simulate``) -> ``kernel`` (``integrate`` of the active
backend), with ``field``, ``analytic`` and ``sweep`` beside them. Kernel
work counters are read from the public ``Trajectory.stats`` that
``simulate`` returns, so they sit on the ``integrator.simulate`` spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field

KERNEL_MODULES = {"python": "wiresplit._kernel_py", "compiled": "wiresplit._kernel"}
SAMPLE_COLUMNS = 5  # t, x, z, vx, vz
SAMPLE_BYTES = SAMPLE_COLUMNS * 8


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans for wrapped calls; one tracer per traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``after(span, args, kwargs, result)`` may attach attributes once the
        call has returned.
        """
        kwargs = kwargs or {}
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), math.nan,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.attrs["raised"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(span, args, kwargs, result)
        return result

    def adopt(self, rows, parent: int):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for row in rows:
            span = Span.from_json(row)
            span.parent = parent if span.parent is None else base + span.parent
            span.op = self.op
            self.spans.append(span)

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)
        return wrapper

    def install(self, entries):
        """Patch every ``wiresplit`` module reference to each entry point.

        ``entries`` holds ``(function, span_name, after)`` triples.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wiresplit" or n.startswith("wiresplit."))]
        for fn, name, after in entries:
            wrapper = self.wrap(name, fn, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def _public_functions(module):
    return [v for k, v in vars(module).items()
            if not k.startswith("_") and inspect.isfunction(v)
            and v.__module__ == module.__name__]


def layer_entries():
    """Entry points of every imported layer, with their span names."""
    import wiresplit
    from wiresplit import analytic, designer, field as field_mod, integrator, sweep

    def simulate_after(span, args, kwargs, traj):
        wires = args[1] if len(args) > 1 else kwargs["wires"]
        span.attrs.update(
            steps=traj.stats.n_steps,
            rejected=traj.stats.n_rejected,
            rhs=traj.stats.n_rhs_evals,
            samples=len(traj.t),
            active_wires=sum(1 for w in wires if w.current != 0.0),
        )

    def closure_after(span, args, kwargs, err):
        span.attrs["valid"] = abs(err) < 0.5 * designer.CLOSURE_SENTINEL

    def sweep_after(span, args, kwargs, result):
        span.attrs["rows"] = len(result.v0) if hasattr(result, "v0") else len(result)

    kernel = sys.modules[KERNEL_MODULES[wiresplit.kernel_backend()]]
    entries = [
        (kernel.integrate, "kernel.integrate", None),
        (integrator.simulate, "integrator.simulate", simulate_after),
        (designer.design_trajectories, "designer.design_trajectories", None),
        (designer.closure_error, "designer.closure_error", closure_after),
        (sweep.validate_analytic, "sweep.validate_analytic", sweep_after),
        (sweep.velocity_sweep, "sweep.velocity_sweep", sweep_after),
    ]
    entries += [(fn, f"field.{fn.__name__}", None) for fn in _public_functions(field_mod)]
    entries += [(fn, f"analytic.{fn.__name__}", None) for fn in _public_functions(analytic)]
    cli = sys.modules.get("wiresplit.cli")
    if cli is not None:
        entries.append((cli.main, "cli.main", None))
    return entries


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(c.start, span.start), min(c.end, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def _outermost(spans, layer):
    """Spans of ``layer`` with no ancestor in the same layer."""
    out = []
    for span in spans:
        if span.layer != layer:
            continue
        p = span.parent
        while p is not None and spans[p].layer != layer:
            p = spans[p].parent
        if p is None:
            out.append(span)
    return out


def op_counters(spans) -> dict:
    """Exact per-op work counts: kernel steps, rejections, RHS, closure evals."""
    out: dict = {}
    for span in spans:
        c = out.setdefault(span.op, [0, 0, 0, 0])
        if span.name == "integrator.simulate" and "steps" in span.attrs:
            c[0] += span.attrs["steps"]
            c[1] += span.attrs["rejected"]
            c[2] += span.attrs["rhs"]
        elif span.name == "designer.closure_error":
            c[3] += 1
    return {op: tuple(c) for op, c in out.items()}


def counter_mismatches(counters, period, again=None) -> list:
    """Ops whose work counters differ where they must repeat exactly.

    ``counters`` lists each op's counters in run order; the op list repeats
    every ``period`` ops, so op ``i`` must equal op ``i - period``.
    ``again``, if given, is the same run's counters from another process,
    which must equal ``counters`` op for op.
    """
    out = [{"op": i, "first": counters[i - period], "again": c}
           for i, c in enumerate(counters) if i >= period and c != counters[i - period]]
    if again is not None:
        if len(again) != len(counters):
            out.append({"op": None, "first": len(counters), "again": len(again)})
        out += [{"op": i, "first": a, "again": b}
                for i, (a, b) in enumerate(zip(counters, again)) if a != b]
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts and times over all spans (see the benchmark README)."""
    selfs = self_times(spans)
    busy = {}
    own = {}
    for span, s in zip(spans, selfs):
        own[span.layer] = own.get(span.layer, 0.0) + s
    for layer in {s.layer for s in spans}:
        busy[layer] = sum(s.duration for s in _outermost(spans, layer))

    sims = [s for s in spans if s.name == "integrator.simulate" and "steps" in s.attrs]
    steps = sum(s.attrs["steps"] for s in sims)
    rejected = sum(s.attrs["rejected"] for s in sims)
    rhs = sum(s.attrs["rhs"] for s in sims)
    forces = sum(s.attrs["rhs"] * s.attrs["active_wires"] for s in sims)
    samples = sum(s.attrs["samples"] for s in sims)
    kernel_busy = busy.get("kernel", 0.0)

    designs = [s for s in spans if s.name == "designer.design_trajectories"]
    evals = [s for s in spans if s.name == "designer.closure_error"]
    resim = sum(s.duration for s in spans if s.name == "integrator.simulate"
                and s.parent is not None
                and spans[s.parent].name == "designer.design_trajectories")
    sweep_rows = sum(s.attrs.get("rows", 0) for s in _outermost(spans, "sweep"))
    ops_busy = busy.get("op", 0.0)

    return {
        "kernel.calls": (len(_outermost(spans, "kernel")), "count"),
        "kernel.steps": (steps, "count"),
        "kernel.rejected": (rejected, "count"),
        "kernel.rhs_evals": (rhs, "count"),
        "kernel.accept_ratio": (_ratio(steps, steps + rejected), "ratio"),
        "kernel.wire_force_evals": (forces, "count"),
        "kernel.busy_s": (kernel_busy, "s"),
        "kernel.share": (_ratio(kernel_busy, ops_busy), "ratio"),
        "kernel.ns_per_rhs": (_ratio(kernel_busy, rhs) * 1e9, "ns"),
        "kernel.ns_per_wire_force": (_ratio(kernel_busy, forces) * 1e9, "ns"),
        "kernel.samples_out": (samples, "count"),
        "kernel.sample_bytes": (samples * SAMPLE_BYTES, "bytes"),
        "integrator.calls": (len(_outermost(spans, "integrator")), "count"),
        "integrator.busy_s": (busy.get("integrator", 0.0), "s"),
        "integrator.self_s": (own.get("integrator", 0.0), "s"),
        "designer.designs": (len(designs), "count"),
        "designer.failures": (sum(1 for s in designs if "raised" in s.attrs), "count"),
        "designer.busy_s": (busy.get("designer", 0.0), "s"),
        "designer.self_s": (own.get("designer", 0.0), "s"),
        "designer.evals_per_design": (_ratio(len(evals), len(designs)), "count"),
        "designer.valid_eval_ratio": (
            _ratio(sum(1 for s in evals if s.attrs.get("valid")), len(evals)), "ratio"),
        "designer.resim_s": (resim, "s"),
        "field.calls": (len(_outermost(spans, "field")), "count"),
        "field.busy_s": (busy.get("field", 0.0), "s"),
        "analytic.calls": (len(_outermost(spans, "analytic")), "count"),
        "analytic.busy_s": (busy.get("analytic", 0.0), "s"),
        "sweep.rows": (sweep_rows, "count"),
        "sweep.self_s": (own.get("sweep", 0.0), "s"),
        "trace.ops_busy_s": (ops_busy, "s"),
    }
