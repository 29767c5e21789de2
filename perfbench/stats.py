"""Small statistics helpers shared by the benchmark's processes.

Nothing here imports ``wiresplit``: the parent process uses these helpers
too, and it must not pay for the package import it is measuring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# Fewest samples that must lie above a percentile before it is reported
# as a tail figure.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the counts that qualify it."""

    q: float          # percentile, 0..100
    value: float
    n: int            # sample count
    beyond: int       # samples strictly above ``value``


def percentile(values, q: float) -> Percentile:
    """Linear-interpolation percentile (numpy's default) with its counts."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    beyond = sum(1 for x in xs if x > value)
    return Percentile(q=q, value=value, n=len(xs), beyond=beyond)


def tail_percentile(values, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest percentile of ``ladder`` with ``MIN_BEYOND`` samples above it.

    Returns ``None`` when even the median has fewer than that.
    """
    for q in ladder:
        p = percentile(values, q)
        if p.beyond >= MIN_BEYOND:
            return p
    return None


def median(values) -> float:
    return percentile(values, 50.0).value


@dataclass
class OpTally:
    """Closed-loop op accounting: latency of completed ops, failures by cause.

    An op fails when it raises or when its output fails the correctness
    check; both count against ``attempted``. ``wall_s`` sums the wall time
    of every attempted op, failed ones included.

    Every failure is also a correctness problem, except a raise of the
    exception type the op was marked with (``expected_raise``): a known
    defect that counts as a failed op but does not fail the gate.
    """

    latencies: list = field(default_factory=list)
    attempted: int = 0
    raised: dict = field(default_factory=dict)   # exception type -> count
    unexpected: list = field(default_factory=list)  # unexpected raise messages
    wrong: list = field(default_factory=list)    # check messages
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + len(self.wrong)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def problems(self) -> list:
        """Messages of the failures that fail the correctness gate."""
        return self.unexpected + self.wrong

    @property
    def throughput(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0.0 else 0.0

    def run(self, fn, check, expected_raise=None):
        """Time ``fn()``, then validate its output with ``check``.

        ``check`` returns ``None`` for a correct output or a message naming
        what is wrong. ``expected_raise`` names the exception type the op is
        known to raise, if any. Returns ``fn``'s result, or ``None`` if it
        raised.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # op boundary: count the failure, keep running
            self.wall_s += time.perf_counter() - t0
            name = type(exc).__name__
            self.raised[name] = self.raised.get(name, 0) + 1
            if name != expected_raise:
                self.unexpected.append(f"raised {name}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.wall_s += dt
        problem = check(result)
        if problem is not None:
            self.wrong.append(problem)
        else:
            self.latencies.append(dt)
        return result
