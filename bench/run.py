"""homcap benchmark: one seeded workload, timed, checked, optionally traced.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; homcap is imported from its ``src``
directory.  One client runs the workload closed-loop in this process, with
no other threads: each operation starts when the previous one has returned
and been checked.  Only the calls into homcap are timed; the checks
against independent answers run between them.

The host's speed moves by tens of percent, within seconds and for minutes
at a time, on every process at once.  The end-to-end times are therefore
scaled by an interleaved reference: a fixed computation of the benchmark's
own algebra, timed between blocks of calls (see ``reference``).  The wall
times are printed as well, on the lines before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs a
fixed prefix of the inputs in alternating untraced and traced passes, with
spans recorded around homcap's public functions (see spans.py), and prints
the per-layer metrics; the traced answers must equal the untraced ones.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(1, str(SRC))

SETUP_REPEATS = 3
TAIL_FALLBACK = (95, 90, 75, 50)

# A scaled time is a wall time multiplied by REFERENCE_S over the time the
# reference took around it: the time the call would have taken on a host
# where the reference takes REFERENCE_S, which it does at full speed on the
# 2-vCPU machine behind the baselines in README.md.  The reference is timed
# before and after every block of timed steps (calls, or set-up steps) that
# adds up to BLOCK_S (or one step, if that is longer), and each step in a
# block is scaled by the mean of the two.  It uses only bench/oracle.py, so a
# change to homcap leaves it alone.
REFERENCE_S = 0.0015
BLOCK_S = 0.1
REFERENCE_FACTORS = (("CP", 2), ("M", 2, 3), ("S", 4), ("M", 3, 2))
REFERENCE_MATRIX = [[(7 * i + 3 * j * j + i * j) % 101 - 50 for j in range(16)] for i in range(16)]


@dataclass(frozen=True)
class Spec:
    name: str
    build: object  # (homcap, rng) -> endless iterator of workloads.Case
    warmup: int  # inputs run untimed during set-up
    pool: int  # inputs measured after them, cycled if a run gets through all
    traced: int  # prefix of the measured inputs that a traced run passes over
    tail: float  # percentile reported as latency_tail_ms


# The tail percentile is fixed per workload, at the highest of p75, p90, p95
# and p99 that keeps over ten samples beyond it in a 30 s run here, in slow
# periods too, and falls inside one template's timings, so that it does not
# move with the number of operations a run completes.
WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("cli_mix", workloads.cli_mix, warmup=100, pool=36000, traced=50, tail=99),
        Spec("product_kunneth", workloads.product_kunneth, warmup=1, pool=280, traced=7, tail=90),
        Spec("snf_presentations", workloads.snf_presentations, warmup=10, pool=1500, traced=10, tail=95),
    )
}


class SetupError(RuntimeError):
    """homcap could not be imported from this checkout."""


def import_homcap():
    """A fresh import of homcap from ``src``, so set-up pays for it every time."""
    for name in [m for m in sys.modules if m == "homcap" or m.startswith("homcap.")]:
        del sys.modules[name]
    try:
        homcap = importlib.import_module("homcap")
    except ImportError as err:
        raise SetupError(f"cannot import homcap from {SRC}: {err}") from err
    if Path(homcap.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"homcap was imported from {homcap.__file__}, not from {SRC}")
    return homcap


def reference() -> float:
    """Seconds the fixed reference computation takes now."""
    start = time.perf_counter()
    for _ in range(2):
        oracle.product_homology(REFERENCE_FACTORS, 100)
        oracle.det(REFERENCE_MATRIX)
        oracle.rank_mod(REFERENCE_MATRIX, 7)
    return time.perf_counter() - start


class Blocks:
    """Wall and scaled times of timed steps, gathered in blocks of about
    BLOCK_S with the reference timed between blocks."""

    def __init__(self):
        self.refs = [reference()]
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self._open: list[float] = []
        self._open_s = 0.0

    def add(self, seconds: float) -> None:
        self._open.append(seconds)
        self._open_s += seconds
        if self._open_s >= BLOCK_S:
            self.close()

    def time(self, fn):
        start = time.perf_counter()
        out = fn()
        self.add(time.perf_counter() - start)
        return out

    def close(self) -> None:
        """End the open block: time the reference and scale the block's steps."""
        if not self._open:
            return
        self.refs.append(reference())
        scale = REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2)
        self.wall += self._open
        self.scaled += [dt * scale for dt in self._open]
        self._open, self._open_s = [], 0.0


def setup(spec: Spec, seed: int):
    """Import homcap, generate the seeded inputs and run the warm-up.

    Returns (timed Blocks, measured cases, input hash)."""
    blocks = Blocks()
    homcap = blocks.time(import_homcap)
    inputs = spec.build(homcap, random.Random(seed))
    cases = [blocks.time(lambda: next(inputs)) for _ in range(spec.warmup + spec.pool)]
    for case in cases[: spec.warmup]:
        blocks.add(attempt(case)[1])  # warm-up answers go unchecked; the measured ones are checked
    blocks.close()
    digest = hashlib.sha256("\n".join(c.text for c in cases).encode()).hexdigest()
    return blocks, cases[spec.warmup :], digest


def attempt(case):
    """Run one case; returns (answer, seconds, error)."""
    start = time.perf_counter()
    try:
        answer = case.call()
    except Exception as err:  # a failed operation is counted, not fatal
        return None, time.perf_counter() - start, err
    return answer, time.perf_counter() - start, None


def judge(case, answer, error) -> bool:
    if error is not None:
        return False
    try:
        return case.check(answer)
    except Exception:  # malformed output fails its check
        return False


class Failures:
    """Counts failed operations and reports the first few on stderr."""

    def __init__(self):
        self.count = 0

    def add(self, case, why) -> None:
        self.count += 1
        if self.count <= 5:
            print(f"failed: {case.text[:200]}: {why}", file=sys.stderr)


@contextlib.contextmanager
def frozen_heap():
    """Keep the objects alive now, the generated inputs among them, out of
    the garbage collections that run while homcap is timed."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def measure(cases, seconds: float):
    """Closed loop over the cases until ``seconds`` of call time have passed.

    Returns (timed Blocks, one step per call; failure count)."""
    failures = Failures()
    busy = 0.0
    i = 0
    with frozen_heap():
        blocks = Blocks()
        while busy < seconds or not i:
            case = cases[i % len(cases)]
            answer, dt, error = attempt(case)
            blocks.add(dt)
            busy += dt
            if not judge(case, answer, error):
                failures.add(case, error or "wrong answer")
            i += 1
        blocks.close()
    return blocks, failures.count


def tail(latencies: list[float], percentile: float):
    """(percentile, value, samples beyond it), nearest rank.  Falls back to
    lower percentiles while fewer than ten samples lie beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in [percentile] + [p for p in TAIL_FALLBACK if p < percentile]:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == TAIL_FALLBACK[-1]:
            return p, ordered[rank - 1], n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(spec: Spec, seed: int, seconds: float):
    scaled_s, wall_s = [], []
    for _ in range(SETUP_REPEATS):
        cases = None  # let the previous repeat's inputs go before the next
        blocks, cases, digest = setup(spec, seed)
        scaled_s.append(sum(blocks.scaled))
        wall_s.append(sum(blocks.wall))
    calls, failed = measure(cases, seconds)
    scaled, wall = calls.scaled, calls.wall
    p, tail_s, beyond = tail(scaled, spec.tail)
    n = len(scaled)
    metrics = {
        "setup_s": (statistics.median(scaled_s), "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    refs = calls.refs
    notes = [
        f"inputs: {len(cases)} from seed {seed}, sha256 {digest}",
        f"set-up: median of {SETUP_REPEATS}",
        f"tail: p{p} of {n} operations, {beyond} beyond it",
        f"failed_frac: {failed / n:.6g} 1 ({failed} of {n} operations failed)",
        f"reference: {len(refs)} timings while measuring, median {statistics.median(refs) * 1e3:.4g} ms, "
        f"range {min(refs) * 1e3:.4g}-{max(refs) * 1e3:.4g} ms; "
        f"the metrics below are scaled to {REFERENCE_S * 1e3:g} ms",
        f"unscaled wall times: setup_s {statistics.median(wall_s):.6g} s, "
        f"ops_per_s {n / sum(wall):.6g} 1/s, "
        f"latency_p50_ms {statistics.median(wall) * 1e3:.6g} ms, "
        f"latency_tail_ms {tail(wall, p)[1] * 1e3:.6g} ms",
    ]
    return metrics, n, failed, notes


def traced(spec: Spec, seed: int, seconds: float):
    """Alternate untraced and traced passes over the first ``spec.traced``
    inputs until ``seconds`` have passed (at least one pair)."""
    _, cases, digest = setup(spec, seed)
    cases = cases[: spec.traced]
    failures = Failures()
    plain_times, traced_times, per_pass = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        with frozen_heap():
            plain = [attempt(c) for c in cases]
        rec = spans.Recorder()
        with frozen_heap():
            restore = spans.install(rec)
            try:
                runs = []
                for op, case in enumerate(cases):
                    rec.op_id = op
                    runs.append(attempt(case))
            finally:
                restore()
        plain_times.append(sum(r[1] for r in plain))
        traced_times.append(sum(r[1] for r in runs))
        per_pass.append(spans.layer_metrics(rec, len(cases)))
        if first is None:
            first = rec
        for case, (a, _, ea), (b, _, eb) in zip(cases, plain, runs):
            if not judge(case, a, ea):
                failures.add(case, ea or "wrong answer (untraced)")
            if not judge(case, b, eb) or a != b:
                failures.add(case, eb or "traced answer differs or is wrong")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{spec.name}-seed{seed}.tsv.gz"
    first.write(span_file)
    metrics = {
        name: (statistics.median(m[name] for m in per_pass), _unit(name))
        for name in per_pass[0]
    }
    overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1
    metrics["trace.overhead_frac"] = (overhead, "1")
    attempted = 2 * len(cases) * len(per_pass)
    notes = [
        f"inputs: first {len(cases)} of seed {seed}'s list, sha256 of the whole list {digest}",
        f"passes: {len(per_pass)} untraced and {len(per_pass)} traced; "
        f"per-layer values are per pass, medians over the traced passes",
        f"spans of the first traced pass: {span_file.relative_to(ROOT)}",
    ]
    return metrics, attempted, failures.count, notes


def _unit(name: str) -> str:
    """Unit of a per-layer metric; BENCHMARK.json lists the same units."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith("_bits"):
        return "bits"
    return "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = traced if args.trace else end_to_end
    try:
        metrics, attempted, failed, notes = run(WORKLOADS[args.workload], args.seed, args.seconds)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"workload: {args.workload}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
