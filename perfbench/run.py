"""Run one tropfactor benchmark workload in this process.

    python3 perfbench/run.py --workload divide_mix --seed 1 --trace 0

Closed loop: one client, one thread, one outstanding call.  Inputs come
from --seed and are generated before tropfactor is imported.  With
--trace 0 the run calls complete blocks of the workload's mix until at
least --seconds of busy time and MIN_SAMPLES calls have passed, and
reports the end-to-end metrics.  With --trace 1 it runs the first
trace_blocks blocks twice, untraced and then traced, so the per-layer
counts are the same on every run with the same seed, and reports the
per-layer metrics; the spans go to perfbench/out/.

Every answer is checked by oracle.py outside the timed interval.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The package is imported from src/ of
the checkout that holds this file; without it the run exits with 2.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# at least ten samples lie above the reported p90
MIN_SAMPLES = 100
# no new block starts after this much wall time, which keeps a run far
# below the three-minute limit even on a machine several times slower
WALL_LIMIT_S = 100.0

ALL_KINDS = [k for w in workloads.WORKLOADS.values() for k in w.kinds]

# Seconds one probe() takes at the reference speed.  Reported times are
# measured times scaled by PROBE_REF_S / (mean probe time in the run).
PROBE_REF_S = 0.0007


def probe():
    """A fixed slice of interpreter work, timed before every call.

    The host's CPU speed drifts by up to 40% over minutes, for identical
    work; this probe, exact rational elimination plus dictionary churn
    like the package's own inner loops, slows by the same factor, so
    dividing by its mean time cancels the drift.  It never calls
    tropfactor, so no change to the package can move it.
    """
    t0 = time.perf_counter()
    rows = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i + j) % 4)
             for j in range(6)] for i in range(5)]
    for c in range(5):
        p = next(i for i in range(c, 5) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(5):
            if i != c and rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    d = {}
    for i in range(400):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


class Speed:
    """Probe times of one run, and the factor that normalizes its times."""

    def __init__(self):
        self.probes = []

    def sample(self, count=1):
        self.probes += [probe() for _ in range(count)]

    def factor(self):
        return PROBE_REF_S / statistics.mean(self.probes)


def _one_setup(wl):
    """(normalized set-up seconds, raw seconds, context)."""
    speed = Speed()
    speed.sample(20)
    t0 = time.perf_counter()
    ctx = wl.setup()
    raw = time.perf_counter() - t0
    speed.sample(20)
    return raw * speed.factor(), raw, ctx


def _setup_in_child(name):
    """(normalized, raw) set-up seconds of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--setup-only"], capture_output=True, text=True, timeout=150)
    if proc.returncode:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    norm, raw = proc.stdout.split()[-2:]
    return float(norm), float(raw)


def warm_up(wl, ctx, blocks, run):
    """Run blocks[0] untimed, with its answers checked into run.failures.

    The first calls in a process are slower while the interpreter's heap
    grows; the timed calls start after that.  The warm-up block has its
    own inputs, so no timed input has been seen before.
    """
    warm = Pass()
    warm.run_block(wl, ctx, blocks[0])
    run.failures += warm.failures
    run.extra_attempted += len(warm.latencies)


class Pass:
    """Latencies, kinds and failures of one sequence of calls."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.failures = []
        self.busy = 0.0
        self.extra_attempted = 0
        self.speed = Speed()

    def run_block(self, wl, ctx, block, wrap=None, on_result=None):
        state = {}
        for op in block:
            self.speed.sample()
            result = exc = None
            t0 = time.perf_counter()
            try:
                fn = wl.prepare(op, ctx, state)
                t0 = time.perf_counter()
                result = fn() if wrap is None else wrap(len(self.kinds), fn)
            except Exception as e:  # the check decides whether it was expected
                exc = e
            dt = time.perf_counter() - t0
            self.busy += dt
            self.latencies.append(dt)
            try:
                kind, err = wl.check(op, result, exc, ctx, state)
            except Exception:  # output of an unexpected shape
                kind, err = "unchecked", traceback.format_exc()
            self.kinds.append(kind)
            if on_result is not None:
                on_result(result)
            if err is not None:
                self.failures.append((kind, wl.describe(op), err))

    def normalized(self):
        """Latencies and busy time at the reference speed."""
        f = self.speed.factor()
        return [t * f for t in self.latencies], self.busy * f

    def p50_by_kind(self):
        lat, _ = self.normalized()
        out = {}
        for kind in ALL_KINDS:
            mine = [t for t, k in zip(lat, self.kinds) if k == kind]
            out[f"op.{kind}.p50_ms"] = statistics.median(mine) * 1e3 \
                if mine else 0.0
        return out


def timed_run(wl, blocks, seconds):
    samples = [_setup_in_child(wl.name) for _ in range(wl.setups - 1)]
    norm, raw, ctx = _one_setup(wl)
    samples.append((norm, raw))
    run = Pass()
    warm_up(wl, ctx, blocks, run)
    start = time.perf_counter()
    i = 0
    while (run.busy < seconds or len(run.latencies) < MIN_SAMPLES) and \
            time.perf_counter() - start < WALL_LIMIT_S:
        run.run_block(wl, ctx, blocks[1 + i % (len(blocks) - 1)])
        i += 1
    lat, busy = run.normalized()
    metrics = {
        "ops_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(n for n, _ in samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    raw = run.latencies
    note = (f"{len(lat)} calls in {i} blocks; speed factor "
            f"{run.speed.factor():.4f}; raw: {run.busy:.3f} s busy, "
            f"ops_per_s {len(raw) / run.busy:.4g}, p50 "
            f"{statistics.median(raw) * 1e3:.4g} ms, p90 "
            f"{statistics.quantiles(raw, n=10)[8] * 1e3:.4g} ms, setup "
            + " ".join(f"{r:.4f}" for _, r in samples) + " s")
    return run, metrics, note


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "yield", "per_divide", "overhead_frac")):
        return "ratio"
    return "count"


def traced_run(wl, blocks, seed):
    tracer = Tracer()
    setup_speed = Speed()
    setup_speed.sample(20)
    tracer.install()
    try:
        ctx = wl.setup()
    finally:
        tracer.uninstall()
    setup_speed.sample(20)
    chosen = blocks[1:1 + wl.trace_blocks]
    plain = Pass()
    warm_up(wl, ctx, blocks, plain)
    for block in chosen:
        plain.run_block(wl, ctx, block)
    traced = Pass()

    def count_exit(result):
        code = getattr(result, "exit_code", None)
        if code is not None:
            tracer.counts[f"cli.exit.{code}"] += 1

    tracer.install()
    try:
        for block in chosen:
            traced.run_block(wl, ctx, block, wrap=tracer.run_op,
                             on_result=count_exit)
    finally:
        tracer.uninstall()
    traced.speed.probes += setup_speed.probes
    values = tracer.metrics(time_scale=traced.speed.factor())
    values.update(plain.p50_by_kind())
    values["trace.overhead_frac"] = \
        traced.normalized()[1] / plain.normalized()[1] - 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-s{seed}.tsv")
    tracer.write_spans(path)
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    run = Pass()
    for p in (plain, traced):
        run.latencies += p.latencies
        run.kinds += p.kinds
        run.failures += p.failures
        run.extra_attempted += p.extra_attempted
    note = (f"{len(chosen)} blocks, {len(plain.latencies)} calls per pass; "
            f"raw busy: untraced {plain.busy:.3f} s, traced "
            f"{traced.busy:.3f} s; speed factors {plain.speed.factor():.4f} "
            f"and {traced.speed.factor():.4f}; {len(tracer.spans)} spans "
            f"in {os.path.relpath(path)}")
    return run, metrics, note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tropfactor", "__init__.py")):
        print(f"tropfactor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        norm, raw, _ = _one_setup(wl)
        print(norm, raw)
        return 0
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        blocks = wl.generate(random.Random(f"{wl.name}:{args.seed}"), workdir)
        if args.trace:
            run, metrics, note = traced_run(wl, blocks, args.seed)
        else:
            run, metrics, note = timed_run(wl, blocks, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for kind, what, err in run.failures:
        print(f"FAILED {kind}: {what}\n  {err}", file=sys.stderr)
    attempted = len(run.latencies) + run.extra_attempted
    failed = len(run.failures)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: " + note)
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
