"""Closed-loop benchmark of the chernflat CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy.  One client sends one job at a
time to ``chernflat.cli.main(argv)`` in this process, with stdout captured;
each job's input is a model file generated from the seed.  Whole rounds of
jobs run until ``--seconds`` have passed.  Every answer is checked
afterwards, outside the timed region, by ``checks.py``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from the traced run with ``--trace 1``.  The line before it
is a summary with extra figures.  Inputs, results and traces go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3
REF_ROWS = 28
REF_NOMINAL_S = 0.050   # host_reference() time that defines the adjusted seconds

sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def host_reference() -> float:
    """Time a fixed stdlib-only sparse Fraction elimination (about 10 ms here).

    It allocates and divides rationals in dict rows the way exact elimination
    does, so it slows down with the host much as the jobs do; it tells a slow
    host from a slow program and scales the host-adjusted job times.
    """
    t = time.perf_counter()
    pivots = {}
    for r in range(REF_ROWS):
        row = {c: Fraction((r * 7 + c * 3) % 11 - 5, 1 + (r + c) % 3)
               for c in range(REF_ROWS) if (r * c + r + c) % 4}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            f = row[lead] / piv[lead]
            for c, v in piv.items():
                cur = row.get(c, 0) - f * v
                if cur:
                    row[c] = cur
                else:
                    row.pop(c, None)
    return time.perf_counter() - t


def import_cli():
    """Import chernflat afresh from the checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "chernflat" or n.startswith("chernflat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("chernflat.cli")
    expected = os.path.join(SRC, "chernflat")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise RuntimeError(f"chernflat was imported from {cli.__file__}, not from {expected}")
    return cli


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cli = None

    def prepare(self, index: int, job=None):
        job = job or workloads.make_job(self.workload, self.seed, index)
        path = os.path.join(self.workdir, f"model{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inputs.model_json(job.model), fh)
        return job, path

    def call(self, job, path):
        """One CLI call; returns (seconds, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        argv = job.argv(path)
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:   # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:    # a crash is a failed job, not a failed run
                code = f"crash: {exc!r}"
        return time.perf_counter() - t, code, out.getvalue()

    def setup(self, k: int):
        """Import chernflat, generate the first round, run the k-th warm-up job.

        Returns the wall time, the same time host-adjusted, the first round's
        inputs and the warm-up's outcome.
        """
        gc.collect()
        before = host_reference()
        t = time.perf_counter()
        self.cli = import_cli()
        first = [self.prepare(i) for i in range(workloads.round_size(self.workload))]
        job, path = self.prepare(-1 - k, workloads.warmup_job(self.workload, self.seed, k))
        _, code, stdout = self.call(job, path)
        elapsed = time.perf_counter() - t
        adjusted = elapsed * REF_NOMINAL_S * 2 / (before + host_reference())
        return elapsed, adjusted, first, (job, code, stdout)


def percentile_tail(values: list):
    """Highest percentile with at least ten samples beyond it, from 40 samples up."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    return ordered[n - 11]


def layer_metrics(tracer, records, refs, size, span_cost, count_cost) -> dict:
    """Per-layer figures of a traced run.

    Self times are medians over every traced job.  Call counts and the other
    counters are medians over the first round only, a fixed set of inputs for
    a given seed, so two traced runs with one seed report identical counts.
    """
    per_job = tracer.per_job()
    jobs = range(len(records))
    first = range(min(size, len(records)))
    empty = {name: [0.0, 0] for name in spans.TRACED}

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for name in spans.TRACED:
        metrics[f"{name}.self_s"] = (med(per_job.get(j, empty)[name][0] for j in jobs), "s")
        metrics[f"{name}.calls"] = (med(per_job.get(j, empty)[name][1] for j in first), "count")
    shapes = [tracer.kernel_shapes.get(j, (0, 0)) for j in first]
    metrics["linalg.kernel_from_rows.rows"] = (med(s[0] for s in shapes), "count")
    metrics["linalg.kernel_from_rows.cols"] = (med(s[1] for s in shapes), "count")
    for key in spans.COUNTERS:
        metrics[key] = (med(tracer.job_counts[j][key] for j in first), "count")
    metrics["scalars.max_bits"] = (med(inputs.max_bits(records[j][0].model) for j in first), "bits")
    metrics["host.ref_s"] = (statistics.median(refs), "s")
    metrics["trace.job_s.p50"] = (med(r[1] for r in records), "s")
    overhead = []
    for j in jobs:
        opened = sum(entry[1] for entry in per_job.get(j, empty).values())
        counted = sum(tracer.job_counts[j].values())
        overhead.append(opened * span_cost + counted * count_cost)
    metrics["trace.overhead_s"] = (med(overhead), "s")
    return metrics


def write_trace(args, tracer) -> None:
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "job", "start", "end", "parent", "self"],
                "spans": tracer.spans,
                "counters": tracer.job_counts,
                "kernel_shapes": tracer.kernel_shapes,
            },
            fh,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chernflat", "cli.py")):
        print(f"error: no chernflat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    runner = Runner(args.workload, args.seed, workdir)
    run_start = time.perf_counter()
    setups, setups_adj, warmups = [], [], []
    for k in range(SETUPS):
        elapsed, adjusted, pending, warm = runner.setup(k)
        setups.append(elapsed)
        setups_adj.append(adjusted)
        warmups.append(warm)

    tracer = None
    if args.trace:
        span_cost, count_cost = spans.calibrate()
        tracer = spans.Tracer()
        tracer.install()

    size = workloads.round_size(args.workload)
    records = []       # (job, seconds, code, stdout)
    refs = []
    loop_start = time.perf_counter()
    index = 0
    while time.perf_counter() - loop_start < args.seconds:
        if index:
            pending = [runner.prepare(index + i) for i in range(size)]
        for job, path in pending:
            gc.collect()
            refs.append(host_reference())
            if tracer:
                tracer.begin(index)
            seconds, code, stdout = runner.call(job, path)
            if tracer:
                tracer.end()
            records.append((job, seconds, code, stdout))
            index += 1
    loop_seconds = time.perf_counter() - loop_start
    refs.append(host_reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # answer checks, outside the timed region
    failures = []
    warm_failures = 0
    checked = [(job, code, stdout, True) for job, code, stdout in warmups]
    checked += [(job, code, stdout, False) for job, _, code, stdout in records]
    for job, code, stdout, warm in checked:
        try:
            checks.check(job, code, stdout)
        except checks.WrongAnswer as exc:
            failures.append(f"{'warm-up ' if warm else ''}{job.command} {job.family}: {exc}")
            warm_failures += warm

    times = [r[1] for r in records]
    # each job scaled by the host reference measured just before and after it
    adjusted = [t * REF_NOMINAL_S * 2 / (refs[k] + refs[k + 1]) for k, t in enumerate(times)]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(records),
        "rounds": len(records) // size,
        "loop_s": loop_seconds,
        "run_s": time.perf_counter() - run_start,
        "setup_s.raw": statistics.median(setups),
        "setups_s": setups,
        "host.ref_s": statistics.median(refs),
        "job_s.p50": statistics.median(times),
        "jobs_per_s": len(times) / sum(times),
        "job_s.tail": percentile_tail(times),
        "job_s_adj.tail": percentile_tail(adjusted),
        "failures": failures[:5],
        "jobs_detail": [[job.family, seconds, refs[k]] for k, (job, seconds, _, _) in enumerate(records)],
    }

    if tracer is None:
        metrics = {
            "job_s_adj.p50": (statistics.median(adjusted), "s"),
            "jobs_per_s_adj": (len(adjusted) / sum(adjusted), "1/s"),
            "setup_s": (statistics.median(setups_adj), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, records, refs, size, span_cost, count_cost)
        write_trace(args, tracer)

    failed = len(failures) - warm_failures
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"summary": summary, "result": result}, fh, indent=1)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
