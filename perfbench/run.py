#!/usr/bin/env python3
"""Benchmark of the derange system: time to a certified verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop in this single process and thread:
passes run back to back until the next one would end past ``--seconds``
(at least three passes).  Every pass starts from freshly built inputs
and every output is checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the run's settings and sample counts.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: median, over five fresh processes, of the time from
  process start through ``import derange`` and building the workload's
  inputs;
- ``wall_rel``: median time of one full pass, in units of a fixed
  reference computation timed right before and right after that pass in
  the same process (see ``reference``);
- ``peak_rss_mb``: peak resident memory of this process.

The pass time is reported relative to the reference because the speed of
the machines this runs on drifts by a quarter or more over minutes, which
moves every second counted but cancels in the ratio.  The median pass
time in seconds and the reference's own time are recorded on the line
before the result.

With ``--trace 1`` passes alternate between traced and untraced, and
the metrics are per layer: self seconds, calls and exact counts per
pass from the traced passes (medians), unit latencies from the untraced
ones, and the tracing overhead between the two.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60

# layers whose only calls happen while inputs are built
SETUP_SPANS = ("corpus.load_corpus",)

# spans whose work sits mostly in nested spans; their inclusive seconds
# show the whole cost of a step that a new algorithm would replace
TOTALS = (
    "structure.normal_subgroups",
    "subdirect.goursat_enumerate",
    "subdirect.materialize_group",
    "derangements.sylow_certificate",
    "corpus.imprimitive_filter",
    "corpus.enumerate_transitive",
)
CALL_COUNTS = (
    "structure.normal_closure",
    "structure.normal_subgroups",
    "subdirect.quotient",
    "subdirect.quotient_isomorphisms",
    "subdirect.materialize_group",
    "group.bsgs",
    "group.bsgs_extend",
    "derangements.pndr",
    "subgroups.closure",
    "subgroups.conjugators",
    "cover.check_cover",
    "kernels.row_orders",
)
EXACT_COUNTS = (
    ("subdirect.descriptors", "count"),
    ("pipeline.pairs_checked", "count"),
    ("pipeline.products_checked", "count"),
    ("kernels.scan_vectors", "count"),
    ("kernels.scan_bytes_computed", "bytes"),
)
# name: (numerator count, denominator span calls)
YIELDS = {
    "structure.normal_join_yield": ("structure.normal_subgroups_found", "structure.normal_closure"),
    "subdirect.iso_yield": ("subdirect.iso_hits", "subdirect.quotient_isomorphisms"),
    "subgroups.closure_yield": ("subgroups.classes", "subgroups.closure"),
    "cover.search_yield": ("cover.covers_found", "cover.search_checks"),
}


END_TO_END = [("setup_s", "s"), ("wall_rel", "ref"), ("peak_rss_mb", "MB")]


def per_layer_metrics():
    """Every per-layer metric name with its unit, in print order."""
    out = [(f"{name}_s", "s") for name in spans.SPAN_NAMES]
    out += [(f"{name}_total_s", "s") for name in TOTALS]
    out += [(f"{name}_calls", "count") for name in CALL_COUNTS]
    out += list(EXACT_COUNTS)
    out += [(name, "ratio") for name in YIELDS]
    out += [
        ("unit_ms_p50", "ms"),
        ("unit_ms_p90", "ms"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def import_program():
    """Import derange from this checkout's src/, or exit with code 2."""
    if not (SRC / "derange" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import derange

    if SRC.resolve() not in Path(derange.__file__).resolve().parents:
        print(f"benchmark: imported derange from {derange.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return derange


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(args, samples):
    """Median wall time of fresh processes that only import and build."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait returns the moment the process exits; waiting
        # with a timeout polls and would round the time up by up to 50 ms
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
    return statistics.median(times), len(times)


def reference() -> float:
    """Seconds taken by a fixed computation that does not use the program:
    dict updates in interpreted Python plus small numpy gathers on uint8
    rows, the two kinds of work the program's passes are made of."""
    import numpy as np

    t0 = time.perf_counter()
    table = {}
    for i in range(150_000):
        table[i & 1023] = table.get(i & 1023, 0) + i * i
    row = np.arange(64, dtype=np.uint8)
    for _ in range(3000):
        row = row[row[::-1]]
        row.tobytes()
    return time.perf_counter() - t0


class Run:
    """Passes of one workload and what they measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls = {"traced": [], "plain": []}
        self.rels = []  # untraced pass time over the reference's time
        self.refs = []
        self.latencies = []
        self.snapshots = []  # per traced pass: (self_s, total_s, calls, counts, wall)

    def add(self, rec, traced, ref):
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.walls["traced" if traced else "plain"].append(rec.wall)
        if not traced:
            self.latencies.extend(rec.latencies)
            self.rels.append(rec.wall / ref)
            self.refs.append(ref)
        for problem in rec.problems:
            print(f"benchmark: FAILED {problem}", file=sys.stderr)


def measure(workload, inputs, seconds, trace, min_passes):
    """Run passes until the next one would end past ``seconds``."""
    import workloads

    run = Run()
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    durations = []
    i = 0
    while True:
        t0 = time.perf_counter()
        traced = trace and i % 2 == 0
        rec = workloads.Recorder(time.perf_counter, tracer if traced else None)
        ref_before = reference()
        try:
            if traced:
                tracer.reset()
                with spans.installed(tracer):
                    workload.run_pass(inputs, rec)
                run.snapshots.append((dict(tracer.self_s), dict(tracer.total_s), dict(tracer.calls),
                                      dict(tracer.counts), rec.wall))
            else:
                workload.run_pass(inputs, rec)
        except Exception:
            rec.raised(f"pass {i}")
        run.add(rec, traced, (ref_before + reference()) / 2)
        i += 1
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if i >= min_passes and elapsed + statistics.median(durations) > seconds:
            break
    return run


def layer_metrics(run, setup_snapshot, per_unit):
    """Per-layer metrics from the traced passes; exact counts must repeat.
    Unit latencies come from the untraced passes, on workloads whose pass
    is many units; elsewhere they read 0."""
    problems = []
    per_pass = []
    for self_s, total_s, calls, counts, wall in run.snapshots:
        values = {f"{span}_s": self_s.get(span, 0.0) for span in spans.SPAN_NAMES}
        values.update({f"{span}_total_s": total_s.get(span, 0.0) for span in TOTALS})
        values.update({f"{span}_calls": calls.get(span, 0) for span in CALL_COUNTS})
        for name, _ in EXACT_COUNTS:
            values[name] = counts.get(name, 0)
        for name, (num, den) in YIELDS.items():
            n_den = counts.get(den, calls.get(den, 0))
            values[name] = counts.get(num, 0) / n_den if n_den else 0.0
        values["trace.wall_s"] = wall
        values["trace.unattributed_s"] = wall - sum(self_s.values())
        per_pass.append(values)

    exact = [n for n, u in per_layer_metrics() if u in ("count", "bytes")]
    for values in per_pass[1:]:
        for name in exact:
            if values.get(name, 0) != per_pass[0].get(name, 0):
                problems.append(f"count {name} changed between passes: "
                                f"{per_pass[0].get(name, 0)} then {values.get(name, 0)}")

    out = {}
    for name, unit in per_layer_metrics():
        samples = [v[name] for v in per_pass if name in v]
        if not samples:
            value = 0.0
        elif name in exact:
            value = samples[0]
        else:
            value = statistics.median(samples)
        out[name] = {"value": value, "unit": unit}
    for span in SETUP_SPANS:
        out[f"{span}_s"]["value"] = setup_snapshot.get(span, 0.0)
    if per_unit:
        lat_ms = [x * 1000 for x in run.latencies]
        out["unit_ms_p50"]["value"] = percentile(lat_ms, 50)
        out["unit_ms_p90"]["value"] = percentile(lat_ms, 90)
    plain, traced = run.walls["plain"], run.walls["traced"]
    if plain and traced:
        out["trace.overhead_ratio"]["value"] = statistics.median(traced) / statistics.median(plain) - 1
    return out, problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long versions of the workloads, for the self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args):
    """Build, measure and check one workload; returns (meta, result)."""
    import numpy
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]

    setup_tracer = spans.Tracer()
    if args.trace:
        with spans.installed(setup_tracer):
            inputs = workload.setup(args.seed)
    else:
        inputs = workload.setup(args.seed)
    if args.setup_only:
        return None, None

    samples = {}
    seconds = {}
    if not args.trace:
        setup_s, samples["setup_s"] = setup_seconds(args, 1 if args.smoke else SETUP_SAMPLES)
    run_ = measure(workload, inputs, args.seconds, args.trace, 2 if args.smoke else MIN_PASSES)

    problems = []
    if args.trace:
        metrics, problems = layer_metrics(run_, dict(setup_tracer.self_s), workload.per_unit)
        samples["traced_passes"] = len(run_.walls["traced"])
        samples["untraced_passes"] = len(run_.walls["plain"])
        samples["unit_latencies"] = len(run_.latencies)
    else:
        values = {
            "setup_s": setup_s,
            "wall_rel": statistics.median(run_.rels),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        samples["wall_rel"] = len(run_.rels)
        seconds["wall_s"] = statistics.median(run_.walls["plain"])
        seconds["reference_s"] = statistics.median(run_.refs)
    for problem in problems:
        print(f"benchmark: FAILED {problem}", file=sys.stderr)
    failed = run_.failed + len(problems)
    attempted = run_.attempted + len(problems)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "samples": samples,
        "measured_s": seconds,
        "failed_ratio": failed / attempted,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return meta, result


def main(argv=None):
    args = parse_args(argv)
    # before numpy is imported; set-up processes inherit them
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    meta, result = run(args)
    if args.setup_only:
        return 0
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
