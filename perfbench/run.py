"""Benchmark for localsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  One workload runs per process, single-threaded, as a closed loop.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The line before it carries the
stamps (git sha, Python version, nproc, seed) and the details behind the
metrics, raw timings included.  Both are also written under
`perfbench/results/`, together with the spans of a traced run.  Times are
scaled by the host's pace (see pace.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from pace import Pace
from tracing import AUDIT_COMPOSE, PREFIX_IN_APPLY, Tracer
from workloads import ALGEBRA_COMBS, WORKLOADS, ZIPPER_COMBS, Recorder

T_START = time.perf_counter()

# every module loaded before localsim; a fresh import drops all the others,
# so what localsim imports beyond these is timed in every set-up
BASELINE_MODULES = frozenset(k for k in sys.modules if k != "localsim" and not k.startswith("localsim."))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# each run sets up this many times (fresh import included) and reports the median
SETUP_REPEATS = 7

# blocks of the traced phase; per-layer totals are reported per block
TRACED_BLOCKS = 3


def fresh_import():
    """Import localsim from scratch, dropping any copy already loaded and
    every module loaded since the benchmark's own imports."""
    for name in [k for k in sys.modules if k not in BASELINE_MODULES]:
        del sys.modules[name]
    lib = importlib.import_module("localsim")
    importlib.import_module("localsim.cli")
    return lib


def timed_setups(workload, seed: int, pace):
    """Set up SETUP_REPEATS times; return the last state and, for every set-up,
    its seconds and the pace of the three reference samples that follow it."""
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(fresh_import(), seed)
        seconds = time.perf_counter() - t0
        first = len(pace.samples)
        for _ in range(3):
            pace.sample()
        setups.append((seconds, pace.factor(first)))
    return state, setups


def run_blocks(workload, state, rec, seconds: float | None = None, blocks: int | None = None):
    """Run whole blocks until `seconds` have passed, or exactly `blocks` of them.

    Each block is recorded with its operation count, its seconds in
    operations (reference samples excluded) and the pace of the samples
    taken during it and just after it.  Returns the phase's seconds.
    """
    pace = rec.pace
    t0, c0 = time.perf_counter(), pace.clock()
    with pace.running():
        while True:
            ops, b0, first = rec.attempted, pace.clock(), len(pace.samples)
            workload.block(state, rec)
            seconds_in_ops = pace.clock() - b0
            pace.sample()
            rec.blocks.append((rec.attempted - ops, seconds_in_ops, pace.factor(first)))
            done = len(rec.blocks) >= blocks if blocks is not None else time.perf_counter() - t0 >= seconds
            if done:
                return pace.clock() - c0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamps(workload: str, seed: int, trace: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def paced_latencies(rec) -> list[float]:
    """Every latency of the timed phase divided by the pace of the reference
    samples taken while it ran and the one on either side, ascending.

    The host's speed moves within a block, so this corrects a latency
    better than its block's pace does.
    """
    paces = {}
    out = []
    marks = rec.sample_marks
    for i, seconds in enumerate(rec.latencies):
        span = (max(marks[2 * i] - 1, 0), marks[2 * i + 1] + 1)
        if span not in paces:
            paces[span] = rec.pace.factor(*span)
        out.append(seconds / paces[span])
    return sorted(out)


def paced_block_seconds(rec) -> float:
    """Median over the blocks of a block's seconds divided by its pace."""
    return statistics.median(s / pace for _, s, pace in rec.blocks)


def end_to_end(rec, setups: list[tuple[float, float]], peak_rss_mb: float) -> dict:
    """End-to-end metrics; every time is divided by the pace it ran at.

    Throughput is the timed phase's operations over its seconds (output
    checks included), each block's seconds divided by its pace.  The
    percentiles are over every operation of the timed phase.  Under
    100 samples (the audit keeps one a block) a nearest-rank p99 is just
    the slowest sample, so p99 is then reported as the median.
    """
    lat = paced_latencies(rec)
    tail = 0.99 if len(lat) >= 100 else 0.50
    return {
        "setup_s": (statistics.median(s / pace for s, pace in setups), "s"),
        "ops_per_s": (rec.attempted / sum(s / pace for _, s, pace in rec.blocks), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(lat, tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _comb_sizes(prefix: str, sizes, summary: dict, pace: float) -> dict:
    seconds = dict(zip(summary.get("sizes", ()), summary.get("seconds", ())))
    return {f"{prefix}.comb_n{n}_ms": (seconds.get(n, 0.0) * 1e3 / pace, "ms") for n in sizes}


def per_layer(name: str, tracer, state, comb: dict, pace: float, traced_pace: float, overhead: float) -> dict:
    """Traced totals per function and block, plus the derived ratios and comb fits."""
    out = tracer.layer_metrics(TRACED_BLOCKS)
    for key, (value, unit) in out.items():
        if unit == "s/block":
            out[key] = (value / traced_pace, unit)
    audit_composes = tracer.nested[AUDIT_COMPOSE]
    applies = tracer.calls["elements.apply"]
    out["zipper.properness_audit.yield"] = (
        state.audit_new / audit_composes if audit_composes else 0.0, "ratio")
    out["elements.apply.rows_scanned"] = (
        tracer.nested[PREFIX_IN_APPLY] / applies if applies else 0.0, "rows/call")
    for key in ("elements.compose.rows_out", "zipper.symdiff.classes"):
        out[key] = (tracer.counts[key] / TRACED_BLOCKS, "count/block")
    zipper_comb = comb if name == "zipper" else {}
    algebra_comb = comb if name == "algebra" else {}
    out["zipper.symdiff.comb_slope"] = (zipper_comb.get("slope", 0.0), "exponent")
    out.update(_comb_sizes("zipper.symdiff", ZIPPER_COMBS, zipper_comb, pace))
    out["elements.parse_element.comb_slope"] = (algebra_comb.get("slope", 0.0), "exponent")
    out.update(_comb_sizes("elements.parse_element", ALGEBRA_COMBS, algebra_comb, pace))
    out["trace.overhead"] = (overhead, "ratio")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workload=None) -> tuple[dict, dict]:
    """Run one workload; return the result object and its details."""
    workload = workload if workload is not None else WORKLOADS[name]()
    state, setups = timed_setups(workload, seed, Pace())
    first_op_s = time.perf_counter() - T_START
    rec = Recorder()
    elapsed = run_blocks(workload, state, rec, seconds=seconds)
    # read before the summaries below allocate
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pace = rec.pace.factor()
    comb = state.comb_summary()
    detail = {
        **stamps(name, seed, int(trace)),
        "pace": pace,
        "block_paces": [p for _, _, p in rec.blocks],
        "reference_samples": len(rec.pace.samples),
        "block_ops_per_s": [ops / s for ops, s, _ in rec.blocks],
        "setups_s_and_pace": setups,
        "start_to_first_op_s": first_op_s,
        "blocks": len(rec.blocks),
        "timed_s": elapsed,
        "latency_samples": len(rec.latencies),
        "comb": comb,
    }
    attempted, failed = rec.attempted, rec.failed
    if not trace:
        metrics = end_to_end(rec, setups, peak_rss_mb)
    else:
        state.comb_times.clear()
        state.audit_new = 0
        traced = Recorder()
        tracer = Tracer(clock=traced.pace.clock)
        traced.tracer = tracer
        with tracer:
            traced_s = run_blocks(workload, state, traced, blocks=TRACED_BLOCKS)
        traced_pace = traced.pace.factor()
        overhead = paced_block_seconds(traced) / paced_block_seconds(rec)
        metrics = per_layer(name, tracer, state, comb, pace, traced_pace, overhead)
        attempted += traced.attempted
        failed += traced.failed
        detail.update(
            traced_blocks=TRACED_BLOCKS,
            traced_s=traced_s,
            traced_pace=traced_pace,
            spans_kept=len(tracer.spans),
            spans_dropped=tracer.dropped,
            bases={
                "zipper.properness_audit.yield": {
                    "new_elements": state.audit_new,
                    "audit_compose_calls": tracer.nested[AUDIT_COMPOSE],
                },
                "elements.apply.rows_scanned": {
                    "prefix_calls_in_apply": tracer.nested[PREFIX_IN_APPLY],
                    "apply_calls": tracer.calls["elements.apply"],
                },
            },
        )
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{name}-seed{seed}.jsonl")
    detail["fail_ratio"] = failed / attempted if attempted else 1.0
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"detail": detail, "result": result}
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="localsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "localsim" / "__init__.py").is_file():
        print(f"error: no localsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
