"""The repository benchmark: one command, seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold_full --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ledger (and writes a Chrome trace-event file under
``.perfbench_out/``).  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it restate every metric by name and unit.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

import argparse
import json
import math
import os
import signal
import statistics
import sys

from tracing import self_times

#: (name, unit) of the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("analyze_wall_s", "s"),
    ("analyze_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("edit_latency_p50_s", "s"),
    ("edit_latency_tail_s", "s"),
)

#: (name, unit) of the per-layer metrics, printed with --trace 1.  Times
#: are span self times, averaged per traced iteration.
PER_LAYER = (
    ("cfront.preprocess_s", "s"),
    ("cfront.parse_s", "s"),
    ("cfront.tokens", "count"),
    ("cfront.tokens_per_s", "1/s"),
    ("cfront.units_preprocessed", "count"),
    ("cfront.header_reads", "count"),
    ("cache.emit_s", "s"),
    ("cache.emitted_bytes", "bytes"),
    ("cache.load_s", "s"),
    ("cache.probe_s", "s"),
    ("cache.ast_hit_ratio", "ratio"),
    ("cfg.callgraph_s", "s"),
    ("cfg.build_s", "s"),
    ("cfg.fingerprint_s", "s"),
    ("cfg.functions", "count"),
    ("cfg.blocks", "count"),
    ("engine.traverse_s", "s"),
    ("engine.points_visited", "count"),
    ("engine.blocks_traversed", "count"),
    ("engine.paths_completed", "count"),
    ("engine.block_cache_hit_ratio", "ratio"),
    ("metal.table_hits", "count"),
    ("metal.miss_memo_ratio", "ratio"),
    ("session.run_s", "s"),
    ("session.roots_analyzed", "count"),
    ("session.roots_replayed", "count"),
    ("session.replay_ratio", "ratio"),
    ("session.dirty_cone", "count"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.gets", "count"),
    ("store.puts", "count"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("refine.s", "s"),
    ("refine.reports", "count"),
    ("refine.cache_hits", "count"),
    ("refine.unknown", "count"),
    ("ranking.s", "s"),
    ("reports.render_s", "s"),
    ("reports.record_s", "s"),
    ("reports.prune_s", "s"),
    ("reports.count", "count"),
    ("daemon.poll_s", "s"),
    ("daemon.files_reparsed", "count"),
    ("daemon.analyze_s", "s"),
    ("parallel.pass1_wall_s", "s"),
    ("parallel.pass2_wall_s", "s"),
    ("parallel.jobs2_wall_s", "s"),
    ("parallel.jobs2_pass1_wall_s", "s"),
    ("parallel.jobs2_pass2_wall_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.efficiency", "ratio"),
    ("process.startup_s", "s"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("untraced_wall_s", "s"),
    ("trace_overhead_s", "s"),
    ("error_rate", "ratio"),
)

#: Span name -> per-layer self-time metric.  Every span the tracer
#: records appears here, so the self times plus ``unattributed_s`` add
#: up to ``traced_wall_s``.
SPAN_METRICS = {
    "process.startup": "process.startup_s",
    "cfront.preprocess": "cfront.preprocess_s",
    "cfront.parse": "cfront.parse_s",
    "cache.emit": "cache.emit_s",
    "cache.load": "cache.load_s",
    "cache.probe": "cache.probe_s",
    "cfg.callgraph": "cfg.callgraph_s",
    "cfg.build": "cfg.build_s",
    "cfg.fingerprint": "cfg.fingerprint_s",
    "engine.traverse": "engine.traverse_s",
    "session.run": "session.run_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "refine": "refine.s",
    "ranking": "ranking.s",
    "reports.render": "reports.render_s",
    "reports.record": "reports.record_s",
    "reports.prune": "reports.prune_s",
    "daemon.poll": "daemon.poll_s",
    "daemon.analyze": "daemon.analyze_s",
    "parallel.pass1": "parallel.pass1_wall_s",
    "parallel.pass2": "parallel.pass2_wall_s",
}

#: Counters copied straight into the ledger (per traced iteration).
COUNT_METRICS = (
    "cfront.tokens", "cfront.units_preprocessed", "cfront.header_reads",
    "cache.emitted_bytes", "cfg.functions", "cfg.blocks",
    "engine.points_visited", "engine.blocks_traversed",
    "engine.paths_completed", "metal.table_hits", "session.roots_analyzed",
    "session.roots_replayed", "session.dirty_cone", "store.gets",
    "store.puts", "store.bytes_read", "store.bytes_written",
    "refine.reports", "refine.cache_hits", "refine.unknown",
    "reports.count", "daemon.files_reparsed",
)


def find_root():
    """The checkout the benchmark runs in (the working directory); None
    when it holds no xgcc sources to benchmark."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "driver",
                                       "cli.py")):
        return None
    return root


def tail(values):
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, never below the median (with fewer than twenty-one
    samples the tail is the upper median)."""
    ordered = sorted(values)
    count = len(ordered)
    rank = max(count - 10, math.ceil((count + 1) / 2))
    return ordered[rank - 1], 100.0 * rank / count


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end(ctx, scaled=True):
    """The end-to-end metrics; times at the nominal host speed (see
    ``workloads.timed``), or as the clock read them with ``scaled=False``."""

    def seconds(entry, key):
        return entry[key] * (entry["scale"] if scaled else 1.0)

    samples = ctx.samples
    latencies = [seconds(sample, "latency") for sample in samples]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(seconds(s, "seconds")
                                     for s in ctx.setups),
        "analyze_wall_s": statistics.median(seconds(s, "wall")
                                            for s in samples),
        "analyze_cpu_s": statistics.median(seconds(s, "cpu")
                                           for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "edit_latency_p50_s": statistics.median(latencies),
        "edit_latency_tail_s": tail_value,
    }
    notes = {"samples": len(samples), "tail_percentile": tail_pct,
             "setups": len(ctx.setups),
             "scale": statistics.median(s["scale"] for s in samples)}
    return metrics, notes


def _aggregate(records):
    """``(self seconds by metric, counters, wall)`` per traced iteration,
    averaged over ``records``."""
    sums, counts, wall = {}, {}, 0.0
    for record in records:
        wall += record["wall"]
        for span, seconds in self_times(record["spans"]).items():
            metric = SPAN_METRICS[span]
            sums[metric] = sums.get(metric, 0.0) + seconds
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
    iterations = len(records) or 1
    return ({name: total / iterations for name, total in sums.items()},
            {name: total / iterations for name, total in counts.items()},
            wall / iterations)


def per_layer(ctx):
    self_s, counts, wall = _aggregate(ctx.traced)
    metrics = {name: 0.0 for name, unit in PER_LAYER}
    metrics.update(self_s)
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics["traced_wall_s"] = wall
    metrics["unattributed_s"] = wall - sum(self_s.values())
    if ctx.untraced_walls:
        metrics["untraced_wall_s"] = statistics.fmean(ctx.untraced_walls)
        metrics["trace_overhead_s"] = wall - metrics["untraced_wall_s"]
    front_end = metrics["cfront.preprocess_s"] + metrics["cfront.parse_s"]
    metrics["cfront.tokens_per_s"] = _ratio(metrics["cfront.tokens"],
                                            front_end)
    metrics["cache.ast_hit_ratio"] = _ratio(counts.get("cache.ast_hits", 0),
                                            counts.get("cache.ast_probes", 0))
    metrics["engine.block_cache_hit_ratio"] = _ratio(
        counts.get("engine.block_cache_hits", 0),
        counts.get("engine.block_cache_hits", 0)
        + counts.get("engine.blocks_traversed", 0),
    )
    metrics["metal.miss_memo_ratio"] = _ratio(
        counts.get("metal.miss_memo_hits", 0),
        counts.get("metal.miss_memo_hits", 0)
        + counts.get("metal.table_hits", 0),
    )
    metrics["session.replay_ratio"] = _ratio(
        counts.get("session.roots_replayed", 0),
        counts.get("session.roots_replayed", 0)
        + counts.get("session.roots_analyzed", 0),
    )
    metrics["store.hit_ratio"] = _ratio(counts.get("store.keys_found", 0),
                                        counts.get("store.keys_requested", 0))
    # The --jobs 2 ledger: the one traced --jobs 2 run a cold_full
    # ledger run appends.
    if ctx.probe:
        self_s, counts, wall = _aggregate(ctx.probe)
        busy = counts.get("parallel.worker_busy_s", 0)
        metrics["parallel.jobs2_wall_s"] = wall
        metrics["parallel.jobs2_pass1_wall_s"] = self_s.get(
            "parallel.pass1_wall_s", 0.0)
        metrics["parallel.jobs2_pass2_wall_s"] = self_s.get(
            "parallel.pass2_wall_s", 0.0)
        metrics["parallel.worker_busy_s"] = busy
        metrics["parallel.efficiency"] = _ratio(
            busy, 2 * counts.get("parallel.jobs_wall_s", 0)
        )
    metrics["error_rate"] = _ratio(ctx.failed, ctx.attempted)
    return metrics


def write_chrome_trace(ctx):
    out_dir = os.path.join(ctx.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace_%s_seed%d.json"
                        % (ctx.workload, ctx.seed))
    with open(path, "w") as handle:
        json.dump({"traceEvents": ctx.chrome, "displayTimeUnit": "ms"},
                  handle)
    return path


#: The string-hash seed of the benchmark's own process.
HASH_SEED = "0"


def main(argv=None):
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # daemon_burst runs xgcc inside this process, and the hash seed
        # moves its burst time by ~5% from one process to the next: fix
        # it.  The xgcc processes the benchmark starts get random seeds.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_full", "warm_edit", "daemon_burst"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tree size; 'tiny' is for the smoke test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt the byte-identity references (the "
                        "smoke test's proof that the check has teeth)")
    parser.add_argument("--phantom-bug", action="store_true",
                        help="add a phantom injected bug to the ground "
                        "truth (the same proof for the ground-truth check)")
    args = parser.parse_args(argv)
    # A terminated run still stops its children and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = find_root()
    if root is None:
        print("perfbench: no src/repro/driver/cli.py under %s; run from "
              "the repository root" % os.getcwd(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    ctx = workloads.Context(root, args.workload, args.seed, args.seconds,
                            bool(args.trace), args.size,
                            args.corrupt_reference, args.phantom_bug)
    try:
        workloads.WORKLOADS[args.workload](ctx)
    finally:
        ctx.cleanup()

    if args.trace:
        metrics = per_layer(ctx)
        units = PER_LAYER
        print("trace: %s (%d traced, %d untraced iterations)"
              % (write_chrome_trace(ctx), len(ctx.traced),
                 len(ctx.untraced_walls)))
    else:
        metrics, notes = end_to_end(ctx)
        units = END_TO_END
        print("samples: %(samples)d iterations, %(setups)d setups; "
              "edit_latency_tail_s is p%(tail_percentile).1f" % notes
              + (" (the upper median: under 21 samples)"
                 if notes["samples"] < 21 else ""))
        print("times below are at the nominal host speed; median scale "
              "%.4f (nominal / measured speed unit); median unit %.6f s"
              % (notes["scale"], statistics.median(workloads.READINGS)))
        raw, __ = end_to_end(ctx, scaled=False)
        for name, unit in units:
            if unit == "s":
                print("clock %-26s %14.6f %s" % (name, raw[name], unit))
    for name, unit in units:
        print("%-32s %14.6f %s" % (name, metrics[name], unit))
    print("error_rate %.6f (%d of %d operations failed)"
          % (ctx.failed / ctx.attempted, ctx.failed, ctx.attempted))
    for problem in ctx.problems:
        print("problem: %s" % problem)
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
