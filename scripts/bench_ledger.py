#!/usr/bin/env python3
"""Perf-baseline ledger: record and compare benchmark runs.

The ledger lives in bench/baselines/{pipeline,campaign,scale,serve}.json
and is committed, so CI can hold every run against tracked history. Two
kinds of numbers are stored:

  * ratios — machine-independent (speedups, overhead multipliers,
    dedup rates). These are GATED: a >10% drift in the losing
    direction fails the run. Ratios divide two timings from the same
    process on the same machine, so they transfer between hosts.
  * absolute_ms — wall-clock means. Machine-dependent, recorded for
    context and printed as deltas, never gated.

Usage:
  bench_ledger.py update  [--baselines DIR] [--pipeline J] [--campaign J]
                          [--scale J] [--serve J]
  bench_ledger.py check   [--baselines DIR] [--pipeline J] [--campaign J]
                          [--scale J] [--serve J]

`update` rewrites the baseline files from the given benchmark outputs;
`check` compares and exits nonzero on a gated regression, and on a
baselined ratio the run did not produce (a benchmark it needs is
missing from the output). Suites whose input file is missing are
skipped (so a pipeline-only run can still be checked). The tolerance
can be widened with FSDEP_LEDGER_TOLERANCE (default 0.10 = 10%).
"""

import argparse
import json
import os
import sys

SCHEMA_VERSION = 1

# Per-suite ratio definitions: name -> (numerator, denominator, direction).
# direction "higher" = bigger is better (speedups); "lower" = smaller is
# better (overhead multipliers). Benchmarks are looked up by their
# google-benchmark aggregate mean name.
PIPELINE_RATIOS = {
    "cache_speedup": ("BM_Table5SeedSerial_mean", "BM_Table5CachedSerial_mean", "higher"),
    "parallel_speedup": ("BM_Table5SeedSerial_mean", "BM_Table5Parallel/4_mean", "higher"),
    "tracing_overhead": ("BM_Table5TracingOn_mean", "BM_Table5TracingOff_mean", "lower"),
    "profiling_overhead": ("BM_Table5ProfilingOn_mean", "BM_Table5TracingOff_mean", "lower"),
}

SCALE_RATIOS = {
    "scale_ratio": ("BM_AmplifiedInter/100_mean", "BM_Table5IntraSeed_mean", "lower"),
    "inter_overhead": ("BM_AmplifiedInter/100_mean", "BM_AmplifiedIntra/100_mean", "lower"),
}

PIPELINE_ABSOLUTE = [
    "BM_Table5SeedSerial_mean",
    "BM_Table5CachedSerial_mean",
    "BM_Table5Parallel/4_mean",
    "BM_Table5TracingOff_mean",
    "BM_Table5TracingOn_mean",
    "BM_Table5ProfilingOn_mean",
]

SCALE_ABSOLUTE = [
    "BM_Table5IntraSeed_mean",
    "BM_AmplifiedInter/100_mean",
    "BM_AmplifiedIntra/100_mean",
]


def benchmark_means(path):
    """google-benchmark JSON -> {name: real_time} for the mean aggregates."""
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b["real_time"] for b in doc["benchmarks"]
            if b.get("aggregate_name") == "mean"}


def build_gbench_snapshot(suite, path, ratio_defs, absolute_names):
    means = benchmark_means(path)
    ratios = {}
    for name, (num, den, direction) in ratio_defs.items():
        if num not in means or den not in means:
            print(f"{suite}: skipping ratio {name} ({num} or {den} missing)")
            continue
        ratios[name] = {"value": means[num] / means[den], "direction": direction}
    absolute = {n: means[n] for n in absolute_names if n in means}
    return {"schema_version": SCHEMA_VERSION, "suite": suite,
            "ratios": ratios, "absolute_ms": absolute}


def build_serve_snapshot(path):
    """BENCH_serve.json (bench/perf_serve) -> ledger snapshot.

    The warm/cold speedup transfers between machines (both sides run in
    the same process); the p50 latencies are recorded for context. The
    hard <1 ms warm-p50 gate lives in bench_compare.sh, not here.
    """
    with open(path) as f:
        doc = json.load(f)
    # Microsecond-scale round trips jitter with scheduling, so the
    # speedup carries its own wide tolerance: the ledger only catches a
    # collapse of the warm path (an order-of-magnitude loss), while the
    # absolute <1 ms p50 budget in bench_compare.sh stays the hard gate.
    ratios = {
        "serve_warm_speedup": {"value": doc["warm_speedup"], "direction": "higher",
                               "tolerance": 0.5},
    }
    absolute = {
        "cold_p50_us": doc["cold"]["p50_us"],
        "disk_warm_p50_us": doc["disk_warm"]["p50_us"],
        "serve_warm_p50_us": doc["serve_warm"]["p50_us"],
    }
    return {"schema_version": SCHEMA_VERSION, "suite": "serve",
            "ratios": ratios, "absolute_ms": absolute}


def build_campaign_snapshot(path):
    with open(path) as f:
        doc = json.load(f)
    serial = doc["serial"]
    ratios = {
        "dedup_ratio": {"value": serial["dedup_ratio"], "direction": "higher"},
        "campaign_speedup": {"value": doc["speedup"], "direction": "higher"},
    }
    absolute = {"serial_cells_per_sec": serial["cells_per_sec"]}
    return {"schema_version": SCHEMA_VERSION, "suite": "campaign",
            "ratios": ratios, "absolute_ms": absolute}


def compare(suite, baseline, current, tolerance):
    """Returns a list of failure strings; prints every comparison."""
    failures = []
    base_ratios = baseline.get("ratios", {})
    for name in base_ratios:
        if name not in current.get("ratios", {}):
            print(f"{suite}/{name}: not produced by this run MISSING")
            failures.append(f"{suite}/{name} has a baseline but this run did not produce it")
    for name, cur in current.get("ratios", {}).items():
        if name not in base_ratios:
            print(f"{suite}/{name}: {cur['value']:.3f} (no baseline — new ratio)")
            continue
        base = base_ratios[name]["value"]
        val = cur["value"]
        direction = cur["direction"]
        # A ratio may carry its own tolerance (noisy microbenchmarks);
        # the global FSDEP_LEDGER_TOLERANCE applies otherwise.
        tol = cur.get("tolerance", tolerance)
        drift = (val - base) / base if base else 0.0
        # Regression = drift in the losing direction beyond tolerance.
        if direction == "higher":
            regressed = val < base * (1.0 - tol)
        else:
            regressed = val > base * (1.0 + tol)
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{suite}/{name}: {val:.3f} vs baseline {base:.3f} "
              f"({drift:+.1%}, {direction} is better) {verdict}")
        if regressed:
            failures.append(
                f"{suite}/{name} regressed: {val:.3f} vs baseline {base:.3f} "
                f"({drift:+.1%} exceeds the {tol:.0%} gate)")
    for name, val in current.get("absolute_ms", {}).items():
        base = baseline.get("absolute_ms", {}).get(name)
        if base:
            print(f"{suite}/{name}: {val:.2f} vs baseline {base:.2f} "
                  f"({(val - base) / base:+.1%}, informational)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["update", "check"])
    ap.add_argument("--baselines", default=None,
                    help="baseline directory (default: <repo>/bench/baselines)")
    ap.add_argument("--pipeline", default=None, help="BENCH_pipeline.json path")
    ap.add_argument("--campaign", default=None, help="BENCH_campaign.json path")
    ap.add_argument("--scale", default=None, help="BENCH_scale.json path")
    ap.add_argument("--serve", default=None, help="BENCH_serve.json path")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_dir = args.baselines or os.path.join(root, "bench", "baselines")
    tolerance = float(os.environ.get("FSDEP_LEDGER_TOLERANCE", "0.10"))

    inputs = {
        "pipeline": args.pipeline or os.path.join(root, "BENCH_pipeline.json"),
        "campaign": args.campaign or os.path.join(root, "BENCH_campaign.json"),
        "scale": args.scale or os.path.join(root, "BENCH_scale.json"),
        "serve": args.serve or os.path.join(root, "BENCH_serve.json"),
    }

    failures = []
    checked = 0
    for suite, path in inputs.items():
        if not os.path.exists(path):
            print(f"{suite}: {path} missing, skipped")
            continue
        if suite == "pipeline":
            snapshot = build_gbench_snapshot(suite, path, PIPELINE_RATIOS, PIPELINE_ABSOLUTE)
        elif suite == "scale":
            snapshot = build_gbench_snapshot(suite, path, SCALE_RATIOS, SCALE_ABSOLUTE)
        elif suite == "serve":
            snapshot = build_serve_snapshot(path)
        else:
            snapshot = build_campaign_snapshot(path)

        baseline_path = os.path.join(baseline_dir, f"{suite}.json")
        if args.mode == "update":
            os.makedirs(baseline_dir, exist_ok=True)
            with open(baseline_path, "w") as f:
                json.dump(snapshot, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"{suite}: wrote {baseline_path}")
        else:
            if not os.path.exists(baseline_path):
                failures.append(f"{suite}: no baseline at {baseline_path} "
                                "(run bench_compare.sh --update-baseline)")
                continue
            with open(baseline_path) as f:
                baseline = json.load(f)
            failures += compare(suite, baseline, snapshot, tolerance)
            checked += 1

    if args.mode == "check" and checked == 0 and not failures:
        sys.exit("ledger: no suites checked — no benchmark outputs found")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print(f"ledger: {args.mode} complete"
          + (f", {checked} suite(s) within {tolerance:.0%}" if args.mode == "check" else ""))


if __name__ == "__main__":
    main()
