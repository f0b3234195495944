#!/usr/bin/env python3
"""Convert google-benchmark output to BENCH_core.json, and validate the
checked-in BENCH_*.json artifacts.

The suite benches write their artifacts themselves:

    ./build/bench/speedup_builders --out BENCH_parallel.json
    ./build/bench/forest_speedup --out BENCH_forest.json
    ./build/bench/binned_vs_sorted --out BENCH_binned.json
    ./build/bench/infer_throughput --out BENCH_infer.json
    ./build/bench/serve_scaling --out BENCH_serve.json
    ./build/bench/stream_throughput --out BENCH_stream.json

The one conversion left adapts google-benchmark's JSON from
bench/micro_kernels, a format this repo does not own:

    ./build/bench/micro_kernels --benchmark_out=gbench.json \
        --benchmark_out_format=json
    python3 tools/bench_to_json.py gbench.json -o BENCH_core.json

The output is per-benchmark ns/record (derived from items_per_second) plus
the AoS-vs-SoA / direct-vs-buffered speedup ratios. Benchmark family names
are a contract with bench/micro_kernels.cc -- see the header comment there
before renaming anything.

Validation mode schema-checks artifacts instead of converting:

    python3 tools/bench_to_json.py --validate [BENCH_x.json ...]

With no files it globs BENCH_*.json in the current directory. Every file
must parse, carry its suite's required keys and every one of its derived
keys, and contain no NaN/Infinity and no null in a required field; any
violation is a hard failure. A file named like a checked-in artifact
(basename BENCH_*.json) must also carry the suite that belongs at that
name -- BENCH_stream.json claiming "suite": "serve_scaling" is rejected, so
an artifact can never be silently overwritten by the wrong bench's output.
"""

import argparse
import json
import os
import sys

# (json key, slow family, fast family) -> derived "slow/fast" speedup.
SPEEDUP_PAIRS = [
    ("e_scan_2class_speedup", "EScan/aos_2class", "EScan/soa_2class"),
    ("e_scan_8class_speedup", "EScan/aos_8class", "EScan/soa_8class"),
    ("categorical_tabulate_speedup", "CatTabulate/aos", "CatTabulate/soa"),
    ("split_phase_buffered_speedup", "SplitPhase/direct", "SplitPhase/buffered"),
]

CONTEXT_KEYS = ("date", "host_name", "num_cpus", "mhz_per_cpu",
                "library_build_type")


def ns_per_record(bench):
    ips = bench.get("items_per_second")
    if not ips:
        return None
    return 1e9 / ips


def family_of(name):
    """'EScan/aos_2class/131072/min_time:0.020' -> 'EScan/aos_2class'."""
    parts = name.split("/")
    keep = [parts[0]]
    for part in parts[1:]:
        if part.isdigit() or ":" in part:
            break
        keep.append(part)
    return "/".join(keep)


def convert_kernels(raw, output):
    benchmarks = []
    by_family = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        entry = {
            "name": bench["name"],
            "real_time_ns": bench.get("real_time"),
            "cpu_time_ns": bench.get("cpu_time"),
            "items_per_second": bench.get("items_per_second"),
            "ns_per_record": ns_per_record(bench),
        }
        benchmarks.append(entry)
        # Last run of a family wins (largest Arg when sizes ascend).
        by_family[family_of(bench["name"])] = entry

    derived = {}
    for key, slow, fast in SPEEDUP_PAIRS:
        a = by_family.get(slow)
        b = by_family.get(fast)
        if a and b and a["ns_per_record"] and b["ns_per_record"]:
            derived[key] = round(a["ns_per_record"] / b["ns_per_record"], 3)
        else:
            derived[key] = None

    context = raw.get("context", {})
    out = {
        "schema_version": 1,
        "suite": "core_kernels",
        "context": {k: context.get(k) for k in CONTEXT_KEYS},
        "benchmarks": benchmarks,
        "derived": derived,
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(benchmarks)} benchmarks)")
    missing = [k for k, v in derived.items() if v is None]
    if missing:
        print(f"warning: missing inputs for: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


# Suite name -> (required top-level keys,
#                [(list key, required keys per item), ...]).
VALIDATE_SCHEMAS = {
    "core_kernels": (
        ["schema_version", "suite", "context", "benchmarks", "derived"],
        [("benchmarks", ["name", "ns_per_record"])],
    ),
    "parallel_builders": (
        ["schema_version", "suite", "context", "series"],
        [("series", ["function", "algorithm", "points"])],
    ),
    "forest_speedup": (
        ["schema_version", "suite", "context", "series", "oob_curve"],
        [("series", ["trees", "inner", "schedule", "points"])],
    ),
    "binned_vs_sorted": (
        ["schema_version", "suite", "context", "runs", "derived"],
        [("runs", ["function", "sorted_build_ns_per_record",
                   "binned_build_ns_per_record", "build_speedup",
                   "sorted_train_accuracy", "binned_train_accuracy",
                   "train_accuracy_delta", "sorted_test_accuracy",
                   "binned_test_accuracy", "test_accuracy_delta"])],
    ),
    "infer_throughput": (
        ["schema_version", "suite", "context", "runs", "batch_sweep",
         "derived"],
        [("runs", ["function", "tree_nodes", "tree_pointer_ns_per_tuple",
                   "tree_flat_ns_per_tuple", "tree_speedup",
                   "forest_pointer_ns_per_tuple", "forest_flat_ns_per_tuple",
                   "forest_speedup"]),
         ("batch_sweep", ["batch", "tree_pointer_ns_per_tuple",
                          "tree_flat_ns_per_tuple"])],
    ),
    "serve_scaling": (
        ["schema_version", "suite", "context", "runs", "derived"],
        [("runs", ["front_end", "connections", "dispatch_threads",
                   "offered_rps", "batch", "sent", "dropped", "timeouts",
                   "errors", "tuples_per_second", "p50_ms", "p99_ms"])],
    ),
    "stream_throughput": (
        ["schema_version", "suite", "context", "runs", "derived"],
        [("runs", ["function", "tuples", "stream_tuples_per_second",
                   "stream_ns_per_tuple", "stream_test_accuracy",
                   "batch_test_accuracy", "accuracy_delta", "within_2pct",
                   "stream_nodes", "batch_nodes", "splits",
                   "stream_state_bytes", "accuracy_curve"])],
    ),
}

# Suite name -> the keys its "derived" object must carry, each non-null.
DERIVED_KEYS = {
    "core_kernels": [key for key, _, _ in SPEEDUP_PAIRS],
    "binned_vs_sorted": ["max_abs_train_accuracy_delta",
                         "max_abs_test_accuracy_delta",
                         "functions_build_faster", "functions_total"],
    "infer_throughput": ["tree_speedup_ge2_count", "forest_speedup_ge2_count",
                         "either_speedup_ge2_count", "functions_total",
                         "min_tree_speedup", "max_tree_speedup",
                         "min_forest_speedup", "max_forest_speedup"],
    "serve_scaling": ["dispatch_threads", "epoll_max_clean_connections",
                      "epoll_connections_per_thread"],
    "stream_throughput": ["functions_within_2pct", "functions_total",
                          "worst_accuracy_delta",
                          "min_stream_tuples_per_second",
                          "max_stream_state_bytes",
                          "peak_rss_stream_only_kb"],
}

# Suite name -> the checked-in artifact basename it belongs at. A file
# named BENCH_*.json whose suite maps to a different basename is invalid.
SUITE_ARTIFACTS = {
    "core_kernels": "BENCH_core.json",
    "parallel_builders": "BENCH_parallel.json",
    "forest_speedup": "BENCH_forest.json",
    "binned_vs_sorted": "BENCH_binned.json",
    "infer_throughput": "BENCH_infer.json",
    "serve_scaling": "BENCH_serve.json",
    "stream_throughput": "BENCH_stream.json",
}


def _reject_constant(value):
    raise ValueError(f"non-finite JSON constant: {value}")


def _find_nonfinite(node, path):
    """json.load with parse_constant catches literal NaN tokens; this walk
    catches floats that slipped in some other way (defense in depth)."""
    if isinstance(node, float) and (node != node or node in
                                    (float("inf"), float("-inf"))):
        return [f"{path}: non-finite value {node!r}"]
    if isinstance(node, dict):
        return [e for k, v in node.items()
                for e in _find_nonfinite(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [e for i, v in enumerate(node)
                for e in _find_nonfinite(v, f"{path}[{i}]")]
    return []


def validate_file(path):
    """Returns a list of problems (empty = valid)."""
    try:
        with open(path) as f:
            doc = json.load(f, parse_constant=_reject_constant)
    except (OSError, ValueError) as e:
        return [f"unreadable: {e}"]

    problems = _find_nonfinite(doc, "$")
    if not isinstance(doc, dict):
        return problems + ["top level is not an object"]
    suite = doc.get("suite")
    schema = VALIDATE_SCHEMAS.get(suite)
    if schema is None:
        return problems + [f"unknown suite {suite!r}"]
    basename = os.path.basename(path)
    expected = SUITE_ARTIFACTS.get(suite)
    if basename.startswith("BENCH_") and expected and basename != expected:
        problems.append(
            f"suite {suite!r} belongs at {expected!r}, not {basename!r}")
    top_keys, list_specs = schema
    for key in top_keys:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if doc.get("schema_version") != 1:
        problems.append(f"schema_version is {doc.get('schema_version')!r}, "
                        "want 1")
    derived = doc.get("derived")
    for key in DERIVED_KEYS.get(suite, []):
        if not isinstance(derived, dict) or derived.get(key) is None:
            problems.append(f"derived.{key}: missing or null")
    for list_key, item_keys in list_specs:
        items = doc.get(list_key)
        if not isinstance(items, list) or not items:
            problems.append(f"{list_key!r} missing, not a list, or empty")
            continue
        for i, item in enumerate(items):
            for key in item_keys:
                if not isinstance(item, dict) or key not in item:
                    problems.append(f"{list_key}[{i}]: missing key {key!r}")
                elif item[key] is None:
                    problems.append(f"{list_key}[{i}].{key}: null")
    return problems


def run_validate(files):
    import glob
    if not files:
        files = sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("error: --validate found no BENCH_*.json files",
              file=sys.stderr)
        return 1
    failed = 0
    for path in files:
        problems = validate_file(path)
        if problems:
            failed += 1
            for p in problems:
                print(f"{path}: {p}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    if failed:
        print(f"error: {failed}/{len(files)} artifacts invalid",
              file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", nargs="*",
                    help="google-benchmark JSON file ('-' = stdin); with "
                         "--validate, artifact files (default: glob "
                         "BENCH_*.json)")
    ap.add_argument("-o", "--output", default="BENCH_core.json",
                    help="output path (default BENCH_core.json)")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check BENCH_*.json artifacts instead of "
                         "converting")
    args = ap.parse_args()

    if args.validate:
        return run_validate(args.input)

    if len(args.input) != 1:
        ap.error("convert mode takes exactly one input file")
    if args.input[0] == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.input[0]) as f:
            raw = json.load(f)
    return convert_kernels(raw, args.output)


if __name__ == "__main__":
    sys.exit(main())
