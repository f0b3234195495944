// Binned-vs-sorted engine sweep: for each Agrawal function F1..F10, train
// the exact sorted-list engine and the quantized binned engine single-thread
// on the same data and report build ns/record plus train/test accuracy for
// both -- including the accuracy deltas, which the binned engine must keep
// small but is never allowed to hide.
//
//   binned_vs_sorted [--quick] [--tuples N] [--test-tuples N]
//                    [--max-bins B] [--functions 1,5,7]
//                    [--out BENCH_binned.json]
//
// Emits a paper-style table on stdout and (with --out) the checked-in
// BENCH_binned.json artifact, with its derived headline numbers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "util/string_util.h"

namespace smptree {
namespace bench {
namespace {

struct Config {
  bool quick = false;
  int64_t tuples = 40000;
  int64_t test_tuples = 10000;
  int max_bins = 256;
  std::vector<int> functions = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::string out;
};

/// One engine's result on one function.
struct EngineRun {
  double build_seconds = 0;   ///< best-of-reps tree growth time
  double total_seconds = 0;   ///< build + sort/quantize + setup/materialize
  double train_accuracy = 0;
  double test_accuracy = 0;
  int64_t nodes = 0;
  uint64_t records_scanned = 0;
  uint64_t bins_scanned = 0;
};

struct Run {
  int function = 0;
  EngineRun sorted;
  EngineRun binned;
};

bool ParseIntList(const std::string& raw, std::vector<int>* out) {
  out->clear();
  for (const std::string& part : SplitString(raw, ',')) {
    int64_t v = 0;
    if (!ParseInt64(TrimWhitespace(part), &v) || v < 1 || v > 10) return false;
    out->push_back(static_cast<int>(v));
  }
  return !out->empty();
}

Dataset MakeAgrawal(int function, int64_t tuples, uint64_t seed) {
  SyntheticConfig config;
  config.function = function;
  config.num_attrs = 9;
  config.num_tuples = tuples;
  config.seed = seed;
  auto data = GenerateSynthetic(config);
  if (!data.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*data);
}

/// Best-of-`reps` single-thread build with the given engine; accuracy comes
/// from the last rep (the tree is deterministic, so every rep agrees).
EngineRun Measure(const Dataset& train, const Dataset& test, Engine engine,
                  int max_bins, int reps) {
  EngineRun best;
  for (int r = 0; r < reps; ++r) {
    ClassifierOptions options;
    options.build.algorithm = Algorithm::kSerial;
    options.build.num_threads = 1;
    options.build.engine = engine;
    options.build.max_bins = max_bins;
    auto result = TrainClassifier(train, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s build failed: %s\n", EngineName(engine),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    const TrainStats& stats = result->stats;
    const double total =
        stats.build_seconds + stats.sort_seconds + stats.setup_seconds;
    if (r == 0 || stats.build_seconds < best.build_seconds) {
      best.build_seconds = stats.build_seconds;
      best.total_seconds = total;
      best.nodes = result->tree->num_nodes();
      best.records_scanned = stats.build_stats.records_scanned;
      best.bins_scanned = stats.build_stats.bins_scanned;
    }
    best.train_accuracy = TreeAccuracy(*result->tree, train);
    best.test_accuracy = TreeAccuracy(*result->tree, test);
  }
  return best;
}

double NsPerRecord(double seconds, int64_t tuples) {
  return tuples > 0 ? seconds * 1e9 / static_cast<double>(tuples) : 0;
}

/// The BENCH_binned.json document: the per-function rows plus the derived
/// headline numbers (the worst |accuracy delta|, how many functions the
/// binned build is faster on), computed from the rounded values the rows
/// hold. Deltas are reported as-is, never clipped. Fails on no runs.
Result<std::string> ArtifactJson(const Config& config,
                                 const std::vector<Run>& runs) {
  if (runs.empty()) return Status::InvalidArgument("no runs");
  std::string out = StringPrintf(
      "{\"suite\": \"binned_vs_sorted\", \"schema_version\": 1,\n"
      " \"context\": {\"hardware_threads\": %d, \"scale\": %.2f, "
      "\"tuples\": %lld, \"test_tuples\": %lld, \"max_bins\": %d, "
      "\"attrs\": 9, \"quick\": %s},\n"
      " \"runs\": [",
      HardwareThreads(), BenchScale(), static_cast<long long>(config.tuples),
      static_cast<long long>(config.test_tuples), config.max_bins,
      config.quick ? "true" : "false");
  double max_train_delta = 0, max_test_delta = 0;
  int build_faster = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    const double speedup = Rounded(r.binned.build_seconds > 0
                                       ? r.sorted.build_seconds /
                                             r.binned.build_seconds
                                       : 0,
                                   3);
    const double train_delta =
        Rounded(r.binned.train_accuracy - r.sorted.train_accuracy, 6);
    const double test_delta =
        Rounded(r.binned.test_accuracy - r.sorted.test_accuracy, 6);
    max_train_delta = std::max(max_train_delta, std::fabs(train_delta));
    max_test_delta = std::max(max_test_delta, std::fabs(test_delta));
    if (speedup > 1.0) ++build_faster;
    out += StringPrintf(
        "%s\n  {\"function\": %d, \"tuples\": %lld,\n"
        "   \"sorted_build_ns_per_record\": %.1f, "
        "\"binned_build_ns_per_record\": %.1f, \"build_speedup\": %.3f,\n"
        "   \"sorted_total_ns_per_record\": %.1f, "
        "\"binned_total_ns_per_record\": %.1f,\n"
        "   \"sorted_train_accuracy\": %.6f, \"binned_train_accuracy\": %.6f, "
        "\"train_accuracy_delta\": %.6f,\n"
        "   \"sorted_test_accuracy\": %.6f, \"binned_test_accuracy\": %.6f, "
        "\"test_accuracy_delta\": %.6f,\n"
        "   \"sorted_nodes\": %lld, \"binned_nodes\": %lld, "
        "\"records_scanned\": %llu, \"bins_scanned\": %llu}",
        i == 0 ? "" : ",", r.function, static_cast<long long>(config.tuples),
        NsPerRecord(r.sorted.build_seconds, config.tuples),
        NsPerRecord(r.binned.build_seconds, config.tuples), speedup,
        NsPerRecord(r.sorted.total_seconds, config.tuples),
        NsPerRecord(r.binned.total_seconds, config.tuples),
        r.sorted.train_accuracy, r.binned.train_accuracy, train_delta,
        r.sorted.test_accuracy, r.binned.test_accuracy, test_delta,
        static_cast<long long>(r.sorted.nodes),
        static_cast<long long>(r.binned.nodes),
        static_cast<unsigned long long>(r.binned.records_scanned),
        static_cast<unsigned long long>(r.binned.bins_scanned));
  }
  out += StringPrintf(
      "\n],\n \"derived\": {\"max_abs_train_accuracy_delta\": %.6f, "
      "\"max_abs_test_accuracy_delta\": %.6f, "
      "\"functions_build_faster\": %d, \"functions_total\": %zu}}\n",
      max_train_delta, max_test_delta, build_faster, runs.size());
  return out;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.tuples) || config.tuples < 100) {
        std::fprintf(stderr, "bad --tuples\n");
        return 1;
      }
    } else if (arg == "--test-tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.test_tuples) ||
          config.test_tuples < 100) {
        std::fprintf(stderr, "bad --test-tuples\n");
        return 1;
      }
    } else if (arg == "--max-bins" && i + 1 < argc) {
      config.max_bins = std::atoi(argv[++i]);
      if (config.max_bins < 2 || config.max_bins > 256) {
        std::fprintf(stderr, "bad --max-bins (want 2..256)\n");
        return 1;
      }
    } else if (arg == "--functions" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.functions)) {
        std::fprintf(stderr, "bad --functions list (want 1..10)\n");
        return 1;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      config.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: binned_vs_sorted [--quick] [--tuples N]\n"
                   "         [--test-tuples N] [--max-bins B]\n"
                   "         [--functions 1,5,7] [--out F.json]\n");
      return 1;
    }
  }
  if (config.quick) {
    config.tuples = std::min<int64_t>(config.tuples, 6000);
    config.test_tuples = std::min<int64_t>(config.test_tuples, 3000);
  }
  const int reps = config.quick ? 1 : 3;
  config.tuples = ScaledTuples(config.tuples);

  PrintBanner("binned", "binned vs sorted engine (single-thread, exactness "
                        "deltas reported)");

  TablePrinter table({"F", "sorted ns/rec", "binned ns/rec", "speedup",
                      "train acc d", "test acc d", "nodes s/b"});
  std::vector<Run> runs;
  for (int function : config.functions) {
    const Dataset train = MakeAgrawal(
        function, config.tuples, 42 + static_cast<uint64_t>(function));
    const Dataset test = MakeAgrawal(
        function, config.test_tuples, 9000 + static_cast<uint64_t>(function));
    Run run;
    run.function = function;
    // Warmup rep faults the dataset in before either timed engine runs.
    (void)Measure(train, test, Engine::kSorted, config.max_bins, 1);
    run.sorted = Measure(train, test, Engine::kSorted, config.max_bins, reps);
    run.binned = Measure(train, test, Engine::kBinned, config.max_bins, reps);
    runs.push_back(run);
    table.AddRow(
        {Fmt("F%d", function),
         Fmt("%.0f", NsPerRecord(run.sorted.build_seconds, config.tuples)),
         Fmt("%.0f", NsPerRecord(run.binned.build_seconds, config.tuples)),
         Fmt("%.2f", run.binned.build_seconds > 0
                         ? run.sorted.build_seconds / run.binned.build_seconds
                         : 0),
         Fmt("%+.4f", run.binned.train_accuracy - run.sorted.train_accuracy),
         Fmt("%+.4f", run.binned.test_accuracy - run.sorted.test_accuracy),
         Fmt("%lld/%lld", static_cast<long long>(run.sorted.nodes),
             static_cast<long long>(run.binned.nodes))});
  }
  std::printf("\nBuild ns/record, single thread, %lld tuples, %d bins "
              "(delta = binned - sorted):\n",
              static_cast<long long>(config.tuples), config.max_bins);
  table.Print();

  return EmitArtifact(config.out, ArtifactJson(config, runs));
}

}  // namespace
}  // namespace bench
}  // namespace smptree

int main(int argc, char** argv) {
  return smptree::bench::Main(argc, argv);
}
