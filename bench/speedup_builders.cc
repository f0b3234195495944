// Parallel-builder speedup sweep: threads x {BASIC, FWK, MWK, SUBTREE} on
// Agrawal functions, reporting build time, speedup vs the same algorithm at
// P=1, and the wait share (blocked time / (P x build time)) -- the repo's
// version of the paper's Figures 8-11 evidence, now machine-readable.
//
//   speedup_builders [--quick] [--threads 1,2,4] [--functions 5,7]
//                    [--tuples N] [--out BENCH_parallel.json] [--overhead]
//
// Emits paper-style tables on stdout and (with --out) the checked-in
// BENCH_parallel.json artifact: runs grouped into one series per
// (function, algorithm), each point with its speedup and wait share. A
// series with no threads=1 baseline exits non-zero. --overhead
// additionally measures the cost of running one configuration with a
// TraceRecorder attached vs without (the tracing-on price; tracing *off* is
// one thread_local load per span).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/build_stats.h"
#include "core/classifier.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace smptree {
namespace bench {
namespace {

struct Config {
  bool quick = false;
  bool overhead = false;
  std::vector<int> threads = {1, 2, 4};
  std::vector<int> functions = {5, 7};
  int64_t tuples = 40000;
  std::string out;
};

struct Run {
  int function = 0;
  const char* algorithm = nullptr;
  int threads = 0;
  double build_seconds = 0;
  double total_seconds = 0;
  BuildStats stats;
};

constexpr Algorithm kAlgorithms[] = {Algorithm::kBasic, Algorithm::kFwk,
                                     Algorithm::kMwk, Algorithm::kSubtree};

bool ParseIntList(const std::string& raw, std::vector<int>* out) {
  out->clear();
  for (const std::string& part : SplitString(raw, ',')) {
    int64_t v = 0;
    if (!ParseInt64(TrimWhitespace(part), &v) || v < 1) return false;
    out->push_back(static_cast<int>(v));
  }
  return !out->empty();
}

/// Best (minimum build time) of `reps` runs; the repeated measurement
/// absorbs first-touch and allocator noise on quiet machines.
Run Measure(const Dataset& data, int function, Algorithm algorithm,
            int threads, int reps) {
  Run best;
  for (int r = 0; r < reps; ++r) {
    RunResult result = RunBuild(data, algorithm, threads, /*env=*/nullptr);
    if (r == 0 || result.stats.build_seconds < best.build_seconds) {
      best.function = function;
      best.algorithm = AlgorithmName(algorithm);
      best.threads = threads;
      best.build_seconds = result.stats.build_seconds;
      best.total_seconds = result.stats.total_seconds;
      best.stats = result.stats.build_stats;
    }
  }
  return best;
}

void MeasureOverhead(const Dataset& data, int reps) {
  // Same configuration twice: untraced, then with a live TraceRecorder, so
  // the delta is the full tracing-on price (buffer appends + drain setup).
  double untraced = 0, traced = 0;
  for (int r = 0; r < reps; ++r) {
    RunResult plain = RunBuild(data, Algorithm::kMwk, 2, nullptr);
    if (r == 0 || plain.stats.build_seconds < untraced) {
      untraced = plain.stats.build_seconds;
    }
    ClassifierOptions options;
    options.build.algorithm = Algorithm::kMwk;
    options.build.num_threads = 2;
    TraceRecorder recorder;
    options.build.trace = &recorder;
    auto result = TrainClassifier(data, options);
    if (!result.ok()) {
      std::fprintf(stderr, "traced build failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || result->stats.build_seconds < traced) {
      traced = result->stats.build_seconds;
    }
  }
  std::printf("\ntracing-on overhead (MWK, P=2): untraced %.4fs, traced "
              "%.4fs (%+.2f%%)\n",
              untraced, traced,
              untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0);
}

/// The BENCH_parallel.json document: one series per (function, algorithm)
/// whose points carry the build-time speedup over the series' threads=1
/// point and the wait share (wait_seconds / (threads x build_seconds)),
/// both from the rounded times the points hold. Fails on no runs, a series
/// with no threads=1 baseline, or a point with no build time.
Result<std::string> ArtifactJson(const Config& config,
                                 const std::vector<std::vector<Run>>& series) {
  if (series.empty()) return Status::InvalidArgument("no runs");
  std::string out = StringPrintf(
      "{\"suite\": \"parallel_builders\", \"schema_version\": 1,\n"
      " \"context\": {\"hardware_threads\": %d, \"scale\": %.2f, "
      "\"tuples\": %lld, \"attrs\": 9, \"env\": \"mem\", \"window\": 4, "
      "\"quick\": %s},\n \"series\": [",
      HardwareThreads(), BenchScale(), static_cast<long long>(config.tuples),
      config.quick ? "true" : "false");
  for (size_t s = 0; s < series.size(); ++s) {
    const Run& base = series[s].front();
    const double base_build = Rounded(base.build_seconds, 6);
    if (base.threads != 1 || base_build <= 0) {
      return Status::InvalidArgument(StringPrintf(
          "F%d/%s: no threads=1 baseline", base.function, base.algorithm));
    }
    out += StringPrintf(
        "%s\n  {\"function\": %d, \"algorithm\": \"%s\", "
        "\"records_scanned\": %llu, \"records_split\": %llu, \"points\": [",
        s == 0 ? "" : ",", base.function, base.algorithm,
        static_cast<unsigned long long>(base.stats.records_scanned),
        static_cast<unsigned long long>(base.stats.records_split));
    for (size_t i = 0; i < series[s].size(); ++i) {
      const Run& r = series[s][i];
      const double build = Rounded(r.build_seconds, 6);
      const double wait =
          Rounded(static_cast<double>(r.stats.wait_nanos) / 1e9, 6);
      if (build <= 0) {
        return Status::InvalidArgument(StringPrintf(
            "F%d/%s P=%d: no build time", r.function, r.algorithm, r.threads));
      }
      out += StringPrintf(
          "%s\n   {\"threads\": %d, \"build_seconds\": %.6f, "
          "\"speedup\": %.3f, \"wait_share\": %.4f, "
          "\"total_seconds\": %.6f, \"wait_seconds\": %.6f, "
          "\"e_seconds\": %.6f, \"w_seconds\": %.6f, \"s_seconds\": %.6f, "
          "\"barrier_waits\": %llu, \"condvar_waits\": %llu}",
          i == 0 ? "" : ",", r.threads, build, base_build / build,
          wait / (r.threads * build), r.total_seconds, wait,
          static_cast<double>(r.stats.e_nanos) / 1e9,
          static_cast<double>(r.stats.w_nanos) / 1e9,
          static_cast<double>(r.stats.s_nanos) / 1e9,
          static_cast<unsigned long long>(r.stats.barrier_waits),
          static_cast<unsigned long long>(r.stats.condvar_waits));
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--overhead") {
      config.overhead = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.threads)) {
        std::fprintf(stderr, "bad --threads list\n");
        return 1;
      }
    } else if (arg == "--functions" && i + 1 < argc) {
      if (!ParseIntList(argv[++i], &config.functions)) {
        std::fprintf(stderr, "bad --functions list\n");
        return 1;
      }
    } else if (arg == "--tuples" && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &config.tuples) || config.tuples < 100) {
        std::fprintf(stderr, "bad --tuples\n");
        return 1;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      config.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: speedup_builders [--quick] [--threads 1,2,4]\n"
                   "         [--functions 5,7] [--tuples N] [--out F.json]\n"
                   "         [--overhead]\n");
      return 1;
    }
  }
  std::sort(config.threads.begin(), config.threads.end());
  if (config.quick) config.tuples = std::min<int64_t>(config.tuples, 8000);
  const int reps = config.quick ? 1 : 2;
  const int64_t tuples = ScaledTuples(config.tuples);
  config.tuples = tuples;

  PrintBanner("parallel", "builder speedups (threads x algorithm, mem env)");

  std::vector<std::vector<Run>> series;
  for (int function : config.functions) {
    const Dataset data = MakeDataset(function, 9, tuples);
    // One warmup build to fault in the dataset before any timed run.
    RunBuild(data, Algorithm::kSerial, 1, nullptr);

    TablePrinter table({"algorithm", "P", "build s", "speedup", "wait share",
                        "E s", "W s", "S s"});
    for (Algorithm algorithm : kAlgorithms) {
      double base = 0;
      series.emplace_back();
      for (int threads : config.threads) {
        const Run run = Measure(data, function, algorithm, threads, reps);
        if (threads == 1) base = run.build_seconds;
        const double speedup =
            base > 0 && run.build_seconds > 0 ? base / run.build_seconds : 0;
        table.AddRow({run.algorithm, Fmt("%d", threads),
                      Fmt("%.4f", run.build_seconds),
                      base > 0 ? Fmt("%.2f", speedup) : "n/a",
                      Fmt("%.3f", run.stats.WaitShare()),
                      Fmt("%.4f", static_cast<double>(run.stats.e_nanos) / 1e9),
                      Fmt("%.4f", static_cast<double>(run.stats.w_nanos) / 1e9),
                      Fmt("%.4f",
                          static_cast<double>(run.stats.s_nanos) / 1e9)});
        series.back().push_back(run);
      }
    }
    std::printf("\nF%d, %lld tuples:\n", function,
                static_cast<long long>(tuples));
    table.Print();
  }

  if (config.overhead) {
    const Dataset data = MakeDataset(config.functions.front(), 9, tuples);
    MeasureOverhead(data, reps);
  }

  return EmitArtifact(config.out, ArtifactJson(config, series));
}

}  // namespace
}  // namespace bench
}  // namespace smptree

int main(int argc, char** argv) {
  return smptree::bench::Main(argc, argv);
}
