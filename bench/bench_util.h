// Shared harness code for the paper-reproduction benchmarks: dataset
// construction in the paper's Fx-Ay-DzK notation, timed builds, and the
// text tables that mirror the paper's figures.
//
// Scaling: dataset sizes default to laptop-friendly values; set
// SMPTREE_BENCH_SCALE (a float multiplier on tuple counts, e.g. 25 to reach
// the paper's 250K-tuple datasets) to scale up.

#ifndef SMPTREE_BENCH_BENCH_UTIL_H_
#define SMPTREE_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "core/classifier.h"
#include "data/synthetic.h"
#include "util/status.h"

namespace smptree {
namespace bench {

/// SMPTREE_BENCH_SCALE (default 1.0), clamped to [0.01, 1000].
double BenchScale();

/// Tuple count after scaling (rounded, at least 500).
int64_t ScaledTuples(int64_t base);

/// Hardware threads available; figure benches cap their P range here only
/// for the warning text, not for the run (oversubscription still measures).
int HardwareThreads();

/// Generates Fx-Ay-Dz and prints a one-line description.
Dataset MakeDataset(int function, int num_attrs, int64_t tuples);

/// One timed training run.
struct RunResult {
  std::string label;
  TrainStats stats;
};

/// Trains with the given configuration (window 4 unless overridden).
RunResult RunBuild(const Dataset& data, Algorithm algorithm, int threads,
                   Env* env, int window = 4, bool relabel = true,
                   int sort_threads = 1);

/// Column-aligned table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Prints the standard figure block for one dataset: build time per
/// processor count for MWK and SUBTREE, plus build-only and total speedups
/// relative to each algorithm's 1-processor run (matching the paper's
/// figure layout: timing chart, Speedup(Build), Speedup(Build+Setup+Sort)).
void PrintSpeedupFigure(const std::string& figure, const std::string& title,
                        const Dataset& data, Env* env,
                        const std::vector<int>& processor_counts);

/// Header banner with machine context (core count, env name, scale).
void PrintBanner(const std::string& figure, const std::string& config);

/// `value` as "%.*f" prints it: derived fields computed from rounded row
/// values agree exactly with the rows a BENCH_*.json artifact holds.
double Rounded(double value, int digits);

/// Ends a suite bench: prints the artifact's error, or writes it to `path`
/// (the bench's --out; nothing is written when empty). Returns the exit
/// status -- non-zero when the artifact could not be built or written.
int EmitArtifact(const std::string& path, const Result<std::string>& json);

}  // namespace bench
}  // namespace smptree

#endif  // SMPTREE_BENCH_BENCH_UTIL_H_
