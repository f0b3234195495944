#include "bench/bench_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "util/string_util.h"

namespace smptree {
namespace bench {

double BenchScale() {
  const char* env = std::getenv("SMPTREE_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  if (v < 0.01) return 0.01;
  if (v > 1000.0) return 1000.0;
  return v;
}

int64_t ScaledTuples(int64_t base) {
  const int64_t n = static_cast<int64_t>(static_cast<double>(base) *
                                         BenchScale());
  return n < 500 ? 500 : n;
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Dataset MakeDataset(int function, int num_attrs, int64_t tuples) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_attrs = num_attrs;
  cfg.num_tuples = tuples;
  cfg.seed = 42;
  auto data = GenerateSynthetic(cfg);
  if (!data.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("dataset %s (%s)\n", cfg.Name().c_str(),
              HumanBytes(data->SizeBytes()).c_str());
  return std::move(data).value();
}

RunResult RunBuild(const Dataset& data, Algorithm algorithm, int threads,
                   Env* env, int window, bool relabel, int sort_threads) {
  ClassifierOptions options;
  options.build.algorithm = algorithm;
  options.build.num_threads = threads;
  options.build.window = window;
  options.build.relabel_children = relabel;
  options.build.env = env;
  options.build.sort_threads = sort_threads;
  auto result = TrainClassifier(data, options);
  if (!result.ok()) {
    std::fprintf(stderr, "build failed (%s, P=%d): %s\n",
                 AlgorithmName(algorithm), threads,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  RunResult out;
  out.label = Fmt("%s-P%d", AlgorithmName(algorithm), threads);
  out.stats = result->stats;
  return out;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%-*s", c ? "  " : "  ", static_cast<int>(width[c]),
                  row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  std::string rule(total, '-');
  std::printf("  %s\n", rule.c_str() + 2);
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  char buf[256];
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

void PrintBanner(const std::string& figure, const std::string& config) {
  std::printf("\n=== %s ===\n", figure.c_str());
  std::printf("%s\n", config.c_str());
  std::printf("host: %d hardware thread(s); SMPTREE_BENCH_SCALE=%.2f\n",
              HardwareThreads(), BenchScale());
  if (HardwareThreads() < 4) {
    std::printf(
        "NOTE: fewer than 4 cores detected -- parallel runs timeshare one\n"
        "core, so speedups reflect overhead only; run on a multicore host\n"
        "to reproduce the paper's speedup shapes.\n");
  }
}

double Rounded(double value, int digits) {
  return std::strtod(Fmt("%.*f", digits, value).c_str(), nullptr);
}

int EmitArtifact(const std::string& path, const Result<std::string>& json) {
  if (!json.ok()) {
    std::fprintf(stderr, "artifact: %s\n", json.status().ToString().c_str());
    return 1;
  }
  if (path.empty()) return 0;
  std::ofstream out(path);
  if (!(out << *json) || !out.flush()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

void PrintSpeedupFigure(const std::string& figure, const std::string& title,
                        const Dataset& data, Env* env,
                        const std::vector<int>& processor_counts) {
  std::printf("\n--- %s: %s ---\n", figure.c_str(), title.c_str());

  struct Series {
    Algorithm algorithm;
    std::vector<TrainStats> stats;
  };
  std::vector<Series> series = {{Algorithm::kMwk, {}},
                                {Algorithm::kSubtree, {}}};
  // Discarded warm-up run (allocator, page cache), then best-of-two per
  // configuration so the P=1 baselines are not penalized for going first.
  RunBuild(data, Algorithm::kMwk, 1, env);
  for (auto& s : series) {
    for (int p : processor_counts) {
      TrainStats best = RunBuild(data, s.algorithm, p, env).stats;
      const TrainStats again = RunBuild(data, s.algorithm, p, env).stats;
      if (again.build_seconds < best.build_seconds) best = again;
      s.stats.push_back(best);
    }
  }

  {
    TablePrinter t({"P", "MW build(s)", "SUBTREE build(s)", "MW total(s)",
                    "SUBTREE total(s)"});
    for (size_t i = 0; i < processor_counts.size(); ++i) {
      t.AddRow({Fmt("%d", processor_counts[i]),
                Fmt("%.3f", series[0].stats[i].build_seconds),
                Fmt("%.3f", series[1].stats[i].build_seconds),
                Fmt("%.3f", series[0].stats[i].total_seconds),
                Fmt("%.3f", series[1].stats[i].total_seconds)});
    }
    t.Print();
  }

  {
    TablePrinter t({"P", "MW speedup(build)", "SUBTREE speedup(build)",
                    "MW speedup(total)", "SUBTREE speedup(total)"});
    for (size_t i = 0; i < processor_counts.size(); ++i) {
      t.AddRow({Fmt("%d", processor_counts[i]),
                Fmt("%.2f", series[0].stats[0].build_seconds /
                                series[0].stats[i].build_seconds),
                Fmt("%.2f", series[1].stats[0].build_seconds /
                                series[1].stats[i].build_seconds),
                Fmt("%.2f", series[0].stats[0].total_seconds /
                                series[0].stats[i].total_seconds),
                Fmt("%.2f", series[1].stats[0].total_seconds /
                                series[1].stats[i].total_seconds)});
    }
    t.Print();
  }
}

}  // namespace bench
}  // namespace smptree
