// Shared pieces of the end-to-end benchmark: run configuration, the result
// it prints, order statistics over raw samples, the benchmark-side span
// recorder, and small file and process helpers.
//
// Every span is recorded here, around a call into the library's public API;
// the only spans from inside the library are the builders' own per-level
// E/W/S events, which BuildOptions::trace already provides.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/tree.h"
#include "data/dataset.h"
#include "ensemble/forest.h"
#include "util/random.h"
#include "util/status.h"
#include "util/trace.h"

namespace perfbench {

using smptree::Dataset;
using smptree::Status;

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< this run's scratch files
  int nproc = 1;
};

/// What a workload reports. `metrics` holds either the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run), by the names of
/// BENCHMARK.json, which also gives their units.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  /// Records a failed correctness check (each distinct one once, as a note).
  void Fail(const std::string& what);
  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Traced runs: reports each per-layer metric of a layer the workload
  /// bypasses as 0. Every other per-layer metric must come from a
  /// measurement; run.py refuses a traced run that lacks one.
  void SetBypassed(const std::vector<const char*>& names);
};

/// The per-layer metrics of BENCHMARK.json by layer, for SetBypassed.
inline const std::vector<const char*> kCsvLayer = {"data.csv_load_s"};
inline const std::vector<const char*> kShardLayer = {"data.shard_wait_s"};
inline const std::vector<const char*> kSortedLayers = {
    "core.setup_s",          "core.presort_s",        "parallel.build_s",
    "parallel.e_cpu_s",      "parallel.w_cpu_s",      "parallel.s_cpu_s",
    "parallel.wait_s",       "parallel.barrier_waits", "parallel.condvar_waits",
    "storage.records_read",  "storage.records_written"};
inline const std::vector<const char*> kBinnedLayers = {
    "binned.quantize_s", "binned.materialize_s", "binned.build_s",
    "binned.h_cpu_s"};
inline const std::vector<const char*> kEnsembleLayer = {
    "ensemble.member_build_s"};
inline const std::vector<const char*> kStreamLayers = {
    "stream.ingest_s", "stream.publish_s", "stream.splits", "stream.snapshots",
    "stream.state_bytes"};
inline const std::vector<const char*> kServeLayers = {
    "infer.score_ns_per_tuple",
    "infer.compile_ms",
    "serve.roundtrip_us",
    "serve.http_parse_us",
    "serve.json_parse_us",
    "serve.batch_decode_us",
    "serve.engine_predict_us",
    "serve.queue_wait_us",
    "serve.front_end_self_us",
    "serve.reload_ms",
    "serve.load_model_ms",
    "serve.http.requests",
    "serve.http.pipelined_requests",
    "serve.http.backpressure_stalls",
    "serve.engine.batches",
    "serve.engine.tuples",
    "serve.engine.rejected",
    "serve.model_bytes.pointer",
    "serve.model_bytes.flat"};

/// Median of raw samples (0 when empty).
double Median(std::vector<double> v);
/// The q-quantile (0..1) of raw samples by linear interpolation between the
/// sorted neighbours (0 when empty).
double Quantile(std::vector<double> v, double q);

double NowSeconds();
/// Process peak resident set size in MB (getrusage).
double PeakRssMb();

Status WriteTextFile(const std::string& path, const std::string& text);
smptree::Result<std::string> ReadTextFile(const std::string& path);

/// The Agrawal tuples of a run: F7 over 32 attributes (the paper's large-
/// tree case), drawn from `seed` in one fixed sequence. Every workload takes
/// its held-out set first, so all workloads run with one seed score against
/// the same held-out tuples.
class InputStream {
 public:
  explicit InputStream(uint64_t seed);

  const smptree::Schema& schema() const { return schema_; }
  /// The next `n` tuples of the sequence.
  smptree::Result<Dataset> Take(int64_t n);

 private:
  const smptree::Schema schema_;
  smptree::Random rng_;
  smptree::TupleValues values_;
};

/// The held-out set and then the training set of `seed`.
struct Inputs {
  Dataset train;
  Dataset holdout;
};
smptree::Result<Inputs> MakeInputs(uint64_t seed, int64_t train,
                                   int64_t holdout);

/// Benchmark-side spans. A span has a name, start and end, the span open on
/// the same thread when it began (its parent) and a request id (-1 when it
/// belongs to no request). Spans are kept in memory; ChromeJson and LayerTable
/// read them after the run.
class SpanRecorder {
 public:
  SpanRecorder();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Folds a finished build's per-level E/W/S events into the trace,
  /// parented to `parent` (they run on the builder threads, so they are
  /// shown but not subtracted from the parent's self time).
  void AddBuildTrace(const smptree::TraceRecorder& recorder,
                     std::chrono::steady_clock::time_point recorder_epoch,
                     int parent);

  /// Chrome trace_event JSON of every span (microseconds).
  std::string ChromeJson() const;

  /// Per-name table: calls, total, self time, median duration.
  std::vector<std::string> LayerTable() const;

 private:
  friend class Span;
  struct Record {
    std::string name;
    double start = 0;  ///< seconds since the recorder's epoch
    double end = 0;
    int parent = -1;
    int64_t request = -1;
    int thread = 0;
    bool builder = false;  ///< a builder-thread event (not a child for self)
  };

  int Open(const char* name, int64_t request);
  void Close(int index);

  bool enabled_ = false;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span on a recorder; a no-op when the recorder is off. When
/// `add_seconds` is given, the span's duration is also added to it, traced
/// or not (per-pass layer sums read the same clock as the trace).
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, int64_t request = -1,
       double* add_seconds = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Index of the record (for AddBuildTrace), -1 when off.
  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  double* add_seconds_;
  std::chrono::steady_clock::time_point start_;
  int index_ = -1;
  int saved_parent_ = -1;
};

/// A model as the benchmark checks it locally: exactly one of the two.
struct LocalModel {
  const smptree::DecisionTree* tree = nullptr;
  const smptree::Forest* forest = nullptr;

  /// Pointer-walk classification (Forest: majority vote).
  smptree::ClassLabel Classify(const smptree::TupleValues& values) const;
};

/// Workload entry points (train.cc / serve.cc). Each returns the result to
/// print; an error status means the run could not finish.
smptree::Result<RunResult> RunTrainWorkload(const RunConfig& config,
                                            SpanRecorder* spans);
smptree::Result<RunResult> RunServeWorkload(const RunConfig& config,
                                            SpanRecorder* spans);

/// Thread counts derived from nproc (never 0, which would mean "hardware
/// concurrency" to the library): client connections C <= nproc/2, and the
/// server's dispatch and engine threads take the rest.
struct ServeThreads {
  int clients = 1;
  int dispatch = 1;
  int engine = 1;
};
ServeThreads PlanServeThreads(int nproc);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
