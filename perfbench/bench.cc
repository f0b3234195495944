#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "data/synthetic.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

// Index of the span open on this thread (the parent of the next one).
thread_local int t_open_span = -1;

}  // namespace

void RunResult::Fail(const std::string& what) {
  correct = false;
  const std::string note = "CHECK FAILED: " + what;
  if (std::find(notes.begin(), notes.end(), note) == notes.end()) {
    notes.push_back(note);
  }
}

void RunResult::SetBypassed(const std::vector<const char*>& names) {
  for (const char* name : names) metrics.emplace(name, 0.0);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

smptree::Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

InputStream::InputStream(uint64_t seed)
    : schema_(smptree::SyntheticSchema(32)),
      rng_(seed),
      values_(static_cast<size_t>(schema_.num_attrs())) {}

smptree::Result<Dataset> InputStream::Take(int64_t n) {
  Dataset data(schema_);
  data.Reserve(n);
  for (int64_t t = 0; t < n; ++t) {
    const smptree::ClassLabel label =
        smptree::GenerateSyntheticTuple(schema_, 7, 0.0, &rng_, &values_);
    SMPTREE_RETURN_IF_ERROR(data.Append(values_, label));
  }
  return data;
}

smptree::Result<Inputs> MakeInputs(uint64_t seed, int64_t train,
                                   int64_t holdout) {
  InputStream stream(seed);
  Inputs inputs;
  SMPTREE_ASSIGN_OR_RETURN(inputs.holdout, stream.Take(holdout));
  SMPTREE_ASSIGN_OR_RETURN(inputs.train, stream.Take(train));
  return inputs;
}

ServeThreads PlanServeThreads(int nproc) {
  ServeThreads t;
  t.clients = std::max(1, nproc / 2);
  t.dispatch = std::max(1, (nproc - t.clients) / 2);
  t.engine = std::max(1, nproc - t.clients - t.dispatch);
  return t;
}

// ---------------------------------------------------------------------------
// SpanRecorder

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

int SpanRecorder::Open(const char* name, int64_t request) {
  Record r;
  r.name = name;
  r.start = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          epoch_)
                .count();
  r.parent = t_open_span;
  r.request = request;
  r.thread = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
  return static_cast<int>(records_.size() - 1);
}

void SpanRecorder::Close(int index) {
  const double end = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<size_t>(index)].end = end;
}

void SpanRecorder::AddBuildTrace(
    const smptree::TraceRecorder& recorder,
    std::chrono::steady_clock::time_point recorder_epoch, int parent) {
  const double offset =
      std::chrono::duration<double>(recorder_epoch - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < recorder.num_threads(); ++i) {
    for (const smptree::TraceEvent& ev : recorder.thread_events(i)) {
      Record r;
      r.name = std::string("build.") + ev.name;
      r.start = offset + static_cast<double>(ev.ts_ns) / 1e9;
      r.end = r.start + static_cast<double>(ev.dur_ns) / 1e9;
      r.parent = parent;
      r.thread = 1000000 + recorder.thread_tid(i);
      r.builder = true;
      records_.push_back(std::move(r));
    }
  }
}

std::string SpanRecorder::ChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out += smptree::StringPrintf(
        "%s\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", "
        "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
        "\"args\": {\"id\": %zu, \"parent\": %d, \"request\": %lld}}",
        i == 0 ? "" : ",", r.thread, r.name.c_str(),
        r.builder ? "builder" : "bench", r.start * 1e6,
        (r.end - r.start) * 1e6, i, r.parent,
        static_cast<long long>(r.request));
  }
  out += "\n]}\n";
  return out;
}

std::vector<std::string> SpanRecorder::LayerTable() const {
  struct Row {
    int64_t calls = 0;
    double total = 0;
    double self = 0;
    std::vector<double> durations;
  };
  std::map<std::string, Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_time(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.parent >= 0 && !r.builder) {
        child_time[static_cast<size_t>(r.parent)] += r.end - r.start;
      }
    }
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      Row& row = rows[r.name];
      ++row.calls;
      row.total += r.end - r.start;
      row.self += r.builder ? r.end - r.start : r.end - r.start - child_time[i];
      row.durations.push_back(r.end - r.start);
    }
  }
  std::vector<std::string> lines;
  lines.push_back(smptree::StringPrintf("%-28s %8s %12s %12s %12s", "span",
                                        "calls", "total_ms", "self_ms",
                                        "median_us"));
  for (auto& [name, row] : rows) {
    lines.push_back(smptree::StringPrintf(
        "%-28s %8lld %12.3f %12.3f %12.2f", name.c_str(),
        static_cast<long long>(row.calls), row.total * 1e3, row.self * 1e3,
        Median(row.durations) * 1e6));
  }
  return lines;
}

Span::Span(SpanRecorder* recorder, const char* name, int64_t request,
           double* add_seconds)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                            : nullptr),
      add_seconds_(add_seconds) {
  if (add_seconds_ != nullptr) start_ = std::chrono::steady_clock::now();
  if (recorder_ == nullptr) return;
  index_ = recorder_->Open(name, request);
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

Span::~Span() {
  if (add_seconds_ != nullptr) {
    *add_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  }
  if (recorder_ == nullptr) return;
  recorder_->Close(index_);
  t_open_span = saved_parent_;
}

}  // namespace perfbench
