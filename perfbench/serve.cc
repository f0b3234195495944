// The serving workload, serve-bulk: kBulkTuples tuples per request to an
// InferenceService serving a bagged forest that is hot-reloaded between two
// files. The per-request cost is JSON decoding, Batch::FromJson and forest
// scoring; the front end's cost is amortised over the tuples.
//
// A run measures kRounds rounds of three phases: a closed loop (C keep-alive
// connections sending back to back; tuples_per_s), an open loop at one fixed
// rate below capacity (p50_ms, timed from each request's scheduled send),
// and repeated POST /v1/reload (per-layer serve.reload_ms). No training runs
// while any phase measures.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "data/schema_io.h"
#include "ensemble/forest_builder.h"
#include "ensemble/forest_io.h"
#include "infer/batch_scorer.h"
#include "infer/flat_tree.h"
#include "serve/batch.h"
#include "serve/http_client.h"
#include "serve/http_parser.h"
#include "serve/json.h"
#include "serve/model_store.h"
#include "serve/service.h"
#include "util/string_util.h"

namespace perfbench {

using smptree::Batch;
using smptree::ClassLabel;
using smptree::Forest;
using smptree::HttpClientConnection;
using smptree::InferenceService;
using smptree::JsonValue;
using smptree::ModelStore;
using smptree::Result;
using smptree::StringPrintf;

namespace {

constexpr int64_t kServeTrainTuples = 20000;
constexpr int64_t kServeHoldout = 4096;
constexpr int64_t kBulkTuples = 256;
constexpr int kForestTrees = 8;
constexpr int kSetupRepeats = 5;
constexpr int kWarmupRequests = 200;
constexpr int kRounds = 6;
// Shares of --seconds for the three phases. The closed loop gets the most:
// its throughput is bound by one dispatch thread's JSON parsing, which the
// host's load moves most. The reloads are there for their checks and the
// per-layer serve.reload_ms, so each round runs only a few.
constexpr double kClosedShare = 0.55;
constexpr double kOpenShare = 0.4;
constexpr double kReloadShare = 0.05;
constexpr size_t kMinReloads = 10;
constexpr int kReplayRequests = 200;
constexpr int kCheckTuples = 64;
// Open-loop rate in requests/s, fixed well below the closed-loop capacity
// (about 400 requests/s on a 4-vCPU host), so the queue stays short.
constexpr double kRate = 100;

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// `n` tuples of `data` starting at `begin` (wrapping), in the predict wire
/// format. Continuous values print with 9 significant digits, which round-
/// trips a float exactly, so the service scores the same values the local
/// models do.
std::string PredictBody(const Dataset& data, int64_t begin, int64_t n) {
  const smptree::Schema& schema = data.schema();
  std::string body = "{\"tuples\": [";
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = (begin + i) % data.num_tuples();
    body += i == 0 ? "[" : ", [";
    for (int a = 0; a < schema.num_attrs(); ++a) {
      if (a > 0) body += ",";
      const smptree::AttrValue v = data.value(t, a);
      body += schema.attr(a).is_categorical() ? StringPrintf("%d", v.cat)
                                              : StringPrintf("%.9g", v.f);
    }
    body += "]";
  }
  body += "]}";
  return body;
}

/// Reads the integer after `"key": ` in a response body; -1 when absent.
int64_t FindInt(const std::string& body, const char* key) {
  const std::string needle = StringPrintf("\"%s\": ", key);
  const size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + needle.size(), nullptr, 10);
}

/// True when the response's "codes" array equals `expected`.
bool CodesEqual(const std::string& body,
                const std::vector<ClassLabel>& expected) {
  size_t at = body.find("\"codes\": [");
  if (at == std::string::npos) return false;
  const char* p = body.c_str() + at + 10;
  for (size_t i = 0; i < expected.size(); ++i) {
    char* end = nullptr;
    const long code = std::strtol(p, &end, 10);
    if (end == p || code != expected[i]) return false;
    p = end;
    if (*p == ',') ++p;
  }
  return *p == ']';
}

/// Pre-rendered requests with the labels a local pointer walk gives them.
struct RequestPool {
  std::vector<std::string> bodies;
  std::vector<std::vector<ClassLabel>> expected;
  int64_t tuples_per_request = 1;
};

RequestPool MakePool(const Dataset& holdout, const LocalModel& model,
                     int64_t tuples_per_request) {
  RequestPool pool;
  pool.tuples_per_request = tuples_per_request;
  const int64_t requests =
      std::max<int64_t>(16, holdout.num_tuples() / tuples_per_request);
  for (int64_t r = 0; r < requests; ++r) {
    const int64_t begin = r * tuples_per_request;
    pool.bodies.push_back(PredictBody(holdout, begin, tuples_per_request));
    std::vector<ClassLabel> labels;
    for (int64_t i = 0; i < tuples_per_request; ++i) {
      labels.push_back(model.Classify(
          holdout.Tuple((begin + i) % holdout.num_tuples())));
    }
    pool.expected.push_back(std::move(labels));
  }
  return pool;
}

/// Outcome of one request as the load generator saw it.
enum class Outcome { kOk, kFailed, kWrong };

Outcome Send(HttpClientConnection* conn, const RequestPool& pool,
             int64_t index) {
  const size_t r = static_cast<size_t>(index) % pool.bodies.size();
  auto response = conn->Call("POST", "/v1/predict", pool.bodies[r]);
  if (!response.ok() || response->status != 200) return Outcome::kFailed;
  return CodesEqual(response->body, pool.expected[r]) ? Outcome::kOk
                                                      : Outcome::kWrong;
}

struct LoadCounts {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> wrong{0};

  void Add(Outcome o) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (o == Outcome::kFailed) failed.fetch_add(1, std::memory_order_relaxed);
    if (o == Outcome::kWrong) wrong.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Closed loop: `clients` keep-alive connections send back to back for
/// `seconds`. Returns correctly scored tuples per second. `spans` is null
/// unless this segment is traced.
double ClosedLoop(uint16_t port, const RequestPool& pool, int clients,
                  double seconds, SpanRecorder* spans, LoadCounts* counts) {
  std::vector<int64_t> scored(static_cast<size_t>(clients), 0);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      HttpClientConnection conn("127.0.0.1", port);
      for (int64_t i = c; SecondsBetween(t0, Clock::now()) < seconds;
           i += clients) {
        Outcome o;
        {
          Span span(spans, "serve.call", i);
          o = Send(&conn, pool, i);
        }
        counts->Add(o);
        if (o == Outcome::kOk) {
          scored[static_cast<size_t>(c)] += pool.tuples_per_request;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = SecondsBetween(t0, Clock::now());
  int64_t total = 0;
  for (int64_t n : scored) total += n;
  return static_cast<double>(total) / elapsed;
}

/// Open loop at `rate` requests/s for `seconds`: request i is due at
/// t0 + i / rate and goes out on connection i mod C. Latency runs from the
/// due time, so a stall also delays the requests queued behind it. Appends
/// each answered request's latency and each send's lateness (ms).
void OpenLoop(uint16_t port, const RequestPool& pool, int clients,
              double rate, double seconds, SpanRecorder* spans,
              LoadCounts* counts, std::vector<double>* latency_ms,
              std::vector<double>* late_ms) {
  const int64_t total = static_cast<int64_t>(rate * seconds);
  std::vector<std::vector<double>> latency(static_cast<size_t>(clients));
  std::vector<std::vector<double>> late(static_cast<size_t>(clients));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      HttpClientConnection conn("127.0.0.1", port);
      for (int64_t i = c; i < total; i += clients) {
        const Clock::time_point due =
            t0 + std::chrono::nanoseconds(
                     static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate));
        // Sleep to just short of the due time, then spin: a plain sleep
        // overshoots by tens of microseconds, which would read as latency.
        const Clock::time_point wake = due - std::chrono::microseconds(200);
        if (Clock::now() < wake) std::this_thread::sleep_until(wake);
        while (Clock::now() < due) {
        }
        const Clock::time_point sent = Clock::now();
        Outcome o;
        {
          Span span(spans, "serve.call", i);
          o = Send(&conn, pool, i);
        }
        counts->Add(o);
        late[static_cast<size_t>(c)].push_back(SecondsBetween(due, sent) * 1e3);
        if (o == Outcome::kOk) {
          latency[static_cast<size_t>(c)].push_back(
              SecondsBetween(due, Clock::now()) * 1e3);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < clients; ++c) {
    const size_t k = static_cast<size_t>(c);
    latency_ms->insert(latency_ms->end(), latency[k].begin(), latency[k].end());
    late_ms->insert(late_ms->end(), late[k].begin(), late[k].end());
  }
}

/// A model file, with the model it must hold.
struct ReloadTarget {
  std::string path;
  LocalModel model;
};

/// The two forests serve-bulk serves in turn, trained in set-up like
/// train-forest's (binned members), with different bagging seeds.
struct ServeModels {
  std::unique_ptr<Forest> forest[2];
  std::vector<ReloadTarget> targets;
};

Result<ServeModels> TrainServeModels(const Dataset& train,
                                     const std::string& dir, int nproc) {
  ServeModels models;
  for (int k = 0; k < 2; ++k) {
    smptree::ForestOptions options;
    options.num_trees = kForestTrees;
    options.num_threads = nproc;
    options.seed = 42 + static_cast<uint64_t>(k);
    options.tree.build.engine = smptree::Engine::kBinned;
    SMPTREE_ASSIGN_OR_RETURN(smptree::ForestTrainResult r,
                             smptree::TrainForest(train, options));
    models.forest[k] = std::move(r.forest);
    const std::string path = dir + StringPrintf("/served%d.forest", k);
    SMPTREE_RETURN_IF_ERROR(
        WriteTextFile(path, smptree::SerializeForest(*models.forest[k])));
    models.targets.push_back(
        {path, LocalModel{nullptr, models.forest[k].get()}});
  }
  return models;
}

/// Times ModelStore::LoadForestFile and the flat compile of the served
/// forest file (serve.load_model_ms, infer.compile_ms), each a median of
/// five replays.
Status ReplayModelLoad(const smptree::Schema& schema, const std::string& path,
                       SpanRecorder* spans, RunResult* result) {
  constexpr int kReplays = 5;
  std::vector<double> load_ms, compile_ms;
  for (int i = 0; i < kReplays; ++i) {
    double load = 0, compile = 0;
    Result<Forest> forest = Status::OK();
    {
      Span span(spans, "serve.load_model", i, &load);
      forest = ModelStore::LoadForestFile(schema, path);
    }
    SMPTREE_RETURN_IF_ERROR(forest.status());
    {
      Span span(spans, "infer.compile", i, &compile);
      const smptree::FlatForest flat = smptree::FlatForest::Compile(*forest);
      if (flat.num_trees() != forest->num_trees()) {
        result->Fail("flat forest lost members");
      }
    }
    load_ms.push_back(load * 1e3);
    compile_ms.push_back(compile * 1e3);
  }
  result->Set("serve.load_model_ms", Median(load_ms));
  result->Set("infer.compile_ms", Median(compile_ms));
  return Status::OK();
}

/// Replays each stage of the request path on one thread, outside any load,
/// for the traced run's per-layer table: HTTP parsing of the exact request
/// bytes, JSON parsing, batch decoding, the engine's Predict, flat scoring,
/// and a sequential round trip of the same request.
Status ReplayRequestPath(InferenceService* service, const RequestPool& pool,
                         const Forest& forest, SpanRecorder* spans,
                         RunResult* result) {
  HttpClientConnection conn("127.0.0.1", service->port());
  const smptree::Schema& schema = service->store().schema();
  const smptree::FlatForest flat = smptree::FlatForest::Compile(forest);
  smptree::BatchScorer scorer;
  std::vector<double> roundtrip, parse, json, decode, predict, score, queue;
  std::vector<ClassLabel> labels;
  for (int64_t i = 0; i < kReplayRequests; ++i) {
    const size_t r = static_cast<size_t>(i) % pool.bodies.size();
    const std::string& body = pool.bodies[r];
    double t_roundtrip = 0, t_parse = 0, t_json = 0, t_decode = 0,
           t_predict = 0, t_score = 0;
    {
      Span span(spans, "serve.roundtrip", i, &t_roundtrip);
      auto response = conn.Call("POST", "/v1/predict", body);
      if (!response.ok() || response->status != 200 ||
          !CodesEqual(response->body, pool.expected[r])) {
        result->Fail("replayed predict did not return the local labels");
      }
    }
    const std::string bytes =
        StringPrintf("POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Content-Type: application/json\r\n"
                     "Content-Length: %zu\r\n\r\n",
                     body.size()) +
        body;
    {
      Span span(spans, "serve.http_parse", i, &t_parse);
      smptree::HttpRequestParser parser;
      if (parser.Feed(bytes.data(), bytes.size()) !=
          smptree::HttpRequestParser::State::kComplete) {
        result->Fail("request bytes did not parse as one HTTP request");
      }
    }
    Result<JsonValue> doc = Status::OK();
    {
      Span span(spans, "serve.json_parse", i, &t_json);
      doc = smptree::ParseJson(body);
    }
    SMPTREE_RETURN_IF_ERROR(doc.status());
    Result<Batch> batch = Status::OK();
    {
      Span span(spans, "serve.batch_decode", i, &t_decode);
      batch = Batch::FromJson(schema, *doc);
    }
    SMPTREE_RETURN_IF_ERROR(batch.status());
    labels.assign(static_cast<size_t>(batch->num_tuples()), 0);
    {
      Span span(spans, "infer.score", i, &t_score);
      scorer.ScoreForest(flat, *batch, labels.data(), nullptr);
    }
    {
      Span span(spans, "serve.engine_predict", i, &t_predict);
      auto outcome = service->engine().Predict(std::move(*batch));
      if (!outcome.ok() || outcome->labels != labels) {
        result->Fail("engine labels differ from the flat scorer's");
      }
    }
    roundtrip.push_back(t_roundtrip * 1e6);
    parse.push_back(t_parse * 1e6);
    json.push_back(t_json * 1e6);
    decode.push_back(t_decode * 1e6);
    predict.push_back(t_predict * 1e6);
    score.push_back(t_score * 1e9 / static_cast<double>(labels.size()));
    queue.push_back((t_predict - t_score) * 1e6);
  }
  const double rt = Median(roundtrip), hp = Median(parse), jp = Median(json),
               bd = Median(decode), ep = Median(predict);
  result->Set("serve.roundtrip_us", rt);
  result->Set("serve.http_parse_us", hp);
  result->Set("serve.json_parse_us", jp);
  result->Set("serve.batch_decode_us", bd);
  result->Set("serve.engine_predict_us", ep);
  result->Set("serve.queue_wait_us", Median(queue));
  result->Set("serve.front_end_self_us", rt - hp - jp - bd - ep);
  result->Set("infer.score_ns_per_tuple", Median(score));
  return Status::OK();
}

/// Starts a service on `store` with the thread plan of PlanServeThreads.
Result<std::unique_ptr<InferenceService>> StartService(
    std::unique_ptr<ModelStore> store, int nproc) {
  const ServeThreads threads = PlanServeThreads(nproc);
  smptree::ServiceOptions options;
  options.engine.num_workers = threads.engine;
  options.http.num_threads = threads.dispatch;
  options.http.port = 0;
  auto service =
      std::make_unique<InferenceService>(std::move(store), std::move(options));
  SMPTREE_RETURN_IF_ERROR(service->Start());
  return service;
}

/// Adds the service's GET /statz counters to the per-layer metrics.
Status CollectStatz(uint16_t port, RunResult* result) {
  HttpClientConnection conn("127.0.0.1", port);
  SMPTREE_ASSIGN_OR_RETURN(smptree::HttpClientResponse response,
                           conn.Call("GET", "/statz", ""));
  SMPTREE_ASSIGN_OR_RETURN(JsonValue doc, smptree::ParseJson(response.body));
  auto number = [&doc](const char* section, const char* key) {
    const JsonValue* s = section == nullptr ? &doc : doc.Find(section);
    const JsonValue* v = s == nullptr ? nullptr : s->Find(key);
    return v != nullptr && v->is_number() ? v->number_value() : 0.0;
  };
  result->Set("serve.http.requests", number("http", "requests"));
  result->Set("serve.http.pipelined_requests",
              number("http", "pipelined_requests"));
  result->Set("serve.http.backpressure_stalls",
              number("http", "backpressure_stalls"));
  result->Set("serve.engine.batches", number(nullptr, "batches"));
  result->Set("serve.engine.tuples", number(nullptr, "tuples"));
  result->Set("serve.engine.rejected", number(nullptr, "rejected"));
  result->Set("serve.model_bytes.pointer", number("model_bytes", "pointer"));
  result->Set("serve.model_bytes.flat", number("model_bytes", "flat"));
  return Status::OK();
}

/// What a reload loop sends and expects: per target its reload request and
/// the labels its model gives the check request.
struct ReloadChecks {
  std::vector<std::string> bodies;
  std::vector<std::vector<ClassLabel>> expected;
  std::string check_body;
};

/// Renders the reload requests and the check request. The check tuples are,
/// where there are such, ones on which the targets disagree, so the labels
/// after a reload show which model answered.
Result<ReloadChecks> PrepareReloads(const std::vector<ReloadTarget>& targets,
                                   const Dataset& holdout) {
  // Check tuples: first those on which the targets disagree, so the labels
  // after a reload show which model answered.
  std::vector<int64_t> check;
  for (int64_t t = 0; t < holdout.num_tuples() &&
                      static_cast<int>(check.size()) < kCheckTuples;
       ++t) {
    const smptree::TupleValues v = holdout.Tuple(t);
    for (const ReloadTarget& target : targets) {
      if (target.model.Classify(v) != targets[0].model.Classify(v)) {
        check.push_back(t);
        break;
      }
    }
  }
  for (int64_t t = 0; static_cast<int>(check.size()) < kCheckTuples; ++t) {
    check.push_back(t);
  }
  Dataset check_set(holdout.schema());
  for (int64_t t : check) {
    SMPTREE_RETURN_IF_ERROR(
        check_set.Append(holdout.Tuple(t), holdout.label(t)));
  }
  ReloadChecks checks;
  checks.check_body = PredictBody(check_set, 0, kCheckTuples);
  for (const ReloadTarget& target : targets) {
    checks.bodies.push_back("{\"model\": " + smptree::JsonQuote(target.path) +
                            "}");
    std::vector<ClassLabel> expected;
    for (int64_t t = 0; t < kCheckTuples; ++t) {
      expected.push_back(target.model.Classify(check_set.Tuple(t)));
    }
    checks.expected.push_back(std::move(expected));
  }
  return checks;
}

/// POSTs /v1/reload for the targets in turn, in whole rounds over the
/// targets (so the first is installed again at the end), for `seconds` and
/// at least kMinReloads times. After each reload it checks that the epoch
/// rose by exactly one and that a predict answered next carries the
/// reloaded model's labels. Appends each reload's round trip (ms).
Status RunReloads(InferenceService* service, const ReloadChecks& checks,
                  double seconds, SpanRecorder* spans, RunResult* result,
                  std::vector<double>* reload_ms) {
  HttpClientConnection conn("127.0.0.1", service->port());
  const size_t targets = checks.bodies.size();
  int64_t epoch = service->store().epoch();
  const double start = NowSeconds();
  for (size_t i = 0;
       i < kMinReloads || i % targets != 0 || NowSeconds() - start < seconds;
       ++i) {
    // Starts on the second target, so whole rounds end on the first.
    const size_t target = (i + 1) % targets;
    ++result->attempted;
    double taken = 0;
    Result<smptree::HttpClientResponse> response = Status::OK();
    {
      Span span(spans, "serve.reload", static_cast<int64_t>(i), &taken);
      response = conn.Call("POST", "/v1/reload", checks.bodies[target]);
    }
    if (!response.ok() || response->status != 200) {
      ++result->failed;
      continue;
    }
    reload_ms->push_back(taken * 1e3);
    const int64_t new_epoch = FindInt(response->body, "epoch");
    if (new_epoch != epoch + 1) {
      result->Fail(StringPrintf("reload moved the epoch from %lld to %lld",
                                static_cast<long long>(epoch),
                                static_cast<long long>(new_epoch)));
    }
    epoch = new_epoch;
    ++result->attempted;
    auto predicted = conn.Call("POST", "/v1/predict", checks.check_body);
    if (!predicted.ok() || predicted->status != 200) {
      ++result->failed;
    } else if (FindInt(predicted->body, "epoch") != epoch ||
               !CodesEqual(predicted->body, checks.expected[target])) {
      result->Fail("labels after a reload do not come from the new model");
    }
  }
  return Status::OK();
}

}  // namespace

ClassLabel LocalModel::Classify(const smptree::TupleValues& values) const {
  return forest != nullptr ? forest->Classify(values) : tree->Classify(values);
}

Result<RunResult> RunServeWorkload(const RunConfig& config,
                                   SpanRecorder* spans) {
  if (config.workload != "serve-bulk") {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  const ServeThreads threads = PlanServeThreads(config.nproc);
  RunResult result;
  result.notes.push_back(StringPrintf(
      "inputs: F7-A32, %lld training tuples, %lld held-out tuples; "
      "%lld tuples per request; model: 2 bagged forests of %d binned trees, "
      "reloaded in turn",
      static_cast<long long>(kServeTrainTuples),
      static_cast<long long>(kServeHoldout),
      static_cast<long long>(kBulkTuples), kForestTrees));
  result.notes.push_back(StringPrintf(
      "threads: %d client connections, %d dispatch, %d engine; open-loop "
      "rate %.0f req/s",
      threads.clients, threads.dispatch, threads.engine, kRate));

  // Set-up, repeated so setup_s is a median: inputs, the served models and
  // their files, the service, and a warm-up. Only the last one serves.
  const std::string schema_path = config.work_dir + "/serve.schema";
  std::vector<double> setup_s;
  Inputs inputs;
  ServeModels models;
  std::unique_ptr<InferenceService> service;
  RequestPool pool;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (service != nullptr) service->Stop();
    service.reset();
    const double start = NowSeconds();
    SMPTREE_ASSIGN_OR_RETURN(
        inputs, MakeInputs(config.seed, kServeTrainTuples, kServeHoldout));
    SMPTREE_ASSIGN_OR_RETURN(
        models, TrainServeModels(inputs.train, config.work_dir, config.nproc));
    SMPTREE_RETURN_IF_ERROR(
        smptree::WriteSchemaFile(inputs.train.schema(), schema_path));
    SMPTREE_ASSIGN_OR_RETURN(
        std::unique_ptr<ModelStore> store,
        ModelStore::Open(schema_path, models.targets[0].path));
    SMPTREE_ASSIGN_OR_RETURN(service,
                             StartService(std::move(store), config.nproc));
    pool = MakePool(inputs.holdout, models.targets[0].model, kBulkTuples);
    HttpClientConnection conn("127.0.0.1", service->port());
    for (int i = 0; i < kWarmupRequests; ++i) {
      if (Send(&conn, pool, i) != Outcome::kOk) {
        return Status::Internal("warm-up request failed");
      }
    }
    setup_s.push_back(NowSeconds() - start);
  }

  // Served accuracy over the whole held-out set, checked tuple by tuple
  // against the local model.
  {
    HttpClientConnection conn("127.0.0.1", service->port());
    int64_t right = 0;
    for (int64_t begin = 0; begin < kServeHoldout; begin += kBulkTuples) {
      std::vector<ClassLabel> expected;
      for (int64_t t = begin; t < begin + kBulkTuples; ++t) {
        expected.push_back(
            models.targets[0].model.Classify(inputs.holdout.Tuple(t)));
        right += expected.back() == inputs.holdout.label(t);
      }
      ++result.attempted;
      auto response = conn.Call(
          "POST", "/v1/predict",
          PredictBody(inputs.holdout, begin, kBulkTuples));
      if (!response.ok() || response->status != 200) {
        ++result.failed;
      } else if (!CodesEqual(response->body, expected)) {
        result.Fail("served labels differ from the local pointer walk");
      }
    }
    result.Set("accuracy", static_cast<double>(right) / kServeHoldout);
  }

  // Rounds of closed loop, open loop and reloads, so that every metric
  // samples the whole run. Each round's reloads end on the first model file
  // again, which the request pool's labels come from. In a traced run the
  // odd rounds are traced and the even ones are not.
  SMPTREE_ASSIGN_OR_RETURN(ReloadChecks checks,
                           PrepareReloads(models.targets, inputs.holdout));
  LoadCounts counts;
  std::vector<double> rates[2], latency_ms[2], reload_ms[2], late_ms;
  for (int round = 0; round < kRounds; ++round) {
    const int traced = config.trace && round % 2 == 1 ? 1 : 0;
    SpanRecorder* round_spans = traced ? spans : nullptr;
    rates[traced].push_back(ClosedLoop(service->port(), pool, threads.clients,
                                       config.seconds * kClosedShare / kRounds,
                                       round_spans, &counts));
    OpenLoop(service->port(), pool, threads.clients, kRate,
             config.seconds * kOpenShare / kRounds, round_spans, &counts,
             &latency_ms[traced], &late_ms);
    SMPTREE_RETURN_IF_ERROR(RunReloads(service.get(), checks,
                                       config.seconds * kReloadShare / kRounds,
                                       round_spans, &result,
                                       &reload_ms[traced]));
  }
  result.attempted += counts.attempted.load();
  result.failed += counts.failed.load();
  if (counts.wrong.load() > 0) {
    result.Fail(StringPrintf("%lld responses carried wrong labels",
                             static_cast<long long>(counts.wrong.load())));
  }

  // Read before the traced replays, which load the forest file again.
  const double peak_rss_mb = PeakRssMb();
  const std::vector<double>& latency = latency_ms[0];
  const double late_max =
      late_ms.empty() ? 0 : *std::max_element(late_ms.begin(), late_ms.end());
  result.notes.push_back(StringPrintf(
      "open loop: %zu untraced samples, p50 %.4f ms, p99 %.4f ms (reference "
      "only); generator late by median %.4f ms, max %.4f ms",
      latency.size(), Median(latency), Quantile(latency, 0.99),
      Median(late_ms), late_max));
  std::string rate_text;
  for (double r : rates[0]) rate_text += StringPrintf(" %.0f", r);
  result.notes.push_back("closed loop tuples/s per untraced round:" +
                         rate_text);
  result.notes.push_back(StringPrintf(
      "reloads: %zu untraced, q1 %.4f ms, median %.4f ms, q3 %.4f ms",
      reload_ms[0].size(), Quantile(reload_ms[0], 0.25), Median(reload_ms[0]),
      Quantile(reload_ms[0], 0.75)));

  if (!config.trace) {
    result.Set("setup_s", Median(setup_s));
    result.Set("tuples_per_s", Median(rates[0]));
    result.Set("p50_ms", Median(latency));
    result.Set("peak_rss_mb", peak_rss_mb);
    return result;
  }
  result.metrics.clear();
  result.Set("serve.reload_ms", Median(reload_ms[1]));
  result.Set("core.nodes",
             static_cast<double>(models.forest[0]->total_nodes()));
  // The served forests are trained in set-up, which is not traced.
  for (const auto* layer : {&kCsvLayer, &kShardLayer, &kSortedLayers,
                            &kBinnedLayers, &kEnsembleLayer, &kStreamLayers}) {
    result.SetBypassed(*layer);
  }
  result.SetBypassed({"core.serialize_s"});
  result.notes.push_back(StringPrintf(
      "tracing overhead: tuples_per_s untraced %.1f traced %.1f (%+.2f%%); "
      "p50_ms untraced %.4f traced %.4f (%+.2f%%); reload_ms untraced %.4f "
      "traced %.4f",
      Median(rates[0]), Median(rates[1]),
      100 * (Median(rates[1]) - Median(rates[0])) / Median(rates[0]),
      Median(latency_ms[0]), Median(latency_ms[1]),
      100 * (Median(latency_ms[1]) - Median(latency_ms[0])) /
          Median(latency_ms[0]),
      Median(reload_ms[0]), Median(reload_ms[1])));
  SMPTREE_RETURN_IF_ERROR(ReplayRequestPath(service.get(), pool,
                                            *models.forest[0], spans,
                                            &result));
  SMPTREE_RETURN_IF_ERROR(ReplayModelLoad(
      inputs.train.schema(), models.targets[0].path, spans, &result));
  SMPTREE_RETURN_IF_ERROR(CollectStatz(service->port(), &result));
  service->Stop();
  return result;
}

}  // namespace perfbench
