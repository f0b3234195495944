// The training workloads: one per engine, each building a model file from
// the input file the way `smptree_cli train` / `train-forest` /
// `train-stream` do with their defaults.
//
//   train-exact   CSV -> TrainClassifier (sorted engine, MWK, P = nproc)
//   train-binned  CSV -> TrainClassifier (binned engine, P = nproc)
//   train-forest  CSV -> TrainForest (bagged, 8 members, P = nproc)
//   train-stream  binary shards -> DiskStreamSource -> HoeffdingTreeBuilder,
//                 publishing a snapshot into a ModelStore every 10000 tuples
//
// A pass is the whole path to the serialized model file; p50_ms is the
// median pass after one untimed warm-up pass.

#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/classifier.h"
#include "core/tree_io.h"
#include "data/csv.h"
#include "data/schema_io.h"
#include "ensemble/forest_builder.h"
#include "ensemble/forest_io.h"
#include "infer/batch_scorer.h"
#include "infer/flat_tree.h"
#include "serve/batch.h"
#include "serve/model_store.h"
#include "stream/hoeffding_builder.h"
#include "stream/shard_io.h"
#include "stream/stream_source.h"
#include "util/string_util.h"

namespace perfbench {

using smptree::ClassLabel;
using smptree::DecisionTree;
using smptree::Forest;
using smptree::Result;
using smptree::StringPrintf;

namespace {

constexpr int64_t kTrainTuples = 100000;
// The stream pass reads more tuples than the other workloads' CSV holds: a
// Hoeffding tree needs about 600K F7-A32 tuples to come safely within 2% of
// the binned tree's accuracy (README: "Inputs"). Each shard holds
// kTrainTuples tuples.
constexpr int kShards = 6;
constexpr int64_t kStreamTuples = kShards * kTrainTuples;
constexpr int64_t kHoldoutTuples = 10000;
constexpr int kForestTrees = 8;
constexpr int kSetupRepeats = 5;
constexpr int kMinTimedPasses = 5;
constexpr int64_t kStreamBatch = 1024;
constexpr int64_t kSnapshotEvery = 10000;

enum class Trainer { kExact, kBinned, kForest, kStream };

struct Files {
  std::string schema;
  std::string csv;
  std::string model;
  std::vector<std::string> shards;
};

/// The CLI's `train` defaults with the engine and P set.
smptree::ClassifierOptions TreeOptions(Trainer trainer, int nproc) {
  smptree::ClassifierOptions options;
  options.build.algorithm = smptree::Algorithm::kMwk;
  options.build.num_threads = nproc;
  if (trainer == Trainer::kBinned) {
    options.build.engine = smptree::Engine::kBinned;
  }
  return options;
}

/// The CLI's `train-stream` defaults, with a snapshot every kSnapshotEvery
/// tuples.
smptree::HoeffdingOptions StreamOptions() {
  smptree::HoeffdingOptions options;
  options.max_bins = 64;
  options.reservoir_size = 2048;
  options.snapshot_every = kSnapshotEvery;
  options.seed = 1;
  return options;
}

/// The product of one pass: exactly one of tree / forest.
struct Model {
  std::unique_ptr<DecisionTree> tree;
  std::unique_ptr<Forest> forest;

  LocalModel local() const { return LocalModel{tree.get(), forest.get()}; }
  int64_t nodes() const {
    return forest != nullptr ? forest->total_nodes() : tree->num_nodes();
  }
};

struct Pass {
  double seconds = 0;
  Model model;
  std::string text;  ///< the model file's contents
  /// Per-layer values of this pass (named as the per-layer metrics).
  std::map<std::string, double> layer;
};

/// Adds one build's TrainStats to the pass's layer values (a forest adds
/// each of its binned members').
void FoldTrainStats(const smptree::TrainStats& s, smptree::Engine engine,
                    std::map<std::string, double>* layer) {
  if (engine == smptree::Engine::kBinned) {
    // The binned path times quantization as its sort phase and bin-matrix
    // materialization as its setup phase (core/classifier.cc).
    (*layer)["binned.quantize_s"] += s.sort_seconds;
    (*layer)["binned.materialize_s"] += s.setup_seconds;
    (*layer)["binned.build_s"] += s.build_seconds;
    (*layer)["binned.h_cpu_s"] += s.h_phase_seconds;
    return;
  }
  (*layer)["core.setup_s"] += s.setup_seconds;
  (*layer)["core.presort_s"] += s.sort_seconds;
  (*layer)["parallel.build_s"] += s.build_seconds;
  (*layer)["parallel.e_cpu_s"] += s.e_phase_seconds;
  (*layer)["parallel.w_cpu_s"] += s.w_phase_seconds;
  (*layer)["parallel.s_cpu_s"] += s.s_phase_seconds;
  (*layer)["parallel.wait_s"] += s.wait_seconds;
  (*layer)["parallel.barrier_waits"] += static_cast<double>(s.barrier_waits);
  (*layer)["parallel.condvar_waits"] += static_cast<double>(s.condvar_waits);
  (*layer)["storage.records_read"] += static_cast<double>(s.records_read);
  (*layer)["storage.records_written"] +=
      static_cast<double>(s.records_written);
}

/// The per-layer metrics a trainer's passes never reach, serving aside.
std::vector<const std::vector<const char*>*> BypassedLayers(Trainer trainer) {
  switch (trainer) {
    case Trainer::kExact:
      return {&kShardLayer, &kBinnedLayers, &kEnsembleLayer, &kStreamLayers};
    case Trainer::kBinned:
      return {&kShardLayer, &kSortedLayers, &kEnsembleLayer, &kStreamLayers};
    case Trainer::kForest:
      return {&kShardLayer, &kSortedLayers, &kStreamLayers};
    case Trainer::kStream:
      return {&kCsvLayer, &kSortedLayers, &kBinnedLayers, &kEnsembleLayer};
  }
  return {};
}

Status StreamPass(const Files& files, const smptree::Schema& schema,
                  SpanRecorder* spans, int64_t id, Pass* pass) {
  double shard_wait = 0, ingest = 0, publish = 0;
  SMPTREE_ASSIGN_OR_RETURN(
      std::unique_ptr<smptree::DiskStreamSource> source,
      smptree::DiskStreamSource::Open(schema, files.shards));
  // Declared before the builder: the publish hook captures it, and stays a
  // no-op until the store exists (it needs the builder's first snapshot).
  std::unique_ptr<smptree::ModelStore> store;
  smptree::HoeffdingOptions options = StreamOptions();
  options.publish = [&](DecisionTree&& snapshot, int64_t tuples) {
    if (store == nullptr) return Status::OK();
    Span span(spans, "stream.publish", id, &publish);
    return store->Install(std::move(snapshot),
                          StringPrintf("stream@%lld",
                                       static_cast<long long>(tuples)));
  };
  smptree::HoeffdingTreeBuilder builder(schema, options);
  SMPTREE_RETURN_IF_ERROR(builder.Init());
  SMPTREE_ASSIGN_OR_RETURN(DecisionTree initial, builder.Snapshot());
  SMPTREE_ASSIGN_OR_RETURN(store,
                           smptree::ModelStore::Create(std::move(initial)));
  smptree::StreamBatch batch;
  while (true) {
    Result<int64_t> delivered = Status::OK();
    {
      Span span(spans, "data.shard_wait", id, &shard_wait);
      delivered = source->NextBatch(kStreamBatch, &batch);
    }
    SMPTREE_RETURN_IF_ERROR(delivered.status());
    if (*delivered == 0) break;
    Span span(spans, "stream.ingest", id, &ingest);
    SMPTREE_RETURN_IF_ERROR(builder.Ingest(batch));
  }
  {
    Span span(spans, "stream.ingest", id, &ingest);
    SMPTREE_RETURN_IF_ERROR(builder.Finish());
  }
  {
    Span span(spans, "core.serialize", id, &pass->layer["core.serialize_s"]);
    pass->text = smptree::SerializeTree(builder.tree());
    SMPTREE_RETURN_IF_ERROR(WriteTextFile(files.model, pass->text));
  }
  const smptree::StreamStats stats = builder.Stats();
  pass->layer["data.shard_wait_s"] = shard_wait;
  pass->layer["stream.ingest_s"] = ingest - publish;  // self time
  pass->layer["stream.publish_s"] = publish;
  pass->layer["stream.splits"] = static_cast<double>(stats.splits);
  pass->layer["stream.snapshots"] = static_cast<double>(stats.snapshots);
  pass->layer["stream.state_bytes"] =
      static_cast<double>(stats.sketch_bytes + stats.histogram_bytes);
  SMPTREE_ASSIGN_OR_RETURN(DecisionTree tree, builder.Snapshot());
  pass->model.tree = std::make_unique<DecisionTree>(std::move(tree));
  return Status::OK();
}

/// One pass: input file -> trained model -> model file. `id` is the pass
/// index (the request id of its spans). When spans are on, the build's
/// TraceRecorder is bound too, so its per-level E/W/S events join the trace.
Result<Pass> TrainPass(Trainer trainer, const Files& files,
                       const smptree::Schema& schema, int nproc,
                       SpanRecorder* spans, int64_t id) {
  Pass pass;
  const double start = NowSeconds();
  Span pass_span(spans, "train.pass", id);
  if (trainer == Trainer::kStream) {
    SMPTREE_RETURN_IF_ERROR(StreamPass(files, schema, spans, id, &pass));
  } else {
    Result<Dataset> data = Status::OK();
    {
      Span span(spans, "data.csv_load", id, &pass.layer["data.csv_load_s"]);
      data = smptree::ReadCsv(schema, files.csv);
    }
    SMPTREE_RETURN_IF_ERROR(data.status());
    if (trainer == Trainer::kForest) {
      smptree::ForestOptions options;
      options.num_trees = kForestTrees;
      options.num_threads = nproc;
      options.tree = TreeOptions(Trainer::kBinned, 1);
      Span span(spans, "ensemble.train_forest", id);
      SMPTREE_ASSIGN_OR_RETURN(smptree::ForestTrainResult r,
                               smptree::TrainForest(*data, options));
      double members = 0;
      for (const smptree::TrainStats& s : r.stats.trees) {
        members += s.total_seconds;
        FoldTrainStats(s, smptree::Engine::kBinned, &pass.layer);
      }
      pass.layer["ensemble.member_build_s"] = members;
      pass.model.forest = std::move(r.forest);
    } else {
      smptree::ClassifierOptions options = TreeOptions(trainer, nproc);
      smptree::TraceRecorder recorder;
      const auto recorder_epoch = std::chrono::steady_clock::now();
      if (spans->enabled()) options.build.trace = &recorder;
      Span span(spans, "core.train", id);
      SMPTREE_ASSIGN_OR_RETURN(smptree::TrainResult r,
                               smptree::TrainClassifier(*data, options));
      if (spans->enabled()) {
        spans->AddBuildTrace(recorder, recorder_epoch, span.index());
      }
      FoldTrainStats(r.stats, options.build.engine, &pass.layer);
      pass.model.tree = std::move(r.tree);
    }
    Span span(spans, "core.serialize", id, &pass.layer["core.serialize_s"]);
    pass.text = pass.model.forest != nullptr
                    ? smptree::SerializeForest(*pass.model.forest)
                    : smptree::SerializeTree(*pass.model.tree);
    SMPTREE_RETURN_IF_ERROR(WriteTextFile(files.model, pass.text));
  }
  pass.layer["core.nodes"] = static_cast<double>(pass.model.nodes());
  pass.seconds = NowSeconds() - start;
  return pass;
}

double Accuracy(const LocalModel& model, const Dataset& data) {
  int64_t right = 0;
  for (int64_t t = 0; t < data.num_tuples(); ++t) {
    right += model.Classify(data.Tuple(t)) == data.label(t);
  }
  return static_cast<double>(right) / static_cast<double>(data.num_tuples());
}

/// Accuracy of a reference model trained on `train` (untimed).
Result<double> ReferenceAccuracy(Trainer trainer, const Dataset& train,
                                 const Dataset& holdout, int nproc) {
  SMPTREE_ASSIGN_OR_RETURN(
      smptree::TrainResult r,
      smptree::TrainClassifier(train, TreeOptions(trainer, nproc)));
  return Accuracy(LocalModel{r.tree.get(), nullptr}, holdout);
}

/// The correctness checks of a training run, each computed apart from the
/// timed path: the model file round-trips and validates, the flat scorer
/// agrees with the pointer walk, and the engine-specific property holds.
Status CheckModel(Trainer trainer, const Files& files, const Dataset& holdout,
                  int nproc, const Model& model, double accuracy,
                  RunResult* result) {
  const smptree::Schema& schema = holdout.schema();
  SMPTREE_ASSIGN_OR_RETURN(std::string text, ReadTextFile(files.model));
  const smptree::Batch batch = smptree::Batch::FromDataset(
      holdout, 0, holdout.num_tuples());
  std::vector<ClassLabel> flat(static_cast<size_t>(batch.num_tuples()));
  smptree::BatchScorer scorer;
  if (model.forest != nullptr) {
    if (!model.forest->Validate().ok()) result->Fail("forest fails Validate");
    Result<Forest> back = smptree::DeserializeForest(schema, text);
    if (!back.ok() || !smptree::ForestsEqual(*back, *model.forest)) {
      result->Fail("forest does not round-trip through forest_io");
    }
    scorer.ScoreForest(smptree::FlatForest::Compile(*model.forest), batch,
                       flat.data(), nullptr);
    std::vector<int64_t> votes;
    for (int64_t t = 0; t < holdout.num_tuples(); ++t) {
      if (model.forest->Vote(holdout.Tuple(t), &votes) !=
          flat[static_cast<size_t>(t)]) {
        result->Fail("flat forest label differs from Forest::Vote");
        break;
      }
    }
  } else {
    if (!model.tree->Validate().ok()) result->Fail("tree fails Validate");
    Result<DecisionTree> back = smptree::DeserializeTree(schema, text);
    if (!back.ok() || !smptree::TreesEqual(*back, *model.tree)) {
      result->Fail("tree does not round-trip through tree_io");
    }
    scorer.ScoreTree(smptree::FlatTree::Compile(*model.tree), batch,
                     flat.data());
    for (int64_t t = 0; t < holdout.num_tuples(); ++t) {
      if (model.tree->Classify(holdout.Tuple(t)) !=
          flat[static_cast<size_t>(t)]) {
        result->Fail("flat tree label differs from DecisionTree::Classify");
        break;
      }
    }
  }

  if (trainer == Trainer::kExact) {
    // MWK at P = nproc must grow exactly the serial SPRINT tree.
    SMPTREE_ASSIGN_OR_RETURN(Dataset data, smptree::ReadCsv(schema, files.csv));
    smptree::ClassifierOptions serial;
    serial.build.algorithm = smptree::Algorithm::kSerial;
    SMPTREE_ASSIGN_OR_RETURN(smptree::TrainResult r,
                             smptree::TrainClassifier(data, serial));
    if (smptree::SerializeTree(*r.tree) != text) {
      result->Fail("MWK tree is not byte-identical to the serial tree");
    }
  } else if (trainer == Trainer::kBinned) {
    SMPTREE_ASSIGN_OR_RETURN(Dataset train,
                             smptree::ReadCsv(schema, files.csv));
    SMPTREE_ASSIGN_OR_RETURN(
        double exact,
        ReferenceAccuracy(Trainer::kExact, train, holdout, nproc));
    result->notes.push_back(StringPrintf(
        "accuracy: binned %.5f, exact %.5f (bound: binned >= exact - 0.005)",
        accuracy, exact));
    if (accuracy < exact - 0.005) {
      result->Fail("binned accuracy is more than 0.5% below exact");
    }
  } else if (trainer == Trainer::kStream) {
    // The batch reference learns from the first shard's kTrainTuples tuples,
    // as many as the other workloads' CSV holds.
    SMPTREE_ASSIGN_OR_RETURN(Dataset train,
                             smptree::ReadBinaryShard(schema, files.shards[0]));
    SMPTREE_ASSIGN_OR_RETURN(
        double binned,
        ReferenceAccuracy(Trainer::kBinned, train, holdout, nproc));
    result->notes.push_back(StringPrintf(
        "accuracy: stream %.5f, binned %.5f (bound: stream >= binned - 0.02)",
        accuracy, binned));
    if (accuracy < binned - 0.02) {
      result->Fail("stream accuracy is more than 2% below binned");
    }
  }
  return Status::OK();
}

/// Writes the next kTrainTuples tuples of `stream` as the CSV WriteCsv would
/// write them, formatting `threads` slices at a time concurrently with
/// ToCsvString. Formatting is nearly all of set-up, and one thread's speed
/// on the measurement host varies by a quarter from minute to minute, while
/// work spread over all cores holds steady (README: "Bounds"). Slices are
/// small and written as they are done, so set-up stays below the passes'
/// peak RSS.
Status WriteTrainCsv(InputStream* stream, int threads,
                     const std::string& path) {
  constexpr int64_t kSliceTuples = 5000;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  bool header_written = false;
  for (int64_t done = 0; done < kTrainTuples;) {
    std::vector<Dataset> slices;
    for (int p = 0; p < threads && done < kTrainTuples; ++p) {
      const int64_t n = std::min(kSliceTuples, kTrainTuples - done);
      SMPTREE_ASSIGN_OR_RETURN(Dataset slice, stream->Take(n));
      slices.push_back(std::move(slice));
      done += n;
    }
    std::vector<std::string> texts(slices.size());
    std::vector<std::thread> workers;
    for (size_t p = 0; p < slices.size(); ++p) {
      workers.emplace_back(
          [&, p] { texts[p] = smptree::ToCsvString(slices[p]); });
    }
    for (std::thread& w : workers) w.join();
    // Every slice's text starts with the header line; the file keeps one.
    for (const std::string& text : texts) {
      const size_t from = header_written ? text.find('\n') + 1 : 0;
      out.write(text.data() + from,
                static_cast<std::streamsize>(text.size() - from));
      header_written = true;
    }
  }
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<Trainer> ParseTrainer(const std::string& workload) {
  if (workload == "train-exact") return Trainer::kExact;
  if (workload == "train-binned") return Trainer::kBinned;
  if (workload == "train-forest") return Trainer::kForest;
  if (workload == "train-stream") return Trainer::kStream;
  return Status::InvalidArgument("unknown workload " + workload);
}

}  // namespace

Result<RunResult> RunTrainWorkload(const RunConfig& config,
                                   SpanRecorder* spans) {
  SMPTREE_ASSIGN_OR_RETURN(Trainer trainer, ParseTrainer(config.workload));
  RunResult result;
  Files files;
  files.schema = config.work_dir + "/train.schema";
  files.csv = config.work_dir + "/train.csv";
  files.model = config.work_dir + "/model.out";
  if (trainer == Trainer::kStream) {
    for (int s = 0; s < kShards; ++s) {
      files.shards.push_back(config.work_dir +
                             StringPrintf("/shard%d.bin", s));
    }
  }
  const std::string train_files =
      trainer == Trainer::kStream
          ? StringPrintf("%lld training tuples as %d binary shards",
                         static_cast<long long>(kStreamTuples), kShards)
          : StringPrintf("%lld training tuples as CSV",
                         static_cast<long long>(kTrainTuples));
  result.notes.push_back(StringPrintf(
      "inputs: F7-A32, %lld held-out tuples, %s; P = %d",
      static_cast<long long>(kHoldoutTuples), train_files.c_str(),
      config.nproc));

  // Set-up, repeated so setup_s is a median: generate the inputs and write
  // the schema and the CSV (train-stream: the shards). The inputs are
  // generated and written a slice or a shard at a time and only the held-out
  // set is kept, so that set-up stays below the passes' peak RSS.
  std::vector<double> setup_s;
  Dataset holdout;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double start = NowSeconds();
    InputStream stream(config.seed);
    SMPTREE_ASSIGN_OR_RETURN(holdout, stream.Take(kHoldoutTuples));
    SMPTREE_RETURN_IF_ERROR(
        smptree::WriteSchemaFile(stream.schema(), files.schema));
    if (trainer != Trainer::kStream) {
      SMPTREE_RETURN_IF_ERROR(WriteTrainCsv(&stream, config.nproc, files.csv));
    }
    for (const std::string& path : files.shards) {
      SMPTREE_ASSIGN_OR_RETURN(const Dataset shard, stream.Take(kTrainTuples));
      SMPTREE_RETURN_IF_ERROR(smptree::WriteBinaryShard(shard, path));
    }
    setup_s.push_back(NowSeconds() - start);
  }
  const double setup_rss_mb = PeakRssMb();
  const smptree::Schema& schema = holdout.schema();

  // Untimed warm-up pass, then timed passes. In a traced run the odd passes
  // are traced and the even ones are not, which measures the overhead.
  spans->set_enabled(false);
  SMPTREE_ASSIGN_OR_RETURN(const Pass warm, TrainPass(trainer, files, schema,
                                                      config.nproc, spans, 0));
  ++result.attempted;
  std::vector<double> pass_s[2];
  std::map<std::string, std::vector<double>> layers;
  const double start = NowSeconds();
  for (int64_t id = 1; static_cast<int>(pass_s[0].size() + pass_s[1].size()) <
                           kMinTimedPasses ||
                       NowSeconds() - start < config.seconds;
       ++id) {
    const int traced = config.trace && id % 2 == 1 ? 1 : 0;
    spans->set_enabled(traced != 0);
    SMPTREE_ASSIGN_OR_RETURN(
        Pass pass, TrainPass(trainer, files, schema, config.nproc, spans, id));
    spans->set_enabled(false);
    ++result.attempted;
    if (pass.text != warm.text) {
      result.Fail("a pass built a different model than the warm-up pass");
    }
    pass_s[traced].push_back(pass.seconds);
    if (traced) {
      for (const auto& [name, value] : pass.layer) {
        layers[name].push_back(value);
      }
    }
  }

  // Read before the untimed checks, whose reference builds would otherwise
  // set the peak.
  const double peak_rss_mb = PeakRssMb();
  const double accuracy = Accuracy(warm.model.local(), holdout);
  SMPTREE_RETURN_IF_ERROR(CheckModel(trainer, files, holdout, config.nproc,
                                     warm.model, accuracy, &result));
  std::string setup_text, pass_text;
  for (double s : setup_s) setup_text += StringPrintf(" %.4f", s);
  for (double p : pass_s[0]) pass_text += StringPrintf(" %.4f", p);
  result.notes.push_back("set-up seconds:" + setup_text);
  result.notes.push_back("untraced pass seconds:" + pass_text);
  result.notes.push_back(StringPrintf(
      "peak RSS: %.1f MB after set-up, %.1f MB after the passes", setup_rss_mb,
      peak_rss_mb));
  if (!config.trace) {
    const double median_s = Median(pass_s[0]);
    const int64_t tuples =
        trainer == Trainer::kStream ? kStreamTuples : kTrainTuples;
    result.Set("setup_s", Median(setup_s));
    result.Set("p50_ms", median_s * 1e3);
    result.Set("tuples_per_s", static_cast<double>(tuples) / median_s);
    result.Set("accuracy", accuracy);
    result.Set("peak_rss_mb", peak_rss_mb);
    return result;
  }
  const double untraced = Median(pass_s[0]), traced = Median(pass_s[1]);
  result.notes.push_back(StringPrintf(
      "tracing overhead: pass untraced %.4f s, traced %.4f s (%+.2f%%)",
      untraced, traced, 100 * (traced - untraced) / untraced));
  for (const auto& [name, values] : layers) result.Set(name, Median(values));
  result.SetBypassed(kServeLayers);
  for (const auto* layer : BypassedLayers(trainer)) result.SetBypassed(*layer);
  return result;
}

}  // namespace perfbench
