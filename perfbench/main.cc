// perfbench: the end-to-end benchmark binary. perfbench/run.py builds and
// runs it; see perfbench/README.md.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE.json]
//
// Prints the run's context, notes and (traced) per-layer table, then as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}
// with the metric values by name (run.py adds the units).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out F]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty() || config.work_dir.empty() ||
      config.seconds <= 0) {
    return Usage("missing or bad flags");
  }
  ::mkdir(config.work_dir.c_str(), 0755);
  config.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const ServeThreads threads = PlanServeThreads(config.nproc);

  std::printf("# compiler: %s\n# flags: %s\n# build type: %s\n",
              PERFBENCH_COMPILER, PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE);
  std::printf(
      "# workload %s, seed %llu, %.1f s, trace %d; nproc %d, P %d; serving: "
      "%d dispatch + %d engine threads, %d client connections\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, config.nproc, config.nproc,
      threads.dispatch, threads.engine, threads.clients);

  SpanRecorder spans;
  spans.set_enabled(config.trace);
  const bool train = config.workload.rfind("train-", 0) == 0;
  smptree::Result<RunResult> result =
      train ? RunTrainWorkload(config, &spans)
            : config.workload.rfind("serve-", 0) == 0
                  ? RunServeWorkload(config, &spans)
                  : smptree::Result<RunResult>(Status::InvalidArgument(
                        "unknown workload " + config.workload));
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : result->notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (config.trace) {
    for (const std::string& line : spans.LayerTable()) {
      std::printf("# %s\n", line.c_str());
    }
    if (!trace_out.empty()) {
      const Status s = WriteTextFile(trace_out, spans.ChromeJson());
      if (!s.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("# chrome trace written to %s\n", trace_out.c_str());
    }
  }

  std::string metrics;
  for (const auto& [name, value] : result->metrics) {
    metrics += smptree::StringPrintf("%s\"%s\": %.17g",
                                     metrics.empty() ? "" : ", ", name.c_str(),
                                     value);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result->correct ? "true" : "false",
      static_cast<long long>(result->attempted),
      static_cast<long long>(result->failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
