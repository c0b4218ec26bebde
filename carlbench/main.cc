// carlbench: the CaRL end-to-end benchmark.
//
//   carlbench --workload <serve_mix|ingest_query> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Human-readable lines first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports the end-to-end metrics, a traced run (--trace 1)
// the per-layer ones. Exits 1 when any served answer differs from the
// direct engine's, 2 on bad arguments. WORKLOADS.md describes the
// workloads and every metric.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"

namespace carlbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "carlbench: %s\nusage: carlbench --workload "
               "<serve_mix|ingest_query> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      flags->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(flags->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      flags->trace = value[0] == '1';
    } else if (key == "--trace-dir") {
      flags->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags->workload.empty();
}

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace carlbench

int main(int argc, char** argv) {
  using namespace carlbench;
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage("bad arguments");

  RunResult (*run)(const Flags&, const Machine&) = nullptr;
  if (flags.workload == "serve_mix") run = RunServeMix;
  if (flags.workload == "ingest_query") run = RunIngestQuery;
  if (run == nullptr) return Usage("unknown workload");

  Machine machine = MeasureMachine();
  std::printf("machine: nproc=%d CARL_THREADS=%s exec_threads=%d "
              "compiler=\"%s\" build=%s effective_parallelism=%.2fx\n",
              machine.nproc, machine.carl_threads.c_str(),
              machine.exec_threads, machine.compiler.c_str(),
              machine.build_type.c_str(), machine.effective_parallelism);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              flags.workload.c_str(),
              static_cast<unsigned long long>(flags.seed), flags.seconds,
              flags.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult result = run(flags, machine);
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "carlbench: metric %s is not finite\n",
                   m.name.c_str());
      return 3;
    }
  }
  PrintResult(result);
  return result.correct ? 0 : 1;
}
