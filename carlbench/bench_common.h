// Shared plumbing of the carlbench workloads: clocks, order statistics,
// the heap-counting hook's counters, process memory, the in-memory span
// recorder of traced runs, machine facts, and the JSON result line a run
// ends with.

#ifndef CARLBENCH_BENCH_COMMON_H_
#define CARLBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/dataset.h"
#include "obs/metrics.h"
#include "serve/wire.h"

namespace carlbench {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_dir = ".bench_build/traces";
};

/// Monotonic clock, nanoseconds since an arbitrary process-wide origin.
uint64_t NowNs();
inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Value at quantile q (0..1) of `values` by nearest rank; sorts a copy.
double Quantile(std::vector<double> values, double q);

/// The highest percentile that still has at least ten samples above it
/// (the largest tail the sample supports), and its value.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
};
Tail TailOf(std::vector<double> values);

/// Allocation totals since process start, from the operator new hook in
/// heap_hook.cc (every thread, library code included).
struct HeapCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
HeapCounts HeapNow();

/// The most heap memory, in MiB, that operator new had handed out and
/// not yet taken back at any one time since process start.
double PeakHeapMb();

/// Peak resident set size of this process, MiB (VmHWM). It moves with
/// how the allocator's per-thread arenas happen to fill, so it is
/// printed, not reported.
double PeakRssMb();

/// Counter movement of the global obs registry over a set of windows.
class RegistryWindow {
 public:
  void Begin();
  void End();
  /// Summed over every Begin/End pair so far.
  uint64_t Delta(const char* counter) const;

 private:
  carl::obs::Snapshot begin_;
  std::vector<std::pair<std::string, uint64_t>> totals_;
};

/// Spans of a traced run, kept in memory and written once at the end.
/// Every span names its layer as the prefix before the first '.', and
/// carries the request it belongs to and the index of its parent span
/// (-1 for a root). Children of one parent do not overlap, so a span's
/// self time is its duration minus its children's.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Records [start_ns, end_ns) and returns its index (-1 when disabled).
  int Add(const char* name, uint64_t request_id, uint64_t start_ns,
          uint64_t end_ns, int parent = -1);

  /// Server-side intervals of one served request inside the client's
  /// [start_ns, end_ns) (request written to response read), rebuilt
  /// from the response: queue wait, then the engine phases — back to
  /// back, ending at end_ns. The rest of the interval is transport, the
  /// parent's self time.
  void AddServed(int parent, uint64_t request_id, uint64_t start_ns,
                 uint64_t end_ns, double queue_ms,
                 const carl::QueryTiming& timing);

  /// Engine phases of one QueryTiming under `parent`, from `start_ns`.
  void AddEngine(int parent, uint64_t request_id, uint64_t start_ns,
                 const carl::QueryTiming& timing);

  /// Self time per layer and per span name, in ms.
  struct SelfTime {
    std::string name;
    double ms = 0.0;
  };
  std::vector<SelfTime> SelfByLayer() const;
  std::vector<SelfTime> SelfByName() const;
  double TotalMs() const;

  /// Writes Chrome trace-event JSON; false when the file cannot be made.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request_id;
    uint64_t start_ns;
    uint64_t end_ns;
    int parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// One measured metric of the JSON result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The machine facts recorded with every run.
struct Machine {
  int nproc = 0;
  std::string carl_threads;  // the CARL_THREADS environment, or "unset"
  int exec_threads = 0;      // the engine's resolved pool width
  std::string compiler;
  std::string build_type;
  double effective_parallelism = 0.0;  // nproc-way CPU burn vs one thread
};
Machine MeasureMachine();

/// Bitwise comparison of every answer field of two responses (status,
/// estimates, contrasts, counts, attribute); timing and queue fields are
/// not part of an answer. Returns an empty string on a match.
std::string AnswerMismatch(const carl::serve::ServeResponse& got,
                           const carl::serve::ServeResponse& want);

/// The end-to-end metrics of an untraced run (BENCHMARK.json
/// "end_to_end"), identical in name and unit on every workload.
struct EndToEnd {
  double setup_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double throughput_ops = 0.0;
};
void AddEndToEnd(const EndToEnd& e2e, RunResult* result);

/// The per-layer metrics of a traced run (BENCHMARK.json "per_layer")
/// that a workload measures itself. A layer a workload does not
/// exercise stays 0. AddLayers adds the registry counters per op over
/// `ops`, the heap counts per op over `heap_ops`, the self times, and the
/// machine facts.
struct Layers {
  double latency_tail_percentile = 0.0;
  /// serve_mix's ladder result (0 on the closed-loop workloads).
  double max_qps_at_slo = 0.0;
  double failed_ratio = 0.0;
  double queue_p50_ms = 0.0, queue_p99_ms = 0.0;
  double transport_p50_ms = 0.0, transport_p99_ms = 0.0;
  double codec_us = 0.0;
  double coalesced_ratio = 0.0, rejected = 0.0, deadline_preempted = 0.0;
  double parse_ms = 0.0, resolve_ms = 0.0;
  double unit_table_p50_ms = 0.0, unit_table_p99_ms = 0.0;
  double estimate_ms = 0.0;
  double ground_ms = 0.0, node_build_ms = 0.0, enumerate_ms = 0.0;
  double probe_ms = 0.0, splice_ms = 0.0, finalize_ms = 0.0;
  double extend_ms = 0.0;
  double nodes = 0.0, edges = 0.0;
  double parse_model_ms = 0.0;
  double mutate_ms = 0.0;
  double lag_p99_ms = 0.0, backlog_max = 0.0;
  /// Mean latency of traced operations over untraced ones in the same
  /// run (the run traces alternating blocks of operations).
  double overhead_ratio = 1.0;
};
void AddLayers(const Layers& layers, const RegistryWindow& registry,
               uint64_t ops, const HeapCounts& heap, uint64_t heap_ops,
               const Tracer& tracer, const Machine& machine,
               RunResult* result);

/// Writes the tracer's spans to <trace_dir>/<workload>-<seed>.json.
void WriteTrace(const Flags& flags, const Tracer& tracer);

/// Median of a small set of repeated set-up timings.
double Median(std::vector<double> values);

/// The workloads repeat one unit of identical work (an episode of steps,
/// a cycle of requests) and time every position of it on every repeat.
/// The host lends this machine a speed that switches between a fast and
/// a slow mode (about 1.6x apart) within seconds, in proportions that
/// change from minute to minute, and interference only ever adds time.
/// So a position's time is the fastest of its repeats (a rate, the
/// highest): the work's speed on the host's fast mode, which moves with
/// the program, not with the neighbours.
inline double FastestTime(const std::vector<double>& repeats) {
  return *std::min_element(repeats.begin(), repeats.end());
}
inline double FastestRate(const std::vector<double>& repeats) {
  return *std::max_element(repeats.begin(), repeats.end());
}

/// The generated datasets the workloads run on, sized by count and
/// seeded from the benchmark seed.
carl::datagen::Dataset MakeMimic(size_t patients, uint64_t seed);
carl::datagen::Dataset MakeNis(size_t admissions, uint64_t seed);
carl::datagen::Dataset MakeReview(uint64_t seed);

/// A fresh direct answer: parse `program`, create an engine over a
/// private session (a full ground), answer `query` with the options the
/// serving layer would use. The reference every served answer must
/// match bit for bit.
struct DirectAnswer {
  carl::serve::ServeResponse answer;
  double parse_model_ms = 0.0;
  double ground_ms = 0.0;  // CarlEngine::Create: the full ground
  carl::GroundingPhaseStats phases;
  size_t nodes = 0;
  size_t edges = 0;
};
DirectAnswer AnswerDirect(const carl::Schema& schema,
                          const carl::Instance* instance,
                          const std::string& program, const std::string& query,
                          uint32_t bootstrap_replicates, uint64_t seed);

// Workload entry points (one file each).
RunResult RunServeMix(const Flags& flags, const Machine& machine);
RunResult RunIngestQuery(const Flags& flags, const Machine& machine);

}  // namespace carlbench

#endif  // CARLBENCH_BENCH_COMMON_H_
