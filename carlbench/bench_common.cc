#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "common/logging.h"
#include "core/engine.h"
#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"
#include "exec/exec_context.h"

namespace carlbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  // The sample at sorted index n - 11 has exactly ten samples above it.
  size_t index = n > 10 ? n - 11 : 0;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

carl::datagen::Dataset MakeMimic(size_t patients, uint64_t seed) {
  carl::datagen::MimicConfig config;
  config.num_patients = patients;
  // The full-size ratio of caregivers to patients (1300 : 40000).
  config.num_caregivers = std::max<size_t>(20, patients * 13 / 400);
  config.seed = seed * 1000003 + 13;
  carl::Result<carl::datagen::Dataset> data =
      carl::datagen::GenerateMimic(config);
  CARL_CHECK_OK(data.status());
  return std::move(*data);
}

carl::datagen::Dataset MakeNis(size_t admissions, uint64_t seed) {
  carl::datagen::NisConfig config;
  config.num_admissions = admissions;
  config.num_hospitals = std::clamp<size_t>(admissions / 100, 40, 1035);
  config.seed = seed * 1000003 + 19;
  carl::Result<carl::datagen::Dataset> data =
      carl::datagen::GenerateNis(config);
  CARL_CHECK_OK(data.status());
  return std::move(*data);
}

carl::datagen::Dataset MakeReview(uint64_t seed) {
  carl::datagen::ReviewConfig config = carl::datagen::RealisticReviewConfig();
  config.seed = seed * 1000003 + 7;
  carl::Result<carl::datagen::ReviewData> data =
      carl::datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  return std::move(data->dataset);
}

DirectAnswer AnswerDirect(const carl::Schema& schema,
                          const carl::Instance* instance,
                          const std::string& program, const std::string& query,
                          uint32_t bootstrap_replicates, uint64_t seed) {
  DirectAnswer direct;
  uint64_t start = NowNs();
  carl::Result<carl::RelationalCausalModel> model =
      carl::RelationalCausalModel::Parse(schema, program);
  direct.parse_model_ms = NsToMs(NowNs() - start);
  if (!model.ok()) {
    direct.answer.code = model.status().code();
    direct.answer.message = model.status().message();
    return direct;
  }
  start = NowNs();
  carl::Result<std::unique_ptr<carl::CarlEngine>> engine =
      carl::CarlEngine::Create(instance, std::move(*model));
  direct.ground_ms = NsToMs(NowNs() - start);
  if (!engine.ok()) {
    direct.answer.code = engine.status().code();
    direct.answer.message = engine.status().message();
    return direct;
  }
  const carl::GroundedModel& grounded = (*engine)->grounded();
  direct.phases = grounded.phase_stats();
  direct.nodes = grounded.graph().num_nodes();
  direct.edges = grounded.graph().num_edges();
  carl::QueryRequest request(query);
  request.options.bootstrap_replicates =
      static_cast<int>(bootstrap_replicates);
  request.options.seed = seed;
  direct.answer = carl::serve::FromQueryResponse((*engine)->Answer(request));
  return direct;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void RegistryWindow::Begin() {
  begin_ = carl::obs::Registry::Global().TakeSnapshot();
}

void RegistryWindow::End() {
  carl::obs::Snapshot end = carl::obs::Registry::Global().TakeSnapshot();
  carl::obs::SnapshotDelta delta(begin_, end);
  for (const carl::obs::MetricSnapshot& metric : end.metrics) {
    if (metric.type != carl::obs::MetricType::kCounter) continue;
    uint64_t moved = delta.CounterDelta(metric.name);
    auto it = std::find_if(totals_.begin(), totals_.end(),
                           [&](const auto& t) { return t.first == metric.name; });
    if (it == totals_.end()) {
      totals_.emplace_back(metric.name, moved);
    } else {
      it->second += moved;
    }
  }
}

uint64_t RegistryWindow::Delta(const char* counter) const {
  for (const auto& [name, value] : totals_) {
    if (name == counter) return value;
  }
  return 0;
}

int Tracer::Add(const char* name, uint64_t request_id, uint64_t start_ns,
                uint64_t end_ns, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, request_id, start_ns, std::max(start_ns, end_ns),
                    parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::AddEngine(int parent, uint64_t request_id, uint64_t start_ns,
                       const carl::QueryTiming& timing) {
  auto ns = [](double s) { return static_cast<uint64_t>(s * 1e9); };
  int engine = Add("engine.answer", request_id, start_ns,
                   start_ns + ns(timing.total_s), parent);
  uint64_t t = start_ns;
  const std::pair<const char*, double> phases[] = {
      {"engine.parse", timing.parse_s},
      {"engine.resolve", timing.resolve_s},
      {"engine.unit_table", timing.unit_table_s},
      {"engine.estimate", timing.estimate_s}};
  for (const auto& [name, seconds] : phases) {
    Add(name, request_id, t, t + ns(seconds), engine);
    t += ns(seconds);
  }
}

void Tracer::AddServed(int parent, uint64_t request_id, uint64_t start_ns,
                       uint64_t end_ns, double queue_ms,
                       const carl::QueryTiming& timing) {
  if (!enabled_) return;
  // Laid out back to back, ending when the response frame was read: queue
  // wait, then the engine's answer. What precedes them inside
  // [start, end) is transport.
  uint64_t window = end_ns > start_ns ? end_ns - start_ns : 0;
  uint64_t engine_ns =
      std::min(window, static_cast<uint64_t>(timing.total_s * 1e9));
  uint64_t engine_start = end_ns - engine_ns;
  uint64_t queue_start =
      engine_start - std::min(engine_start - start_ns,
                              static_cast<uint64_t>(queue_ms * 1e6));
  Add("serve.queue", request_id, queue_start, engine_start, parent);
  AddEngine(parent, request_id, engine_start, timing);
}

namespace {

// Sums self times by key: the span name, or its layer prefix.
std::vector<Tracer::SelfTime> SumBy(
    const std::vector<Tracer::SelfTime>& per_span, bool by_layer) {
  std::map<std::string, double> totals;
  for (const Tracer::SelfTime& s : per_span) {
    std::string key = s.name;
    if (by_layer) key = key.substr(0, key.find('.'));
    totals[key] += s.ms;
  }
  std::vector<Tracer::SelfTime> out;
  for (const auto& [name, ms] : totals) out.push_back({name, ms});
  return out;
}

}  // namespace

std::vector<Tracer::SelfTime> Tracer::SelfByName() const {
  std::vector<double> self_ns(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self_ns[static_cast<size_t>(span.parent)] -=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::vector<SelfTime> per_span;
  for (size_t i = 0; i < spans_.size(); ++i) {
    per_span.push_back({spans_[i].name, std::max(0.0, self_ns[i]) / 1e6});
  }
  return SumBy(per_span, /*by_layer=*/false);
}

std::vector<Tracer::SelfTime> Tracer::SelfByLayer() const {
  return SumBy(SelfByName(), /*by_layer=*/true);
}

double Tracer::TotalMs() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += NsToMs(span.end_ns - span.start_ns);
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // One row per request keeps each request's spans nested visually.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request_id\":%llu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<unsigned long long>(span.request_id % 64),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.request_id),
                 span.parent);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

namespace {

// Iterations of a dependent integer chain a thread completes in
// `seconds`; the loop body cannot be vectorized or folded.
uint64_t Burn(double seconds) {
  uint64_t x = 88172645463325252ull;
  uint64_t iterations = 0;
  uint64_t stop = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iterations += 4096;
  }
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(x, std::memory_order_relaxed);
  return iterations;
}

}  // namespace

Machine MeasureMachine() {
  Machine machine;
  machine.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const char* env = std::getenv("CARL_THREADS");
  machine.carl_threads = env != nullptr ? env : "unset";
  machine.exec_threads = carl::ExecContext::Global().threads();
  machine.compiler = CARLBENCH_COMPILER;
  machine.build_type = CARLBENCH_BUILD_TYPE;

  constexpr double kBurnSeconds = 0.25;
  double single = static_cast<double>(Burn(kBurnSeconds));
  std::vector<uint64_t> counts(static_cast<size_t>(machine.nproc));
  std::vector<std::thread> threads;
  for (int i = 0; i < machine.nproc; ++i) {
    threads.emplace_back(
        [&counts, i] { counts[static_cast<size_t>(i)] = Burn(kBurnSeconds); });
  }
  for (std::thread& t : threads) t.join();
  double all = 0.0;
  for (uint64_t c : counts) all += static_cast<double>(c);
  machine.effective_parallelism = single > 0.0 ? all / single : 0.0;
  return machine;
}

namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool EstimateEqual(const carl::serve::WireEstimate& a,
                   const carl::serve::WireEstimate& b) {
  return BitEqual(a.value, b.value) && BitEqual(a.std_error, b.std_error) &&
         BitEqual(a.ci_low, b.ci_low) && BitEqual(a.ci_high, b.ci_high);
}

}  // namespace

std::string AnswerMismatch(const carl::serve::ServeResponse& got,
                           const carl::serve::ServeResponse& want) {
  if (got.code != want.code) {
    return "status " + std::to_string(static_cast<int>(got.code)) + " (" +
           got.message + ") vs " + std::to_string(static_cast<int>(want.code));
  }
  if (got.kind != want.kind) return "answer kind differs";
  if (!EstimateEqual(got.ate, want.ate)) return "ATE differs";
  if (!EstimateEqual(got.aie, want.aie) || !EstimateEqual(got.are, want.are) ||
      !EstimateEqual(got.aoe, want.aoe) ||
      !EstimateEqual(got.aie_psi, want.aie_psi)) {
    return "relational effects differ";
  }
  if (!BitEqual(got.naive_treated, want.naive_treated) ||
      !BitEqual(got.naive_control, want.naive_control) ||
      !BitEqual(got.naive_diff, want.naive_diff)) {
    return "naive contrast differs";
  }
  if (got.num_units != want.num_units ||
      got.dropped_units != want.dropped_units) {
    return "unit counts differ";
  }
  if (got.relational != want.relational ||
      got.response_attribute != want.response_attribute ||
      got.criterion != want.criterion) {
    return "response attribute or criterion differs";
  }
  return "";
}

void AddEndToEnd(const EndToEnd& e2e, RunResult* result) {
  result->Add("setup_s", e2e.setup_s, "s");
  result->Add("latency_p50_ms", e2e.latency_p50_ms, "ms");
  result->Add("latency_tail_ms", e2e.latency_tail_ms, "ms");
  result->Add("throughput_ops", e2e.throughput_ops, "1/s");
  result->Add("peak_heap_mb", PeakHeapMb(), "MiB");
}

void WriteTrace(const Flags& flags, const Tracer& tracer) {
  std::string path = flags.trace_dir + "/" + flags.workload + "-" +
                     std::to_string(flags.seed) + ".json";
  if (tracer.Write(path)) {
    std::printf("trace: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "carlbench: cannot write %s\n", path.c_str());
  }
}

void AddLayers(const Layers& l, const RegistryWindow& registry,
               uint64_t ops, const HeapCounts& heap, uint64_t heap_ops,
               const Tracer& tracer, const Machine& machine,
               RunResult* result) {
  result->Add("latency_tail_percentile", l.latency_tail_percentile, "%");
  result->Add("max_qps_at_slo", l.max_qps_at_slo, "1/s");
  result->Add("failed_ratio", l.failed_ratio, "ratio");
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
  result->Add("serve.queue_p50_ms", l.queue_p50_ms, "ms");
  result->Add("serve.queue_p99_ms", l.queue_p99_ms, "ms");
  result->Add("serve.transport_p50_ms", l.transport_p50_ms, "ms");
  result->Add("serve.transport_p99_ms", l.transport_p99_ms, "ms");
  result->Add("serve.codec_us", l.codec_us, "us");
  result->Add("serve.coalesced_ratio", l.coalesced_ratio, "ratio");
  result->Add("serve.rejected", l.rejected, "count");
  result->Add("serve.deadline_preempted", l.deadline_preempted, "count");
  result->Add("engine.parse_ms", l.parse_ms, "ms");
  result->Add("engine.resolve_ms", l.resolve_ms, "ms");
  result->Add("engine.unit_table_p50_ms", l.unit_table_p50_ms, "ms");
  result->Add("engine.unit_table_p99_ms", l.unit_table_p99_ms, "ms");
  result->Add("engine.estimate_ms", l.estimate_ms, "ms");
  result->Add("grounding.ground_ms", l.ground_ms, "ms");
  result->Add("grounding.node_build_ms", l.node_build_ms, "ms");
  result->Add("grounding.enumerate_ms", l.enumerate_ms, "ms");
  result->Add("grounding.probe_ms", l.probe_ms, "ms");
  result->Add("grounding.splice_ms", l.splice_ms, "ms");
  result->Add("grounding.finalize_ms", l.finalize_ms, "ms");
  result->Add("grounding.extend_ms", l.extend_ms, "ms");
  result->Add("grounding.nodes", l.nodes, "count");
  result->Add("grounding.edges", l.edges, "count");
  result->Add("lang.parse_model_ms", l.parse_model_ms, "ms");
  result->Add("relational.mutate_ms", l.mutate_ms, "ms");
  result->Add("loadgen.lag_p99_ms", l.lag_p99_ms, "ms");
  result->Add("loadgen.backlog_max", l.backlog_max, "count");

  double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  auto per_op = [&](const char* counter) {
    return static_cast<double>(registry.Delta(counter)) / n;
  };
  uint64_t misses = registry.Delta("query_session.ground_misses");
  uint64_t extends = registry.Delta("query_session.ground_extends");
  result->Add("query_session.ground_full",
              static_cast<double>(misses - std::min(misses, extends)) / n,
              "1/op");
  result->Add("query_session.ground_extends", static_cast<double>(extends) / n,
              "1/op");
  result->Add("query_session.cache_hits",
              per_op("query_session.ground_hits"), "1/op");
  uint64_t bc_hits = registry.Delta("grounding.binding_cache_hits");
  uint64_t bc_lookups =
      bc_hits + registry.Delta("grounding.binding_cache_misses");
  result->Add("query_session.binding_cache_hit_ratio",
              bc_lookups > 0 ? static_cast<double>(bc_hits) /
                                   static_cast<double>(bc_lookups)
                             : 0.0,
              "ratio");
  result->Add("grounding.alloc_events", per_op("storage.alloc_events"),
              "1/op");
  result->Add("exec.morsel_steals", per_op("exec.morsel_steals"), "1/op");
  double heap_n = heap_ops > 0 ? static_cast<double>(heap_ops) : 1.0;
  result->Add("heap.allocs_per_op", static_cast<double>(heap.allocs) / heap_n,
              "1/op");
  result->Add("heap.bytes_per_op", static_cast<double>(heap.bytes) / heap_n,
              "B/op");

  // Self time per layer, as a share of the traced requests' wall time.
  double total = tracer.TotalMs();
  std::vector<Tracer::SelfTime> layers = tracer.SelfByLayer();
  for (const char* layer :
       {"client", "serve", "engine", "grounding", "relational"}) {
    double ms = 0.0;
    for (const Tracer::SelfTime& s : layers) {
      if (s.name == layer) ms = s.ms;
    }
    result->Add(std::string("trace.self_share.") + layer,
                total > 0.0 ? 100.0 * ms / total : 0.0, "%");
  }
  double engine_ms = 0.0;
  double unit_table_ms = 0.0;
  for (const Tracer::SelfTime& s : tracer.SelfByName()) {
    if (s.name.rfind("engine.", 0) == 0) engine_ms += s.ms;
    if (s.name == "engine.unit_table") unit_table_ms = s.ms;
  }
  result->Add("trace.engine_share.unit_table",
              engine_ms > 0.0 ? 100.0 * unit_table_ms / engine_ms : 0.0, "%");
  result->Add("trace.overhead_ratio", l.overhead_ratio, "ratio");

  result->Add("machine.nproc", machine.nproc, "count");
  result->Add("machine.exec_threads", machine.exec_threads, "count");
  result->Add("machine.effective_parallelism", machine.effective_parallelism,
              "x");
}

}  // namespace carlbench
