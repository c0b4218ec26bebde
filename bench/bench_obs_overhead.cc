// Measures the hot-path cost of the carl_obs observability layer: a
// registry counter increment, a disarmed CARL_TRACE_SCOPE (the permanent
// cost of leaving spans compiled into every hot path), and an armed span
// (the cost while a trace session is recording). Each measurement is
// CHECKed against a generous ceiling so an accidental regression — a
// lock, a map lookup, a string build sneaking onto the instrumented
// paths — fails the bench instead of silently taxing the engine.
//
// Reported numbers feed docs/observability.md; the registry-held copies
// are emitted through obs::ToBenchJson, exercising the same snapshot ->
// BENCH_JSON path the engine benches rely on.

#include <cstdio>

#include "bench_timer.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace carl {
namespace {

constexpr char kBenchName[] = "obs_overhead";

// Ceilings, ns/op. An increment is one relaxed RMW (~1-10ns), a disarmed
// span one relaxed load + branch (~1-5ns), an armed span two steady_clock
// reads + a ring write (~50-200ns). The ceilings leave an order of
// magnitude of headroom for slow or sanitized CI machines while still
// catching a lock or allocation landing on the path (microseconds).
constexpr double kMaxCounterNs = 200.0;
constexpr double kMaxDisarmedSpanNs = 200.0;
constexpr double kMaxArmedSpanNs = 20000.0;

double PerOpNs(size_t iters, double seconds) {
  return seconds * 1e9 / static_cast<double>(iters);
}

int Run(const bench::BenchFlags& flags) {
  const size_t iters = flags.quick ? (size_t{1} << 18) : (size_t{1} << 22);
  obs::Registry& registry = obs::Registry::Global();

  // 1. Counter increment: the cost every counter site (a match-index
  // build, a cache hit) pays.
  obs::Counter& counter = registry.GetCounter("bench_obs.scratch_counter");
  obs::MonotonicTimer timer;
  for (size_t i = 0; i < iters; ++i) counter.Increment();
  const double counter_ns = PerOpNs(iters, timer.Seconds());
  CARL_CHECK(counter.value() >= iters) << "counter lost increments";

  // 2. Disarmed span: what the engine pays permanently for having
  // CARL_TRACE_SCOPE on its hot paths. Skipped if the process was
  // launched with CARL_TRACE set (then there is no disarmed state to
  // measure; the armed number below covers it).
  double disarmed_ns = -1.0;
  if (!obs::TraceArmed()) {
    timer.Reset();
    for (size_t i = 0; i < iters; ++i) {
      CARL_TRACE_SCOPE("bench_obs.disarmed");
    }
    disarmed_ns = PerOpNs(iters, timer.Seconds());
  }

  // 3. Armed span: two clock reads + one ring-slot write. The ring drops
  // oldest on overflow, so iters >> capacity is fine.
  const bool armed_here = obs::StartTracing("/tmp/carl_obs_overhead.json");
  timer.Reset();
  for (size_t i = 0; i < iters; ++i) {
    CARL_TRACE_SCOPE("bench_obs.armed");
  }
  const double armed_ns = PerOpNs(iters, timer.Seconds());
  if (armed_here) obs::StopTracingAndWrite();

  std::printf("obs overhead (%zu iterations)\n", iters);
  std::printf("  counter increment : %8.2f ns/op (ceiling %g)\n", counter_ns,
              kMaxCounterNs);
  if (disarmed_ns >= 0.0) {
    std::printf("  span, disarmed    : %8.2f ns/op (ceiling %g)\n",
                disarmed_ns, kMaxDisarmedSpanNs);
  }
  std::printf("  span, armed       : %8.2f ns/op (ceiling %g)\n", armed_ns,
              kMaxArmedSpanNs);

  CARL_CHECK(counter_ns <= kMaxCounterNs)
      << "counter increment regressed: " << counter_ns << " ns/op";
  if (disarmed_ns >= 0.0) {
    CARL_CHECK(disarmed_ns <= kMaxDisarmedSpanNs)
        << "disarmed span regressed: " << disarmed_ns << " ns/op";
  }
  CARL_CHECK(armed_ns <= kMaxArmedSpanNs)
      << "armed span regressed: " << armed_ns << " ns/op";

  // Report through the registry: gauges set here, snapshot drained below
  // through the same ToBenchJson path the engine benches use.
  registry.GetGauge("bench_obs.counter_increment_ns").Set(counter_ns);
  if (disarmed_ns >= 0.0) {
    registry.GetGauge("bench_obs.span_disarmed_ns").Set(disarmed_ns);
  }
  registry.GetGauge("bench_obs.span_armed_ns").Set(armed_ns);
  obs::Snapshot snapshot = registry.TakeSnapshot();
  std::printf("%s", obs::ToBenchJson(snapshot, kBenchName, "",
                                     "bench_obs.counter_increment_ns")
                        .c_str());
  std::printf("%s", obs::ToBenchJson(snapshot, kBenchName, "",
                                     "bench_obs.span_")
                        .c_str());
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
