// carl_obs: metrics registry semantics (interned handles, concurrent
// increments from ParallelFor workers, histogram bucket boundaries,
// snapshots and deltas, counter blocks summed across live and destroyed
// blocks, one owner per name, BENCH_JSON byte format), structured tracing
// (ring overflow oldest-drop, Chrome trace JSON validity and span
// nesting), and CARL_LOG level parsing.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "exec/parallel.h"
#include "fixtures.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace carl {
namespace {

using test_fixtures::ScopedThreads;

TEST(RegistryTest, HandleInterningReturnsSameObject) {
  obs::Registry registry;
  obs::Counter& a = registry.GetCounter("obs_test.interned");
  obs::Counter& b = registry.GetCounter("obs_test.interned");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = registry.GetGauge("obs_test.gauge");
  obs::Gauge& g2 = registry.GetGauge("obs_test.gauge");
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(registry.num_metrics(), 2u);
}

TEST(RegistryTest, HandlesStayStableAcrossGrowth) {
  obs::Registry registry;
  obs::Counter& first = registry.GetCounter("obs_test.first");
  first.Increment();
  // Force the backing deque through many registrations; the original
  // handle must keep counting into the same metric.
  for (int i = 0; i < 200; ++i) {
    registry.GetCounter("obs_test.fill_" + std::to_string(i));
  }
  first.Increment();
  EXPECT_EQ(registry.GetCounter("obs_test.first").value(), 2u);
}

TEST(RegistryTest, ConcurrentIncrementsFromParallelForWorkers) {
  ScopedThreads threads(4);
  obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("obs_test.concurrent");
  obs::Histogram& hist = registry.GetHistogram(
      "obs_test.concurrent_hist", std::vector<double>{0.5});
  constexpr size_t kItems = 100000;
  ParallelFor(ExecContext::Global(), kItems,
              [&](size_t begin, size_t end, size_t) {
                for (size_t i = begin; i < end; ++i) {
                  counter.Increment();
                  hist.Record(i % 2 == 0 ? 0.0 : 1.0);
                }
              });
  EXPECT_EQ(counter.value(), kItems);
  EXPECT_EQ(hist.count(), kItems);
  EXPECT_EQ(hist.bucket_count(0) + hist.bucket_count(1), kItems);
  EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(kItems / 2));
}

TEST(RegistryTest, HistogramBucketBoundaries) {
  obs::Registry registry;
  obs::Histogram& hist = registry.GetHistogram(
      "obs_test.bounds", std::vector<double>{1.0, 10.0, 100.0});
  hist.Record(0.5);    // bucket 0
  hist.Record(1.0);    // bucket 0: v <= bounds[0] is inclusive
  hist.Record(1.0001); // bucket 1
  hist.Record(10.0);   // bucket 1
  hist.Record(100.0);  // bucket 2
  hist.Record(100.5);  // overflow
  hist.Record(1e9);    // overflow
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 2u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 2u);
  EXPECT_EQ(hist.count(), 7u);
}

TEST(RegistryTest, ExponentialBoundsLadder) {
  std::vector<double> bounds = obs::Histogram::ExponentialBounds(1e-6, 4, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(bounds[1], 4e-6);
  EXPECT_DOUBLE_EQ(bounds[2], 1.6e-5);
  EXPECT_DOUBLE_EQ(bounds[3], 6.4e-5);
}

TEST(RegistryTest, SnapshotAndDelta) {
  obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("obs_test.delta");
  registry.GetGauge("obs_test.level").Set(2.5);
  counter.Add(3);
  obs::Snapshot before = registry.TakeSnapshot();
  counter.Add(4);
  obs::Snapshot after = registry.TakeSnapshot();

  EXPECT_EQ(before.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(before.ValueOr("obs_test.level", -1.0), 2.5);
  EXPECT_DOUBLE_EQ(before.ValueOr("obs_test.absent", -1.0), -1.0);
  obs::SnapshotDelta window(before, after);
  EXPECT_EQ(window.CounterDelta("obs_test.delta"), 4u);
  EXPECT_EQ(window.CounterDelta("obs_test.absent"), 0u);
}

// A delta keeps pointers to its snapshots, so one built from a temporary
// would read it after it is destroyed: that must not compile.
static_assert(std::is_constructible_v<obs::SnapshotDelta, obs::Snapshot&,
                                      obs::Snapshot&>);
static_assert(!std::is_constructible_v<obs::SnapshotDelta, obs::Snapshot&&,
                                       const obs::Snapshot&>);
static_assert(!std::is_constructible_v<obs::SnapshotDelta,
                                       const obs::Snapshot&, obs::Snapshot&&>);
static_assert(!std::is_constructible_v<obs::SnapshotDelta, obs::Snapshot&&,
                                       obs::Snapshot&&>);

TEST(RegistryTest, GlobalRegistryHoldsEngineCounters) {
  // The engine registers its counters on first use; a lookup by name
  // reaches the same counter whether or not that use has happened yet.
  obs::Counter& builds =
      obs::Registry::Global().GetCounter("instance.match_index_builds");
  uint64_t before = builds.value();
  builds.Increment();
  EXPECT_EQ(builds.value(), before + 1);
}

// ---------------------------------------------------------------------------
// CounterBlock: counters an object owns, summed by the registry.
// ---------------------------------------------------------------------------

TEST(CounterBlockTest, LiveBlocksSharingANameSum) {
  obs::Registry registry;
  obs::CounterBlock a({"obs_test.block", "obs_test.other"}, registry);
  obs::CounterBlock b({"obs_test.block"}, registry);
  a.Increment(0);
  a.Increment(0);
  a.Increment(1);
  b.Increment(0);
  EXPECT_EQ(a.value(0), 2u);
  EXPECT_EQ(b.value(0), 1u);
  const obs::Snapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(registry.num_metrics(), 2u);
  ASSERT_NE(snapshot.Find("obs_test.block"), nullptr);
  EXPECT_EQ(snapshot.Find("obs_test.block")->type, obs::MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snapshot.ValueOr("obs_test.block", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(snapshot.ValueOr("obs_test.other", -1.0), 1.0);
}

TEST(CounterBlockTest, DestroyedBlockCountsStayInTheTotal) {
  obs::Registry registry;
  obs::CounterBlock kept({"obs_test.block"}, registry);
  kept.Increment(0);
  const obs::Snapshot before = registry.TakeSnapshot();
  {
    obs::CounterBlock gone({"obs_test.block"}, registry);
    gone.Increment(0);
    gone.Increment(0);
  }
  EXPECT_DOUBLE_EQ(registry.TakeSnapshot().ValueOr("obs_test.block", -1.0),
                   3.0);
  kept.Increment(0);
  const obs::Snapshot after = registry.TakeSnapshot();
  EXPECT_DOUBLE_EQ(after.ValueOr("obs_test.block", -1.0), 4.0);
  EXPECT_EQ(obs::SnapshotDelta(before, after).CounterDelta("obs_test.block"),
            3u);
}

TEST(CounterBlockDeathTest, ANameHasOneOwner) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        obs::Registry registry;
        obs::CounterBlock block({"obs_test.owned"}, registry);
        registry.GetCounter("obs_test.owned");
      },
      "owned by counter blocks");
  EXPECT_DEATH(
      {
        obs::Registry registry;
        registry.GetCounter("obs_test.plain");
        obs::CounterBlock block({"obs_test.plain"}, registry);
      },
      "already registered as a plain counter");
}

// Pool threads count into one long-lived block and into blocks of their
// own while another thread takes snapshots and creates and destroys
// blocks: totals never go backwards, and the last snapshot holds every
// increment exactly once.
TEST(CounterBlockTest, ConcurrentIncrementsSnapshotsAndBlockChurn) {
  ScopedThreads threads(4);
  obs::Registry registry;
  constexpr char kName[] = "obs_test.churn";
  obs::CounterBlock shared({kName}, registry);
  std::atomic<bool> done{false};
  uint64_t churned = 0;
  bool monotone = true;
  std::thread churner([&] {
    double last = 0.0;
    do {
      obs::CounterBlock block({kName}, registry);
      block.Increment(0);
      ++churned;
      const double now = registry.TakeSnapshot().ValueOr(kName, 0.0);
      monotone = monotone && now >= last;
      last = now;
    } while (!done.load());
  });
  constexpr size_t kItems = 100000;
  ParallelFor(ExecContext::Global(), kItems,
              [&](size_t begin, size_t end, size_t) {
                obs::CounterBlock own({kName}, registry);
                for (size_t i = begin; i < end; ++i) {
                  shared.Increment(0);
                  own.Increment(0);
                }
              });
  done.store(true);
  churner.join();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(shared.value(0), kItems);
  EXPECT_DOUBLE_EQ(registry.TakeSnapshot().ValueOr(kName, 0.0),
                   static_cast<double>(2 * kItems + churned));
}

TEST(BenchJsonTest, ByteCompatibleFormat) {
  // Byte-identical to the historical bench_timer.h printf lines.
  EXPECT_EQ(obs::BenchJsonLine("table2_runtime", "NIS(sim)", "grounding_s",
                               0.125),
            "BENCH_JSON {\"bench\":\"table2_runtime\",\"label\":\"NIS(sim)\","
            "\"metric\":\"grounding_s\",\"value\":0.125}");
  EXPECT_EQ(obs::BenchJsonLine("table3_real_queries", "", "wall_s", 12.3),
            "BENCH_JSON {\"bench\":\"table3_real_queries\","
            "\"metric\":\"wall_s\",\"value\":12.3}");
  // %g formatting, as printf always produced.
  EXPECT_EQ(obs::BenchJsonLine("b", "", "m", 1234567.0),
            "BENCH_JSON {\"bench\":\"b\",\"metric\":\"m\","
            "\"value\":1.23457e+06}");
}

TEST(BenchJsonTest, ToBenchJsonRendersCountersGaugesHistograms) {
  obs::Registry registry;
  registry.GetCounter("obs_test.c").Add(7);
  registry.GetGauge("obs_test.g").Set(1.5);
  obs::Histogram& h =
      registry.GetHistogram("obs_test.h", std::vector<double>{1.0});
  h.Record(0.5);
  h.Record(2.0);
  std::string out =
      obs::ToBenchJson(registry.TakeSnapshot(), "bench", "lbl", "obs_test.");
  EXPECT_NE(out.find("\"metric\":\"obs_test.c\",\"value\":7"),
            std::string::npos);
  EXPECT_NE(out.find("\"metric\":\"obs_test.g\",\"value\":1.5"),
            std::string::npos);
  EXPECT_NE(out.find("\"metric\":\"obs_test.h_count\",\"value\":2"),
            std::string::npos);
  EXPECT_NE(out.find("\"metric\":\"obs_test.h_sum\",\"value\":2.5"),
            std::string::npos);
}

TEST(LoggingTest, ParseLevel) {
  using logging::Level;
  using logging::ParseLevel;
  EXPECT_EQ(ParseLevel(nullptr), Level::kWarn);
  EXPECT_EQ(ParseLevel(""), Level::kWarn);
  EXPECT_EQ(ParseLevel("info"), Level::kInfo);
  EXPECT_EQ(ParseLevel("INFO"), Level::kInfo);
  EXPECT_EQ(ParseLevel("0"), Level::kInfo);
  EXPECT_EQ(ParseLevel("warn"), Level::kWarn);
  EXPECT_EQ(ParseLevel("Warning"), Level::kWarn);
  EXPECT_EQ(ParseLevel("error"), Level::kError);
  EXPECT_EQ(ParseLevel("off"), Level::kOff);
  EXPECT_EQ(ParseLevel("none"), Level::kOff);
  EXPECT_EQ(ParseLevel("3"), Level::kOff);
  EXPECT_EQ(ParseLevel("garbage"), Level::kWarn);
}

// ---------------------------------------------------------------------------
// Tracing. Tests share the process-global trace state, so each one arms
// its own session (StartTracing resets the rings) and disarms before
// asserting on the written file.
// ---------------------------------------------------------------------------

std::string TempTracePath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "cannot open " << path;
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

// Minimal JSON well-formedness check: balanced braces/brackets outside
// strings, no trailing comma before a closer. Chrome's trace viewer is
// strict about both, and the exporter builds the file with raw fprintf —
// this is the regression net for a misplaced comma.
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  char last_significant = '\0';
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        last_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        last_significant = c;
        break;
      case '}':
      case ']': {
        if (last_significant == ',') return false;  // trailing comma
        if (stack.empty()) return false;
        char open = stack.back();
        stack.pop_back();
        if ((c == '}') != (open == '{')) return false;
        last_significant = c;
        break;
      }
      default:
        if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
          last_significant = c;
        }
        break;
    }
  }
  return stack.empty() && !in_string;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceTest, DisarmedSpansRecordNothing) {
  ASSERT_FALSE(obs::TraceArmed());
  size_t before = obs::TraceRetainedEvents();
  {
    CARL_TRACE_SCOPE("obs_test.disarmed");
  }
  EXPECT_EQ(obs::TraceRetainedEvents(), before);
}

TEST(TraceTest, WritesValidChromeTraceWithNestedSpans) {
  const std::string path = TempTracePath("obs_test_trace.json");
  ASSERT_TRUE(obs::StartTracing(path));
  {
    CARL_TRACE_SCOPE("obs_test.outer");
    {
      CARL_TRACE_SCOPE("obs_test.inner");
      // Ensure a nonzero, strictly-contained duration on coarse clocks.
      obs::MonotonicTimer spin;
      while (spin.ElapsedNs() < 100000) {
      }
    }
  }
  ASSERT_TRUE(obs::StopTracingAndWrite());

  const std::string json = ReadFile(path);
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("obs_test.outer"), std::string::npos);
  EXPECT_NE(json.find("obs_test.inner"), std::string::npos);

  // Nesting: the inner span's [ts, ts+dur) must lie inside the outer's.
  // Parse the two X events by hand (fixed field order from the writer).
  auto event_window = [&json](const std::string& name, double* ts,
                              double* dur) {
    size_t at = json.find("\"name\":\"" + name + "\"");
    ASSERT_NE(at, std::string::npos) << name;
    size_t ts_at = json.find("\"ts\":", at);
    size_t dur_at = json.find("\"dur\":", at);
    ASSERT_NE(ts_at, std::string::npos);
    ASSERT_NE(dur_at, std::string::npos);
    *ts = std::stod(json.substr(ts_at + 5));
    *dur = std::stod(json.substr(dur_at + 6));
  };
  double outer_ts = 0, outer_dur = 0, inner_ts = 0, inner_dur = 0;
  event_window("obs_test.outer", &outer_ts, &outer_dur);
  event_window("obs_test.inner", &inner_ts, &inner_dur);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
  EXPECT_GT(inner_dur, 0.0);
}

TEST(TraceTest, RingOverflowDropsOldestEvents) {
  const std::string path = TempTracePath("obs_test_overflow.json");
  ASSERT_TRUE(obs::StartTracing(path));
  const size_t capacity = obs::TraceRingCapacity();
  {
    CARL_TRACE_SCOPE("obs_test.first_event");
  }
  for (size_t i = 0; i < capacity; ++i) {
    CARL_TRACE_SCOPE("obs_test.filler");
  }
  {
    CARL_TRACE_SCOPE("obs_test.last_event");
  }
  ASSERT_TRUE(obs::StopTracingAndWrite());

  const std::string json = ReadFile(path);
  EXPECT_TRUE(JsonBalanced(json));
  // first_event was pushed out by capacity+1 later events; the tail
  // (including the newest span) survived.
  EXPECT_EQ(json.find("obs_test.first_event"), std::string::npos);
  EXPECT_NE(json.find("obs_test.last_event"), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"obs_test.filler\""),
            capacity - 1);
}

TEST(TraceTest, WorkerSpansLandOnPerWorkerRows) {
  ScopedThreads threads(4);
  ThreadPool& pool = ExecContext::Global().pool();
  const int workers = pool.num_threads();
  ASSERT_GE(workers, 1);

  const std::string path = TempTracePath("obs_test_workers.json");
  ASSERT_TRUE(obs::StartTracing(path));
  // ParallelFor hands chunks out through a shared cursor, so on a loaded
  // machine the calling thread can drain every chunk before a worker
  // wakes. Submit one rendezvous task per worker instead: no task can
  // finish until all have started, so each task necessarily runs on a
  // distinct pool worker and every worker records a span.
  std::atomic<int> started{0};
  std::atomic<int> done{0};
  for (int i = 0; i < workers; ++i) {
    pool.Submit([&, workers] {
      started.fetch_add(1);
      while (started.load() < workers) std::this_thread::yield();
      {
        CARL_TRACE_SCOPE("obs_test.worker_chunk");
      }
      done.fetch_add(1);
    });
  }
  while (done.load() < workers) std::this_thread::yield();
  ASSERT_TRUE(obs::StopTracingAndWrite());

  const std::string json = ReadFile(path);
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("obs_test.worker_chunk"), std::string::npos);
  // Every spawned worker recorded a span, so every per-worker row is
  // labeled by its M event.
  for (int i = 1; i <= workers; ++i) {
    const std::string label =
        "\"args\":{\"name\":\"worker-" + std::to_string(i) + "\"}";
    EXPECT_NE(json.find(label), std::string::npos) << label;
  }
}

TEST(TraceTest, SecondSessionDoesNotReplayFirstSessionEvents) {
  const std::string path1 = TempTracePath("obs_test_s1.json");
  ASSERT_TRUE(obs::StartTracing(path1));
  {
    CARL_TRACE_SCOPE("obs_test.session_one");
  }
  ASSERT_TRUE(obs::StopTracingAndWrite());

  const std::string path2 = TempTracePath("obs_test_s2.json");
  ASSERT_TRUE(obs::StartTracing(path2));
  {
    CARL_TRACE_SCOPE("obs_test.session_two");
  }
  ASSERT_TRUE(obs::StopTracingAndWrite());

  const std::string json = ReadFile(path2);
  EXPECT_EQ(json.find("obs_test.session_one"), std::string::npos);
  EXPECT_NE(json.find("obs_test.session_two"), std::string::npos);
}

TEST(TimerTest, MonotonicTimerMeasuresElapsed) {
  obs::MonotonicTimer timer;
  while (timer.ElapsedNs() < 1000000) {
  }
  EXPECT_GE(timer.Seconds(), 0.001);
  timer.Reset();
  EXPECT_LT(timer.Seconds(), 0.5);
}

}  // namespace
}  // namespace carl
